#pragma once
// FLOWREROUTE (Sec. III-B "Alert from Outer Switches"): when a shim
// detects congestion at an outer switch, it moves a portion of the
// conflicting flows from its local VMs onto paths that avoid the hot
// switch. Rerouting is cheaper than migration, so shims try it first.

#include <span>
#include <vector>

#include "net/flow.hpp"
#include "net/routing.hpp"

namespace sheriff::net {

struct RerouteReport {
  std::size_t candidates = 0;  ///< conflicting, non-delay-sensitive flows
  std::size_t rerouted = 0;    ///< successfully moved off the hot switch
};

/// Reroutes up to ceil(fraction * candidates) flows that transit
/// `hot_switch` through `router`, preferring the largest-demand flows
/// (moving elephants relieves the most load). Delay-sensitive flows are
/// left alone, and a flow with no path around the switch keeps its route.
RerouteReport reroute_around(Router& router, std::span<Flow> flows, topo::NodeId hot_switch,
                             double fraction);

}  // namespace sheriff::net

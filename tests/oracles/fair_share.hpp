#pragma once
// The from-scratch max–min fair share: resolves every flow's path into
// link ids and runs level-by-level progressive filling over the whole
// fabric. Simple, allocation-heavy, O(levels × fabric) per call. It is the
// reference every fair-share differential test compares the engine's
// net::FairShareSolver against (DESIGN.md §7).

#include <span>

#include "net/fair_share.hpp"
#include "net/flow.hpp"
#include "topology/liveness.hpp"
#include "topology/topology.hpp"

namespace sheriff::oracle {

/// Computes the max–min fair allocation; also writes each flow's
/// allocated_gbps. Unrouted flows get rate zero. With a liveness mask,
/// flows whose path crosses a dead link/node are also rated zero, as the
/// engine's solver rates them.
net::FairShareResult max_min_fair_share(const topo::Topology& topo, std::span<net::Flow> flows,
                                        const topo::LivenessMask* liveness = nullptr);

}  // namespace sheriff::oracle

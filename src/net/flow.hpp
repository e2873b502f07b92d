#pragma once
// Flow abstraction for the flow-level network simulator. A flow is an
// aggregate host-to-host transfer with a demand; the fair-share allocator
// assigns it a rate, and switches along its path see its load.
//
// A route is a node path plus the link ids joining consecutive nodes.
// Router::route writes both during its walk, and every other writer
// (unroute, reroute_around's restore, the FLOW checkpoint load) keeps them
// in step, so readers — the fair-share solve, the fault teardown — take
// link ids as given instead of resolving hops.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "topology/entities.hpp"

namespace sheriff::net {

using FlowId = std::uint32_t;

/// DSCP congestion signal carried in the IP header DS field (Sec. III-B):
/// switches mark flows that traverse a congested point.
enum class DscpMark : std::uint8_t { kNone = 0, kCongested = 1 };

struct Flow {
  FlowId id = 0;
  topo::NodeId src_host = topo::kInvalidNode;
  topo::NodeId dst_host = topo::kInvalidNode;
  double demand_gbps = 0.0;
  bool delay_sensitive = false;
  DscpMark dscp = DscpMark::kNone;
  std::vector<topo::NodeId> path;  ///< node sequence src ... dst (may be empty = unrouted)
  /// links[i] joins path[i] and path[i + 1] (Topology::link_between order):
  /// one entry fewer than a routed path's nodes, empty when unrouted.
  std::vector<topo::LinkId> links;
  double allocated_gbps = 0.0;     ///< set by the fair-share allocator
  /// QCN reaction-point limit (infinity = unlimited); the allocator caps
  /// the flow at min(demand, rate_limit).
  double rate_limit_gbps = std::numeric_limits<double>::infinity();

  /// Demand after QCN rate limiting.
  [[nodiscard]] double effective_demand() const noexcept {
    return demand_gbps < rate_limit_gbps ? demand_gbps : rate_limit_gbps;
  }

  [[nodiscard]] bool routed() const noexcept { return path.size() >= 2; }
  /// Drops the route: path and links together (capacity is kept).
  void unroute() noexcept {
    path.clear();
    links.clear();
  }
  /// The nodes strictly inside the path (its transit switches), in path order.
  [[nodiscard]] std::span<const topo::NodeId> interior() const noexcept {
    if (path.size() < 3) return {};
    return {path.data() + 1, path.size() - 2};
  }
  /// True when `node` lies strictly inside the path (a transit switch).
  [[nodiscard]] bool transits(topo::NodeId node) const noexcept;
};

}  // namespace sheriff::net

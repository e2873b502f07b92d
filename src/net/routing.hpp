#pragma once
// Shortest-path routing with ECMP spreading. Paths are shortest in hops on
// the wired graph; among equal-cost parents the router picks
// deterministically by a per-flow hash, which spreads flows over the
// fabric the way ECMP hashing does.
//
// The router holds the live fabric once, as a graph::HopGraph (CSR rows
// sorted ascending, parallel links collapsed). A shortest-path tree is a
// BFS hop-level array over it, one byte per node: the ECMP walk derives
// each step's tight parents on the fly — the neighbors one level closer to
// the root, in ascending order, which is the parent order Dijkstra's heap
// loop records — so no per-node parent lists are built or stored.
//
// The router optionally carries a topo::LivenessMask: dead links/nodes are
// dropped from the hop graph and a per-node component labelling is
// recomputed (only when the mask's version changes — fault events are
// rare, routing queries are not), giving O(1) reachability checks while
// the fabric is degraded.
//
// Caching: one flat table of unblocked level arrays, one per root, filled
// on a root's first query and dropped only when the liveness version
// moves, so an array a concurrent route() walks stays put. Every query
// walks its root's levels and writes the flow's node path and link ids;
// no resolved path is kept. A blocked query repairs its root's levels into
// a per-thread array (graph::hop_levels_without) instead of searching. A
// cached or repaired array routes exactly as a fresh BFS would
// (Routing.MatchesDijkstraOracleOnEveryFabric).

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "graph/hop_levels.hpp"
#include "net/flow.hpp"
#include "topology/liveness.hpp"
#include "topology/topology.hpp"

namespace sheriff::obs {
class MetricRegistry;
}

namespace sheriff::net {

/// Cumulative level-table counters, published as `router.*` gauges.
struct RouterCacheStats {
  std::size_t tree_hits = 0;    ///< queries whose root's unblocked levels were cached
  std::size_t tree_misses = 0;  ///< full hop-level BFS runs (a root's first query per epoch)
  std::size_t repairs = 0;      ///< blocked queries answered by repairing the root's levels
  /// No resolved path is cached: `path_hits` stays 0 and `path_misses`
  /// counts every query past the endpoint and reachability checks. Kept
  /// for perfbench's `net.router.path_hit_ratio`.
  std::size_t path_hits = 0;
  std::size_t path_misses = 0;
  std::size_t evictions = 0;  ///< wholesale level-table clears (liveness changes)
};

class Router {
 public:
  /// The topology must outlive the router.
  explicit Router(const topo::Topology& topo);

  /// Attaches (or detaches, with nullptr) a liveness mask; the mask must
  /// outlive the router. Triggers a hop-graph + reachability recompute.
  void apply_liveness(const topo::LivenessMask* liveness);

  /// Re-checks the attached mask's version and recomputes the hop graph
  /// and component labels if fault events happened since the last call.
  /// Returns true when a recompute ran.
  bool refresh_liveness();

  /// True when both nodes are up and connected through live links.
  [[nodiscard]] bool reachable(topo::NodeId a, topo::NodeId b) const;
  [[nodiscard]] bool node_live(topo::NodeId node) const;

  /// Routes `flow`: fills flow.path and flow.links. `blocked` nodes (any
  /// order) are excluded — pass the hot switches when rerouting
  /// (FLOWREROUTE). Returns false when no path exists under the blocks
  /// (path and links left empty).
  bool route(Flow& flow, std::span<const topo::NodeId> blocked = {}) const;

  /// Routes every flow in place; returns the number successfully routed.
  std::size_t route_all(std::span<Flow> flows) const;

  /// Number of distinct shortest paths between two hosts (diagnostics).
  [[nodiscard]] std::size_t shortest_path_count(topo::NodeId src, topo::NodeId dst) const;

  [[nodiscard]] const RouterCacheStats& cache_stats() const noexcept { return cache_stats_; }

  /// Publishes the cumulative cache stats as `router.*` gauges.
  void publish_metrics(obs::MetricRegistry& registry) const;

 private:
  void rebuild();
  /// The unblocked hop levels out of `root`: its table entry, built by a
  /// BFS on the root's first query. The view stays valid until the next
  /// liveness change.
  std::span<const graph::HopLevel> levels_for(topo::NodeId root) const;
  /// Fills flow.path and flow.links by walking back from the destination
  /// to `root`, hashing over each step's tight parents (ECMP); see
  /// routing.cpp. Returns false (route untouched) when the destination is
  /// unreached.
  bool walk_ecmp(std::span<const graph::HopLevel> levels, topo::NodeId root, Flow& flow) const;

  const topo::Topology* topo_;
  const topo::LivenessMask* liveness_ = nullptr;
  std::uint64_t liveness_version_ = 0;
  graph::HopGraph hops_;  ///< the live hop graph
  std::vector<std::uint32_t> component_;  ///< live-graph component label per node

  // --- level table (logically const; guarded for concurrent route() calls) --
  mutable std::mutex cache_mutex_;
  /// Unblocked levels per root, indexed by NodeId (empty = not built yet).
  /// rebuild() sizes the table to the node count, so a filled array never
  /// moves while another route() reads it.
  mutable std::vector<std::vector<graph::HopLevel>> root_levels_;
  mutable RouterCacheStats cache_stats_;
};

}  // namespace sheriff::net

#pragma once
// Shortest-path routing with ECMP spreading. Paths are shortest in hops on
// the wired graph; among equal-cost parents the router picks
// deterministically by a per-flow hash, which spreads flows over the
// fabric the way ECMP hashing does.
//
// The router owns no routing table. It reads the fabric's published ones
// (Topology::distance_rows()): the hop CSR, whose sorted rows carry each
// neighbor's link id, and each root's pristine BFS hop levels. The ECMP
// walk derives each step's tight parents on the fly — the neighbors one
// level closer to the root, in ascending order, the parent order
// Dijkstra's heap loop records — and takes the link id beside the one it
// picks.
//
// Faults and FLOWREROUTE's blocked switches take one path: when the
// attached topo::LivenessMask has anything down or the query blocks
// switches, graph::hop_levels_without repairs the root's pristine levels
// under a cut of the blocked switches and the unusable links (a failed
// node enters only as its links), and the walk skips the removed links.
// BFS levels are unique, so a repaired array routes exactly as a fresh BFS
// of the live graph would (Routing.MatchesDijkstraOracleOnEveryFabric).
//
// A router belongs to one engine and is used from one thread; the tables
// it reads are shared by every router on the topology.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/hop_levels.hpp"
#include "net/flow.hpp"
#include "topology/distance_rows.hpp"
#include "topology/liveness.hpp"
#include "topology/topology.hpp"

namespace sheriff::net {

/// One router's cumulative counters. They depend on which router on a
/// fabric asked for a root first, so they stay out of the metric registry.
struct RouterCacheStats {
  std::size_t tree_hits = 0;    ///< queries whose root's levels were already published
  std::size_t tree_misses = 0;  ///< full hop-level BFS runs this router published
  std::size_t repairs = 0;      ///< queries answered from repaired levels (faults or blocks)
  /// No resolved path is cached: `path_hits` stays 0 and `path_misses`
  /// counts every query past the endpoint checks. Kept for perfbench's
  /// `net.router.path_hit_ratio`.
  std::size_t path_hits = 0;
  std::size_t path_misses = 0;
};

class Router {
 public:
  /// The topology must outlive the router and stay unchanged while it lives.
  explicit Router(const topo::Topology& topo);

  /// Attaches (or detaches, with nullptr) a liveness mask; the mask must
  /// outlive the router. Rebuilds the cut of unusable links.
  void apply_liveness(const topo::LivenessMask* liveness);

  /// Re-checks the attached mask's version and rebuilds the cut if fault
  /// events happened since the last call. Returns true when it rebuilt.
  bool refresh_liveness();

  /// Routes `flow`: fills flow.path and flow.links. `blocked` nodes (any
  /// order) are excluded — pass the hot switches when rerouting
  /// (FLOWREROUTE). Returns false when no path exists on the live fabric
  /// under the blocks (path and links left empty).
  bool route(Flow& flow, std::span<const topo::NodeId> blocked = {});

  /// Routes every flow in place; returns the number successfully routed.
  std::size_t route_all(std::span<Flow> flows);

  /// Number of distinct shortest paths between two nodes on the live
  /// fabric (diagnostics).
  [[nodiscard]] std::size_t shortest_path_count(topo::NodeId src, topo::NodeId dst);

  [[nodiscard]] const RouterCacheStats& cache_stats() const noexcept { return cache_stats_; }

 private:
  /// The hop levels out of `root` on the live fabric minus `blocked`: the
  /// published pristine levels, or, when the mask has anything down or
  /// `blocked` is not empty, their repair in `repaired_` (valid until the
  /// next query).
  std::span<const graph::HopLevel> live_levels(topo::NodeId root,
                                               std::span<const topo::NodeId> blocked);
  /// Fills flow.path and flow.links by walking back from the destination
  /// to `root`, hashing over each step's tight parents (ECMP); see
  /// routing.cpp. Returns false (route untouched) when the destination is
  /// unreached.
  bool walk_ecmp(std::span<const graph::HopLevel> levels, topo::NodeId root, Flow& flow) const;

  const topo::Topology* topo_;
  const topo::DistanceRows* tables_;  ///< the topology's published tables
  const topo::LivenessMask* liveness_ = nullptr;
  std::uint64_t liveness_version_ = 0;
  /// The mask's cut: per link id, 1 when the link is unusable (empty while
  /// nothing is down), and both endpoints of every such link.
  std::vector<std::uint8_t> removed_links_;
  std::vector<topo::NodeId> removed_ends_;
  RouterCacheStats cache_stats_;
  /// The last repair's levels and the repair's buffers, reused by every
  /// repairing query so that a warm one allocates nothing.
  std::vector<graph::HopLevel> repaired_;
  graph::HopRepairScratch repair_scratch_;
};

}  // namespace sheriff::net

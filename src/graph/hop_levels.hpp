#pragma once
// Unit-weight shortest paths as BFS hop levels. On a hop-count graph the
// tight predecessors of v (the ECMP parents every shortest path to v may
// step through) are exactly v's neighbors one level closer to the root, so
// one narrow level per vertex carries the whole shortest-path DAG: parents
// are derived on demand instead of stored as a list per vertex.
//
// Parent order matters to the router, whose ECMP walk indexes the parent
// list with a per-flow salt. HopGraph rows are sorted ascending, so the
// derived parents come out in ascending vertex order — the order in which
// the heap Dijkstra that keeps every parent (the test oracle in
// tests/oracles/shortest_paths.hpp) records them on a unit-weight graph (it
// pops (distance, vertex) pairs lexicographically, so one level's vertices
// are settled in ascending id order). tests/test_graph_properties.cpp pins
// levels and derived parent lists against that heap loop, with and
// without a blocked set.
//
// Blocked sets (FLOWREROUTE's probes) need no search of their own: BFS
// levels are unique, so the levels of g minus a few vertices follow from
// g's own levels by re-leveling only the vertices whose every shortest path
// crossed a blocked one (hop_levels_without). Since the ECMP walk reads
// nothing but levels, a repaired array routes exactly as a fresh BFS would.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace sheriff::graph {

/// Hop distance from the BFS root. One byte per vertex keeps a cached
/// level array 8× smaller than a double distance row; hop_levels_into and
/// hop_levels_without refuse graphs whose levels would not fit.
using HopLevel = std::uint8_t;
/// Level of a vertex the BFS never reached (unreachable or blocked).
inline constexpr HopLevel kUnreachedLevel = std::numeric_limits<HopLevel>::max();

/// Unweighted adjacency in compressed sparse row form. Each row is sorted
/// ascending and free of duplicates: parallel edges collapse into one
/// neighbor, as they do in the oracle Dijkstra's parent lists.
class HopGraph {
 public:
  explicit HopGraph(const Graph& g);

  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Row of `v` (unchecked: the BFS and the router's walk call this per
  /// step, always with v < vertex_count()).
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return {targets_.data() + offsets_[v], targets_.data() + offsets_[v + 1]};
  }

 private:
  std::vector<std::uint32_t> offsets_;  ///< row v is targets_[offsets_[v], offsets_[v + 1])
  std::vector<Vertex> targets_;
};

/// BFS from `source`, writing each vertex's hop level into `levels`
/// (resized to the vertex count).
void hop_levels_into(const HopGraph& g, Vertex source, std::vector<HopLevel>& levels);

/// The hop levels of `g` with the `blocked` vertices removed, repaired
/// from `base` = hop_levels_into(g, root) instead of a fresh BFS: `levels`
/// (resized to the vertex count) equals the BFS of g minus `blocked` from
/// the same root. Blocked vertices get no level, so they are never anyone's
/// parent; a blocked root leaves every vertex unreached. `blocked` may hold
/// duplicates, unreached vertices and the root, in any order.
///
/// Removing vertices only lengthens paths, so a vertex keeps its level
/// unless every tight parent is blocked or itself loses its level. The
/// repair finds those *affected* vertices by a sweep in ascending base level
/// seeded at the blocked vertices' tight children, then re-levels only them
/// with a bucket BFS seeded at each one's best unaffected, unblocked
/// neighbor. Cost is the level copy plus the degrees of the vertices it
/// visits; the worst case is O(n + m), like the BFS. Throws (as the BFS
/// would) when a repaired level would not fit a HopLevel. Its scratch is
/// per thread and reused, so repairs on one thread stop allocating once
/// the buffers have grown.
void hop_levels_without(const HopGraph& g, std::span<const HopLevel> base,
                        std::span<const Vertex> blocked, std::vector<HopLevel>& levels);

/// Number of tight parents of `v`: its neighbors one level closer to the
/// root. Zero for the root and for unreached vertices.
[[nodiscard]] std::size_t tight_parent_count(const HopGraph& g, std::span<const HopLevel> levels,
                                             Vertex v);

/// The `index`-th tight parent of `v` in ascending vertex order
/// (index < tight_parent_count).
[[nodiscard]] Vertex tight_parent(const HopGraph& g, std::span<const HopLevel> levels, Vertex v,
                                  std::size_t index);

/// Number of distinct shortest paths from the root to `target`, capped at
/// `cap` — the count the oracle tree's path_count gives on the same graph.
/// Zero when `target` is unreached.
[[nodiscard]] std::size_t hop_path_count(const HopGraph& g, std::span<const HopLevel> levels,
                                         Vertex target, std::size_t cap = 1'000'000);

}  // namespace sheriff::graph

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
// graph::dijkstra's heap loop records them on a unit-weight graph (it pops
// (distance, vertex) pairs lexicographically, so one level's vertices are
// settled in ascending id order). tests/test_graph_properties.cpp pins
// levels and derived parent lists against the heap loop.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace sheriff::graph {

/// Hop distance from the BFS root. One byte per vertex keeps a cached
/// level array 8× smaller than a double distance row; hop_levels_into
/// refuses graphs whose levels would not fit.
using HopLevel = std::uint8_t;
/// Level of a vertex the BFS never reached (unreachable or blocked).
inline constexpr HopLevel kUnreachedLevel = std::numeric_limits<HopLevel>::max();

/// Unweighted adjacency in compressed sparse row form. Each row is sorted
/// ascending and free of duplicates: parallel edges collapse into one
/// neighbor, as they do in graph::dijkstra's parent lists.
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
/// (resized to the vertex count). Blocked vertices get no level, so they
/// are never anyone's parent; a blocked source leaves every vertex
/// unreached.
void hop_levels_into(const HopGraph& g, Vertex source, std::span<const Vertex> blocked,
                     std::vector<HopLevel>& levels);

/// Number of tight parents of `v`: its neighbors one level closer to the
/// root. Zero for the root and for unreached vertices.
[[nodiscard]] std::size_t tight_parent_count(const HopGraph& g, std::span<const HopLevel> levels,
                                             Vertex v);

/// The `index`-th tight parent of `v` in ascending vertex order
/// (index < tight_parent_count).
[[nodiscard]] Vertex tight_parent(const HopGraph& g, std::span<const HopLevel> levels, Vertex v,
                                  std::size_t index);

/// Number of distinct shortest paths from the root to `target`, capped at
/// `cap` — the count ShortestPathTree::path_count gives on the same graph.
/// Zero when `target` is unreached.
[[nodiscard]] std::size_t hop_path_count(const HopGraph& g, std::span<const HopLevel> levels,
                                         Vertex target, std::size_t cap = 1'000'000);

}  // namespace sheriff::graph

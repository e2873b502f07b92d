#pragma once
// Single-source shortest paths on weighted graphs, with ECMP tie tracking:
// a fabric's distance rows (topology/distance_rows.hpp, compacted from one
// run each) and the k-median planner's per-ToR sweep need only the paths
// out of one node, not all-pairs Floyd–Warshall.
// Hop-count routing uses graph/hop_levels.hpp instead.

#include <vector>

#include "graph/graph.hpp"

namespace sheriff::graph {

struct ShortestPathTree {
  std::vector<double> distance;               ///< from the source
  std::vector<std::vector<Vertex>> parents;   ///< all tight predecessors (ECMP)

  /// One shortest path source→target (deterministic: lowest-id parents);
  /// empty if unreachable.
  [[nodiscard]] std::vector<Vertex> path_to(Vertex target) const;

  /// Number of distinct shortest paths to `target` (capped at `cap` to
  /// avoid overflow on highly redundant fabrics).
  [[nodiscard]] std::size_t path_count(Vertex target, std::size_t cap = 1'000'000) const;
};

/// Dijkstra from `source`; `blocked[v] == true` removes v from the graph
/// (used by FLOWREROUTE to route around hot switches). `blocked` may be
/// empty meaning nothing is blocked.
ShortestPathTree dijkstra(const Graph& g, Vertex source, const std::vector<bool>& blocked = {});

/// Same, writing into `out` so repeated runs (the k-median planner's
/// per-ToR sweep) reuse the tree's allocations instead of rebuilding them
/// per call.
void dijkstra_into(const Graph& g, Vertex source, const std::vector<bool>& blocked,
                   ShortestPathTree& out);

}  // namespace sheriff::graph

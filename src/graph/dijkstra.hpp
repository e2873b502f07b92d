#pragma once
// Single-source shortest paths on weighted graphs: a fabric's distance
// rows (topology/distance_rows.hpp) and the k-median planner's masked
// per-ToR sweep need only the paths out of one node, not all-pairs
// Floyd–Warshall. A run keeps, per vertex, the distance and the lowest-id
// tight predecessor, the one parent a row's path_to follows.
// Hop-count routing uses graph/hop_levels.hpp instead. The ECMP version
// that keeps every tight predecessor is a test oracle
// (tests/oracles/shortest_paths.hpp).

#include <vector>

#include "graph/graph.hpp"

namespace sheriff::graph {

struct ShortestPaths {
  static constexpr Vertex kNoParent = static_cast<Vertex>(-1);

  std::vector<double> distance;  ///< from the source; +inf when unreachable
  /// Lowest-id tight predecessor; kNoParent at the source and at
  /// unreachable vertices.
  std::vector<Vertex> parent;
};

/// Dijkstra from `source` into `out`. Relaxations within 1e-12 of a
/// vertex's distance count as ties, whose lowest-id predecessor is kept.
void dijkstra_into(const Graph& g, Vertex source, ShortestPaths& out);

}  // namespace sheriff::graph

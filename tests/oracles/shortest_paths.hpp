#pragma once
// Reference shortest paths. Floyd–Warshall is the paper's own collapse of
// the rack graph T into the complete metric T' (Sec. V-A.2); the engine
// reads the same metric from per-ToR Dijkstra rows. The ECMP Dijkstra
// keeps every tight predecessor of every vertex, honours a blocked-node
// mask and counts equal-cost paths: the tree the router's hop levels, the
// fabric's distance rows and the planner's masked rows are checked
// against.

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace sheriff::oracle {

using graph::Vertex;

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
/// (the FLOWREROUTE shape). `blocked` may be empty meaning nothing is
/// blocked.
ShortestPathTree dijkstra(const graph::Graph& g, Vertex source,
                          const std::vector<bool>& blocked = {});

/// Same, writing into `out` (reusing its parent lists' allocations).
void dijkstra_into(const graph::Graph& g, Vertex source, const std::vector<bool>& blocked,
                   ShortestPathTree& out);

struct ApspResult {
  graph::DistanceMatrix distance;          ///< d(i,j); infinity if unreachable
  std::vector<std::vector<Vertex>> next;   ///< next[i][j]: next hop on i→j path

  explicit ApspResult(std::size_t n) : distance(n), next(n, std::vector<Vertex>(n, kNoVertex)) {}

  static constexpr Vertex kNoVertex = static_cast<Vertex>(-1);

  /// Reconstructs the vertex sequence of a shortest i→j path (inclusive of
  /// both endpoints); empty if unreachable.
  [[nodiscard]] std::vector<Vertex> path(Vertex from, Vertex to) const;
};

/// O(V^3) Floyd–Warshall over the minimum-weight parallel edge of each pair.
ApspResult floyd_warshall(const graph::Graph& g);

}  // namespace sheriff::oracle

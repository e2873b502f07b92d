#include "graph/dijkstra.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/require.hpp"

namespace sheriff::graph {

void dijkstra_into(const Graph& g, Vertex source, ShortestPaths& out) {
  const std::size_t n = g.vertex_count();
  SHERIFF_REQUIRE(source < n, "source out of range");
  out.distance.assign(n, kInfiniteDistance);
  out.parent.assign(n, ShortestPaths::kNoParent);

  constexpr double kTieTolerance = 1e-12;

  using Item = std::pair<double, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  out.distance[source] = 0.0;
  heap.emplace(0.0, source);

  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > out.distance[u] + kTieTolerance) continue;
    for (const Edge& e : g.neighbors(u)) {
      const double candidate = d + e.weight;
      if (candidate + kTieTolerance < out.distance[e.to]) {
        out.distance[e.to] = candidate;
        out.parent[e.to] = u;
        heap.emplace(candidate, e.to);
      } else if (std::abs(candidate - out.distance[e.to]) <= kTieTolerance) {
        // A running min over the ties since the last strict improvement:
        // the lowest id of the oracle's parent list, bit for bit.
        out.parent[e.to] = std::min(out.parent[e.to], u);
      }
    }
  }
}

}  // namespace sheriff::graph

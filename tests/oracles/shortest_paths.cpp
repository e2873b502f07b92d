#include "oracles/shortest_paths.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/require.hpp"

namespace sheriff::oracle {

using graph::Edge;
using graph::Graph;
using graph::kInfiniteDistance;

std::vector<Vertex> ShortestPathTree::path_to(Vertex target) const {
  std::vector<Vertex> out;
  if (target >= distance.size() || distance[target] == kInfiniteDistance) return out;
  Vertex cur = target;
  out.push_back(cur);
  while (!parents[cur].empty()) {
    cur = *std::min_element(parents[cur].begin(), parents[cur].end());
    out.push_back(cur);
    SHERIFF_REQUIRE(out.size() <= distance.size(), "parent cycle detected");
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::size_t ShortestPathTree::path_count(Vertex target, std::size_t cap) const {
  if (target >= distance.size() || distance[target] == kInfiniteDistance) return 0;
  // Memoized DFS over the (acyclic) tight-predecessor DAG.
  std::vector<std::size_t> memo(distance.size(), 0);
  std::vector<bool> done(distance.size(), false);
  // Iterative post-order to avoid recursion depth issues on big fabrics.
  std::vector<Vertex> stack{target};
  while (!stack.empty()) {
    const Vertex v = stack.back();
    if (done[v]) {
      stack.pop_back();
      continue;
    }
    if (parents[v].empty()) {
      memo[v] = 1;  // the source
      done[v] = true;
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (Vertex p : parents[v]) {
      if (!done[p]) {
        stack.push_back(p);
        ready = false;
      }
    }
    if (!ready) continue;
    std::size_t total = 0;
    for (Vertex p : parents[v]) total = std::min(cap, total + memo[p]);
    memo[v] = total;
    done[v] = true;
    stack.pop_back();
  }
  return memo[target];
}

ShortestPathTree dijkstra(const Graph& g, Vertex source, const std::vector<bool>& blocked) {
  ShortestPathTree tree;
  dijkstra_into(g, source, blocked, tree);
  return tree;
}

void dijkstra_into(const Graph& g, Vertex source, const std::vector<bool>& blocked,
                   ShortestPathTree& tree) {
  const std::size_t n = g.vertex_count();
  SHERIFF_REQUIRE(source < n, "source out of range");
  SHERIFF_REQUIRE(blocked.empty() || blocked.size() == n, "blocked mask size mismatch");
  tree.distance.assign(n, kInfiniteDistance);
  // Clear the per-vertex parent lists in place: on reuse this keeps their
  // heap blocks, which is the point of the _into variant.
  if (tree.parents.size() == n) {
    for (auto& p : tree.parents) p.clear();
  } else {
    tree.parents.assign(n, {});
  }

  const auto is_blocked = [&](Vertex v) { return !blocked.empty() && blocked[v]; };
  if (is_blocked(source)) return;

  constexpr double kTieTolerance = 1e-12;

  using Item = std::pair<double, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  tree.distance[source] = 0.0;
  heap.emplace(0.0, source);

  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > tree.distance[u] + kTieTolerance) continue;
    for (const Edge& e : g.neighbors(u)) {
      if (is_blocked(e.to)) continue;
      const double candidate = d + e.weight;
      if (candidate + kTieTolerance < tree.distance[e.to]) {
        tree.distance[e.to] = candidate;
        tree.parents[e.to].assign(1, u);
        heap.emplace(candidate, e.to);
      } else if (std::abs(candidate - tree.distance[e.to]) <= kTieTolerance) {
        auto& ps = tree.parents[e.to];
        if (std::find(ps.begin(), ps.end(), u) == ps.end()) ps.push_back(u);
      }
    }
  }
}

std::vector<Vertex> ApspResult::path(Vertex from, Vertex to) const {
  std::vector<Vertex> out;
  if (from >= next.size() || to >= next.size()) return out;
  if (from != to && next[from][to] == kNoVertex) return out;
  out.push_back(from);
  Vertex cur = from;
  while (cur != to) {
    cur = next[cur][to];
    SHERIFF_REQUIRE(cur != kNoVertex, "broken next-hop chain");
    out.push_back(cur);
    SHERIFF_REQUIRE(out.size() <= next.size(), "next-hop cycle detected");
  }
  return out;
}

ApspResult floyd_warshall(const Graph& g) {
  const std::size_t n = g.vertex_count();
  ApspResult result(n);
  auto& dist = result.distance;

  for (Vertex u = 0; u < n; ++u) {
    for (const Edge& e : g.neighbors(u)) {
      if (e.weight < dist.at(u, e.to)) {
        dist.set(u, e.to, e.weight);
        result.next[u][e.to] = e.to;
      }
    }
    result.next[u][u] = u;
  }

  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dik = dist.at(i, k);
      if (dik == kInfiniteDistance) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double candidate = dik + dist.at(k, j);
        if (candidate < dist.at(i, j)) {
          dist.set(i, j, candidate);
          result.next[i][j] = result.next[i][k];
        }
      }
    }
  }
  return result;
}

}  // namespace sheriff::oracle

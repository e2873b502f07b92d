#include "graph/hop_levels.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace sheriff::graph {

HopGraph::HopGraph(const Graph& g) {
  const std::size_t n = g.vertex_count();
  offsets_.reserve(n + 1);
  offsets_.push_back(0);
  targets_.reserve(2 * g.edge_count());
  for (Vertex v = 0; v < n; ++v) {
    const std::size_t row = targets_.size();
    for (const Edge& e : g.neighbors(v)) targets_.push_back(e.to);
    std::sort(targets_.begin() + static_cast<std::ptrdiff_t>(row), targets_.end());
    targets_.erase(std::unique(targets_.begin() + static_cast<std::ptrdiff_t>(row), targets_.end()),
                   targets_.end());
    SHERIFF_REQUIRE(targets_.size() <= std::numeric_limits<std::uint32_t>::max(),
                    "hop graph too large for 32-bit row offsets");
    offsets_.push_back(static_cast<std::uint32_t>(targets_.size()));
  }
}

void hop_levels_into(const HopGraph& g, Vertex source, std::span<const Vertex> blocked,
                     std::vector<HopLevel>& levels) {
  const std::size_t n = g.vertex_count();
  SHERIFF_REQUIRE(source < n, "source out of range");
  levels.assign(n, kUnreachedLevel);
  // Blocked vertices are parked at level 0 while the BFS runs (any value
  // but kUnreachedLevel keeps them undiscovered) and reset afterwards.
  for (const Vertex b : blocked) {
    SHERIFF_REQUIRE(b < n, "blocked vertex out of range");
    levels[b] = 0;
  }
  if (levels[source] == kUnreachedLevel) {
    levels[source] = 0;
    std::vector<Vertex> queue;
    queue.reserve(n);
    queue.push_back(source);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Vertex u = queue[head];
      const int next = levels[u] + 1;
      for (const Vertex v : g.neighbors(u)) {
        if (levels[v] != kUnreachedLevel) continue;
        SHERIFF_REQUIRE(next < kUnreachedLevel, "hop level overflows HopLevel");
        levels[v] = static_cast<HopLevel>(next);
        queue.push_back(v);
      }
    }
  }
  for (const Vertex b : blocked) levels[b] = kUnreachedLevel;
}

std::size_t tight_parent_count(const HopGraph& g, std::span<const HopLevel> levels, Vertex v) {
  const HopLevel level = levels[v];
  if (level == 0 || level == kUnreachedLevel) return 0;
  std::size_t count = 0;
  for (const Vertex u : g.neighbors(v)) count += levels[u] + 1 == level ? 1 : 0;
  return count;
}

Vertex tight_parent(const HopGraph& g, std::span<const HopLevel> levels, Vertex v,
                    std::size_t index) {
  const HopLevel level = levels[v];
  SHERIFF_REQUIRE(level != 0 && level != kUnreachedLevel, "vertex has no tight parents");
  for (const Vertex u : g.neighbors(v)) {
    if (levels[u] + 1 != level) continue;
    if (index == 0) return u;
    --index;
  }
  common::fail_requirement("index < tight_parent_count(g, levels, v)",
                           "tight parent index out of range", __FILE__, __LINE__);
}

std::size_t hop_path_count(const HopGraph& g, std::span<const HopLevel> levels, Vertex target,
                           std::size_t cap) {
  if (target >= levels.size() || levels[target] == kUnreachedLevel) return 0;
  // Counts settle level by level: the root's is 1, and every other
  // vertex's is the capped sum of its tight parents' counts.
  std::vector<std::size_t> count(levels.size(), 0);
  for (HopLevel level = 0; level <= levels[target]; ++level) {
    for (Vertex v = 0; v < levels.size(); ++v) {
      if (levels[v] != level) continue;
      if (level == 0) {
        count[v] = 1;
        continue;
      }
      std::size_t total = 0;
      for (const Vertex u : g.neighbors(v)) {
        if (levels[u] + 1 == level) total = std::min(cap, total + count[u]);
      }
      count[v] = total;
    }
  }
  return count[target];
}

}  // namespace sheriff::graph

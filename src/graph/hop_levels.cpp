#include "graph/hop_levels.hpp"

#include <algorithm>
#include <array>
#include <numeric>

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

void hop_levels_into(const HopGraph& g, Vertex source, std::vector<HopLevel>& levels) {
  const std::size_t n = g.vertex_count();
  SHERIFF_REQUIRE(source < n, "source out of range");
  levels.assign(n, kUnreachedLevel);
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

namespace {

using LevelItem = HopRepairScratch::LevelItem;

/// Visits vertices in ascending level: the `seeds` at their own levels, and
/// whatever `visit(level, v, next)` appends to `next` at level + 1. Levels
/// fit a byte, so a counting sort orders the seeds in linear time.
template <typename Visit>
void sweep_by_level(std::span<const LevelItem> seeds, HopRepairScratch& scratch, Visit&& visit) {
  constexpr std::size_t kLevels = std::size_t{kUnreachedLevel} + 1;
  std::array<std::uint32_t, kLevels + 1> begin{};  // level l's seeds: [begin[l], begin[l + 1])
  for (const LevelItem& s : seeds) ++begin[s.level + 1U];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<Vertex>& sorted = scratch.sorted;
  std::vector<Vertex>& frontier = scratch.frontier;
  std::vector<Vertex>& next = scratch.next;
  sorted.resize(seeds.size());
  frontier.clear();
  next.clear();
  std::array<std::uint32_t, kLevels + 1> fill = begin;
  for (const LevelItem& s : seeds) sorted[fill[s.level]++] = s.vertex;

  for (std::size_t level = 0; level < kLevels; ++level) {
    frontier.insert(frontier.end(), sorted.begin() + begin[level],
                    sorted.begin() + begin[level + 1]);
    if (frontier.empty() && begin[level + 1] == sorted.size()) break;
    for (const Vertex v : frontier) visit(static_cast<HopLevel>(level), v, next);
    frontier.swap(next);
    next.clear();
  }
}

}  // namespace

void hop_levels_without(const HopGraph& g, std::span<const HopLevel> base,
                        std::span<const Vertex> blocked, std::vector<HopLevel>& levels,
                        HopRepairScratch& scratch) {
  const std::size_t n = g.vertex_count();
  SHERIFF_REQUIRE(base.size() == n, "base levels do not match the graph");
  levels.assign(base.begin(), base.end());
  bool root_blocked = false;
  for (const Vertex b : blocked) {
    SHERIFF_REQUIRE(b < n, "blocked vertex out of range");
    root_blocked = root_blocked || base[b] == 0;
    levels[b] = kUnreachedLevel;
  }
  if (root_blocked) {
    levels.assign(n, kUnreachedLevel);
    return;
  }

  // Affected vertices, in ascending base level: a vertex is affected when
  // no tight parent is both unblocked and unaffected. Blocked and affected
  // vertices read as unreached in `levels`, so that test is one compare
  // per neighbor. Only a tight child of a blocked or affected vertex can be
  // affected, and each is queued once: its parents all sit one level lower,
  // so their status is final by the time the sweep reaches it.
  std::vector<bool>& queued = scratch.queued;
  std::vector<LevelItem>& seeds = scratch.seeds;
  std::vector<Vertex>& affected = scratch.affected;
  queued.assign(n, false);
  seeds.clear();
  affected.clear();
  for (const Vertex b : blocked) {
    if (base[b] == kUnreachedLevel) continue;
    for (const Vertex w : g.neighbors(b)) {
      if (base[w] != base[b] + 1 || queued[w]) continue;
      queued[w] = true;
      seeds.push_back({base[w], w});
    }
  }
  sweep_by_level(seeds, scratch, [&](HopLevel level, Vertex v, std::vector<Vertex>& next) {
    if (levels[v] == kUnreachedLevel) return;  // blocked
    for (const Vertex u : g.neighbors(v)) {
      if (base[u] + 1 == level && levels[u] != kUnreachedLevel) return;  // a live tight parent
    }
    levels[v] = kUnreachedLevel;
    affected.push_back(v);
    for (const Vertex w : g.neighbors(v)) {
      if (base[w] != level + 1 || queued[w]) continue;
      queued[w] = true;
      next.push_back(w);
    }
  });
  if (affected.empty()) return;

  // Re-level the affected vertices by a BFS over them, each seeded at its
  // best unaffected, unblocked neighbor. Blocked vertices are parked at
  // level 0 meanwhile (any level keeps them out of the search, which only
  // enters unreached vertices) and reset afterwards.
  seeds.clear();
  for (const Vertex v : affected) {
    int best = kUnreachedLevel + 1;  // no unaffected, unblocked neighbor
    for (const Vertex u : g.neighbors(v)) {
      if (levels[u] != kUnreachedLevel) best = std::min(best, levels[u] + 1);
    }
    if (best <= kUnreachedLevel) seeds.push_back({static_cast<HopLevel>(best), v});
  }
  for (const Vertex b : blocked) levels[b] = 0;
  sweep_by_level(seeds, scratch, [&](HopLevel level, Vertex v, std::vector<Vertex>& next) {
    if (levels[v] != kUnreachedLevel) return;  // already leveled, no higher
    SHERIFF_REQUIRE(level < kUnreachedLevel, "hop level overflows HopLevel");
    levels[v] = level;
    for (const Vertex u : g.neighbors(v)) {
      if (levels[u] == kUnreachedLevel) next.push_back(u);
    }
  });
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

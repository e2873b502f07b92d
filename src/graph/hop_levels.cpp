#include "graph/hop_levels.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <tuple>

#include "common/require.hpp"

namespace sheriff::graph {

HopGraph::HopGraph(std::size_t vertex_count, std::span<const HopEdge> edges)
    : offsets_(vertex_count + 1, 0), edge_count_(edges.size()) {
  SHERIFF_REQUIRE(edges.size() <= std::numeric_limits<std::uint32_t>::max() / 2,
                  "hop graph too large for 32-bit row offsets");
  std::vector<std::tuple<Vertex, Vertex, EdgeId>> entries;  // (row, neighbor, id)
  entries.reserve(2 * edges.size());
  for (EdgeId id = 0; id < edges.size(); ++id) {
    const HopEdge& e = edges[id];
    SHERIFF_REQUIRE(e.a < vertex_count && e.b < vertex_count, "hop edge endpoint out of range");
    entries.emplace_back(e.a, e.b, id);
    entries.emplace_back(e.b, e.a, id);
  }
  // Sorted, the first entry per neighbor keeps a parallel set's lowest id.
  std::ranges::sort(entries);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto [from, to, id] = entries[i];
    if (i > 0 && std::get<0>(entries[i - 1]) == from && std::get<1>(entries[i - 1]) == to) continue;
    steps_.push_back({to, id});
    ++offsets_[from + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
}

EdgeId HopGraph::edge_between(Vertex u, Vertex v) const {
  const auto r = row(u);
  const auto it = std::ranges::lower_bound(r, v, {}, &HopStep::vertex);
  return it != r.end() && it->vertex == v ? it->edge : kNoEdge;
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
    for (const HopStep& s : g.row(u)) {
      if (levels[s.vertex] != kUnreachedLevel) continue;
      SHERIFF_REQUIRE(next < kUnreachedLevel, "hop level overflows HopLevel");
      levels[s.vertex] = static_cast<HopLevel>(next);
      queue.push_back(s.vertex);
    }
  }
}

namespace {

using LevelItem = HopRepairScratch::LevelItem;

/// True when the cut's edge mask keeps `edge`.
bool kept(std::span<const std::uint8_t> removed_edges, EdgeId edge) {
  return removed_edges.empty() || removed_edges[edge] == 0;
}

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

void hop_levels_without(const HopGraph& g, std::span<const HopLevel> base, const HopCut& cut,
                        std::vector<HopLevel>& levels, HopRepairScratch& scratch) {
  const std::size_t n = g.vertex_count();
  SHERIFF_REQUIRE(base.size() == n, "base levels do not match the graph");
  SHERIFF_REQUIRE(cut.removed_edges.empty() || cut.removed_edges.size() == g.edge_count(),
                  "removed-edge mask does not match the graph");
  levels.assign(base.begin(), base.end());
  bool root_blocked = false;
  for (const Vertex b : cut.blocked) {
    SHERIFF_REQUIRE(b < n, "blocked vertex out of range");
    root_blocked = root_blocked || base[b] == 0;
    levels[b] = kUnreachedLevel;
  }
  if (root_blocked) {
    levels.assign(n, kUnreachedLevel);
    return;
  }

  // Affected vertices, in ascending base level: a vertex is affected when
  // no tight parent is unblocked, unaffected and joined to it by a kept
  // edge. Blocked and affected vertices read as unreached in `levels`, so
  // that test is one compare per neighbor. Only a removed edge's endpoint
  // or a tight child of a blocked or affected vertex can be affected, and
  // each is queued once: its parents all sit one level lower, so their
  // status is final by the time the sweep reaches it.
  std::vector<bool>& queued = scratch.queued;
  std::vector<LevelItem>& seeds = scratch.seeds;
  std::vector<Vertex>& affected = scratch.affected;
  queued.assign(n, false);
  seeds.clear();
  affected.clear();
  const auto seed = [&](Vertex v) {
    if (queued[v]) return;
    queued[v] = true;
    seeds.push_back({base[v], v});
  };
  for (const Vertex b : cut.blocked) {
    if (base[b] == kUnreachedLevel) continue;
    for (const HopStep& s : g.row(b)) {
      if (base[s.vertex] == base[b] + 1) seed(s.vertex);
    }
  }
  for (const Vertex v : cut.removed_ends) {
    SHERIFF_REQUIRE(v < n, "removed edge endpoint out of range");
    if (base[v] != 0 && base[v] != kUnreachedLevel) seed(v);  // the root keeps level 0
  }
  sweep_by_level(seeds, scratch, [&](HopLevel level, Vertex v, std::vector<Vertex>& next) {
    if (levels[v] == kUnreachedLevel) return;  // blocked
    for (const HopStep& s : g.row(v)) {
      if (base[s.vertex] + 1 == level && levels[s.vertex] != kUnreachedLevel &&
          kept(cut.removed_edges, s.edge)) {
        return;  // a live tight parent
      }
    }
    levels[v] = kUnreachedLevel;
    affected.push_back(v);
    for (const HopStep& s : g.row(v)) {
      if (base[s.vertex] != level + 1 || queued[s.vertex]) continue;
      queued[s.vertex] = true;
      next.push_back(s.vertex);
    }
  });
  if (affected.empty()) return;

  // Re-level the affected vertices by a BFS over them and the kept edges,
  // each seeded at its best unaffected, unblocked neighbor. Blocked
  // vertices are parked at level 0 meanwhile (any level keeps them out of
  // the search, which only enters unreached vertices) and reset afterwards.
  seeds.clear();
  for (const Vertex v : affected) {
    int best = kUnreachedLevel + 1;  // no unaffected, unblocked neighbor
    for (const HopStep& s : g.row(v)) {
      if (levels[s.vertex] != kUnreachedLevel && kept(cut.removed_edges, s.edge)) {
        best = std::min(best, levels[s.vertex] + 1);
      }
    }
    if (best <= kUnreachedLevel) seeds.push_back({static_cast<HopLevel>(best), v});
  }
  for (const Vertex b : cut.blocked) levels[b] = 0;
  sweep_by_level(seeds, scratch, [&](HopLevel level, Vertex v, std::vector<Vertex>& next) {
    if (levels[v] != kUnreachedLevel) return;  // already leveled, no higher
    SHERIFF_REQUIRE(level < kUnreachedLevel, "hop level overflows HopLevel");
    levels[v] = level;
    for (const HopStep& s : g.row(v)) {
      if (levels[s.vertex] == kUnreachedLevel && kept(cut.removed_edges, s.edge)) {
        next.push_back(s.vertex);
      }
    }
  });
  for (const Vertex b : cut.blocked) levels[b] = kUnreachedLevel;
}

std::size_t tight_parent_count(const HopGraph& g, std::span<const HopLevel> levels, Vertex v,
                               std::span<const std::uint8_t> removed_edges) {
  const HopLevel level = levels[v];
  if (level == 0 || level == kUnreachedLevel) return 0;
  std::size_t count = 0;
  for (const HopStep& s : g.row(v)) {
    count += levels[s.vertex] + 1 == level && kept(removed_edges, s.edge) ? 1 : 0;
  }
  return count;
}

HopStep tight_parent(const HopGraph& g, std::span<const HopLevel> levels, Vertex v,
                     std::size_t index, std::span<const std::uint8_t> removed_edges) {
  const HopLevel level = levels[v];
  SHERIFF_REQUIRE(level != 0 && level != kUnreachedLevel, "vertex has no tight parents");
  for (const HopStep& s : g.row(v)) {
    if (levels[s.vertex] + 1 != level || !kept(removed_edges, s.edge)) continue;
    if (index == 0) return s;
    --index;
  }
  common::fail_requirement("index < tight_parent_count(g, levels, v, removed_edges)",
                           "tight parent index out of range", __FILE__, __LINE__);
}

std::size_t hop_path_count(const HopGraph& g, std::span<const HopLevel> levels, Vertex target,
                           std::span<const std::uint8_t> removed_edges, std::size_t cap) {
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
      for (const HopStep& s : g.row(v)) {
        if (levels[s.vertex] + 1 == level && kept(removed_edges, s.edge)) {
          total = std::min(cap, total + count[s.vertex]);
        }
      }
      count[v] = total;
    }
  }
  return count[target];
}

}  // namespace sheriff::graph

// Randomized property tests for the combinatorial kernels (S2 of the
// observability sweep): the Hungarian assignment solver against the
// permutation brute force that ships with it, and the knapsack DP against
// a from-first-principles subset enumeration. 50 seeds each, instances
// small enough (<= 8x8) that the exhaustive reference is exact. Plus BFS
// hop levels and their derived ECMP parents against the heap Dijkstra.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "graph/hop_levels.hpp"
#include "graph/knapsack.hpp"
#include "graph/matching.hpp"
#include "oracles/matching.hpp"
#include "oracles/shortest_paths.hpp"

namespace graph = sheriff::graph;
namespace sc = sheriff::common;
namespace oracle = sheriff::oracle;

namespace {

constexpr int kSeeds = 50;

// --- exhaustive knapsack reference -----------------------------------------
// Mirrors the documented contract of min_value_knapsack: among subsets with
// total capacity <= budget, maximize total capacity; among those, minimize
// total value. Subset enumeration is exact for <= 8 items.
struct BruteKnapsack {
  std::size_t capacity = 0;
  double value = 0.0;
};

BruteKnapsack knapsack_brute_force(const std::vector<graph::KnapsackItem>& items,
                                   std::size_t budget) {
  BruteKnapsack best;  // the empty subset is always feasible
  best.value = 0.0;
  const std::size_t n = items.size();
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    std::size_t cap = 0;
    double value = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::size_t{1} << i)) {
        cap += items[i].capacity;
        value += items[i].value;
      }
    }
    if (cap > budget) continue;
    if (cap > best.capacity || (cap == best.capacity && value < best.value)) {
      best.capacity = cap;
      best.value = value;
    }
  }
  return best;
}

}  // namespace

// --- Hungarian vs permutation brute force ----------------------------------

TEST(MatchingProperties, HungarianMatchesBruteForceOnRandomInstances) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    sc::Pcg32 rng(static_cast<std::uint64_t>(seed), 1);
    const std::size_t rows = 1 + rng.next_below(8);
    const std::size_t cols = rows + rng.next_below(static_cast<std::uint32_t>(9 - rows));
    graph::AssignmentProblem problem(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        // ~15% forbidden pairs; costs in [0, 10)
        if (rng.next_below(100) < 15) {
          problem.forbid(r, c);
        } else {
          problem.set_cost(r, c, rng.next_below(10000) / 1000.0);
        }
      }
    }

    const auto fast = graph::solve_assignment(problem);
    const auto brute = oracle::solve_assignment_brute_force(problem);

    // Optimality is a pair: match as many rows as possible, then minimize
    // total cost. The exact assignment may differ on ties.
    EXPECT_EQ(fast.matched_count, brute.matched_count) << "seed " << seed;
    EXPECT_NEAR(fast.total_cost, brute.total_cost, 1e-9) << "seed " << seed;

    // The reported assignment must be internally consistent: valid distinct
    // columns, no forbidden pairings, and total_cost = sum of used entries.
    std::vector<bool> used(cols, false);
    double recomputed = 0.0;
    std::size_t matched = 0;
    ASSERT_EQ(fast.assignment.size(), rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t c = fast.assignment[r];
      if (c == graph::AssignmentResult::kUnassigned) continue;
      ASSERT_LT(c, cols) << "seed " << seed;
      EXPECT_FALSE(used[c]) << "column assigned twice, seed " << seed;
      used[c] = true;
      EXPECT_LT(problem.cost(r, c), graph::AssignmentProblem::kForbidden) << "seed " << seed;
      recomputed += problem.cost(r, c);
      ++matched;
    }
    EXPECT_EQ(matched, fast.matched_count) << "seed " << seed;
    EXPECT_NEAR(recomputed, fast.total_cost, 1e-9) << "seed " << seed;
  }
}

TEST(MatchingProperties, AllForbiddenMeansNothingMatched) {
  graph::AssignmentProblem problem(3, 4);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) problem.forbid(r, c);
  }
  const auto fast = graph::solve_assignment(problem);
  const auto brute = oracle::solve_assignment_brute_force(problem);
  EXPECT_EQ(fast.matched_count, 0u);
  EXPECT_EQ(brute.matched_count, 0u);
  EXPECT_DOUBLE_EQ(fast.total_cost, 0.0);
}

// --- knapsack DP vs subset enumeration -------------------------------------

TEST(KnapsackProperties, DpMatchesSubsetEnumerationOnRandomInstances) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    sc::Pcg32 rng(static_cast<std::uint64_t>(seed), 2);
    const std::size_t n = 1 + rng.next_below(8);
    std::vector<graph::KnapsackItem> items(n);
    for (auto& item : items) {
      item.capacity = rng.next_below(20);  // zero-capacity items allowed
      item.value = rng.next_below(1000) / 100.0;
    }
    const std::size_t budget = rng.next_below(60);

    const auto dp = graph::min_value_knapsack(items, budget);
    const auto brute = knapsack_brute_force(items, budget);

    EXPECT_LE(dp.total_capacity, budget) << "seed " << seed;
    EXPECT_EQ(dp.total_capacity, brute.capacity) << "seed " << seed;
    EXPECT_NEAR(dp.total_value, brute.value, 1e-9) << "seed " << seed;

    // The chosen set must recompute to the reported totals, with valid
    // distinct indices.
    std::vector<bool> picked(n, false);
    std::size_t cap = 0;
    double value = 0.0;
    for (const std::size_t i : dp.chosen) {
      ASSERT_LT(i, n) << "seed " << seed;
      EXPECT_FALSE(picked[i]) << "item chosen twice, seed " << seed;
      picked[i] = true;
      cap += items[i].capacity;
      value += items[i].value;
    }
    EXPECT_EQ(cap, dp.total_capacity) << "seed " << seed;
    EXPECT_NEAR(value, dp.total_value, 1e-9) << "seed " << seed;
  }
}

TEST(KnapsackProperties, ZeroBudgetSelectsNothing) {
  const std::vector<graph::KnapsackItem> items{{3, 1.0}, {0, 2.0}, {5, 0.5}};
  const auto dp = graph::min_value_knapsack(items, 0);
  const auto brute = knapsack_brute_force(items, 0);
  EXPECT_EQ(dp.total_capacity, 0u);
  EXPECT_EQ(brute.capacity, 0u);
  EXPECT_TRUE(dp.chosen.empty());
  EXPECT_DOUBLE_EQ(dp.total_value, 0.0);
  EXPECT_DOUBLE_EQ(brute.value, 0.0);
}

// --- BFS hop levels vs the heap Dijkstra -----------------------------------
// The router's shortest paths take the uniform-weight fast path: BFS hop
// levels over a HopGraph, with each step's tight parents derived from the
// levels. On a uniform-weight graph they must agree with the general heap
// loop: a level times the shared weight is the heap distance, the derived
// parent lists equal the heap's parent lists — ORDER included, since the
// router's salt-indexed ECMP walk depends on parent order, not just
// membership — and the level DP counts the same shortest paths. The same
// holds for levels repaired under a cut of vertices, of edges, or of both,
// against the heap loop on the graph without them. One repair scratch
// serves every graph, so nothing may carry over between repairs.

namespace {

/// `edges` as a graph::Graph with every edge weighing `w`.
graph::Graph weighted(std::size_t n, const std::vector<graph::HopEdge>& edges, double w) {
  graph::Graph g(n);
  for (const graph::HopEdge& e : edges) g.add_edge(e.a, e.b, w);
  return g;
}

}  // namespace

TEST(DijkstraProperties, UniformFastPathMatchesHeapLoopBitwise) {
  graph::HopRepairScratch scratch;
  for (int seed = 0; seed < kSeeds; ++seed) {
    sc::Pcg32 rng(static_cast<std::uint64_t>(seed), 3);
    const std::size_t n = 6 + rng.next_below(40);
    const double w = (seed % 2 == 0) ? 1.0 : 0.25;
    // Random connected-ish multigraph: a spine plus random extra edges
    // (parallel edges allowed, as in the paper's rack multigraph T).
    std::vector<graph::HopEdge> edges;
    for (graph::Vertex v = 1; v < n; ++v) edges.push_back({rng.next_below(v), v});
    const std::size_t extra = rng.next_below(static_cast<std::uint32_t>(2 * n));
    for (std::size_t i = 0; i < extra; ++i) {
      const graph::Vertex u = rng.next_below(static_cast<std::uint32_t>(n));
      const graph::Vertex v = rng.next_below(static_cast<std::uint32_t>(n));
      if (u != v) edges.push_back({u, v});
    }
    const graph::HopGraph hops(n, edges);

    // A random blocked set exercises the FLOWREROUTE shape, and a random
    // set of removed neighbor pairs — every parallel copy of each — the
    // fault shape.
    std::vector<bool> blocked_mask(n, false);
    std::vector<graph::Vertex> blocked_list;
    for (graph::Vertex v = 1; v < n; ++v) {
      blocked_mask[v] = rng.next_below(10) == 0;
      if (blocked_mask[v]) blocked_list.push_back(v);
    }
    std::vector<std::vector<bool>> pair_cut(n, std::vector<bool>(n, false));
    for (const graph::HopEdge& e : edges) {
      if (rng.next_below(8) == 0) pair_cut[e.a][e.b] = pair_cut[e.b][e.a] = true;
    }
    std::vector<std::uint8_t> removed(edges.size(), 0);
    std::vector<graph::Vertex> removed_ends;
    std::vector<graph::HopEdge> kept;
    for (graph::EdgeId id = 0; id < edges.size(); ++id) {
      if (!pair_cut[edges[id].a][edges[id].b]) {
        kept.push_back(edges[id]);
        continue;
      }
      removed[id] = 1;
      removed_ends.push_back(edges[id].a);
      removed_ends.push_back(edges[id].b);
    }
    const graph::Graph whole = weighted(n, edges, w);
    const graph::Graph cut_graph = weighted(n, kept, w);

    const graph::Vertex source = rng.next_below(static_cast<std::uint32_t>(n));
    std::vector<graph::HopLevel> base;
    graph::hop_levels_into(hops, source, base);
    for (const bool block : {false, true}) {
      for (const bool cut_edges : {false, true}) {
        const auto heap = oracle::dijkstra(cut_edges ? cut_graph : whole, source,
                                           block ? blocked_mask : std::vector<bool>{});
        const graph::HopCut cut{block ? std::span<const graph::Vertex>(blocked_list)
                                      : std::span<const graph::Vertex>(),
                                cut_edges ? std::span<const std::uint8_t>(removed)
                                          : std::span<const std::uint8_t>(),
                                cut_edges ? std::span<const graph::Vertex>(removed_ends)
                                          : std::span<const graph::Vertex>()};
        // Uncut: the BFS levels. Cut: those levels repaired.
        std::vector<graph::HopLevel> levels = base;
        if (block || cut_edges) graph::hop_levels_without(hops, base, cut, levels, scratch);
        ASSERT_EQ(levels.size(), n);
        for (graph::Vertex v = 0; v < n; ++v) {
          const std::string label = "seed " + std::to_string(seed) + " block " +
                                    std::to_string(block) + " cut " + std::to_string(cut_edges) +
                                    " v " + std::to_string(v);
          const double distance = levels[v] == graph::kUnreachedLevel
                                      ? graph::kInfiniteDistance
                                      : static_cast<double>(levels[v]) * w;
          EXPECT_EQ(distance, heap.distance[v]) << label;
          std::vector<graph::Vertex> parents;
          const std::size_t count = graph::tight_parent_count(hops, levels, v, cut.removed_edges);
          for (std::size_t i = 0; i < count; ++i) {
            const graph::HopStep parent = graph::tight_parent(hops, levels, v, i, cut.removed_edges);
            EXPECT_EQ(hops.edge_between(v, parent.vertex), parent.edge) << label;
            parents.push_back(parent.vertex);
          }
          EXPECT_EQ(parents, heap.parents[v]) << label;
          EXPECT_EQ(graph::hop_path_count(hops, levels, v, cut.removed_edges), heap.path_count(v))
              << label;
        }
      }
    }
  }
}

// A HopGraph keeps one entry per neighbor, sorted, with the lowest id of a
// parallel pair beside it; edge_between finds it from either end.
TEST(HopGraph, RowsAreSortedAndKeepTheLowestParallelId) {
  const std::vector<graph::HopEdge> edges{{2, 0}, {0, 1}, {1, 2}, {0, 2}, {3, 0}};
  const graph::HopGraph g(4, edges);
  EXPECT_EQ(g.edge_count(), 5u);
  std::vector<std::pair<graph::Vertex, graph::EdgeId>> row;
  for (const graph::HopStep& s : g.row(0)) row.emplace_back(s.vertex, s.edge);
  EXPECT_EQ(row, (std::vector<std::pair<graph::Vertex, graph::EdgeId>>{{1, 1}, {2, 0}, {3, 4}}));
  EXPECT_EQ(g.edge_between(2, 0), 0u);
  EXPECT_EQ(g.edge_between(2, 1), 2u);
  EXPECT_EQ(g.edge_between(3, 1), graph::kNoEdge);
  EXPECT_THROW(graph::HopGraph(3, edges), sc::RequirementError);  // endpoint 3 out of range
}

// A ring of 300 keeps every BFS level at or under 150, but with vertex 1
// removed the walk to vertex 2 goes the long way round, 298 hops, past
// what a HopLevel holds. The repair must refuse it as the BFS of the ring
// without vertex 1 does, and so must a repair that removes the edge 1–2
// instead. Removing vertex 200 instead leaves a longest level of 199, which
// both fit and agree on, with the scratch the refused repair left behind.
TEST(DijkstraProperties, RepairedLevelsThatOverflowAreRefused) {
  constexpr graph::Vertex kRing = 300;
  const auto ring_without = [&](graph::Vertex gone) {
    std::vector<graph::HopEdge> edges;
    for (graph::Vertex v = 0; v < kRing; ++v) {
      const graph::Vertex w = (v + 1) % kRing;
      if (v != gone && w != gone) edges.push_back({v, w});
    }
    return graph::HopGraph(kRing, edges);
  };
  const graph::HopGraph ring = ring_without(kRing);  // nothing removed
  std::vector<graph::HopLevel> base;
  graph::hop_levels_into(ring, 0, base);
  ASSERT_EQ(*std::max_element(base.begin(), base.end()), 150);

  std::vector<graph::HopLevel> bfs;
  std::vector<graph::HopLevel> repaired;
  graph::HopRepairScratch scratch;
  const std::vector<graph::Vertex> near{1};
  EXPECT_THROW(graph::hop_levels_into(ring_without(1), 0, bfs), sc::RequirementError);
  EXPECT_THROW(graph::hop_levels_without(ring, base, {near, {}, {}}, repaired, scratch),
               sc::RequirementError);
  std::vector<std::uint8_t> edge_one_two(ring.edge_count(), 0);
  edge_one_two[1] = 1;  // edge 1 joins vertices 1 and 2
  const std::vector<graph::Vertex> ends{1, 2};
  EXPECT_THROW(graph::hop_levels_without(ring, base, {{}, edge_one_two, ends}, repaired, scratch),
               sc::RequirementError);

  const std::vector<graph::Vertex> far{200};
  graph::hop_levels_into(ring_without(200), 0, bfs);  // 200 is isolated: unreached
  graph::hop_levels_without(ring, base, {far, {}, {}}, repaired, scratch);
  EXPECT_EQ(repaired, bfs);
  EXPECT_EQ(repaired[199], 199);
}

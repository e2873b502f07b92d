// Graph substrate tests: adjacency graph, the oracle Floyd–Warshall vs
// Dijkstra cross-checks on random graphs, the engine's Dijkstra vs the
// oracle's, Hungarian matching vs brute force, and the PRIORITY knapsack.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "graph/knapsack.hpp"
#include "graph/matching.hpp"
#include "oracles/matching.hpp"
#include "oracles/shortest_paths.hpp"

namespace sg = sheriff::graph;
namespace sc = sheriff::common;
namespace oracle = sheriff::oracle;

namespace {

/// Connected random graph: a random spanning tree plus extra edges.
sg::Graph random_connected_graph(std::size_t n, std::size_t extra_edges, sc::Pcg32& rng) {
  sg::Graph g(n);
  for (sg::Vertex v = 1; v < n; ++v) {
    const auto parent = static_cast<sg::Vertex>(rng.next_below(v));
    g.add_edge(v, parent, rng.uniform(0.1, 10.0));
  }
  for (std::size_t e = 0; e < extra_edges; ++e) {
    const auto a = static_cast<sg::Vertex>(rng.next_below(static_cast<std::uint32_t>(n)));
    const auto b = static_cast<sg::Vertex>(rng.next_below(static_cast<std::uint32_t>(n)));
    if (a != b) g.add_edge(a, b, rng.uniform(0.1, 10.0));
  }
  return g;
}

}  // namespace

TEST(Graph, BasicAccounting) {
  sg::Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_DOUBLE_EQ(g.total_weight(), 5.0);
  EXPECT_EQ(g.component_count(), 1u);
}

TEST(Graph, ParallelEdgesKeepMinWeight) {
  sg::Graph g(2);
  g.add_edge(0, 1, 5.0);
  g.add_edge(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(g.min_edge_weight(0, 1), 2.0);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(Graph, RejectsInvalidEdges) {
  sg::Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0, 1.0), sc::RequirementError);
  EXPECT_THROW(g.add_edge(0, 5, 1.0), sc::RequirementError);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), sc::RequirementError);
}

TEST(Graph, ComponentCount) {
  sg::Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_EQ(g.component_count(), 3u);  // {0,1}, {2,3}, {4}
}

TEST(DistanceMatrix, TriangleViolationDetection) {
  sg::DistanceMatrix m(3, 0.0);
  m.set_symmetric(0, 1, 1.0);
  m.set_symmetric(1, 2, 1.0);
  m.set_symmetric(0, 2, 5.0);  // violates: 5 > 1 + 1
  EXPECT_NEAR(m.max_triangle_violation(), 3.0, 1e-12);
  m.set_symmetric(0, 2, 2.0);
  EXPECT_NEAR(m.max_triangle_violation(), 0.0, 1e-12);
}

TEST(FloydWarshall, TinyGraphByHand) {
  sg::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 5.0);
  g.add_edge(2, 3, 1.0);
  const auto apsp = oracle::floyd_warshall(g);
  EXPECT_DOUBLE_EQ(apsp.distance.at(0, 2), 3.0);  // via 1
  EXPECT_DOUBLE_EQ(apsp.distance.at(0, 3), 4.0);
  const auto path = apsp.path(0, 3);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 3u);
}

TEST(FloydWarshall, UnreachableStaysInfinite) {
  sg::Graph g(3);
  g.add_edge(0, 1, 1.0);
  const auto apsp = oracle::floyd_warshall(g);
  EXPECT_EQ(apsp.distance.at(0, 2), sg::kInfiniteDistance);
  EXPECT_TRUE(apsp.path(0, 2).empty());
}

class ApspCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(ApspCrossCheck, FloydWarshallMatchesDijkstra) {
  sc::Pcg32 rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 20 + rng.next_below(20);
  const auto g = random_connected_graph(n, n, rng);
  const auto apsp = oracle::floyd_warshall(g);
  for (sg::Vertex src = 0; src < n; src += 3) {
    const auto tree = oracle::dijkstra(g, src);
    for (sg::Vertex dst = 0; dst < n; ++dst) {
      EXPECT_NEAR(apsp.distance.at(src, dst), tree.distance[dst], 1e-9);
    }
  }
}

TEST_P(ApspCrossCheck, ReconstructedPathsHaveStatedLength) {
  sc::Pcg32 rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const std::size_t n = 15;
  const auto g = random_connected_graph(n, 10, rng);
  const auto apsp = oracle::floyd_warshall(g);
  for (sg::Vertex a = 0; a < n; ++a) {
    for (sg::Vertex b = 0; b < n; ++b) {
      const auto path = apsp.path(a, b);
      ASSERT_FALSE(path.empty());
      double length = 0.0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        length += g.min_edge_weight(path[i], path[i + 1]);
      }
      EXPECT_NEAR(length, apsp.distance.at(a, b), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApspCrossCheck, ::testing::Range(1, 8));

TEST(Dijkstra, BlockedNodesAreAvoided) {
  // 0 - 1 - 3 and 0 - 2 - 3 (longer); block 1 and the route must detour.
  sg::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(2, 3, 2.0);
  std::vector<bool> blocked(4, false);
  blocked[1] = true;
  const auto tree = oracle::dijkstra(g, 0, blocked);
  EXPECT_DOUBLE_EQ(tree.distance[3], 4.0);
  const auto path = tree.path_to(3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], 2u);
}

TEST(Dijkstra, CountsEqualCostPaths) {
  // Diamond with two equal shortest paths.
  sg::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(2, 3, 1.0);
  const auto tree = oracle::dijkstra(g, 0);
  EXPECT_EQ(tree.path_count(3), 2u);
}

TEST(Dijkstra, LowestTightParentMatchesOracleBitwise) {
  // Small integer weights make ties (ECMP) common; the last vertex stays
  // isolated. The engine's Dijkstra must give the oracle's distances and,
  // per vertex, the lowest id of its parent list, bit for bit.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sc::Pcg32 rng(seed, 9);
    const std::size_t n = 10 + rng.next_below(30);
    sg::Graph g(n + 1);
    for (sg::Vertex v = 1; v < n; ++v) {
      g.add_edge(v, static_cast<sg::Vertex>(rng.next_below(v)), 1.0 + rng.next_below(3));
    }
    for (std::size_t e = 0; e < 2 * n; ++e) {
      const auto a = static_cast<sg::Vertex>(rng.next_below(static_cast<std::uint32_t>(n)));
      const auto b = static_cast<sg::Vertex>(rng.next_below(static_cast<std::uint32_t>(n)));
      if (a != b) g.add_edge(a, b, 1.0 + rng.next_below(3));
    }
    sg::ShortestPaths paths;
    std::size_t ties = 0;
    for (sg::Vertex src = 0; src <= n; ++src) {
      sg::dijkstra_into(g, src, paths);
      const auto tree = oracle::dijkstra(g, src);
      ASSERT_EQ(paths.distance, tree.distance) << "seed " << seed << " src " << src;
      for (sg::Vertex v = 0; v <= n; ++v) {
        const auto& parents = tree.parents[v];
        const sg::Vertex lowest = parents.empty()
                                      ? sg::ShortestPaths::kNoParent
                                      : *std::min_element(parents.begin(), parents.end());
        EXPECT_EQ(paths.parent[v], lowest) << "seed " << seed << " src " << src << " v " << v;
        ties += parents.size() > 1 ? 1 : 0;
      }
    }
    EXPECT_GT(ties, 0u) << "seed " << seed;  // the running min is exercised
  }
}

class MatchingCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(MatchingCrossCheck, HungarianMatchesBruteForce) {
  sc::Pcg32 rng(static_cast<std::uint64_t>(GetParam()) * 77 + 5);
  const std::size_t rows = 2 + rng.next_below(4);  // 2..5
  const std::size_t cols = rows + rng.next_below(3);
  sg::AssignmentProblem problem(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.next_double() < 0.15) continue;  // leave forbidden
      problem.set_cost(r, c, rng.uniform(0.0, 100.0));
    }
  }
  const auto fast = sg::solve_assignment(problem);
  const auto slow = oracle::solve_assignment_brute_force(problem);
  EXPECT_EQ(fast.matched_count, slow.matched_count);
  EXPECT_NEAR(fast.total_cost, slow.total_cost, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingCrossCheck, ::testing::Range(1, 25));

TEST(Matching, AssignmentIsInjective) {
  sc::Pcg32 rng(31);
  sg::AssignmentProblem problem(6, 8);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 8; ++c) problem.set_cost(r, c, rng.uniform(1.0, 9.0));
  }
  const auto result = sg::solve_assignment(problem);
  EXPECT_EQ(result.matched_count, 6u);
  std::vector<bool> used(8, false);
  for (std::size_t col : result.assignment) {
    ASSERT_NE(col, sg::AssignmentResult::kUnassigned);
    EXPECT_FALSE(used[col]);
    used[col] = true;
  }
}

TEST(Matching, AllForbiddenMeansUnmatched) {
  sg::AssignmentProblem problem(2, 3);
  const auto result = sg::solve_assignment(problem);
  EXPECT_EQ(result.matched_count, 0u);
  EXPECT_DOUBLE_EQ(result.total_cost, 0.0);
}

TEST(Matching, PicksCheaperOfTwo) {
  sg::AssignmentProblem problem(1, 2);
  problem.set_cost(0, 0, 10.0);
  problem.set_cost(0, 1, 3.0);
  const auto result = sg::solve_assignment(problem);
  EXPECT_EQ(result.assignment[0], 1u);
  EXPECT_DOUBLE_EQ(result.total_cost, 3.0);
}

TEST(Knapsack, PrefersMaxCapacityThenMinValue) {
  // Budget 10: {6,4} offloads 10 at value 5+1=6; beats {6} alone etc.
  const std::vector<sg::KnapsackItem> items{{6, 5.0}, {4, 1.0}, {9, 0.5}};
  const auto sel = sg::min_value_knapsack(items, 10);
  EXPECT_EQ(sel.total_capacity, 10u);
  EXPECT_DOUBLE_EQ(sel.total_value, 6.0);
  EXPECT_EQ(sel.chosen.size(), 2u);
}

TEST(Knapsack, BreaksCapacityTiesByValue) {
  // Two ways to reach 8: {8@9.0} or {5@1, 3@2}=3.0 — the cheap pair wins.
  const std::vector<sg::KnapsackItem> items{{8, 9.0}, {5, 1.0}, {3, 2.0}};
  const auto sel = sg::min_value_knapsack(items, 8);
  EXPECT_EQ(sel.total_capacity, 8u);
  EXPECT_DOUBLE_EQ(sel.total_value, 3.0);
}

TEST(Knapsack, EmptyAndOversizedItems) {
  EXPECT_TRUE(sg::min_value_knapsack({}, 5).chosen.empty());
  const std::vector<sg::KnapsackItem> items{{10, 1.0}};
  const auto sel = sg::min_value_knapsack(items, 5);  // does not fit
  EXPECT_TRUE(sel.chosen.empty());
  EXPECT_EQ(sel.total_capacity, 0u);
}

TEST(Knapsack, ReconstructionIsConsistent) {
  sc::Pcg32 rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<sg::KnapsackItem> items;
    const std::size_t n = 3 + rng.next_below(8);
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back({1 + rng.next_below(12), rng.uniform(0.0, 10.0)});
    }
    const std::size_t budget = 5 + rng.next_below(30);
    const auto sel = sg::min_value_knapsack(items, budget);
    std::size_t cap = 0;
    double value = 0.0;
    std::vector<bool> used(n, false);
    for (std::size_t idx : sel.chosen) {
      ASSERT_LT(idx, n);
      EXPECT_FALSE(used[idx]);  // 0/1: no duplicates
      used[idx] = true;
      cap += items[idx].capacity;
      value += items[idx].value;
    }
    EXPECT_EQ(cap, sel.total_capacity);
    EXPECT_NEAR(value, sel.total_value, 1e-9);
    EXPECT_LE(cap, budget);
  }
}

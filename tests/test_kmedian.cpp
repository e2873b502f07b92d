// k-median tests: correctness of the cost evaluation, the exhaustive
// optimum, and the central property of the paper's Sec. VI-C — the Alg. 5
// local search never exceeds the 3 + 2/p approximation bound (and in
// practice sits very close to the optimum).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "graph/kmedian.hpp"
#include "oracles/kmedian.hpp"

namespace sg = sheriff::graph;
namespace sc = sheriff::common;
namespace oracle = sheriff::oracle;

namespace {

/// Random metric: points on a plane, Euclidean distances.
sg::DistanceMatrix random_metric(std::size_t n, sc::Pcg32& rng) {
  std::vector<std::pair<double, double>> pts(n);
  for (auto& p : pts) p = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
  sg::DistanceMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = pts[i].first - pts[j].first;
      const double dy = pts[i].second - pts[j].second;
      m.set(i, j, std::sqrt(dx * dx + dy * dy));
    }
  }
  return m;
}

sg::KMedianInstance make_instance(const sg::DistanceMatrix& m, std::size_t k) {
  sg::KMedianInstance instance;
  instance.distance = &m;
  instance.k = k;
  for (std::size_t i = 0; i < m.size(); ++i) {
    instance.clients.push_back(i);
    instance.facilities.push_back(i);
  }
  return instance;
}

}  // namespace

TEST(KMedianCost, HandComputedExample) {
  sg::DistanceMatrix m(3, 0.0);
  m.set_symmetric(0, 1, 2.0);
  m.set_symmetric(0, 2, 5.0);
  m.set_symmetric(1, 2, 4.0);
  sg::KMedianInstance instance;
  instance.distance = &m;
  instance.clients = {0, 1, 2};
  instance.facilities = {0, 1, 2};
  instance.k = 1;
  EXPECT_DOUBLE_EQ(oracle::kmedian_cost(instance, {0}), 7.0);
  EXPECT_DOUBLE_EQ(oracle::kmedian_cost(instance, {1}), 6.0);
  const auto best = oracle::exhaustive_kmedian(instance);
  EXPECT_DOUBLE_EQ(best.cost, 6.0);
  EXPECT_EQ(best.medians, std::vector<std::size_t>{1});
}

TEST(KMedian, KEqualsFacilitiesIsFree) {
  sc::Pcg32 rng(5);
  const auto m = random_metric(6, rng);
  auto instance = make_instance(m, 6);
  const auto sol = oracle::local_search_kmedian(instance, 1);
  EXPECT_NEAR(sol.cost, 0.0, 1e-9);  // every client is its own median
}

TEST(KMedian, LocalSearchNeverWorseThanInitial) {
  sc::Pcg32 rng(9);
  const auto m = random_metric(12, rng);
  auto instance = make_instance(m, 3);
  std::vector<std::size_t> initial{0, 1, 2};  // the solver's deterministic start
  const double initial_cost = oracle::kmedian_cost(instance, initial);
  const auto sol = oracle::local_search_kmedian(instance, 1);
  EXPECT_LE(sol.cost, initial_cost + 1e-9);
}

// gtest names each case after the parameter's bytes, so every field is
// eight bytes wide: a padded struct would put stack garbage into the names.
struct RatioCase {
  std::uint64_t seed;
  std::size_t n;
  std::size_t k;
  std::size_t p;
};

class KMedianRatio : public ::testing::TestWithParam<RatioCase> {};

TEST_P(KMedianRatio, WithinPaperBound) {
  const auto param = GetParam();
  sc::Pcg32 rng(param.seed);
  const auto m = random_metric(param.n, rng);
  auto instance = make_instance(m, param.k);
  const auto approx = oracle::local_search_kmedian(instance, param.p);
  const auto exact = oracle::exhaustive_kmedian(instance);
  ASSERT_GT(exact.cost, 0.0);
  const double bound = 3.0 + 2.0 / static_cast<double>(param.p);
  EXPECT_LE(approx.cost, bound * exact.cost + 1e-9)
      << "ratio " << approx.cost / exact.cost << " exceeds 3 + 2/p = " << bound;
  EXPECT_GE(approx.cost, exact.cost - 1e-9);  // cannot beat the optimum
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KMedianRatio,
    ::testing::Values(RatioCase{1, 10, 2, 1}, RatioCase{2, 10, 3, 1}, RatioCase{3, 12, 3, 2},
                      RatioCase{4, 12, 4, 2}, RatioCase{5, 14, 3, 1}, RatioCase{6, 14, 4, 2},
                      RatioCase{7, 9, 2, 3}, RatioCase{8, 11, 3, 3}, RatioCase{9, 13, 2, 2},
                      RatioCase{10, 15, 3, 1}, RatioCase{11, 15, 5, 2},
                      RatioCase{12, 8, 4, 1}));

TEST(KMedian, LargerSwapSizeNeverHurts) {
  // With a larger p the reachable neighborhood strictly contains the
  // smaller one's, so the local optimum cannot be worse on the same
  // deterministic start.
  sc::Pcg32 rng(77);
  const auto m = random_metric(14, rng);
  auto instance = make_instance(m, 4);
  const auto p1 = oracle::local_search_kmedian(instance, 1);
  const auto p2 = oracle::local_search_kmedian(instance, 2);
  EXPECT_LE(p2.cost, p1.cost + 1e-9);
}

TEST(KMedian, EvaluationCountsGrowWithP) {
  sc::Pcg32 rng(78);
  const auto m = random_metric(14, rng);
  auto instance = make_instance(m, 4);
  const auto p1 = oracle::local_search_kmedian(instance, 1);
  const auto p2 = oracle::local_search_kmedian(instance, 2);
  EXPECT_GT(p2.evaluations, p1.evaluations / 2);  // p=2 explores at least comparably
}

TEST(KMedian, RejectsBadInstances) {
  sg::DistanceMatrix m(3, 0.0);
  sg::KMedianInstance instance;
  instance.distance = &m;
  instance.clients = {0};
  instance.facilities = {0, 1};
  instance.k = 5;  // k > facilities
  EXPECT_THROW(oracle::local_search_kmedian(instance, 1), sc::RequirementError);
  instance.k = 0;
  EXPECT_THROW(oracle::local_search_kmedian(instance, 1), sc::RequirementError);
}

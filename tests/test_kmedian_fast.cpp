// Fast swap-based k-median tests: differential equality against the
// reference Alg. 5 scan (first-improvement trajectory parity), the p ≥ 2
// certificate kernel against the reference combinational scan, the
// 3 + 2/p bound against the exhaustive optimum, the max_evaluations
// safety cap, and planner refresh semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "core/kmedian_planner.hpp"
#include "graph/kmedian.hpp"
#include "graph/kmedian_fast.hpp"
#include "oracles/kmedian.hpp"
#include "topology/fat_tree.hpp"
#include "topology/liveness.hpp"

namespace sg = sheriff::graph;
namespace sc = sheriff::common;
namespace core = sheriff::core;
namespace topo = sheriff::topo;
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

const topo::Topology& small_fat_tree() {
  static const topo::Topology t = [] {
    topo::FatTreeOptions options;
    options.pods = 4;
    options.hosts_per_rack = 3;
    return topo::build_fat_tree(options);
  }();
  return t;
}

/// The rack metric T' of a Fat-Tree with `pods` pods: heavy ties, and
/// non-dyadic distances whose sums depend on the order they are added in.
const sg::DistanceMatrix& fat_tree_rack_metric(std::size_t pods) {
  const auto build = [](int fat_tree_pods) {
    topo::FatTreeOptions options;
    options.pods = fat_tree_pods;
    return core::KMedianPlanner(topo::build_fat_tree(options)).rack_distances();
  };
  static const sg::DistanceMatrix k8 = build(8);
  static const sg::DistanceMatrix k16 = build(16);
  return pods == 8 ? k8 : k16;
}

/// Clients: a seeded strict subset of the points in shuffled order.
/// Facilities: every point, also shuffled, so the scan order is not id order.
sg::KMedianInstance make_shuffled_instance(const sg::DistanceMatrix& m, std::size_t clients,
                                           std::size_t k, sc::Pcg32& rng) {
  sg::KMedianInstance instance;
  instance.distance = &m;
  instance.k = k;
  for (std::size_t i = 0; i < m.size(); ++i) instance.facilities.push_back(i);
  rng.shuffle(instance.facilities);
  std::vector<std::size_t> points = instance.facilities;
  rng.shuffle(points);
  instance.clients.assign(points.begin(), points.begin() + static_cast<std::ptrdiff_t>(clients));
  return instance;
}

/// k distinct facilities in random slot order.
std::vector<std::size_t> random_medians(const sg::KMedianInstance& instance, sc::Pcg32& rng) {
  std::vector<std::size_t> pool = instance.facilities;
  rng.shuffle(pool);
  return {pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(instance.k)};
}

/// The reference p ≥ 2 scan, written out: every candidate of swap sizes
/// 2..p re-priced from scratch with the oracle's kmedian_cost, in
/// for_each_combination order, first improvement applied via state.reset.
bool reference_multi_swap_scan(const sg::KMedianInstance& instance, sg::KMedianState& state,
                               sg::KMedianSolution& sol, const sg::FastKMedianOptions& options) {
  const std::size_t max_swap = std::min(options.p, instance.k);
  for (std::size_t swap = 2; swap <= max_swap; ++swap) {
    std::vector<std::size_t> outside;
    for (std::size_t f : instance.facilities) {
      if (!state.is_open(f)) outside.push_back(f);
    }
    if (outside.size() < swap) continue;
    bool found = false;
    oracle::for_each_combination(
        state.open().size(), swap, [&](const std::vector<std::size_t>& out_idx) {
          return oracle::for_each_combination(
              outside.size(), swap, [&](const std::vector<std::size_t>& in_idx) {
                if (instance.max_evaluations != 0 &&
                    sol.evaluations >= instance.max_evaluations) {
                  sol.hit_evaluation_cap = true;
                  return false;
                }
                std::vector<std::size_t> candidate = state.open();
                for (std::size_t i = 0; i < swap; ++i) candidate[out_idx[i]] = outside[in_idx[i]];
                const double cost = oracle::kmedian_cost(instance, candidate);
                ++sol.evaluations;
                if (cost < state.cost() * (1.0 - options.min_relative_gain)) {
                  state.reset(std::move(candidate));
                  found = true;
                  return false;
                }
                return true;
              });
        });
    if (found) return true;
    if (sol.hit_evaluation_cap) return false;
  }
  return false;
}

/// Runs multi_swap_scan and the reference from the same start, step by
/// step until neither improves (or the cap stops both), and compares each
/// step: return value, medians in slot order, cost bits, evaluation count
/// and cap flag. Returns the number of evaluations the chain took.
std::size_t expect_certificate_matches_reference(const sg::KMedianInstance& instance,
                                                 const std::vector<std::size_t>& start,
                                                 const sg::FastKMedianOptions& options,
                                                 std::size_t evaluations_before = 0) {
  sg::KMedianState kernel_state(instance, start);
  sg::KMedianState oracle_state(instance, start);
  sg::KMedianSolution kernel;
  kernel.evaluations = evaluations_before;
  sg::KMedianSolution oracle = kernel;
  for (std::size_t step = 0;; ++step) {
    const bool oracle_improved = reference_multi_swap_scan(instance, oracle_state, oracle, options);
    const bool kernel_improved = sg::multi_swap_scan(instance, kernel_state, kernel, options);
    EXPECT_EQ(kernel_improved, oracle_improved) << "step " << step;
    EXPECT_EQ(kernel_state.open(), oracle_state.open()) << "step " << step;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(kernel_state.cost()),
              std::bit_cast<std::uint64_t>(oracle_state.cost()))
        << "step " << step;
    EXPECT_EQ(kernel.evaluations, oracle.evaluations) << "step " << step;
    EXPECT_EQ(kernel.hit_evaluation_cap, oracle.hit_evaluation_cap) << "step " << step;
    if (!oracle_improved || kernel_improved != oracle_improved ||
        kernel_state.open() != oracle_state.open()) {
      break;
    }
  }
  return oracle.evaluations - evaluations_before;
}

/// Every swap size, both thresholds: the default ε and ε = 0, where a
/// candidate tied with the current cost is accepted if its sum comes out
/// one ulp lower — so only a bitwise-equal cost keeps the scans together.
void expect_certificates_match(const sg::KMedianInstance& instance,
                               const std::vector<std::size_t>& start, std::size_t max_p) {
  for (std::size_t p = 2; p <= max_p; ++p) {
    for (const double epsilon : {1e-9, 0.0}) {
      SCOPED_TRACE("p " + std::to_string(p) + " epsilon " + std::to_string(epsilon));
      sg::FastKMedianOptions options;
      options.p = p;
      options.min_relative_gain = epsilon;
      expect_certificate_matches_reference(instance, start, options);
    }
  }
}

}  // namespace

// --- Differential: the fast first-improvement p=1 path replays the
// --- reference scan's trajectory — identical medians and bitwise cost.

TEST(FastKMedianDifferential, FirstImprovementMatchesReferenceAcross50Seeds) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    sc::Pcg32 rng(1000 + seed);
    const std::size_t n = 6 + rng.next_below(3);  // 6..8
    const auto m = random_metric(n, rng);
    const std::size_t k = 2 + seed % 3;
    if (k >= n) continue;
    auto instance = make_instance(m, k);
    for (std::size_t p = 1; p <= 3; ++p) {
      const auto reference = oracle::local_search_kmedian(instance, p);
      sg::FastKMedianOptions options;
      options.p = p;
      const auto fast = sg::fast_kmedian(instance, options);
      EXPECT_EQ(fast.medians, reference.medians)
          << "seed " << seed << " p " << p << ": median sets diverged";
      EXPECT_EQ(fast.cost, reference.cost)
          << "seed " << seed << " p " << p << ": costs diverged";
    }
  }
}

// --- The p ≥ 2 certificate: multi_swap_scan's residual-min kernel against
// --- the reference combinational scan, run from the same KMedianState.
// --- Random and p=1-locally-optimal starts put the improving swaps (if
// --- any) at varied scan positions; a locally optimal start usually
// --- scans the whole neighbourhood.

TEST(MultiSwapCertificate, MatchesReferenceScanOnEuclideanMetrics) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sc::Pcg32 rng(5000 + seed);
    const std::size_t n = 12 + rng.next_below(9);  // 12..20
    const auto m = random_metric(n, rng);
    const std::size_t k = 2 + seed % 4;            // 2..5
    const std::size_t clients = n / 2 + rng.next_below(static_cast<std::uint32_t>(n / 2));
    const auto instance = make_shuffled_instance(m, clients, k, rng);
    expect_certificates_match(instance, random_medians(instance, rng), 3);
    expect_certificates_match(instance, sg::fast_kmedian(instance).medians, 3);
  }
}

TEST(MultiSwapCertificate, MatchesReferenceScanOnFatTreeRackMetrics) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("k8 seed " + std::to_string(seed));
    sc::Pcg32 rng(6000 + seed);
    const std::size_t k = 2 + seed % 4;
    const auto instance =
        make_shuffled_instance(fat_tree_rack_metric(8), 8 + rng.next_below(16), k, rng);
    expect_certificates_match(instance, random_medians(instance, rng), 3);
    expect_certificates_match(instance, sg::fast_kmedian(instance).medians, 3);
  }
  // 128 racks, the engine's k = 4 and 40 client racks: swap size 2 only
  // (a size-3 certificate is ~1.2M reference re-pricings per scan).
  SCOPED_TRACE("k16");
  sc::Pcg32 rng(7000);
  const auto instance = make_shuffled_instance(fat_tree_rack_metric(16), 40, 4, rng);
  expect_certificates_match(instance, random_medians(instance, rng), 2);
  expect_certificates_match(instance, sg::fast_kmedian(instance).medians, 2);
}

TEST(MultiSwapCertificate, StopsAtEveryEvaluationCapLikeTheReference) {
  sc::Pcg32 rng(8000);
  const auto m = random_metric(12, rng);
  auto instance = make_shuffled_instance(m, 8, 4, rng);
  const auto start = random_medians(instance, rng);
  sg::FastKMedianOptions options;
  options.p = 3;
  // Five evaluations are already spent when the check starts, as in
  // fast_kmedian, so caps 1..5 stop it before its first candidate.
  constexpr std::size_t kBefore = 5;
  const std::size_t total = expect_certificate_matches_reference(instance, start, options, kBefore);
  ASSERT_GT(total, 10u);
  for (std::size_t cap = 1; cap <= kBefore + total + 1; ++cap) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    instance.max_evaluations = cap;
    expect_certificate_matches_reference(instance, start, options, kBefore);
  }
}

// --- The 3 + 2/p bound against the exhaustive optimum on <= 8x8
// --- instances.

TEST(FastKMedianBound, WithinPaperBoundAcross50Seeds) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    sc::Pcg32 rng(2000 + seed);
    const std::size_t n = 6 + rng.next_below(3);  // 6..8
    const auto m = random_metric(n, rng);
    const std::size_t k = 2 + seed % 3;
    if (k >= n) continue;
    auto instance = make_instance(m, k);
    const auto exact = oracle::exhaustive_kmedian(instance);
    ASSERT_GT(exact.cost, 0.0);
    for (std::size_t p = 1; p <= 2; ++p) {
      const double bound = 3.0 + 2.0 / static_cast<double>(p);
      sg::FastKMedianOptions options;
      options.p = p;
      const auto fast = sg::fast_kmedian(instance, options);
      EXPECT_LE(fast.cost, bound * exact.cost + 1e-9)
          << "seed " << seed << " p " << p << ": ratio " << fast.cost / exact.cost;
      EXPECT_GE(fast.cost, exact.cost - 1e-9);  // cannot beat the optimum
    }
  }
}

// --- max_evaluations safety cap.

TEST(FastKMedianCap, ReferenceSolverStopsExactlyAtCap) {
  sc::Pcg32 rng(4000);
  const auto m = random_metric(16, rng);
  auto instance = make_instance(m, 4);
  const auto unlimited = oracle::local_search_kmedian(instance, 2);
  ASSERT_GT(unlimited.evaluations, 20u);
  instance.max_evaluations = 20;
  const auto capped = oracle::local_search_kmedian(instance, 2);
  EXPECT_TRUE(capped.hit_evaluation_cap);
  EXPECT_LE(capped.evaluations, 20u);
  EXPECT_FALSE(unlimited.hit_evaluation_cap);
  // A capped run never returns worse than its own start, and never better
  // than the full search.
  EXPECT_GE(capped.cost, unlimited.cost - 1e-9);
}

TEST(FastKMedianCap, FastSolverOvershootsByAtMostOneSweep) {
  sc::Pcg32 rng(4001);
  const auto m = random_metric(16, rng);
  auto instance = make_instance(m, 4);
  const auto unlimited = sg::fast_kmedian(instance);
  ASSERT_GT(unlimited.evaluations, 30u);
  EXPECT_FALSE(unlimited.hit_evaluation_cap);
  instance.max_evaluations = 30;
  const auto capped = sg::fast_kmedian(instance);
  EXPECT_TRUE(capped.hit_evaluation_cap);
  // Sweep granularity: at most one extra sweep of k * (|F| - k) candidates.
  const std::size_t sweep = instance.k * (instance.facilities.size() - instance.k);
  EXPECT_LE(capped.evaluations, 30u + sweep);
}

// --- Non-finite distances: the delta formulas would mix ∞ − ∞, so the
// --- solver refuses them (the planner hands it a finite T').

TEST(FastKMedianDomain, RejectsAnInfiniteClientFacilityDistance) {
  sg::DistanceMatrix m(4, 1.0);
  m.set_symmetric(0, 3, sg::kInfiniteDistance);
  sg::KMedianInstance instance;
  instance.distance = &m;
  instance.clients = {0, 1};
  instance.facilities = {1, 2, 3};
  instance.k = 2;
  EXPECT_THROW((void)sg::fast_kmedian(instance), sc::RequirementError);
  // The same instance without the unreachable pair solves.
  instance.clients = {1, 2};
  EXPECT_NO_THROW((void)sg::fast_kmedian(instance));
}

// --- Planner refresh semantics: version-gated rebuilds.

TEST(KMedianPlannerRefresh, RebuildsOnlyWhenMaskVersionMoves) {
  const topo::Topology& topology = small_fat_tree();
  topo::LivenessMask mask(topology);
  core::KMedianPlannerOptions options;
  options.liveness = &mask;
  core::KMedianPlanner planner(topology, options);
  EXPECT_EQ(planner.rebuilds(), 1u);  // the constructor's initial build
  EXPECT_FALSE(planner.refresh());    // mask unchanged: no rebuild
  EXPECT_EQ(planner.rebuilds(), 1u);

  mask.set_node(topology.rack(0).tor, false);
  EXPECT_TRUE(planner.refresh());
  EXPECT_EQ(planner.rebuilds(), 2u);
  EXPECT_EQ(planner.facility_racks().size(), topology.rack_count() - 1);
  EXPECT_FALSE(planner.refresh());  // already caught up

  mask.set_node(topology.rack(0).tor, true);
  EXPECT_TRUE(planner.refresh());
  EXPECT_EQ(planner.facility_racks().size(), topology.rack_count());

  // A planner without a mask never rebuilds (the topology is immutable).
  core::KMedianPlanner unmasked(topology);
  EXPECT_FALSE(unmasked.refresh());
  EXPECT_EQ(unmasked.rebuilds(), 1u);
}

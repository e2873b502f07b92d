// Unit tests for the common substrate: PRNG, statistics, math helpers,
// tables, plots, and the thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <sstream>
#include <vector>

#include "common/ascii_plot.hpp"
#include "common/math_util.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace sc = sheriff::common;

TEST(Require, ThrowsWithContext) {
  try {
    SHERIFF_REQUIRE(1 == 2, "math broke");
    FAIL() << "expected throw";
  } catch (const sc::RequirementError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Pcg32, DeterministicForSameSeed) {
  sc::Pcg32 a(123, 7);
  sc::Pcg32 b(123, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, StreamsDiffer) {
  sc::Pcg32 a(123, 1);
  sc::Pcg32 b(123, 2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Pcg32, NextBelowIsInRangeAndCoversAll) {
  sc::Pcg32 rng(5);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++seen[v];
  }
  for (int count : seen) EXPECT_GT(count, 700);  // roughly uniform
}

TEST(Pcg32, NormalMoments) {
  sc::Pcg32 rng(99);
  sc::RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Pcg32, ExponentialMean) {
  sc::Pcg32 rng(7);
  sc::RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Pcg32, PoissonMean) {
  sc::Pcg32 rng(11);
  sc::RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.poisson(3.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
}

TEST(Pcg32, ShuffleIsPermutation) {
  sc::Pcg32 rng(3);
  std::vector<int> values(50);
  std::iota(values.begin(), values.end(), 0);
  auto shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_FALSE(std::equal(values.begin(), values.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(values, shuffled);
}

TEST(Pcg32, UniformIntBoundsInclusive) {
  sc::Pcg32 rng(17);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int v = rng.uniform_int(2, 5);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Pcg32, SplitStreamsAreIndependent) {
  sc::Pcg32 parent(42);
  auto child1 = parent.split();
  auto child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.next_u32() == child2.next_u32()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  sc::RunningStats stats;
  for (double x : xs) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 6.2);
  EXPECT_NEAR(stats.variance(), 29.76, 1e-9);
  EXPECT_EQ(stats.min(), 1.0);
  EXPECT_EQ(stats.max(), 16.0);
  EXPECT_EQ(stats.count(), 5u);
}

TEST(RunningStats, MergeEqualsCombined) {
  sc::Pcg32 rng(8);
  sc::RunningStats a;
  sc::RunningStats b;
  sc::RunningStats all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(sc::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(sc::quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(sc::quantile(xs, 0.5), 2.5);
}

// Regression: 0- and 1-sample inputs used to hit the size()-1 index math
// (an empty span wrapped past the end). They are ordinary inputs for the
// fleet aggregator — a metric that only one run reports still has a p99 —
// so both must be well-defined for every q in [0,1].
TEST(Stats, QuantileDegenerateInputs) {
  const std::vector<double> empty;
  const std::vector<double> one{7.25};
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(sc::quantile(empty, q), 0.0) << "q=" << q;
    EXPECT_DOUBLE_EQ(sc::quantile(one, q), 7.25) << "q=" << q;
  }
  EXPECT_THROW(sc::quantile(one, -0.1), sc::RequirementError);
  EXPECT_THROW(sc::quantile(one, 1.1), sc::RequirementError);
}

TEST(Stats, CorrelationSigns) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> up{2, 4, 6, 8, 10};
  std::vector<double> down(up.rbegin(), up.rend());
  EXPECT_NEAR(sc::correlation(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(sc::correlation(xs, down), -1.0, 1e-12);
  const std::vector<double> flat{3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(sc::correlation(xs, flat), 0.0);
}

TEST(Histogram, CountsAndClamps) {
  sc::Histogram h(0.0, 10.0, 5);
  h.add(-1.0);  // clamps into bin 0
  h.add(0.5);
  h.add(9.9);
  h.add(42.0);  // clamps into last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_FALSE(h.render().empty());
}

TEST(MathUtil, ErrorsMatchHandComputation) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{2.0, 2.0, 1.0};
  EXPECT_NEAR(sc::mean_squared_error(a, b), (1.0 + 0.0 + 4.0) / 3.0, 1e-12);
  EXPECT_NEAR(sc::mean_absolute_error(a, b), 1.0, 1e-12);
  EXPECT_NEAR(sc::root_mean_squared_error(a, b), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(MathUtil, MapeSkipsNearZero) {
  const std::vector<double> a{0.0, 10.0};
  const std::vector<double> b{5.0, 11.0};
  EXPECT_NEAR(sc::mean_absolute_percentage_error(a, b), 10.0, 1e-9);
}

TEST(MathUtil, Linspace) {
  const auto xs = sc::linspace(0.0, 1.0, 5);
  ASSERT_EQ(xs.size(), 5u);
  EXPECT_DOUBLE_EQ(xs.front(), 0.0);
  EXPECT_DOUBLE_EQ(xs.back(), 1.0);
  EXPECT_DOUBLE_EQ(xs[2], 0.5);
}

TEST(Table, RendersAlignedAndCsv) {
  sc::Table table({"name", "value"});
  table.begin_row().add("alpha").add(1.5, 2);
  table.begin_row().add("b,c").add(std::size_t{7});
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.cell(0, 1), "1.50");
  std::ostringstream text;
  table.print(text);
  EXPECT_NE(text.str().find("alpha"), std::string::npos);
  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_NE(csv.str().find("\"b,c\""), std::string::npos);
}

TEST(Table, RejectsOverfilledRow) {
  sc::Table table({"only"});
  table.begin_row().add("x");
  EXPECT_THROW(table.add("y"), sc::RequirementError);
}

TEST(AsciiPlot, RendersSeries) {
  std::vector<double> rising(100);
  std::iota(rising.begin(), rising.end(), 0.0);
  sc::PlotOptions options;
  options.title = "test";
  options.series_names = {"up"};
  const auto chart = sc::render_plot(rising, options);
  EXPECT_NE(chart.find("test"), std::string::npos);
  EXPECT_NE(chart.find("legend"), std::string::npos);
}

TEST(AsciiPlot, HandlesConstantSeries) {
  const std::vector<double> flat(10, 5.0);
  EXPECT_FALSE(sc::render_plot(flat, {}).empty());
  EXPECT_FALSE(sc::sparkline(flat).empty());
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  sc::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  sc::parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  sc::ThreadPool pool(2);
  EXPECT_THROW(sc::parallel_for(pool, 10,
                                [](std::size_t i) {
                                  if (i == 7) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitReturnsValue) {
  sc::ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

// A parallel_for issued from a worker of the same pool must run inline
// (the reentrancy guard, DESIGN.md §12). Before the guard, this exact
// shape deadlocked on a size-1 pool: the outer task occupied the only
// worker while the inner iterations waited in the queue forever.
TEST(ThreadPool, NestedParallelForOnOwnPoolRunsInline) {
  sc::ThreadPool pool(1);
  std::atomic<int> inner_sum{0};
  std::atomic<bool> saw_worker_thread{false};
  sc::parallel_for(pool, 2, [&](std::size_t) {
    if (pool.on_worker_thread()) saw_worker_thread.store(true);
    sc::parallel_for(pool, 100, [&](std::size_t i) {
      inner_sum.fetch_add(static_cast<int>(i));
    });
  });
  EXPECT_TRUE(saw_worker_thread.load());
  EXPECT_EQ(inner_sum.load(), 2 * (99 * 100) / 2);
  // From a non-worker thread the same pool reports false and the guard
  // stays out of the way.
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ThreadPool, ReentrancyGuardDistinguishesPools) {
  // Nested pools: a worker of the outer pool fanning out on a *different*
  // inner pool must really use the inner pool's workers, not inline.
  sc::ThreadPool outer(1);
  sc::ThreadPool inner(2);
  std::atomic<int> ran_on_inner_worker{0};
  sc::parallel_for(outer, 1, [&](std::size_t) {
    sc::parallel_for(inner, 64, [&](std::size_t) {
      if (inner.on_worker_thread()) ran_on_inner_worker.fetch_add(1);
    });
  });
  EXPECT_EQ(ran_on_inner_worker.load(), 64);
}

// Unit tests for the observability substrate (src/obs/): the per-shim
// event trace rings, the metric registry, the timing utilities that
// replaced common::Stopwatch, the JSONL/CSV export surfaces, and the
// engine-published decision-kernel counters (cost.evaluated/pruned/
// surface_builds) with the pruning-losslessness identity.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "common/require.hpp"
#include "core/engine.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/timing.hpp"
#include "obs/trace.hpp"
#include "topology/fat_tree.hpp"
#include "workload/deployment.hpp"

namespace obs = sheriff::obs;
namespace sc = sheriff::common;
namespace core = sheriff::core;
namespace topo = sheriff::topo;
namespace wl = sheriff::wl;

// --- EventTrace ------------------------------------------------------------

TEST(EventTrace, StampsRoundShimAndMonotonicSeq) {
  obs::EventTrace trace(4, 16);
  trace.set_round(7);
  trace.emit(2, obs::EventType::kAlertRaised, 10, 0, 1.5);
  trace.set_round(8);
  trace.emit(0, obs::EventType::kRerouteChosen, 3, 0, 2.0);
  trace.emit(obs::EventTrace::kEngine, obs::EventType::kShimTakeover, 1, 2);

  const auto records = trace.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].seq, 0u);
  EXPECT_EQ(records[0].round, 7u);
  EXPECT_EQ(records[0].shim, 2u);
  EXPECT_EQ(records[0].type, obs::EventType::kAlertRaised);
  EXPECT_EQ(records[0].a, 10u);
  EXPECT_DOUBLE_EQ(records[0].value, 1.5);
  EXPECT_EQ(records[1].round, 8u);
  EXPECT_EQ(records[2].shim, obs::EventTrace::kEngine);
  // snapshot is totally ordered by seq
  for (std::size_t i = 1; i < records.size(); ++i) EXPECT_LT(records[i - 1].seq, records[i].seq);
}

TEST(EventTrace, RingWrapsOverwritingOldest) {
  obs::EventTrace trace(1, 4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    trace.emit(0, obs::EventType::kAlertRaised, i);
  }
  EXPECT_EQ(trace.total_emitted(), 10u);
  EXPECT_EQ(trace.total_dropped(), 6u);
  const auto records = trace.snapshot();
  ASSERT_EQ(records.size(), 4u);  // bounded by capacity
  // The four newest survive: a = 6, 7, 8, 9 in seq order.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].a, 6u + i);
    EXPECT_EQ(records[i].seq, 6u + i);
  }
}

TEST(EventTrace, ZeroCapacityIsRejected) {
  EXPECT_THROW(obs::EventTrace(1, 0), sc::RequirementError);
  // The smallest ring keeps the newest record.
  obs::EventTrace trace(1, 1);
  trace.emit(0, obs::EventType::kAlertRaised, 1);
  trace.emit(0, obs::EventType::kAlertRaised, 2);
  const auto records = trace.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].a, 2u);
}

TEST(EventTrace, ClearResetsRingsButNotRound) {
  obs::EventTrace trace(2, 8);
  trace.set_round(3);
  trace.emit(0, obs::EventType::kFaultInjected);
  trace.emit(1, obs::EventType::kFaultInjected);
  trace.clear();
  EXPECT_EQ(trace.total_emitted(), 0u);
  EXPECT_EQ(trace.total_dropped(), 0u);
  EXPECT_TRUE(trace.snapshot().empty());
  EXPECT_EQ(trace.round(), 3u);
}

TEST(EventTrace, ToStringCoversAllTypesDistinctly) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < obs::kEventTypeCount; ++i) {
    names.emplace_back(obs::to_string(static_cast<obs::EventType>(i)));
    EXPECT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

// --- MetricRegistry --------------------------------------------------------

TEST(MetricRegistry, FindOrCreateReturnsStableReferences) {
  obs::MetricRegistry registry;
  obs::Counter& c1 = registry.counter("engine.migrations");
  c1.add(3);
  obs::Counter& c2 = registry.counter("engine.migrations");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 3u);

  obs::Gauge& g = registry.gauge("engine.rounds");
  g.set(12.5);
  EXPECT_DOUBLE_EQ(registry.gauge("engine.rounds").value(), 12.5);

  EXPECT_EQ(registry.find_counter("engine.migrations"), &c1);
  EXPECT_EQ(registry.find_counter("nope"), nullptr);
  EXPECT_EQ(registry.find_gauge("nope"), nullptr);
  EXPECT_EQ(registry.find_histogram("nope"), nullptr);
  EXPECT_EQ(registry.size(), 2u);

  c1.reset();
  EXPECT_EQ(registry.counter("engine.migrations").value(), 0u);
}

TEST(MetricRegistry, HistogramBucketsBoundariesAndOverflow) {
  obs::MetricRegistry registry;
  obs::Histogram& h = registry.histogram("x.h", {1.0, 2.0, 4.0});
  h.observe(0.5);   // <= 1      -> bucket 0
  h.observe(1.0);   // == bound  -> bucket 0 (inclusive upper bound)
  h.observe(1.5);   // (1, 2]    -> bucket 1
  h.observe(4.0);   // (2, 4]    -> bucket 2
  h.observe(100.0); // > 4       -> overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
  // bounds consulted only on first registration
  obs::Histogram& again = registry.histogram("x.h", {999.0});
  EXPECT_EQ(&again, &h);
  ASSERT_EQ(again.bounds().size(), 3u);
}

TEST(MetricRegistry, SnapshotIsNameSortedAndFlattensHistograms) {
  obs::MetricRegistry registry;
  registry.gauge("b.gauge").set(2.0);
  registry.counter("a.counter").add(5);
  obs::Histogram& h = registry.histogram("c.hist", {1.0});
  h.observe(0.5);
  h.observe(3.0);

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].first, "a.counter");
  EXPECT_DOUBLE_EQ(snap[0].second, 5.0);
  EXPECT_EQ(snap[1].first, "b.gauge");
  EXPECT_EQ(snap[2].first, "c.hist.count");
  EXPECT_DOUBLE_EQ(snap[2].second, 2.0);
  EXPECT_EQ(snap[3].first, "c.hist.sum");
  EXPECT_DOUBLE_EQ(snap[3].second, 3.5);
  EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end()));
}

// --- timing (obs::Stopwatch replaced common::Stopwatch) --------------------

TEST(Stopwatch, MeasuresNonNegative) {
  obs::Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 1000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
  EXPECT_GE(sw.elapsed_millis(), 0.0);
  EXPECT_GE(sw.elapsed_ns(), 0u);
  const double lap = sw.lap_seconds();
  EXPECT_GE(lap, 0.0);
  sw.restart();
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
}

TEST(ScopedTimer, AccumulatesAcrossScopes) {
  std::uint64_t sink = 0;
  {
    obs::ScopedTimer timer(sink);
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  const std::uint64_t first = sink;
  {
    obs::ScopedTimer timer(sink);
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  EXPECT_GE(sink, first);  // second scope adds onto the first
}

// --- JSONL export / import -------------------------------------------------

namespace {

obs::TraceRecord make_record(std::uint64_t seq, std::uint32_t round, std::uint32_t shim,
                             obs::EventType type, std::uint32_t a, std::uint32_t b,
                             double value) {
  obs::TraceRecord r;
  r.seq = seq;
  r.round = round;
  r.shim = shim;
  r.type = type;
  r.a = a;
  r.b = b;
  r.value = value;
  return r;
}

}  // namespace

TEST(TraceJsonl, RoundTripIsExactIncludingAwkwardDoubles) {
  std::vector<obs::TraceRecord> records;
  records.push_back(make_record(0, 1, 2, obs::EventType::kAlertRaised, 3, 4, 0.1));
  records.push_back(make_record(1, 1, obs::EventTrace::kEngine, obs::EventType::kShimTakeover,
                                5, obs::EventTrace::kEngine, -3.5));
  records.push_back(
      make_record(2, 7, 0, obs::EventType::kMigrationPlanned, 10, 11, 1e-17));
  records.push_back(make_record(3, 7, 0, obs::EventType::kInvariantViolation, 1, 0,
                                123456789.000000123));
  records.push_back(make_record(4, 8, 3, obs::EventType::kProtocolMsgDropped, 9, 0,
                                std::numeric_limits<double>::max()));
  for (std::size_t i = 0; i < obs::kEventTypeCount; ++i) {
    records.push_back(make_record(5 + i, 9, 1, static_cast<obs::EventType>(i), 0, 0, 0.0));
  }

  std::stringstream jsonl;
  obs::write_trace_jsonl(records, jsonl);
  const auto reparsed = obs::read_trace_jsonl(jsonl);
  EXPECT_EQ(reparsed, records);  // TraceRecord == is field-exact
}

TEST(TraceJsonl, OneObjectPerLine) {
  std::vector<obs::TraceRecord> records{
      make_record(0, 0, 0, obs::EventType::kAlertRaised, 0, 0, 1.0),
      make_record(1, 0, 1, obs::EventType::kRerouteChosen, 0, 0, 2.0)};
  std::stringstream jsonl;
  obs::write_trace_jsonl(records, jsonl);
  const std::string text = jsonl.str();
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')), 2u);
  EXPECT_NE(text.find("\"type\":\"AlertRaised\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"RerouteChosen\""), std::string::npos);
}

TEST(TraceJsonl, MalformedInputThrows) {
  {
    std::stringstream bad("{\"seq\":0,\"round\":0}\n");  // missing fields
    EXPECT_THROW(obs::read_trace_jsonl(bad), sc::RequirementError);
  }
  {
    std::stringstream bad(
        "{\"seq\":0,\"round\":0,\"shim\":0,\"type\":\"NoSuchEvent\",\"a\":0,\"b\":0,"
        "\"value\":0}\n");
    EXPECT_THROW(obs::read_trace_jsonl(bad), sc::RequirementError);
  }
}

TEST(TraceJsonl, EmptyStreamParsesToEmpty) {
  std::stringstream empty;
  EXPECT_TRUE(obs::read_trace_jsonl(empty).empty());
}

// --- summarize_trace / metrics_table ---------------------------------------

TEST(TraceSummary, CountsPerRoundPerTypeWithTotals) {
  std::vector<obs::TraceRecord> records;
  records.push_back(make_record(0, 0, 0, obs::EventType::kAlertRaised, 0, 0, 0));
  records.push_back(make_record(1, 0, 1, obs::EventType::kAlertRaised, 0, 0, 0));
  records.push_back(make_record(2, 0, 0, obs::EventType::kRerouteChosen, 0, 0, 0));
  records.push_back(make_record(3, 2, 0, obs::EventType::kMigrationCompleted, 0, 0, 0));

  const auto table = obs::summarize_trace(records);
  // one row per distinct round + the totals row
  ASSERT_EQ(table.rows(), 3u);
  EXPECT_EQ(table.cell(0, 0), "0");
  EXPECT_EQ(table.cell(1, 0), "2");
  EXPECT_EQ(table.cell(2, 0), "all");

  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_NE(csv.str().find("AlertRaised"), std::string::npos);
}

TEST(MetricsTable, RendersSnapshot) {
  obs::MetricRegistry registry;
  registry.counter("a.one").add(1);
  registry.gauge("b.two").set(2.0);
  const auto table = obs::metrics_table(registry);
  ASSERT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.cell(0, 0), "a.one");
  EXPECT_EQ(table.cell(1, 0), "b.two");
}

// --- decision-kernel counters (engine -> registry) --------------------------

TEST(CostKernelCounters, PublishedPerRoundAndPruningIsProvablyLossless) {
  topo::FatTreeOptions options;
  options.pods = 4;
  options.hosts_per_rack = 3;
  options.tor_agg_gbps = 1.0;
  const topo::Topology topology = topo::build_fat_tree(options);
  wl::DeploymentOptions deploy;
  deploy.seed = 23;
  deploy.vms_per_host = 2.5;
  deploy.placement = wl::PlacementPolicy::kSkewed;

  core::EngineConfig config;
  config.observe = true;
  core::DistributedEngine engine(topology, deploy, config);
  for (std::size_t r = 0; r < 30; ++r) (void)engine.run_round();

  // The engine publishes per-round deltas of all three counters, so their
  // sums are the cost model's totals. A run that alerts and migrates must
  // have evaluated Eq. (1), snapshotted the surface (once per round with
  // bandwidth state installed) and pruned with the bound. Losslessness —
  // evaluated + pruned equals the exhaustive sweep's evaluations — is
  // checked per sweep by CostSurface.PrunedMatchingSelectsIdenticallyAcross50Seeds.
  const obs::MetricRegistry& registry = engine.observation_hub()->registry();
  const auto model = engine.cost_model().stats();
  const obs::Counter* evaluated = registry.find_counter("cost.evaluated");
  const obs::Counter* pruned = registry.find_counter("cost.pruned");
  const obs::Counter* builds = registry.find_counter("cost.surface_builds");
  ASSERT_NE(evaluated, nullptr);
  ASSERT_NE(pruned, nullptr);
  ASSERT_NE(builds, nullptr);
  EXPECT_EQ(evaluated->value(), model.evaluated);
  EXPECT_EQ(pruned->value(), model.pruned);
  EXPECT_EQ(builds->value(), model.surface_builds);
  EXPECT_GT(model.evaluated, 0u);
  // One snapshot per round; the idle one a model takes at construction
  // is not counted.
  EXPECT_EQ(model.surface_builds, 30u);
  EXPECT_GT(model.pruned, 0u);  // the bound must actually fire on this fabric
}

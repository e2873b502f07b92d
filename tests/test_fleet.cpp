// Fleet runner (DESIGN.md §12): the headline guarantee — a sweep's per-run
// outputs (metrics CSV bytes, checkpoint bytes, registry capture) are
// byte-identical for ANY worker count and either pool-ownership policy,
// and identical to direct serially-constructed engines on cold copies of
// the fabric that build their own distance rows — plus the crash/resume
// contract (a killed sweep resumed from
// its manifest reproduces the uninterrupted sweep's JSONL byte for byte)
// and the cross-run quantile aggregation pinned against brute force.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "fault/fault_plan.hpp"
#include "fleet/fleet.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/checkpoint.hpp"
#include "topology/fat_tree.hpp"
#include "workload/deployment.hpp"

namespace core = sheriff::core;
namespace fleet = sheriff::fleet;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;
namespace fault = sheriff::fault;
namespace snap = sheriff::snapshot;
namespace sc = sheriff::common;

namespace {

topo::Topology fleet_fat_tree() {
  topo::FatTreeOptions options;
  options.pods = 4;  // 8 racks, 24 hosts
  options.hosts_per_rack = 3;
  options.tor_agg_gbps = 1.0;
  return topo::build_fat_tree(options);
}

wl::DeploymentOptions fleet_deployment() {
  wl::DeploymentOptions options;
  options.vms_per_host = 2.5;
  options.placement = wl::PlacementPolicy::kSkewed;
  return options;  // seed is overridden per grid cell
}

fault::FaultPlan fleet_fault_plan(const topo::Topology& topology, std::size_t rounds) {
  fault::FaultOptions options;
  options.seed = 17;
  options.message_drop_probability = 0.15;
  fault::FaultPlan plan(options);
  plan.fail_link(static_cast<topo::LinkId>(7 % topology.link_count()), 2, rounds / 2);
  plan.fail_host(topology.rack(1).hosts[0], rounds / 2);
  plan.fail_shim(0, rounds / 4, 3 * rounds / 4);
  return plan;
}

constexpr std::size_t kGridRounds = 12;

/// The 32-run grid of the determinism pin: 4 scenarios (pristine sheriff,
/// faulted sheriff, k-median — whose planner reads the shared rows — and
/// the centralized baseline) × 8 seeds.
fleet::SweepGrid make_grid(const topo::Topology& topology, const fault::FaultPlan* plan) {
  fleet::SweepGrid grid;
  grid.seeds = {11, 12, 13, 14, 15, 16, 17, 18};

  fleet::ScenarioSpec sheriff;
  sheriff.name = "sheriff";
  sheriff.topology = &topology;
  sheriff.deployment = fleet_deployment();
  sheriff.rounds = kGridRounds;
  grid.scenarios.push_back(sheriff);

  fleet::ScenarioSpec faulted = sheriff;
  faulted.name = "sheriff_faulted";
  faulted.fault_plan = plan;
  grid.scenarios.push_back(faulted);

  fleet::ScenarioSpec kmedian = sheriff;
  kmedian.name = "kmedian";
  kmedian.config.mode = core::ManagerMode::kKMedian;
  grid.scenarios.push_back(kmedian);

  fleet::ScenarioSpec centralized = sheriff;
  centralized.name = "centralized";
  centralized.config.mode = core::ManagerMode::kCentralized;
  grid.scenarios.push_back(centralized);
  return grid;
}

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "sheriff_fleet_" + leaf;
}

/// Brute-force linear-interpolation quantile, written independently of
/// common::quantile so the aggregation test is a genuine cross-check.
double brute_quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace

// --- worker-count / policy invariance and direct-engine parity ---------------

TEST(Fleet, WorkerCountAndPolicyInvarianceMatchesDirectEngines) {
  const topo::Topology topology = fleet_fat_tree();
  const fault::FaultPlan plan = fleet_fault_plan(topology, kGridRounds);
  const fleet::SweepGrid grid = make_grid(topology, &plan);
  ASSERT_EQ(grid.run_count(), 32u);

  fleet::FleetOptions base;
  base.keep_metrics_csv = true;

  // Reference: one worker, fleet-owned pool.
  base.workers = 1;
  const fleet::FleetReport reference = fleet::run_sweep(grid, base);
  ASSERT_EQ(reference.runs.size(), 32u);
  ASSERT_EQ(reference.executed, 32u);

  // Non-vacuity: the grid as a whole alerted and acted, and every run
  // produced a checkpoint and a registry capture.
  std::size_t alerts = 0;
  std::size_t actions = 0;
  for (const fleet::RunRecord& r : reference.runs) {
    ASSERT_TRUE(r.completed);
    ASSERT_NE(r.checkpoint_crc, 0u);
    ASSERT_FALSE(r.metrics.empty());
    alerts += r.summary.total_alerts;
    actions += r.summary.total_migrations + r.summary.total_reroutes;
  }
  ASSERT_GT(alerts, 0u);
  ASSERT_GT(actions, 0u);

  // Worker counts 2 and 8, plus the two-level pool policy: every per-run
  // byte must match the reference.
  std::vector<fleet::FleetOptions> variants;
  for (const std::size_t workers : {2u, 8u}) {
    fleet::FleetOptions v = base;
    v.workers = workers;
    variants.push_back(v);
  }
  {
    fleet::FleetOptions two_level = base;
    two_level.workers = 2;
    two_level.pool_policy = fleet::PoolPolicy::kTwoLevel;
    two_level.engine_threads = 2;
    variants.push_back(two_level);
  }
  for (const fleet::FleetOptions& v : variants) {
    const fleet::FleetReport report = fleet::run_sweep(grid, v);
    ASSERT_EQ(report.executed, 32u);
    for (std::size_t id = 0; id < 32; ++id) {
      const fleet::RunRecord& got = report.runs[id];
      const fleet::RunRecord& want = reference.runs[id];
      EXPECT_EQ(got.metrics_csv, want.metrics_csv)
          << "metrics CSV diverged: run " << id << " workers=" << v.workers
          << " two_level=" << (v.pool_policy == fleet::PoolPolicy::kTwoLevel);
      EXPECT_EQ(got.metrics_crc, want.metrics_crc) << "run " << id;
      EXPECT_EQ(got.checkpoint_crc, want.checkpoint_crc)
          << "checkpoint bytes diverged: run " << id << " workers=" << v.workers;
      EXPECT_EQ(got.metrics, want.metrics) << "registry capture diverged: run " << id;
      EXPECT_EQ(fleet::jsonl_line(got), fleet::jsonl_line(want)) << "run " << id;
    }
    EXPECT_EQ(report.jsonl(), reference.jsonl());
  }

  // Every fleet run read the fabric's one row set.
  EXPECT_GE(topology.distance_rows().built_rows(), topology.rack_count());

  // Direct-engine parity: each grid cell run standalone — its own pool, on
  // its own cold copy of the fabric, so it builds its own distance rows
  // instead of reading the ones every fleet run shared — reproduces the
  // fleet run byte for byte. This is what makes the shared rows an
  // optimization rather than a semantics change.
  sc::ThreadPool pool(2);
  for (std::size_t id = 0; id < grid.run_count(); ++id) {
    const topo::Topology cold = topology;
    ASSERT_EQ(cold.distance_rows().built_rows(), 0u);
    const fleet::ScenarioSpec& spec = grid.scenarios[id / grid.seeds.size()];
    wl::DeploymentOptions deploy = spec.deployment;
    deploy.seed = grid.seeds[id % grid.seeds.size()];
    core::EngineConfig config = spec.config;
    config.fault_plan = spec.fault_plan;
    config.observe = true;
    config.pool = &pool;
    core::DistributedEngine engine(cold, deploy, config);
    const std::vector<core::RoundMetrics> rounds = engine.run(spec.rounds);
    std::ostringstream csv;
    core::write_metrics_csv(csv, rounds);
    const std::string csv_bytes = csv.str();
    EXPECT_EQ(csv_bytes, reference.runs[id].metrics_csv) << "run " << id;
    const std::vector<std::uint8_t> checkpoint = core::Checkpoint::serialize(engine);
    EXPECT_EQ(snap::detail::crc32(checkpoint.data(), checkpoint.size()),
              reference.runs[id].checkpoint_crc)
        << "run " << id;
    ASSERT_NE(engine.observation_hub(), nullptr);
    EXPECT_EQ(fleet::capture_metrics(engine.observation_hub()->registry()),
              reference.runs[id].metrics)
        << "run " << id;
  }
}

// --- crash/resume ------------------------------------------------------------

TEST(Fleet, KilledSweepResumesIntoIdenticalJsonl) {
  const topo::Topology topology = fleet_fat_tree();
  fleet::SweepGrid grid = make_grid(topology, nullptr);
  grid.scenarios.resize(2);  // pristine + (plan-less) faulted spec: 2 × 4 = 8 runs
  grid.scenarios[1].fault_plan = nullptr;
  grid.seeds = {21, 22, 23, 24};
  ASSERT_EQ(grid.run_count(), 8u);

  // The uninterrupted sweep is the oracle.
  fleet::FleetOptions plain;
  plain.workers = 1;
  const fleet::FleetReport oracle = fleet::run_sweep(grid, plain);
  const std::string oracle_jsonl = oracle.jsonl();
  ASSERT_FALSE(oracle_jsonl.empty());

  const std::string manifest = temp_path("resume.manifest");
  const std::string jsonl_file = temp_path("resume.jsonl");
  std::remove(manifest.c_str());

  // "Kill" after 3 of 8 runs: a deterministic budget with one worker.
  fleet::FleetOptions first = plain;
  first.manifest_path = manifest;
  first.max_runs = 3;
  const fleet::FleetReport killed = fleet::run_sweep(grid, first);
  EXPECT_EQ(killed.executed, 3u);
  EXPECT_EQ(killed.skipped, 0u);
  EXPECT_EQ(killed.pending, 5u);

  // Resume: exactly the 5 missing runs execute, the 3 recorded ones are
  // replayed from the manifest, and the merged JSONL equals the oracle's.
  fleet::FleetOptions second = plain;
  second.manifest_path = manifest;
  second.resume = true;
  second.jsonl_path = jsonl_file;
  const fleet::FleetReport resumed = fleet::run_sweep(grid, second);
  EXPECT_EQ(resumed.executed, 5u);
  EXPECT_EQ(resumed.skipped, 3u);
  EXPECT_EQ(resumed.pending, 0u);
  std::size_t replayed = 0;
  for (const fleet::RunRecord& r : resumed.runs) {
    ASSERT_TRUE(r.completed);
    if (r.from_manifest) ++replayed;
  }
  EXPECT_EQ(replayed, 3u);
  EXPECT_EQ(resumed.jsonl(), oracle_jsonl);

  // The JSONL file on disk carries the same bytes.
  std::ifstream in(jsonl_file, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::stringstream file_bytes;
  file_bytes << in.rdbuf();
  EXPECT_EQ(file_bytes.str(), oracle_jsonl);

  // A third invocation is a no-op sweep: everything comes from the manifest.
  const fleet::FleetReport third = fleet::run_sweep(grid, second);
  EXPECT_EQ(third.executed, 0u);
  EXPECT_EQ(third.skipped, 8u);
  EXPECT_EQ(third.jsonl(), oracle_jsonl);

  std::remove(manifest.c_str());
  std::remove(jsonl_file.c_str());
}

TEST(Fleet, ManifestRejectsAForeignGrid) {
  const topo::Topology topology = fleet_fat_tree();
  fleet::SweepGrid grid = make_grid(topology, nullptr);
  grid.scenarios.resize(1);
  grid.seeds = {1, 2};

  const std::string manifest = temp_path("foreign.manifest");
  std::remove(manifest.c_str());
  fleet::FleetOptions options;
  options.workers = 1;
  options.manifest_path = manifest;
  (void)fleet::run_sweep(grid, options);

  fleet::SweepGrid other = grid;
  other.seeds = {3, 4};  // same run count, different identity
  EXPECT_NE(other.fingerprint(), grid.fingerprint());
  fleet::FleetOptions resume = options;
  resume.resume = true;
  EXPECT_THROW((void)fleet::run_sweep(other, resume), snap::SnapshotError);
  std::remove(manifest.c_str());
}

// --- manifest round trip ------------------------------------------------------

TEST(Fleet, ManifestRoundTripsRecordsByteExactly) {
  fleet::Manifest manifest;
  manifest.grid_fingerprint = 0xDEADBEEFCAFEF00DULL;
  manifest.run_count = 3;
  fleet::RunRecord record;
  record.run_id = 2;
  record.scenario = "quoted \"name\" with \\slash and \tcontrol";
  record.seed = 77;
  record.rounds = 9;
  record.metrics_crc = 0x12345678;
  record.checkpoint_crc = 0x9ABCDEF0;
  record.summary.rounds = 9;
  record.summary.total_alerts = 41;
  record.summary.total_migration_cost = 1.0 / 3.0;  // needs all 17 digits
  record.summary.mean_link_peak = 0.30000000000000004;
  record.metrics = {{"engine.migrations", 5.0, fleet::MetricKind::kCounter},
                    {"fair_share.sum", 2.5, fleet::MetricKind::kCounter},
                    {"round.stddev", 0.125, fleet::MetricKind::kGauge}};
  record.completed = true;
  manifest.completed.push_back(record);

  const std::string path = temp_path("roundtrip.manifest");
  fleet::save_manifest(path, manifest);
  const fleet::Manifest loaded = fleet::load_manifest(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.grid_fingerprint, manifest.grid_fingerprint);
  EXPECT_EQ(loaded.run_count, manifest.run_count);
  ASSERT_EQ(loaded.completed.size(), 1u);
  const fleet::RunRecord& got = loaded.completed.front();
  EXPECT_TRUE(got.from_manifest);
  EXPECT_EQ(got.scenario, record.scenario);
  EXPECT_EQ(got.metrics, record.metrics);
  // The decisive bit: the replayed record's JSONL line is byte-identical
  // to the executed record's.
  EXPECT_EQ(fleet::jsonl_line(got), fleet::jsonl_line(record));
  // And the escaping is real JSON escaping.
  EXPECT_NE(fleet::jsonl_line(record).find("\\\"name\\\""), std::string::npos);
  EXPECT_NE(fleet::jsonl_line(record).find("\\\\slash"), std::string::npos);
  EXPECT_NE(fleet::jsonl_line(record).find("\\u0009"), std::string::npos);
}

// --- cross-run quantile aggregation ------------------------------------------

TEST(Fleet, AggregateQuantilesMatchBruteForceOverFiftySeeds) {
  // 50 synthetic runs with LCG-generated registries: the aggregate's
  // p50/p95/p99 must equal an independent sort-and-interpolate
  // recomputation for every series, including ones only some runs report.
  constexpr std::size_t kRuns = 50;
  const std::vector<std::string> names = {"engine.migrations", "round.stddev",
                                          "queue.peak", "rare.metric"};
  std::uint64_t lcg = 0x243F6A8885A308D3ULL;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(lcg >> 11) / static_cast<double>(1ULL << 53);
  };

  fleet::MetricAggregate aggregate;
  std::map<std::string, std::vector<double>> expected;
  for (std::size_t run = 0; run < kRuns; ++run) {
    fleet::RunRecord record;
    record.run_id = run;
    record.completed = true;
    for (const std::string& name : names) {
      if (name == "rare.metric" && run % 7 != 0) continue;  // sparse series
      const double value = next() * 100.0;
      record.metrics.push_back({name, value, fleet::MetricKind::kGauge});
      expected[name].push_back(value);
    }
    aggregate.absorb(record);
  }
  ASSERT_EQ(aggregate.runs(), kRuns);

  for (const auto& [name, samples] : expected) {
    for (const double q : {0.50, 0.95, 0.99}) {
      EXPECT_DOUBLE_EQ(aggregate.quantile(name, q), brute_quantile(samples, q))
          << name << " q=" << q;
    }
    EXPECT_EQ(aggregate.samples(name), samples);
  }

  // merge_into publishes the same numbers as gauges.
  sheriff::obs::MetricRegistry registry;
  aggregate.merge_into(registry);
  ASSERT_NE(registry.find_counter("fleet.runs"), nullptr);
  EXPECT_EQ(registry.find_counter("fleet.runs")->value(), kRuns);
  for (const auto& [name, samples] : expected) {
    ASSERT_NE(registry.find_gauge(name + ".p95"), nullptr) << name;
    EXPECT_DOUBLE_EQ(registry.find_gauge(name + ".p50")->value(),
                     brute_quantile(samples, 0.50));
    EXPECT_DOUBLE_EQ(registry.find_gauge(name + ".p95")->value(),
                     brute_quantile(samples, 0.95));
    EXPECT_DOUBLE_EQ(registry.find_gauge(name + ".p99")->value(),
                     brute_quantile(samples, 0.99));
  }
  // A single-sample series is its own quantile (the degenerate input the
  // stats fix made well-defined).
  fleet::MetricAggregate lone;
  fleet::RunRecord single;
  single.metrics = {{"only.once", 42.0, fleet::MetricKind::kGauge}};
  lone.absorb(single);
  EXPECT_DOUBLE_EQ(lone.quantile("only.once", 0.99), 42.0);
  EXPECT_DOUBLE_EQ(lone.quantile("never.seen", 0.5), 0.0);
}

// --- small laws --------------------------------------------------------------

TEST(Fleet, EmptyGridAndValidationLaws) {
  const topo::Topology topology = fleet_fat_tree();
  fleet::SweepGrid empty;
  const fleet::FleetReport report = fleet::run_sweep(empty, {});
  EXPECT_TRUE(report.runs.empty());
  EXPECT_EQ(report.executed, 0u);
  EXPECT_EQ(report.jsonl(), "");

  fleet::SweepGrid bad;
  bad.scenarios.push_back({});  // no topology
  bad.seeds = {1};
  EXPECT_THROW((void)fleet::run_sweep(bad, {}), sheriff::common::RequirementError);

  fleet::SweepGrid ok = make_grid(topology, nullptr);
  fleet::FleetOptions resume_without_manifest;
  resume_without_manifest.resume = true;
  EXPECT_THROW((void)fleet::run_sweep(ok, resume_without_manifest),
               sheriff::common::RequirementError);
}

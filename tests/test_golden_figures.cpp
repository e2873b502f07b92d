// Golden-figure regression tests: pin small-instance outputs of the
// figure benches byte-for-byte. The figure pipelines (trace generation,
// ARIMA fitting, the balance loop, the Sheriff-vs-centralized sweep) are
// fully deterministic given their seeds, so any diff here is a behavior
// change that would silently reshape the paper figures. The last two
// tests pin the checkpoint codec the same way: the frame of every section
// a set of small runs writes, and that a restored engine writes it back.
//
// Golden files live in tests/golden/ and are compared byte-exact. To
// regenerate after an intentional change:
//
//     SHERIFF_REGEN_GOLDENS=1 ctest -L golden
//
// then review the diff of tests/golden/*.txt like any other code change.
// Wall-clock columns (the *_seconds fields of ManagerComparison) are
// deliberately excluded — only deterministic columns are pinned.
//
// This target compiles bench/bench_support.cpp directly instead of
// linking a bench library: the ASan preset builds with
// SHERIFF_BUILD_BENCH=OFF, and these tests must still run there.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "common/ascii_plot.hpp"
#include "common/math_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "fault/fault_plan.hpp"
#include "fleet/fleet.hpp"
#include "snapshot/checkpoint.hpp"
#include "timeseries/arima.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"
#include "workload/trace_generator.hpp"

namespace bench = sheriff::bench;
namespace common = sheriff::common;
namespace core = sheriff::core;
namespace fault = sheriff::fault;
namespace fleet = sheriff::fleet;
namespace topo = sheriff::topo;
namespace ts = sheriff::ts;
namespace wl = sheriff::wl;

namespace {

std::string golden_path(const std::string& name) {
  return std::string(SHERIFF_GOLDEN_DIR) + "/" + name;
}

/// Byte-exact comparison against tests/golden/<name>; with
/// SHERIFF_REGEN_GOLDENS=1 the file is rewritten instead and the test
/// passes, so a regen run is also a smoke test of the pipelines.
void expect_matches_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  const char* regen = std::getenv("SHERIFF_REGEN_GOLDENS");
  if (regen != nullptr && std::string(regen) == "1") {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with SHERIFF_REGEN_GOLDENS=1";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), actual)
      << "output of " << name
      << " drifted; if intentional, regenerate with SHERIFF_REGEN_GOLDENS=1 "
         "and review the golden diff";
}

}  // namespace

// Small instance of bench_fig06_arima: four days of the weekly traffic
// trace, 50/50 train/test, ARIMA(1,1,1) one-step predictions.
TEST(GoldenFigures, Fig06ArimaSmallInstance) {
  auto gen = wl::make_weekly_traffic_trace(601);
  const auto series = gen->generate(48 * 4);
  const std::size_t split = series.size() / 2;
  const std::vector<double> train(series.begin(),
                                  series.begin() + static_cast<std::ptrdiff_t>(split));
  const std::vector<double> actual(series.begin() + static_cast<std::ptrdiff_t>(split),
                                   series.end());

  ts::ArimaModel model(ts::ArimaOrder{1, 1, 1});
  model.fit(train);

  const auto train_preds = model.one_step_predictions(train, 8);
  const std::vector<double> train_actual(train.begin() + 8, train.end());
  const auto test_preds = model.one_step_predictions(series, split);
  std::vector<double> bias(actual.size());
  for (std::size_t i = 0; i < actual.size(); ++i) bias[i] = actual[i] - test_preds[i];

  std::ostringstream os;
  os << "fig06 small instance: weekly trace seed 601, 48*4 samples, ARIMA(1,1,1)\n"
     << "phi=" << common::format_fixed(model.ar_coefficients()[0], 6)
     << " theta=" << common::format_fixed(model.ma_coefficients()[0], 6)
     << " c=" << common::format_fixed(model.intercept(), 6)
     << " sigma^2=" << common::format_fixed(model.innovation_variance(), 6) << "\n";
  common::Table table({"window", "MSE", "RMSE", "MAPE %", "mean bias", "signal stddev"});
  table.begin_row()
      .add("train (in-sample)")
      .add(common::mean_squared_error(train_actual, train_preds), 3)
      .add(common::root_mean_squared_error(train_actual, train_preds), 3)
      .add(common::mean_absolute_percentage_error(train_actual, train_preds), 2)
      .add(0.0, 3)
      .add(common::stddev(train_actual), 2);
  table.begin_row()
      .add("test (one-step)")
      .add(common::mean_squared_error(actual, test_preds), 3)
      .add(common::root_mean_squared_error(actual, test_preds), 3)
      .add(common::mean_absolute_percentage_error(actual, test_preds), 2)
      .add(common::mean(bias), 3)
      .add(common::stddev(actual), 2);
  table.print(os);
  expect_matches_golden("fig06_arima_small.txt", os.str());
}

// Small instance of bench_fig09_fattree_balance: 4-pod Fat-Tree, 8
// migration rounds, including the rendered stddev curve.
TEST(GoldenFigures, Fig09FatTreeBalanceSmallInstance) {
  topo::FatTreeOptions topt;
  topt.pods = 4;
  topt.hosts_per_rack = 2;
  const auto topology = topo::build_fat_tree(topt);
  const auto result = bench::run_balance(topology, 8, 901);

  std::ostringstream os;
  os << "fig09 small instance: " << topology.name() << " (" << topology.host_count()
     << " hosts, " << topology.rack_count() << " racks), 8 rounds, seed 901\n";
  common::Table table({"migration round", "workload stddev %"});
  for (std::size_t r = 0; r < result.stddev_by_round.size(); ++r) {
    table.begin_row().add(r).add(result.stddev_by_round[r], 2);
  }
  table.print(os);
  common::PlotOptions plot;
  plot.title = "\nworkload stddev (%) by migration round";
  plot.series_names = {"stddev"};
  os << common::render_plot(result.stddev_by_round, plot);
  os << "\nmigrations " << result.total_migrations << ", alerts " << result.total_alerts
     << "\n";
  expect_matches_golden("fig09_fattree_balance_small.txt", os.str());
}

// Small instance of bench_fig11_fattree_cost: the Sheriff-vs-centralized
// sweep at 4 and 8 pods. Only deterministic columns are pinned — the
// sweep's wall-clock seconds are left out.
TEST(GoldenFigures, Fig11FatTreeCostSmallInstance) {
  const auto sweep = bench::sweep_fat_tree({4, 8}, 1101);

  std::ostringstream os;
  os << "fig11 small instance: fat-tree pods {4, 8}, 5% alerted, seed 1101\n";
  common::Table table({"pods", "hosts", "alerted", "APP cost", "OPT cost", "APP space",
                       "OPT space", "APP moves", "OPT moves"});
  for (const auto& p : sweep) {
    table.begin_row()
        .add(p.size_param)
        .add(p.hosts)
        .add(p.alerted)
        .add(p.sheriff_cost, 3)
        .add(p.centralized_cost, 3)
        .add(p.sheriff_space)
        .add(p.centralized_space)
        .add(p.sheriff_migrations)
        .add(p.centralized_migrations);
  }
  table.print(os);
  double worst_ratio = 0.0;
  for (const auto& p : sweep) {
    if (p.centralized_cost > 0.0) {
      worst_ratio = std::max(worst_ratio, p.sheriff_cost / p.centralized_cost);
    }
  }
  os << "\nworst sheriff/optimal cost ratio: " << common::format_fixed(worst_ratio, 3)
     << "\n";
  expect_matches_golden("fig11_fattree_cost_small.txt", os.str());
}

// Small instance of bench_fig13_bcube_cost at 4 and 8 switches per level.
// BCube servers are multi-homed, so the sweep prices moves along the cost
// model's generic path walk (fig11's single-homed Fat-Tree hosts take the
// rack-memo branch). Costs are pinned at full precision (%.17g), so a
// changed FP summation order shows as a diff.
TEST(GoldenFigures, Fig13BCubeCostSmallInstance) {
  const auto sweep = bench::sweep_bcube({4, 8}, 1301);
  const auto exact = [](double v) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", v);
    return std::string(buffer);
  };
  std::ostringstream os;
  os << "fig13 small instance: bcube switches/level {4, 8}, 5% alerted, seed 1301\n";
  for (const auto& p : sweep) {
    os << "switches/level " << p.size_param << ": hosts " << p.hosts << ", alerted "
       << p.alerted << "\n"
       << "  APP cost " << exact(p.sheriff_cost) << ", space " << p.sheriff_space
       << ", moves " << p.sheriff_migrations << "\n"
       << "  OPT cost " << exact(p.centralized_cost) << ", space " << p.centralized_space
       << ", moves " << p.centralized_migrations << "\n";
  }
  expect_matches_golden("fig13_bcube_cost_small.txt", os.str());
}

// Both migration protocols on a faulted 4-pod Fat-Tree, 60 rounds: a shim
// crash (neighbor takeover), a permanent host loss (orphan recovery), link
// flaps and 15% REQUEST/ACK loss. Pins the full metrics CSV of each run —
// alert tallies, reroutes, where takeover and orphan demands land, and the
// serialized-FCFS path that no figure bench exercises.
TEST(GoldenFigures, ProtocolsUnderFaultsSmallInstance) {
  topo::FatTreeOptions topt;
  topt.pods = 4;
  topt.hosts_per_rack = 3;
  topt.tor_agg_gbps = 1.0;
  const auto topology = topo::build_fat_tree(topt);
  wl::DeploymentOptions deploy;
  deploy.seed = 23;
  deploy.vms_per_host = 2.5;
  deploy.placement = wl::PlacementPolicy::kSkewed;

  constexpr std::size_t kRounds = 60;
  fault::FaultOptions fopt;
  fopt.seed = 17;
  fopt.message_drop_probability = 0.15;
  fault::FaultPlan plan(fopt);
  plan.fail_link(7, 2, 15);
  plan.fail_link(23, 20, 30);
  plan.fail_link(41, 30, 58);
  plan.fail_host(topology.rack(1).hosts[0], 30);
  plan.fail_shim(0, 15, 45);

  std::ostringstream os;
  os << "protocols under faults: " << topology.name() << " (" << topology.host_count()
     << " hosts, " << topology.rack_count() << " racks), " << kRounds
     << " rounds, deploy seed 23, fault seed 17, 15% message loss\n";
  for (const auto protocol :
       {core::MigrationProtocol::kMessagePassing, core::MigrationProtocol::kSerializedFcfs}) {
    core::EngineConfig config;
    config.protocol = protocol;
    config.fault_plan = &plan;
    core::DistributedEngine engine(topology, deploy, config);
    const std::vector<core::RoundMetrics> rounds = engine.run(kRounds);
    const core::RunSummary summary = core::summarize(rounds);
    // The pin is only meaningful if every fault path actually fired.
    EXPECT_GT(summary.total_migrations, 0u);
    EXPECT_GT(summary.total_reroutes, 0u);
    EXPECT_GT(summary.total_recovery_migrations, 0u);
    EXPECT_GT(summary.rounds_with_failures, 0u);
    if (protocol == core::MigrationProtocol::kMessagePassing) {
      EXPECT_GT(summary.total_protocol_drops, 0u);
    }
    os << "\n== "
       << (protocol == core::MigrationProtocol::kMessagePassing ? "message-passing"
                                                                 : "serialized FCFS")
       << " ==\n";
    core::write_metrics_csv(os, rounds);
  }
  expect_matches_golden("protocols_faulted_small.txt", os.str());
}

// The Sec. V-A centralized k-median manage phase on an 8-pod Fat-Tree,
// 60 rounds, at swap sizes p = 2 and 3 and at p = 2 under a tight
// evaluation cap. Pins the full metrics CSV of each run: every migration
// the Alg. 5 local search chooses, and its search_space (the solver's
// evaluation count), so a change to the multi-swap scan's trajectory,
// its counting or its cap shows here.
TEST(GoldenFigures, KMedianManageSmallInstance) {
  topo::FatTreeOptions topt;
  topt.pods = 8;
  topt.hosts_per_rack = 3;
  const auto topology = topo::build_fat_tree(topt);
  wl::DeploymentOptions deploy;
  deploy.seed = 23;
  deploy.vms_per_host = 2.5;
  deploy.placement = wl::PlacementPolicy::kSkewed;

  struct Run {
    const char* name;
    std::size_t swap_p;
    std::size_t max_evaluations;
  };
  constexpr std::size_t kRounds = 60;
  std::ostringstream os;
  os << "k-median manage: " << topology.name() << " (" << topology.host_count() << " hosts, "
     << topology.rack_count() << " racks), " << kRounds << " rounds, deploy seed 23\n";
  std::vector<std::size_t> search_space;
  for (const Run& run : {Run{"p=2", 2, 0}, Run{"p=3", 3, 0}, Run{"p=2, cap 1500", 2, 1500}}) {
    core::EngineConfig config;
    config.mode = core::ManagerMode::kKMedian;
    config.kmedian_swap_p = run.swap_p;
    config.kmedian_max_evaluations = run.max_evaluations;
    config.observe = true;
    core::DistributedEngine engine(topology, deploy, config);
    const std::vector<core::RoundMetrics> rounds = engine.run(kRounds);
    const core::RunSummary summary = core::summarize(rounds);
    EXPECT_GT(summary.total_migrations, 0u) << run.name;
    search_space.push_back(summary.total_search_space);
    const auto* cap_hits = engine.observation_hub()->registry().find_counter("kmedian.cap_hits");
    ASSERT_NE(cap_hits, nullptr);
    if (run.max_evaluations != 0) {
      EXPECT_GT(cap_hits->value(), 0u) << run.name;
    } else {
      EXPECT_EQ(cap_hits->value(), 0u) << run.name;
    }
    os << "\n== " << run.name << " ==\n";
    core::write_metrics_csv(os, rounds);
  }
  // A larger swap size must scan a strictly larger neighbourhood.
  EXPECT_GT(search_space[1], search_space[0]);
  expect_matches_golden("kmedian_manage_small.txt", os.str());
}

// --- checkpoint bytes ---------------------------------------------------------
//
// The checkpoint codec is pinned by the frame of every section it writes:
// tag, version, payload length and the payload's CRC-32 (DESIGN.md §10).
// A reordered field, a changed width or a dropped value changes a CRC even
// where the run's results do not move. Every engine below observes and
// audits, so a SHERIFF_FORCE_AUDIT=1 leg writes the same bytes.

namespace {

/// One line per section: tag, version, payload bytes and CRC-32, read
/// straight off the archive frame (magic | tag | version | length | crc).
std::string section_frames(const std::vector<std::uint8_t>& bytes) {
  const auto read = [&](std::size_t pos, int width) {
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) v |= static_cast<std::uint64_t>(bytes.at(pos + i)) << (8 * i);
    return v;
  };
  std::ostringstream os;
  std::size_t pos = 8;  // preamble
  while (pos < bytes.size()) {
    const std::string tag(bytes.begin() + static_cast<std::ptrdiff_t>(pos + 4),
                          bytes.begin() + static_cast<std::ptrdiff_t>(pos + 8));
    const std::uint64_t length = read(pos + 12, 8);
    char crc[16];
    std::snprintf(crc, sizeof crc, "%08x", static_cast<unsigned>(read(pos + 20, 4)));
    os << "  " << tag << " v" << read(pos + 8, 4) << " bytes " << length << " crc " << crc
       << "\n";
    pos += 24 + length;
  }
  return os.str();
}

/// The pinned engine runs, all on a Fat-Tree k=4 with 3 hosts per rack
/// (deployment seed 7, 2.5 VMs per host) unless named otherwise.
struct CheckpointRun {
  std::string name;
  const topo::Topology* topology;
  wl::DeploymentOptions deploy;
  core::EngineConfig config;
  std::size_t rounds;
};

struct CheckpointFabrics {
  topo::Topology fat_tree = [] {
    topo::FatTreeOptions options;
    options.pods = 4;
    options.hosts_per_rack = 3;
    return topo::build_fat_tree(options);
  }();
  topo::Topology bcube = [] {
    topo::BCubeOptions options;
    options.ports = 4;
    options.levels = 1;
    return topo::build_bcube(options);
  }();
  fault::FaultPlan faults = [] {
    fault::FaultOptions options;
    options.seed = 17;
    options.message_drop_probability = 0.2;
    fault::FaultPlan plan(options);
    plan.fail_link(7, 2, 5);
    plan.fail_link(23, 6, 9);
    plan.fail_shim(0, 4, 10);
    return plan;
  }();

  [[nodiscard]] std::vector<CheckpointRun> runs() const {
    wl::DeploymentOptions deploy;
    deploy.seed = 7;
    deploy.vms_per_host = 2.5;
    core::EngineConfig config;
    config.observe = true;
    config.audit = true;
    const CheckpointRun sheriff{"sheriff", &fat_tree, deploy, config, 12};

    std::vector<CheckpointRun> out{sheriff};
    out.push_back(sheriff);
    out.back().name = "sheriff, link flaps + shim crash + 20% loss";
    out.back().config.fault_plan = &faults;
    out.push_back(sheriff);
    out.back().name = "centralized";
    out.back().config.mode = core::ManagerMode::kCentralized;
    out.push_back(sheriff);
    out.back().name = "kmedian";
    out.back().config.mode = core::ManagerMode::kKMedian;
    out.push_back(sheriff);
    out.back().name = "serialized FCFS";
    out.back().config.protocol = core::MigrationProtocol::kSerializedFcfs;
    out.push_back(sheriff);
    out.back().name = "naive predictor";
    out.back().config.predictor = core::PredictorKind::kNaive;
    out.push_back(sheriff);
    out.back().name = "bcube(4,1)";
    out.back().topology = &bcube;
    out.push_back(sheriff);
    out.back().name = "ensemble predictor, past its first fit";
    out.back().config.predictor = core::PredictorKind::kEnsemble;
    out.back().deploy.vms_per_host = 1.0;
    out.back().rounds = 52;
    return out;
  }
};

std::vector<std::uint8_t> run_and_serialize(const CheckpointRun& run) {
  core::DistributedEngine engine(*run.topology, run.deploy, run.config);
  (void)engine.run(run.rounds);
  return core::Checkpoint::serialize(engine);
}

}  // namespace

TEST(GoldenFigures, CheckpointSectionsSmallInstance) {
  const CheckpointFabrics fabrics;
  std::ostringstream os;
  os << "checkpoint sections: tag, version, payload bytes, CRC-32\n";
  for (const CheckpointRun& run : fabrics.runs()) {
    const std::vector<std::uint8_t> bytes = run_and_serialize(run);
    os << "\n== " << run.name << ", " << run.rounds << " rounds: " << bytes.size()
       << " bytes ==\n"
       << section_frames(bytes);
  }

  // The fleet manifest (FMAN): a 2x2 grid, audit on, one worker.
  fleet::SweepGrid grid;
  grid.seeds = {7, 8};
  fleet::ScenarioSpec spec;
  spec.name = "sheriff";
  spec.topology = &fabrics.fat_tree;
  spec.deployment.vms_per_host = 2.5;
  spec.config.audit = true;
  spec.rounds = 6;
  grid.scenarios.push_back(spec);
  spec.name = "kmedian";
  spec.config.mode = core::ManagerMode::kKMedian;
  grid.scenarios.push_back(spec);
  fleet::FleetOptions options;
  options.manifest_path = ::testing::TempDir() + "sheriff_golden_checkpoint.manifest";
  std::remove(options.manifest_path.c_str());
  (void)fleet::run_sweep(grid, options);
  std::ifstream in(options.manifest_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::vector<std::uint8_t> manifest((std::istreambuf_iterator<char>(in)),
                                           std::istreambuf_iterator<char>());
  std::remove(options.manifest_path.c_str());
  os << "\n== fleet manifest, 2 scenarios x 2 seeds, 6 rounds: " << manifest.size()
     << " bytes ==\n"
     << section_frames(manifest);
  expect_matches_golden("checkpoint_sections_small.txt", os.str());
}

// A restored engine writes back the bytes it was restored from, for every
// pinned run and for an engine that has no observation hub.
TEST(GoldenFigures, CheckpointReserializesIdentically) {
  const CheckpointFabrics fabrics;
  std::vector<CheckpointRun> runs = fabrics.runs();
  runs.push_back(runs.front());
  runs.back().name = "no observation hub";
  runs.back().config.observe = false;
  runs.back().config.audit = false;
  for (const CheckpointRun& run : runs) {
    const std::vector<std::uint8_t> bytes = run_and_serialize(run);
    core::DistributedEngine restored(*run.topology, run.deploy, run.config);
    core::Checkpoint::deserialize(restored, bytes);
    EXPECT_TRUE(core::Checkpoint::serialize(restored) == bytes) << run.name;
  }
}

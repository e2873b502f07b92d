// Golden-figure regression tests: pin small-instance outputs of the
// figure benches byte-for-byte. The figure pipelines (trace generation,
// ARIMA fitting, the balance loop, the Sheriff-vs-centralized sweep) are
// fully deterministic given their seeds, so any diff here is a behavior
// change that would silently reshape the paper figures.
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
#include <cstdio>
#include <cstdlib>
#include <fstream>
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
#include "timeseries/arima.hpp"
#include "topology/fat_tree.hpp"
#include "workload/trace_generator.hpp"

namespace bench = sheriff::bench;
namespace common = sheriff::common;
namespace core = sheriff::core;
namespace fault = sheriff::fault;
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

// Ablation: pre-alert vs contingency — the paper's core argument. We run
// the same DCN with (a) no prediction (react to current state only),
// (b) Holt smoothing, and (c) the full ARIMA+NARNET ensemble (on a small
// instance), and measure how long hosts stay overloaded.

#include <iostream>

#include "bench_support.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "topology/fat_tree.hpp"

namespace {

struct ModeTotals {
  double overloaded_host_rounds = 0.0;
  std::size_t alerts = 0;
  std::size_t migrations = 0;
  double final_stddev = 0.0;
};

ModeTotals run(const sheriff::topo::Topology& topology, sheriff::core::PredictorKind kind,
               int rounds) {
  using namespace sheriff;
  core::EngineConfig config;
  config.predictor = kind;
  config.sheriff.prediction_horizon = 3;  // act three periods early
  if (kind == core::PredictorKind::kNaive) {
    // Contingency baseline: no forecasting, and reaction only once a host
    // is effectively at the wall (the behaviour the paper argues against).
    config.sheriff.host_overload_percent = 95.0;
    config.sheriff.hotspot_factor = 3.5;
    config.sheriff.hotspot_floor_percent = 45.0;
  }
  auto deploy = bench::bench_deployment_options(66);
  deploy.hot_vm_fraction = 0.2;
  deploy.hot_host_bias = 4.0;
  deploy.skew_weight = 10.0;
  core::DistributedEngine engine(topology, deploy, config);

  // "Overloaded" for this drill: a host carrying more than twice the fleet
  // mean and over 40% — the hotspots pre-alerting is meant to dissolve.
  ModeTotals totals;
  for (int r = 0; r < rounds; ++r) {
    const auto m = engine.run_round();
    totals.alerts += m.host_alerts + m.tor_alerts + m.switch_alerts;
    totals.migrations += m.migrations;
    const double mean = engine.deployment().workload_mean();
    for (const auto& node : topology.nodes()) {
      if (node.kind != topo::NodeKind::kHost) continue;
      const double load = engine.deployment().host_load_percent(node.id);
      if (load > 40.0 && load > 2.0 * mean) totals.overloaded_host_rounds += 1.0;
    }
  }
  totals.final_stddev = engine.deployment().workload_stddev();
  return totals;
}

}  // namespace

int main() {
  using namespace sheriff;
  bench::print_figure_header(
      "Ablation D", "prediction ablation: contingency vs Holt vs ARIMA+NARNET ensemble",
      "the paper's motivation: pre-control beats contingency — predicting overloads "
      "and acting early leaves hosts overloaded for less time");

  topo::FatTreeOptions topt;
  topt.pods = 4;
  topt.hosts_per_rack = 2;  // small so the ensemble stays affordable
  const auto topology = topo::build_fat_tree(topt);
  const int rounds = 60;

  const auto naive = run(topology, core::PredictorKind::kNaive, rounds);
  const auto holt = run(topology, core::PredictorKind::kHolt, rounds);
  const auto ensemble = run(topology, core::PredictorKind::kEnsemble, rounds);

  common::Table table({"predictor", "overloaded host-rounds", "alerts", "migrations",
                       "final stddev %"});
  const auto add_row = [&](const char* name, const ModeTotals& t) {
    table.begin_row()
        .add(name)
        .add(t.overloaded_host_rounds, 0)
        .add(t.alerts)
        .add(t.migrations)
        .add(t.final_stddev, 2);
  };
  add_row("none (contingency)", naive);
  add_row("Holt smoothing", holt);
  add_row("ARIMA+NARNET ensemble", ensemble);
  table.print(std::cout);

  std::cout << "\nprediction lets shims fire alerts before hosts hit the wall, which is\n"
               "the paper's pre-alert argument in one table.\n";
  return 0;
}

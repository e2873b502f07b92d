// bcube_hotspot: inject a hotspot into a BCube fabric and contrast two
// operating modes the paper argues between — contingency (react only when
// hosts are already overloaded, i.e. a high alert threshold) versus
// Sheriff's pre-alert (predict and act early, lower threshold) — measuring
// how long hosts stay overloaded under each.
//
//   $ ./bcube_hotspot [ports] [rounds]

#include <iostream>

#include "cli_args.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "topology/bcube.hpp"

namespace {

struct ModeResult {
  double overloaded_host_rounds = 0.0;  ///< Σ over rounds of overloaded hosts
  double final_stddev = 0.0;
  std::size_t migrations = 0;
  std::size_t alerts = 0;
};

ModeResult run_mode(const sheriff::topo::Topology& topology, bool prealert, int rounds) {
  using namespace sheriff;
  wl::DeploymentOptions deploy_options;
  deploy_options.seed = 99;
  deploy_options.hot_vm_fraction = 0.2;  // the hotspot population
  deploy_options.hot_host_bias = 4.0;
  deploy_options.skew_weight = 10.0;

  core::EngineConfig config;
  if (prealert) {
    // Sheriff proper: predict, and treat relative hotspots as alerts.
    config.predictor = core::PredictorKind::kHolt;
  } else {
    // Contingency: no forecasting, and react only to hosts that are
    // already effectively at the wall.
    config.predictor = core::PredictorKind::kNaive;
    config.sheriff.host_overload_percent = 95.0;
    config.sheriff.hotspot_factor = 3.5;       // only extreme hotspots
    config.sheriff.hotspot_floor_percent = 45.0;
  }
  core::DistributedEngine engine(topology, deploy_options, config);

  ModeResult result;
  for (int r = 0; r < rounds; ++r) {
    const auto m = engine.run_round();
    result.migrations += m.migrations;
    result.alerts += m.host_alerts + m.tor_alerts + m.switch_alerts;
    // Hotspot exposure: host-rounds spent far above the fleet mean.
    const double mean = engine.deployment().workload_mean();
    for (const auto& node : topology.nodes()) {
      if (node.kind != topo::NodeKind::kHost) continue;
      const double load = engine.deployment().host_load_percent(node.id);
      if (load > 40.0 && load > 2.0 * mean) result.overloaded_host_rounds += 1.0;
    }
  }
  result.final_stddev = engine.deployment().workload_stddev();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sheriff;
  constexpr std::string_view kUsage = "[ports 2..16] [rounds 1..100000]";
  const int ports = examples::positional(argc, argv, 1, 8, 2, 16, kUsage);
  const int rounds = examples::positional(argc, argv, 2, 40, 1, 100000, kUsage);

  topo::BCubeOptions options;
  options.ports = ports;
  options.levels = 1;
  const auto topology = topo::build_bcube(options);
  std::cout << "hotspot drill on " << topology.name() << ": " << topology.host_count()
            << " servers, " << topology.rack_count() << " racks, " << rounds << " rounds\n\n";

  const auto contingency = run_mode(topology, /*prealert=*/false, rounds);
  const auto prealert = run_mode(topology, /*prealert=*/true, rounds);

  common::Table table(
      {"mode", "hotspot host-rounds", "final stddev %", "migrations", "alerts"});
  table.begin_row()
      .add("contingency (react late)")
      .add(contingency.overloaded_host_rounds, 0)
      .add(contingency.final_stddev, 2)
      .add(contingency.migrations)
      .add(contingency.alerts);
  table.begin_row()
      .add("sheriff pre-alert")
      .add(prealert.overloaded_host_rounds, 0)
      .add(prealert.final_stddev, 2)
      .add(prealert.migrations)
      .add(prealert.alerts);
  table.print(std::cout);

  std::cout << "\npre-alert cut hotspot host-rounds by "
            << (contingency.overloaded_host_rounds > 0
                    ? 100.0 * (1.0 - prealert.overloaded_host_rounds /
                                         contingency.overloaded_host_rounds)
                    : 0.0)
            << "%\n";
  return 0;
}

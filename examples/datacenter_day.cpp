// datacenter_day: simulate a full "day" (288 five-minute management
// rounds) of a Fat-Tree data center under diurnal load, and report how
// Sheriff's pre-alert management kept hosts balanced, hour by hour.
//
//   $ ./datacenter_day [pods] [rounds] [metrics.csv]
//
// Passing a third argument writes every round's metrics as CSV (loads
// directly into pandas/gnuplot).

#include <fstream>
#include <iostream>
#include <vector>

#include "cli_args.hpp"
#include "common/ascii_plot.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "topology/fat_tree.hpp"

int main(int argc, char** argv) {
  using namespace sheriff;
  constexpr std::string_view kUsage = "[pods 2..32, even] [rounds 1..100000] [metrics.csv]";
  const int pods = examples::positional(argc, argv, 1, 8, 2, 32, kUsage);
  const int rounds = examples::positional(argc, argv, 2, 288, 1, 100000, kUsage);
  if (pods % 2 != 0) examples::usage_error(argv[0], "a Fat-Tree needs an even pod count", kUsage);
  std::ofstream csv;
  if (argc > 3) {
    csv.open(argv[3]);
    examples::require_writable(argv[0], csv, argv[3]);
  }

  topo::FatTreeOptions topo_options;
  topo_options.pods = pods;
  topo_options.hosts_per_rack = 2;
  const auto topology = topo::build_fat_tree(topo_options);

  wl::DeploymentOptions deploy_options;
  deploy_options.seed = 24;
  deploy_options.vms_per_host = 3.0;
  deploy_options.hot_vm_fraction = 0.1;

  core::EngineConfig config;
  core::DistributedEngine engine(topology, deploy_options, config);

  std::cout << "simulating " << rounds << " rounds (5-minute periods) on " << topology.name()
            << " — " << engine.deployment().vm_count() << " VMs on " << topology.host_count()
            << " hosts\n\n";

  std::vector<double> stddev_series;
  std::vector<core::RoundMetrics> all_metrics;
  std::size_t migrations = 0;
  std::size_t reroutes = 0;
  std::size_t alerts = 0;
  common::Table hourly({"hour", "mean load %", "stddev %", "alerts", "migrations", "reroutes"});
  double hour_alerts = 0;
  double hour_migrations = 0;
  double hour_reroutes = 0;

  for (int r = 0; r < rounds; ++r) {
    const auto m = engine.run_round();
    all_metrics.push_back(m);
    stddev_series.push_back(m.workload_stddev_after);
    migrations += m.migrations;
    reroutes += m.reroutes;
    const std::size_t round_alerts = m.host_alerts + m.tor_alerts + m.switch_alerts;
    alerts += round_alerts;
    hour_alerts += static_cast<double>(round_alerts);
    hour_migrations += static_cast<double>(m.migrations);
    hour_reroutes += static_cast<double>(m.reroutes);
    if ((r + 1) % 12 == 0) {  // 12 rounds = one hour
      hourly.begin_row()
          .add((r + 1) / 12)
          .add(m.workload_mean, 1)
          .add(m.workload_stddev_after, 2)
          .add(static_cast<std::size_t>(hour_alerts))
          .add(static_cast<std::size_t>(hour_migrations))
          .add(static_cast<std::size_t>(hour_reroutes));
      hour_alerts = hour_migrations = hour_reroutes = 0;
    }
  }

  hourly.print(std::cout);
  common::PlotOptions plot;
  plot.title = "\nhost workload stddev (%) across the day";
  plot.series_names = {"stddev"};
  std::cout << common::render_plot(stddev_series, plot);
  const auto summary = core::summarize(all_metrics);
  std::cout << "\ntotals: " << alerts << " alerts, " << migrations << " migrations ("
            << common::format_fixed(summary.total_migration_seconds, 1) << " s copied, "
            << common::format_fixed(summary.total_downtime_seconds * 1e3, 1)
            << " ms total downtime), " << reroutes << " flow reroutes\n";

  if (argc > 3) {
    core::write_metrics_csv(csv, all_metrics);
    examples::require_writable(argv[0], csv, argv[3]);
    std::cout << "wrote per-round metrics to " << argv[3] << "\n";
  }
  return 0;
}

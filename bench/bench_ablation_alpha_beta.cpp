// Ablation: the PRIORITY capacity fractions α (switch alerts) and β (ToR
// alerts). The paper presents α/β as "different portions of capacity for
// migration since it is not necessary to migrate all VMs" but does not
// sweep them; this bench does, showing the balance/cost trade-off.

#include <iostream>

#include "bench_support.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "topology/fat_tree.hpp"

int main() {
  using namespace sheriff;
  bench::print_figure_header(
      "Ablation A", "PRIORITY capacity fractions alpha/beta",
      "design-choice sweep (not a paper figure): larger fractions move more load "
      "per alert — better balance, higher migration cost");

  topo::FatTreeOptions topt;
  topt.pods = 6;
  topt.hosts_per_rack = 3;
  topt.tor_agg_gbps = 1.0;  // narrow uplinks so ToR/switch alerts occur
  const auto topology = topo::build_fat_tree(topt);

  common::Table table({"alpha", "beta", "migrations", "reroutes", "total cost",
                       "final stddev %", "tor alerts"});
  for (double alpha : {0.1, 0.3, 0.5}) {
    for (double beta : {0.1, 0.2, 0.4}) {
      core::EngineConfig config;
      config.sheriff.alpha = alpha;
      config.sheriff.beta = beta;
      config.flow_demand_scale_gbps = 0.9;  // congested fabric
      auto deploy = bench::bench_deployment_options(77);
      deploy.skew_weight = 8.0;
      deploy.hot_host_bias = 4.0;
      deploy.dependency_degree = 2.0;
      core::DistributedEngine engine(topology, deploy, config);

      std::size_t migrations = 0;
      std::size_t reroutes = 0;
      std::size_t tor_alerts = 0;
      double cost = 0.0;
      for (int r = 0; r < 12; ++r) {
        const auto m = engine.run_round();
        migrations += m.migrations;
        reroutes += m.reroutes;
        tor_alerts += m.tor_alerts;
        cost += m.migration_cost;
      }
      table.begin_row()
          .add(alpha, 1)
          .add(beta, 1)
          .add(migrations)
          .add(reroutes)
          .add(cost, 1)
          .add(engine.deployment().workload_stddev(), 2)
          .add(tor_alerts);
    }
  }
  table.print(std::cout);
  std::cout << "\nreading: beta scales how much a ToR alert offloads; alpha scales the\n"
               "switch-alert selection feeding FLOWREROUTE.\n";
  return 0;
}

// Ablation: reroute-first (Sec. III-B: "shim will implement flow reroute
// first and then deal with VM migration") vs migrate-only. Rerouting is
// cheap and should absorb switch congestion without extra migrations.

#include <iostream>

#include "bench_support.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "topology/fat_tree.hpp"

namespace {

struct ModeTotals {
  std::size_t migrations = 0;
  std::size_t reroutes = 0;
  std::size_t switch_alerts = 0;
  std::size_t congested = 0;
  double cost = 0.0;
  double final_stddev = 0.0;
};

ModeTotals run(const sheriff::topo::Topology& topology, bool reroute_first) {
  using namespace sheriff;
  core::EngineConfig config;
  config.sheriff.reroute_first = reroute_first;
  config.flow_demand_scale_gbps = 0.9;  // push the fabric into congestion
  auto deploy = bench::bench_deployment_options(55);
  deploy.dependency_degree = 2.0;       // more flows
  core::DistributedEngine engine(topology, deploy, config);

  ModeTotals totals;
  for (int r = 0; r < 16; ++r) {
    const auto m = engine.run_round();
    totals.migrations += m.migrations;
    totals.reroutes += m.reroutes;
    totals.switch_alerts += m.switch_alerts;
    totals.congested += m.congested_switches;
    totals.cost += m.migration_cost;
  }
  totals.final_stddev = engine.deployment().workload_stddev();
  return totals;
}

}  // namespace

int main() {
  using namespace sheriff;
  bench::print_figure_header(
      "Ablation C", "reroute-first vs migrate-only under switch congestion",
      "Sec. III-B design choice: flow rerouting is cheaper than migration, so "
      "handling outer-switch alerts by rerouting should cut migration cost");

  topo::FatTreeOptions topt;
  topt.pods = 6;
  topt.hosts_per_rack = 3;
  topt.tor_agg_gbps = 1.0;  // narrow uplinks: congestion actually happens
  const auto topology = topo::build_fat_tree(topt);

  const auto with_reroute = run(topology, true);
  const auto without = run(topology, false);

  common::Table table({"mode", "switch alerts", "congested switch-rounds", "reroutes",
                       "migrations", "migration cost", "final stddev %"});
  const auto add_row = [&](const char* name, const ModeTotals& t) {
    table.begin_row()
        .add(name)
        .add(t.switch_alerts)
        .add(t.congested)
        .add(t.reroutes)
        .add(t.migrations)
        .add(t.cost, 1)
        .add(t.final_stddev, 2);
  };
  add_row("reroute-first (paper)", with_reroute);
  add_row("migrate-only", without);
  table.print(std::cout);

  std::cout << "\nreroute-first absorbs switch congestion with cheap path changes; "
               "migrate-only answers the same alerts with costly VM moves.\n";
  return 0;
}

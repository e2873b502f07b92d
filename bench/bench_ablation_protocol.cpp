// Ablation: the distributed propose/decide/apply protocol vs serialized
// FCFS scheduling of the same committed demands. Both implement Alg. 3/4
// semantics; the protocol additionally exposes the real-world same-round
// reservation races between delegates (Sec. V-B's "they need to
// communicate between each other to avoid conflictions") and resolves
// them with at most a one-iteration retry penalty.

#include <iostream>

#include "bench_support.hpp"
#include "obs/timing.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "topology/fat_tree.hpp"

namespace {

struct ModeTotals {
  std::size_t migrations = 0;
  std::size_t rejects = 0;
  std::size_t conflicts = 0;
  double cost = 0.0;
  double final_stddev = 0.0;
  double seconds = 0.0;
};

ModeTotals run(const sheriff::topo::Topology& topology, sheriff::core::MigrationProtocol mode) {
  using namespace sheriff;
  core::EngineConfig config;
  config.protocol = mode;
  auto deploy = bench::bench_deployment_options(99);
  deploy.skew_weight = 10.0;
  deploy.hot_host_bias = 4.0;
  core::DistributedEngine engine(topology, deploy, config);

  ModeTotals totals;
  obs::Stopwatch watch;
  for (int r = 0; r < 16; ++r) {
    const auto m = engine.run_round();
    totals.migrations += m.migrations;
    totals.rejects += m.migration_rejects;
    totals.conflicts += m.protocol_conflicts;
    totals.cost += m.migration_cost;
  }
  totals.seconds = watch.elapsed_seconds();
  totals.final_stddev = engine.deployment().workload_stddev();
  return totals;
}

}  // namespace

int main() {
  using namespace sheriff;
  bench::print_figure_header(
      "Ablation G", "message-passing protocol vs serialized FCFS scheduling",
      "the distributed REQUEST/ACK round should reach the same balance with "
      "comparable cost, paying only rare same-round conflicts for its parallelism");

  topo::FatTreeOptions topt;
  topt.pods = 8;
  topt.hosts_per_rack = 3;
  const auto topology = topo::build_fat_tree(topt);

  const auto message = run(topology, core::MigrationProtocol::kMessagePassing);
  const auto serial = run(topology, core::MigrationProtocol::kSerializedFcfs);

  common::Table table({"protocol", "migrations", "rejects", "conflicts", "total cost",
                       "final stddev %", "seconds"});
  const auto add_row = [&](const char* name, const ModeTotals& t) {
    table.begin_row()
        .add(name)
        .add(t.migrations)
        .add(t.rejects)
        .add(t.conflicts)
        .add(t.cost, 1)
        .add(t.final_stddev, 2)
        .add(t.seconds, 2);
  };
  add_row("message-passing (default)", message);
  add_row("serialized FCFS", serial);
  table.print(std::cout);

  std::cout << "\nconflicts are the price of letting delegates decide concurrently; they\n"
               "stay rare because regions overlap little.\n";
  return 0;
}

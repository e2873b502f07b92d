// failure_drill: a guided tour of the fault-injection subsystem. One
// Fat-Tree run suffers, in order: random link flaps, a host failure, a
// shim crash (management process only), and a full ToR outage — all on a
// lossy control plane that drops 20 % of the migration protocol's
// REQUEST/ACK messages. Every fault is scheduled in a deterministic
// FaultPlan, so re-running the drill reproduces it byte for byte.
//
//   $ ./failure_drill [rounds] [metrics.csv]
//
// Checkpoint flags (see DESIGN.md §10): `--checkpoint-every N` drops a
// snapshot every N rounds, `--resume <path>` picks the drill back up from
// one — the resumed run finishes byte-identical to an uninterrupted one.

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "cli_args.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "fault/fault_plan.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/checkpoint_cli.hpp"
#include "topology/fat_tree.hpp"

namespace {

int drill_main(int argc, char** argv) {
  using namespace sheriff;
  constexpr std::string_view kUsage =
      "[rounds 1..100000] [metrics.csv] [--checkpoint-every N] [--checkpoint-prefix P] "
      "[--resume PATH]";
  snapshot::CheckpointCli checkpoints;
  try {
    checkpoints = snapshot::parse_checkpoint_cli(argc, argv);
  } catch (const std::invalid_argument& e) {
    examples::usage_error(argv[0], e.what(), kUsage);
  }
  const int rounds = examples::positional(argc, argv, 1, 24, 1, 100000, kUsage);
  std::ofstream csv;
  if (argc > 2) {
    csv.open(argv[2]);
    examples::require_writable(argv[0], csv, argv[2]);
  }

  topo::FatTreeOptions topo_options;
  topo_options.pods = 4;
  topo_options.hosts_per_rack = 3;
  const auto topology = topo::build_fat_tree(topo_options);

  wl::DeploymentOptions deploy_options;
  deploy_options.seed = 7;
  deploy_options.vms_per_host = 2.5;

  // The whole drill is one deterministic schedule: flaps are drawn from
  // the plan's seeded Pcg32, everything else is placed by hand.
  fault::FaultOptions fault_options;
  fault_options.seed = 7;
  fault_options.message_drop_probability = 0.2;
  auto plan = fault::FaultPlan::random_link_flaps(topology, fault_options, 3, 2, 8, 2);
  plan.fail_host(topology.rack(1).hosts[0], 6);      // server dies for good
  plan.fail_shim(2, 9, 15);                          // manager-only crash
  const auto outage = fault::FaultPlan::tor_outage(topology, 0, 12, 18);
  for (const auto& e : outage.events()) plan.add(e);
  plan.set_options(fault_options);

  std::cout << "failure drill on " << topology.name() << ": " << plan.size()
            << " scheduled fault events, 20% control-plane message loss\n\nschedule:\n";
  for (const auto& e : plan.events()) {
    std::cout << "  round " << e.round << ": " << fault::to_string(e.kind) << " #" << e.target
              << "\n";
  }
  std::cout << "\n";

  core::EngineConfig config;
  config.fault_plan = &plan;
  core::DistributedEngine engine(topology, deploy_options, config);

  if (!checkpoints.resume_path.empty()) {
    core::Checkpoint::load(engine, checkpoints.resume_path);
    std::cout << "resumed from " << checkpoints.resume_path << " at round "
              << engine.rounds_run() << "\n\n";
  }

  common::Table table({"round", "dead links", "dead switches", "orphans", "recovered",
                       "unroutable", "drops", "retries", "migrations", "stddev %"});
  std::vector<core::RoundMetrics> all_metrics;
  while (engine.rounds_run() < static_cast<std::size_t>(rounds)) {
    const auto m = engine.run_round();
    if (checkpoints.checkpoint_every != 0 &&
        engine.rounds_run() % checkpoints.checkpoint_every == 0 &&
        engine.rounds_run() < static_cast<std::size_t>(rounds)) {
      const std::string path = snapshot::checkpoint_path(checkpoints, engine.rounds_run());
      core::Checkpoint::save(engine, path);
      std::cout << "checkpoint saved to " << path << "\n";
    }
    all_metrics.push_back(m);
    table.begin_row()
        .add(m.round)
        .add(m.failed_links)
        .add(m.failed_switches)
        .add(m.orphaned_vms)
        .add(m.recovery_migrations)
        .add(m.unroutable_flows)
        .add(m.protocol_drops)
        .add(m.protocol_retries)
        .add(m.migrations)
        .add(m.workload_stddev_after, 2);
  }
  table.print(std::cout);

  const auto summary = core::summarize(all_metrics);
  std::cout << "\n" << summary.rounds_with_failures << " of " << summary.rounds
            << " rounds ran degraded; peak " << summary.peak_orphaned_vms
            << " orphaned VMs, " << summary.total_recovery_migrations
            << " recovery migrations, " << summary.total_protocol_drops
            << " protocol messages dropped (" << summary.total_protocol_retries
            << " retries).\n";
  std::cout << "rack 0 is managed by rack " << engine.managing_rack(0)
            << " at the end of the run (its own shim once the ToR rebooted).\n";

  if (argc > 2) {
    core::write_metrics_csv(csv, all_metrics);
    examples::require_writable(argv[0], csv, argv[2]);
    std::cout << "wrote per-round metrics to " << argv[2] << "\n";
  }
  return 0;
}

}  // namespace

// A checkpoint that cannot be read or written is reported, not thrown
// past main: the drill prints the reason and exits 1.
int main(int argc, char** argv) {
  try {
    return drill_main(argc, argv);
  } catch (const sheriff::snapshot::SnapshotError& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  }
}

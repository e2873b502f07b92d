// Scale bench for the per-round hot path: run the engine on the five
// evaluation fabrics and report rounds/sec and per-phase wall time (fault,
// workload+route, fair-share build/fill, queue, predict, manage with its
// decision, k-median, schedule, commit and per-shard propose sub-phases),
// plus the fair-share solver and router cache counters. Emits
// machine-readable BENCH_scale.json next to the table. It gates nothing:
// CI's perf gate reads perfbench's reference-speed figures
// (tools/check_perf_budgets.py).
//
// Usage: bench_scale [output.json]

#include <cstddef>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "obs/timing.hpp"
#include "core/engine.hpp"

namespace {

using namespace sheriff;

using Scenario = bench::ScaleScenario;

struct ScenarioResult {
  std::string name;
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::size_t vms = 0;
  std::size_t flows = 0;
  std::size_t rounds = 0;
  double seconds = 0.0;
  double rounds_per_sec = 0.0;
  core::PhaseProfile phases;
  net::FairShareSolver::Stats fair_share;
  std::size_t fair_share_components = 0;
  std::size_t fair_share_arena_bytes = 0;
  net::RouterCacheStats router;

  /// Network hot path: allocation + routing (workload_ns holds the
  /// routing queries; fair_share_ns the water-fill).
  [[nodiscard]] double net_ns() const {
    return static_cast<double>(phases.fair_share_ns + phases.workload_ns);
  }
};

ScenarioResult run_engine(const Scenario& scenario, const snapshot::CheckpointCli& checkpoints) {
  core::DistributedEngine engine(scenario.topology, scenario.deploy,
                                 bench::scale_engine_config(scenario));
  ScenarioResult r;
  r.name = scenario.name;
  r.nodes = scenario.topology.node_count();
  r.links = scenario.topology.link_count();
  r.vms = engine.deployment().vm_count();
  r.flows = engine.flows().size();
  r.rounds = scenario.rounds;
  obs::Stopwatch watch;
  bench::run_rounds(engine, scenario.rounds, checkpoints, scenario.name);
  r.seconds = watch.elapsed_seconds();
  r.rounds_per_sec = static_cast<double>(scenario.rounds) / r.seconds;
  r.phases = engine.phase_profile();
  r.fair_share = engine.fair_share_solver().stats();
  r.fair_share_components = engine.fair_share_solver().component_count();
  r.fair_share_arena_bytes = engine.fair_share_solver().arena_bytes();
  r.router = engine.router().cache_stats();
  return r;
}

void emit_phases(std::ostream& os, const core::PhaseProfile& p, const char* indent) {
  os << indent << "\"phases_ns\": {"
     << "\"fault\": " << p.fault_ns << ", "
     << "\"workload_route\": " << p.workload_ns << ", "
     << "\"fair_share\": " << p.fair_share_ns << ", "
     << "\"fair_share_build\": " << p.fair_share_build_ns << ", "
     << "\"fair_share_fill\": " << p.fair_share_fill_ns << ", "
     << "\"queue\": " << p.queue_ns << ", "
     << "\"predict\": " << p.predict_ns << ", "
     << "\"manage\": " << p.manage_ns << ", "
     << "\"manage_decision\": " << p.manage_decision_ns << ", "
     << "\"manage_kmedian\": " << p.manage_kmedian_ns << ", "
     << "\"manage_schedule\": " << p.manage_schedule_ns << ", "
     << "\"manage_commit\": " << p.manage_commit_ns << ", "
     << "\"manage_shard_propose\": [";
  for (std::size_t s = 0; s < p.manage_shard_propose_ns.size(); ++s) {
    os << (s > 0 ? ", " : "") << p.manage_shard_propose_ns[s];
  }
  os << "]}";
}

void emit_scenario(std::ostream& os, const ScenarioResult& r) {
  os << "  {\n"
     << "    \"name\": \"" << r.name << "\",\n"
     << "    \"nodes\": " << r.nodes << ",\n"
     << "    \"links\": " << r.links << ",\n"
     << "    \"vms\": " << r.vms << ",\n"
     << "    \"flows\": " << r.flows << ",\n"
     << "    \"rounds\": " << r.rounds << ",\n"
     << "    \"seconds\": " << r.seconds << ",\n"
     << "    \"rounds_per_sec\": " << r.rounds_per_sec << ",\n";
  emit_phases(os, r.phases, "    ");
  os << ",\n    \"fair_share\": {\"solves\": " << r.fair_share.solves
     << ", \"full_rebuilds\": " << r.fair_share.full_rebuilds
     << ", \"affected_flows\": " << r.fair_share.affected_flows
     << ", \"reused_flows\": " << r.fair_share.reused_flows
     << ", \"components\": " << r.fair_share_components
     << ", \"arena_bytes\": " << r.fair_share_arena_bytes << "},\n"
     << "    \"router\": {\"tree_hits\": " << r.router.tree_hits
     << ", \"tree_misses\": " << r.router.tree_misses
     << ", \"path_hits\": " << r.router.path_hits
     << ", \"path_misses\": " << r.router.path_misses << "}\n"
     << "  }";
}

}  // namespace

int main(int argc, char** argv) {
  const snapshot::CheckpointCli checkpoints = snapshot::parse_checkpoint_cli(argc, argv);
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_scale.json";
  if (checkpoints.checkpoint_every != 0 || !checkpoints.resume_path.empty()) {
    std::cout << "WARNING: checkpoint flags active — timings (and the emitted JSON) include\n"
              << "checkpoint I/O; run without --checkpoint-every/--resume for comparable\n"
              << "figures.\n";
  }
  bench::print_figure_header(
      "Scale", "per-round hot path: rounds/sec and per-phase wall time",
      "the network layer (route + fair share) and the serial commit carry the "
      "round on the fat trees; the k-median solve carries the kKMedian round");

  const std::vector<Scenario> scenarios = bench::make_scale_scenarios();

  std::vector<ScenarioResult> results;
  for (const Scenario& s : scenarios) {
    std::cout << "\n== " << s.name << " (" << s.topology.node_count() << " nodes, "
              << s.topology.link_count() << " links, " << s.rounds << " rounds) ==\n";
    ScenarioResult r = run_engine(s, checkpoints);
    const core::PhaseProfile& p = r.phases;
    std::cout << std::fixed << std::setprecision(2) << "  " << r.rounds_per_sec
              << " rounds/s (" << r.seconds << " s)\n"
              << "  net:       " << r.net_ns() / 1e6 << " ms (fair_share+route; fill "
              << p.fair_share_fill_ns / 1e6 << " ms of build+fill "
              << (p.fair_share_build_ns + p.fair_share_fill_ns) / 1e6 << " ms)\n"
              << "  manage:    " << p.manage_ns / 1e6 << " ms (decision "
              << p.manage_decision_ns / 1e6 << ", commit " << p.manage_commit_ns / 1e6
              << ", k-median " << p.manage_kmedian_ns / 1e6 << ")\n";
    std::cout << std::defaultfloat << std::setprecision(6);
    results.push_back(std::move(r));
  }

  std::ofstream os(out_path);
  os << "{\n  \"schema\": \"sheriff.bench_scale.v6\",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    emit_scenario(os, results[i]);
    os << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}

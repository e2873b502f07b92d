// Scale bench for the per-round hot path: run the engine naive (from-scratch
// fair share, one hop-level BFS per routing query, cost-model trees discarded
// every round — the pre-optimization behavior) and optimized (incremental
// FairShareSolver, router level/path caches, retained + partner-rooted +
// leaf-shared cost trees, fast k-median, per-round cost surface with
// bound-guarded pruning, parallel workload advance) on the evaluation
// fabrics, and report rounds/sec, per-phase wall time, and the speedup.
// Emits machine-readable BENCH_scale.json next to the table; the
// CI perf gate (tools/check_bench_scale.py) compares the *ratios* — they
// are machine-independent — against bench/baselines/BENCH_scale_baseline.json.
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

struct RunResult {
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

struct ScenarioResult {
  std::string name;
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::size_t vms = 0;
  std::size_t flows = 0;
  std::size_t rounds = 0;
  RunResult naive;
  RunResult optimized;
  double speedup = 0.0;
  double manage_ratio = 0.0;   ///< naive manage_ns / optimized manage_ns
  double net_ratio = 0.0;      ///< naive (fair_share+route) / optimized (fair_share+route)
  double decision_ratio = 0.0; ///< naive manage_decision_ns / optimized manage_decision_ns
};

RunResult run_engine(const Scenario& scenario, bool optimized, std::size_t* vms,
                     std::size_t* flows, const snapshot::CheckpointCli& checkpoints) {
  const core::EngineConfig config = bench::scale_engine_config(scenario, optimized);
  core::DistributedEngine engine(scenario.topology, scenario.deploy, config);
  if (vms != nullptr) *vms = engine.deployment().vm_count();
  if (flows != nullptr) *flows = engine.flows().size();

  RunResult result;
  obs::Stopwatch watch;
  bench::run_rounds(engine, scenario.rounds, checkpoints,
                    scenario.name + (optimized ? ".opt" : ".naive"));
  result.seconds = watch.elapsed_seconds();
  result.rounds_per_sec = static_cast<double>(scenario.rounds) / result.seconds;
  result.phases = engine.phase_profile();
  result.fair_share = engine.fair_share_solver().stats();
  result.fair_share_components = engine.fair_share_solver().component_count();
  result.fair_share_arena_bytes = engine.fair_share_solver().arena_bytes();
  result.router = engine.router().cache_stats();
  return result;
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

void emit_run(std::ostream& os, const RunResult& r, const char* name, bool optimized) {
  os << "    \"" << name << "\": {\n"
     << "      \"seconds\": " << r.seconds << ",\n"
     << "      \"rounds_per_sec\": " << r.rounds_per_sec << ",\n";
  emit_phases(os, r.phases, "      ");
  if (optimized) {
    os << ",\n      \"fair_share\": {\"solves\": " << r.fair_share.solves
       << ", \"full_rebuilds\": " << r.fair_share.full_rebuilds
       << ", \"affected_flows\": " << r.fair_share.affected_flows
       << ", \"reused_flows\": " << r.fair_share.reused_flows
       << ", \"components\": " << r.fair_share_components
       << ", \"arena_bytes\": " << r.fair_share_arena_bytes << "},\n"
       << "      \"router\": {\"tree_hits\": " << r.router.tree_hits
       << ", \"tree_misses\": " << r.router.tree_misses
       << ", \"path_hits\": " << r.router.path_hits
       << ", \"path_misses\": " << r.router.path_misses << "}";
  }
  os << "\n    }";
}

}  // namespace

int main(int argc, char** argv) {
  const snapshot::CheckpointCli checkpoints = snapshot::parse_checkpoint_cli(argc, argv);
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_scale.json";
  if (checkpoints.checkpoint_every != 0 || !checkpoints.resume_path.empty()) {
    std::cout << "WARNING: checkpoint flags active — timings (and the emitted JSON) are\n"
              << "NOT comparable to baselines; run without --checkpoint-every/--resume\n"
              << "for the CI ratio gate.\n";
  }
  bench::print_figure_header(
      "Scale", "per-round hot path: naive recompute vs incremental/cached engine",
      "the optimized engine must clear 3x the naive rounds/sec on the k=16 "
      "Fat-Tree; the caching layers keep the allocation identical, the "
      "cost-rooting modes keep it equal-cost (FP tie-breaks aside)");

  const std::vector<Scenario> scenarios = bench::make_scale_scenarios();

  std::vector<ScenarioResult> results;
  for (const Scenario& s : scenarios) {
    ScenarioResult r;
    r.name = s.name;
    r.nodes = s.topology.node_count();
    r.links = s.topology.link_count();
    r.rounds = s.rounds;
    std::cout << "\n== " << s.name << " (" << r.nodes << " nodes, " << r.links
              << " links, " << s.rounds << " rounds) ==\n";
    r.naive = run_engine(s, false, &r.vms, &r.flows, checkpoints);
    std::cout << "  naive:     " << std::fixed << std::setprecision(2)
              << r.naive.rounds_per_sec << " rounds/s (" << r.naive.seconds << " s)\n";
    r.optimized = run_engine(s, true, nullptr, nullptr, checkpoints);
    r.speedup = r.optimized.rounds_per_sec / r.naive.rounds_per_sec;
    r.manage_ratio = r.optimized.phases.manage_ns > 0
                         ? static_cast<double>(r.naive.phases.manage_ns) /
                               static_cast<double>(r.optimized.phases.manage_ns)
                         : 0.0;
    r.net_ratio = r.optimized.net_ns() > 0.0 ? r.naive.net_ns() / r.optimized.net_ns() : 0.0;
    r.decision_ratio =
        r.optimized.phases.manage_decision_ns > 0
            ? static_cast<double>(r.naive.phases.manage_decision_ns) /
                  static_cast<double>(r.optimized.phases.manage_decision_ns)
            : 0.0;
    std::cout << "  optimized: " << r.optimized.rounds_per_sec << " rounds/s ("
              << r.optimized.seconds << " s)\n"
              << "  speedup:   " << std::setprecision(2) << r.speedup << "x"
              << " (manage phase " << r.manage_ratio << "x: "
              << r.naive.phases.manage_ns / 1e6 << " ms -> "
              << r.optimized.phases.manage_ns / 1e6 << " ms)\n"
              << "  net:       " << r.net_ratio << "x (fair_share+route "
              << r.naive.net_ns() / 1e6 << " ms -> " << r.optimized.net_ns() / 1e6
              << " ms; fill " << r.optimized.phases.fair_share_fill_ns / 1e6
              << " ms of build+fill "
              << (r.optimized.phases.fair_share_build_ns +
                  r.optimized.phases.fair_share_fill_ns) / 1e6
              << " ms)\n"
              << "  decision:  " << r.decision_ratio << "x (Eq.(1) kernel "
              << r.naive.phases.manage_decision_ns / 1e6 << " ms -> "
              << r.optimized.phases.manage_decision_ns / 1e6 << " ms)\n";
    std::cout << std::defaultfloat << std::setprecision(6);
    results.push_back(std::move(r));
  }

  std::ofstream os(out_path);
  os << "{\n  \"schema\": \"sheriff.bench_scale.v5\",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    os << "  {\n"
       << "    \"name\": \"" << r.name << "\",\n"
       << "    \"nodes\": " << r.nodes << ",\n"
       << "    \"links\": " << r.links << ",\n"
       << "    \"vms\": " << r.vms << ",\n"
       << "    \"flows\": " << r.flows << ",\n"
       << "    \"rounds\": " << r.rounds << ",\n";
    emit_run(os, r.naive, "naive", false);
    os << ",\n";
    emit_run(os, r.optimized, "optimized", true);
    os << ",\n    \"speedup\": " << r.speedup << ",\n    \"manage_ratio\": " << r.manage_ratio
       << ",\n    \"net_ratio\": " << r.net_ratio
       << ",\n    \"decision_ratio\": " << r.decision_ratio
       << "\n  }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}

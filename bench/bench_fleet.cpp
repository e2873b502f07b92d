// Fleet-runner bench: sweep the five scale scenarios × 8 seeds (40
// independent optimized-engine runs) through fleet::run_sweep at 1 worker
// and at 8 workers, and report
//
//   * the wall-clock speedup of the 8-worker sweep (runs are independent,
//     so on an unloaded N-core machine the sweep should scale ~linearly up
//     to min(8, N) — the CI gate normalizes by the core count), and
//   * the determinism flag: every per-run metrics CRC and checkpoint CRC
//     must be identical across the two worker counts. This part is
//     machine-independent and gates hard.
//
// Emits BENCH_fleet.json; tools/check_bench_fleet.py compares it against
// bench/baselines/BENCH_fleet_baseline.json.
//
// Usage: bench_fleet [output.json] [--seeds N] [--rounds-cap N]

#include <cstddef>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "cli_args.hpp"
#include "common/stats.hpp"
#include "fleet/fleet.hpp"

namespace {

using namespace sheriff;

}  // namespace

int main(int argc, char** argv) {
  constexpr std::string_view kUsage = "[output.json] [--seeds N] [--rounds-cap N]";
  std::string out_path = "BENCH_fleet.json";
  std::size_t seed_count = 8;
  std::size_t rounds_cap = 0;  // 0 = the scenarios' native round counts
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seeds" && i + 1 < argc) {
      seed_count = examples::positional<std::size_t>(argc, argv, ++i, 8, 1, 1000, kUsage);
    } else if (arg == "--rounds-cap" && i + 1 < argc) {
      rounds_cap = examples::positional<std::size_t>(argc, argv, ++i, 0, 0, 100000, kUsage);
    } else if (!arg.starts_with("--")) {
      out_path = arg;
    }
  }
  std::ofstream os(out_path);
  examples::require_writable(argv[0], os, out_path);

  bench::print_figure_header(
      "Fleet", "concurrent multi-scenario sweep: 1 worker vs 8 workers",
      "independent runs scale near-linearly with workers up to the core "
      "count, and every per-run output byte is worker-count invariant");

  const std::vector<bench::ScaleScenario> scenarios = bench::make_scale_scenarios();
  fleet::SweepGrid grid;
  for (const bench::ScaleScenario& s : scenarios) {
    fleet::ScenarioSpec spec;
    spec.name = s.name;
    spec.topology = &s.topology;
    spec.deployment = s.deploy;
    spec.config = bench::scale_engine_config(s);
    spec.rounds = rounds_cap > 0 ? std::min(s.rounds, rounds_cap) : s.rounds;
    grid.scenarios.push_back(std::move(spec));
  }
  for (std::size_t i = 0; i < seed_count; ++i) grid.seeds.push_back(2015 + i);

  fleet::FleetOptions options;
  options.observe = true;
  options.checkpoint = true;

  std::cout << "\ngrid: " << grid.scenarios.size() << " scenarios x " << grid.seeds.size()
            << " seeds = " << grid.run_count() << " runs\n";

  options.workers = 1;
  const fleet::FleetReport serial = fleet::run_sweep(grid, options);
  std::cout << "  workers=1: " << std::fixed << std::setprecision(2) << serial.seconds
            << " s\n";

  options.workers = 8;
  const fleet::FleetReport wide = fleet::run_sweep(grid, options);
  std::cout << "  workers=8: " << wide.seconds << " s\n";

  bool deterministic = serial.runs.size() == wide.runs.size();
  for (std::size_t id = 0; deterministic && id < serial.runs.size(); ++id) {
    deterministic = serial.runs[id].completed && wide.runs[id].completed &&
                    serial.runs[id].metrics_crc == wide.runs[id].metrics_crc &&
                    serial.runs[id].checkpoint_crc == wide.runs[id].checkpoint_crc;
  }
  const double speedup = wide.seconds > 0.0 ? serial.seconds / wide.seconds : 0.0;
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "  speedup:   " << speedup << "x on " << cores << " core(s)\n"
            << "  per-run outputs " << (deterministic ? "IDENTICAL" : "DIVERGED")
            << " across worker counts\n";

  // Per-scenario p50/p95 run seconds at 8 workers (informational only —
  // wall time never enters the determinism surface).
  std::cout << "\n  per-scenario run seconds (workers=8):\n";
  for (const fleet::ScenarioSpec& spec : grid.scenarios) {
    std::vector<double> seconds;
    for (const fleet::RunRecord& r : wide.runs) {
      if (r.scenario == spec.name) seconds.push_back(r.seconds);
    }
    std::cout << "    " << spec.name << ": p50 "
              << common::quantile(seconds, 0.5) << " s, p95 "
              << common::quantile(seconds, 0.95) << " s\n";
  }

  os << "{\n  \"schema\": \"sheriff.bench_fleet.v1\",\n"
     << "  \"cores\": " << cores << ",\n"
     << "  \"workers\": 8,\n"
     << "  \"runs\": " << grid.run_count() << ",\n"
     << "  \"seeds\": " << grid.seeds.size() << ",\n"
     << "  \"scenarios\": [";
  for (std::size_t i = 0; i < grid.scenarios.size(); ++i) {
    os << (i > 0 ? ", " : "") << '"' << grid.scenarios[i].name << '"';
  }
  os << "],\n"
     << "  \"serial_seconds\": " << serial.seconds << ",\n"
     << "  \"wide_seconds\": " << wide.seconds << ",\n"
     << "  \"speedup\": " << speedup << ",\n"
     << "  \"deterministic\": " << (deterministic ? "true" : "false") << "\n}\n";
  examples::require_writable(argv[0], os, out_path);
  std::cout << "\nwrote " << out_path << "\n";
  return deterministic ? 0 : 1;
}

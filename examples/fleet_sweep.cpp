// fleet_sweep: the fleet runner as a command-line tool. Sweeps one
// scenario family across N seeds on a bounded worker pool, streams JSONL
// results, and — given a manifest — survives being killed halfway:
//
//   fleet_sweep --topo fat_tree --seeds 16 --rounds 20 --workers 8
//               --manifest sweep.manifest --jsonl sweep.jsonl   (one line)
//   ... ^C anywhere ...
//   fleet_sweep ... same flags ... --resume     # finishes the missing runs
//
// Flags (all optional):
//   --topo fat_tree|bcube     fabric family                [fat_tree]
//   --mode sheriff|centralized|kmedian                     [sheriff]
//   --seeds N                 seeds 1..N                   [8]
//   --rounds N                rounds per run               [10]
//   --workers N               fleet worker pool size       [4]
//   --policy fleet|two-level  pool-ownership policy        [fleet]
//   --engine-threads N        inner pool size (two-level)  [2]
//   --limit N                 execute at most N runs (0 = all); with
//                             --manifest this is a resumable partial sweep
//   --manifest PATH           crash-resumable sweep manifest
//   --resume                  skip runs already in the manifest
//   --jsonl PATH              write the JSONL result stream here

#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>

#include "fleet/fleet.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"

using namespace sheriff;

int main(int argc, char** argv) {
  std::string topo_name = "fat_tree";
  std::string mode_name = "sheriff";
  std::string policy_name = "fleet";
  std::size_t seeds = 8;
  std::size_t rounds = 10;
  fleet::FleetOptions options;
  options.workers = 4;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--topo") {
      topo_name = value();
    } else if (arg == "--mode") {
      mode_name = value();
    } else if (arg == "--policy") {
      policy_name = value();
    } else if (arg == "--seeds") {
      seeds = std::stoul(value());
    } else if (arg == "--rounds") {
      rounds = std::stoul(value());
    } else if (arg == "--workers") {
      options.workers = std::stoul(value());
    } else if (arg == "--engine-threads") {
      options.engine_threads = std::stoul(value());
    } else if (arg == "--limit") {
      options.max_runs = std::stoul(value());
    } else if (arg == "--manifest") {
      options.manifest_path = value();
    } else if (arg == "--jsonl") {
      options.jsonl_path = value();
    } else if (arg == "--resume") {
      options.resume = true;
    } else {
      std::cerr << "unknown flag: " << arg << " (see the header comment)\n";
      return 2;
    }
  }

  topo::Topology topology = [&] {
    if (topo_name == "bcube") {
      topo::BCubeOptions bc;
      bc.ports = 4;
      bc.levels = 2;
      return topo::build_bcube(bc);
    }
    topo::FatTreeOptions ft;
    ft.pods = 8;
    ft.hosts_per_rack = 4;
    ft.tor_agg_gbps = 1.0;
    return topo::build_fat_tree(ft);
  }();

  fleet::ScenarioSpec spec;
  spec.name = topo_name + "_" + mode_name;
  spec.topology = &topology;
  spec.rounds = rounds;
  spec.deployment.placement = wl::PlacementPolicy::kSkewed;
  if (mode_name == "centralized") {
    spec.config.mode = core::ManagerMode::kCentralized;
  } else if (mode_name == "kmedian") {
    spec.config.mode = core::ManagerMode::kKMedian;
  } else if (mode_name != "sheriff") {
    std::cerr << "unknown --mode: " << mode_name << "\n";
    return 2;
  }
  if (policy_name == "two-level") {
    options.pool_policy = fleet::PoolPolicy::kTwoLevel;
  } else if (policy_name != "fleet") {
    std::cerr << "unknown --policy: " << policy_name << " (fleet|two-level)\n";
    return 2;
  }

  fleet::SweepGrid grid;
  grid.scenarios.push_back(std::move(spec));
  for (std::size_t s = 1; s <= seeds; ++s) grid.seeds.push_back(s);

  std::cout << "sweep: " << grid.run_count() << " runs (" << topo_name << ", "
            << mode_name << ", " << rounds << " rounds) on " << options.workers
            << " worker(s), " << policy_name << " pool policy\n";
  const fleet::FleetReport report = fleet::run_sweep(grid, options);

  std::cout << std::fixed << std::setprecision(2) << "done in " << report.seconds
            << " s: " << report.executed << " executed, " << report.skipped
            << " from manifest, " << report.pending << " pending\n";
  const auto show = [&](const char* label, const std::string& metric) {
    if (report.aggregate.samples(metric).empty()) return;
    std::cout << "  " << label << ": p50 " << report.aggregate.quantile(metric, 0.50)
              << "  p95 " << report.aggregate.quantile(metric, 0.95) << "  p99 "
              << report.aggregate.quantile(metric, 0.99) << "\n";
  };
  std::cout << "cross-run quantiles over " << report.aggregate.runs() << " run(s):\n";
  show("migrations   ", "engine.migrations");
  show("reroutes     ", "engine.reroutes");
  show("host alerts  ", "engine.host_alerts");
  show("link peak    ", "engine.max_link_utilization");
  if (!options.jsonl_path.empty()) std::cout << "jsonl: " << options.jsonl_path << "\n";
  return 0;
}

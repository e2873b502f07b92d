#pragma once
// Shared helpers for the figure-regeneration benches: standardized
// headers, the Fig. 9/10 balance experiment, and the Fig. 11–14
// sheriff-vs-centralized comparison (5 % of VMs alerted, as in Sec. VI-B).

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "topology/topology.hpp"

namespace sheriff::bench {

/// Prints the experiment banner: which paper figure, what we measure, and
/// what qualitative shape the paper reports (so bench_output.txt documents
/// the expectation next to the measurement).
void print_figure_header(const std::string& figure_id, const std::string& description,
                         const std::string& paper_expectation);

/// Fig. 9/10: run the engine for `rounds` management rounds and record the
/// host-workload standard deviation after each (index 0 = initial state).
struct BalanceResult {
  std::vector<double> stddev_by_round;
  std::size_t total_migrations = 0;
  std::size_t total_alerts = 0;
};
BalanceResult run_balance(const topo::Topology& topology, std::size_t rounds,
                          std::uint64_t seed);

/// Fig. 11–14: alert 5 % of the VMs (uniformly, as the paper assumes) and
/// migrate them once under each manager — regional Sheriff (per-rack shims
/// with one-hop regions) vs the global centralized manager — from
/// identical initial states. Both legs price moves with the engine's cost
/// model. Every distance row either leg reads is built before either
/// stopwatch starts, so neither leg's time includes row builds the other
/// then finds warm; `rows_seconds` reports that build on its own.
struct ManagerComparison {
  std::size_t size_param = 0;        ///< pods / switches-per-level
  std::size_t hosts = 0;
  std::size_t alerted = 0;
  double sheriff_cost = 0.0;
  double centralized_cost = 0.0;
  std::size_t sheriff_space = 0;
  std::size_t centralized_space = 0;
  std::size_t sheriff_migrations = 0;
  std::size_t centralized_migrations = 0;
  double sheriff_seconds = 0.0;
  double centralized_seconds = 0.0;
  double rows_seconds = 0.0;  ///< distance rows built before either leg
};
ManagerComparison compare_managers(const topo::Topology& topology, double alert_fraction,
                                   std::uint64_t seed, std::size_t size_param);

/// Deployment options shared by the figure benches (Sec. VI-B settings).
wl::DeploymentOptions bench_deployment_options(std::uint64_t seed);

/// One scale scenario of bench_fleet: five fabrics swept across seeds by
/// the fleet runner.
struct ScaleScenario {
  std::string name;
  topo::Topology topology;
  std::size_t rounds = 0;
  core::ManagerMode mode = core::ManagerMode::kSheriff;
  wl::DeploymentOptions deploy = bench_deployment_options(2015);
  /// Per-scenario workload knobs (engine/Sheriff defaults when untouched).
  double flow_demand_scale_gbps = 0.4;
  double reroute_fraction = 0.5;
  std::size_t max_matching_rounds = 8;
};

/// The five canonical scale scenarios (fat-tree k16/k24/k32, the k16
/// k-median reduction, and BCube(4,2)) with their Sec. VI-B shaping.
std::vector<ScaleScenario> make_scale_scenarios();

/// The engine configuration of a scale scenario.
core::EngineConfig scale_engine_config(const ScaleScenario& scenario);

/// The Fig. 11/12 sweep: Fat-Tree pod counts 8..48 with the Sec. VI-B link
/// capacities (core-agg 10, agg-ToR 1).
std::vector<ManagerComparison> sweep_fat_tree(const std::vector<int>& pod_counts,
                                              std::uint64_t seed);

/// The Fig. 13/14 sweep: BCube(n, 1) with n switches per level, 8..48.
std::vector<ManagerComparison> sweep_bcube(const std::vector<int>& switch_counts,
                                           std::uint64_t seed);

/// Prints the full comparison table for a sweep (used by all four benches
/// so cost and space figures show consistent context).
void print_comparison_table(const std::vector<ManagerComparison>& sweep,
                            const std::string& size_label);

}  // namespace sheriff::bench

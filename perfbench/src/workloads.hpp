#pragma once
// The benchmark's four workloads. Each is built only from fields that
// change results — fabric, deployment, SheriffConfig, manager mode, demand
// scale, fault plan, observe/audit. Result-transparent hot-path switches,
// manage_shards, sharded_manage and protocol keep their engine defaults, so
// deleting those knobs cannot silently change what the benchmark runs.
// README.md beside this file records why each workload was chosen.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "fault/fault_plan.hpp"
#include "topology/fat_tree.hpp"
#include "workload/deployment.hpp"

namespace perfbench {

/// kTiny shrinks every workload to a Fat-Tree k=4 for the self-test.
enum class Scale { kFull, kTiny };

struct Workload {
  std::string name;
  sheriff::topo::FatTreeOptions fabric;
  sheriff::wl::DeploymentOptions deploy;  ///< seed set per replica
  /// Engine config minus the pool and fault plan, which main.cpp binds.
  sheriff::core::EngineConfig config;
  /// Run under make_fault_plan(topology, seed, max_rounds).
  bool fault_drill = false;
  /// Checkpoint round trip every this many rounds in the timed loop (0 =
  /// none); the run continues on the restored engine.
  std::size_t checkpoint_every = 0;
  /// Independent deployments (and fault plans) per run, run one after
  /// another; replica i is seeded with seed * replicas + i.
  std::size_t replicas = 1;
  /// Outcome window: the simulated metrics and results_digest cover
  /// exactly the first sim_rounds rounds of each replica, so they depend on
  /// the seed only, never on how many rounds the host managed in time.
  std::size_t sim_rounds = 0;
  /// Rounds per second of set-up and rounds together at the reference
  /// speed; sizes the run only, never enters a metric.
  double rounds_per_s = 0.0;
};

/// Rounds each replica runs before its host time counts: the cold caches
/// and the initial migration storm of a fresh deployment. They still count
/// toward the outcome window, which starts at round 0.
inline constexpr std::size_t kWarmupRounds = 20;

/// Hard cap on rounds per replica (and the fault plan's horizon).
inline constexpr std::size_t kMaxRounds = 20000;

/// The outcome window plus enough timed rounds for a tail.
[[nodiscard]] std::size_t min_rounds(const Workload& w);

/// Rounds that fill `seconds` at the reference speed, at least min_rounds.
[[nodiscard]] std::size_t rounds_per_replica(const Workload& w, double seconds);

[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullopt for an unknown name.
[[nodiscard]] std::optional<Workload> make_workload(std::string_view name, Scale scale);

/// The drill's seeded fault schedule, repeated in 30-round cycles up to
/// `horizon`: link flaps across the run, two staggered ToR outages with
/// reboot, a host failure with repair, a shim crash with restart, and 10 %
/// REQUEST/ACK loss.
[[nodiscard]] sheriff::fault::FaultPlan make_fault_plan(const sheriff::topo::Topology& topology,
                                                        std::uint64_t seed, std::size_t horizon);

}  // namespace perfbench

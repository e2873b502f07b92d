#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "topology/topology.hpp"

namespace perfbench {

namespace {

using namespace sheriff;

// Sec. VI-B deployment: 3 VMs per host on average, VM capacity up to 20,
// skewed placement (hot hosts attract extra VMs).
wl::DeploymentOptions sec6b_deployment() {
  wl::DeploymentOptions deploy;
  deploy.vms_per_host = 3.0;
  deploy.max_vm_capacity = 20;
  deploy.placement = wl::PlacementPolicy::kSkewed;
  return deploy;
}

// Sec. VI-B fabric: ToR–aggregation links of 1, aggregation–core of 10.
topo::FatTreeOptions sec6b_fat_tree(int pods) {
  topo::FatTreeOptions fabric;
  fabric.pods = pods;
  fabric.hosts_per_rack = 4;
  fabric.tor_agg_gbps = 1.0;
  return fabric;
}

core::EngineConfig sec6b_config() {
  core::EngineConfig config;
  config.sheriff.cost.computing_cost = 100.0;  // C_r = 100, delta = eta = C_d = 1
  return config;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ft24_regional", "ft32_core_hotspot",
                                                 "ft16_kmedian", "ft16_fault_drill"};
  return names;
}

std::optional<Workload> make_workload(std::string_view name, Scale scale) {
  const auto pods = [scale](int full) { return scale == Scale::kTiny ? 4 : full; };
  Workload w;
  w.name = std::string(name);
  w.deploy = sec6b_deployment();
  w.config = sec6b_config();
  if (name == "ft24_regional") {
    // The paper's scheme on the largest fabric that still runs hundreds of
    // rounds in seconds; net, predict and decision share the round.
    w.fabric = sec6b_fat_tree(pods(24));
    w.replicas = 8;
    w.sim_rounds = 250;
    w.rounds_per_s = 170.0;
  } else if (name == "ft32_core_hotspot") {
    // Congestion at the agg–core layer: one hot core/agg switch alerts
    // dozens of racks, so FLOWREROUTE and the serial commit dominate.
    w.fabric.pods = pods(32);
    w.fabric.hosts_per_rack = 2;
    w.fabric.host_link_gbps = 10.0;
    w.fabric.tor_agg_gbps = 10.0;
    w.fabric.agg_core_gbps = 1.0;
    w.deploy.placement = wl::PlacementPolicy::kUniform;
    w.deploy.hot_vm_fraction = 0.0;  // alerts come from the fabric, not hot VMs
    w.deploy.dependency_degree = 2.0;
    w.config.flow_demand_scale_gbps = 2.0;
    w.config.sheriff.reroute_fraction = 0.3;
    w.config.sheriff.max_matching_rounds = 4;
    w.replicas = 3;
    w.sim_rounds = 60;
    w.rounds_per_s = 20.0;
  } else if (name == "ft16_kmedian") {
    // Sec. V-A centralized k-median reduction: the only workload that runs
    // the graph/k-median layer; no shims and no commit.
    w.fabric = sec6b_fat_tree(pods(16));
    w.config.mode = core::ManagerMode::kKMedian;
    w.replicas = 8;
    w.sim_rounds = 250;
    w.rounds_per_s = 220.0;
  } else if (name == "ft16_fault_drill") {
    // Liveness changes force route-cache misses and fair-share rebuilds;
    // the only workload exercising fault, snapshot and obs (observe+audit).
    w.fabric = sec6b_fat_tree(pods(16));
    w.config.observe = true;
    w.config.audit = true;
    w.fault_drill = true;
    w.checkpoint_every = 25;
    w.replicas = 6;
    w.sim_rounds = 250;
    w.rounds_per_s = 115.0;
  } else {
    return std::nullopt;
  }
  return w;
}

std::size_t min_rounds(const Workload& w) {
  return std::max(w.sim_rounds, kWarmupRounds + 11);
}

std::size_t rounds_per_replica(const Workload& w, double seconds) {
  const auto rounds = static_cast<std::size_t>(std::llround(w.rounds_per_s * seconds));
  return std::clamp(rounds, min_rounds(w), kMaxRounds);
}

fault::FaultPlan make_fault_plan(const topo::Topology& topology, std::uint64_t seed,
                                 std::size_t horizon) {
  constexpr std::size_t kCycle = 30;
  fault::FaultOptions options;
  options.seed = seed;
  options.message_drop_probability = 0.1;
  const std::size_t cycles = horizon / kCycle;

  fault::FaultPlan plan =
      fault::FaultPlan::random_link_flaps(topology, options, 4 * cycles, 1, horizon, 3);
  plan.set_options(options);
  common::Pcg32 rng(seed, 0xd71115ULL);
  const auto racks = static_cast<std::uint32_t>(topology.rack_count());
  for (std::size_t c = 0; c < cycles; ++c) {
    const std::size_t at = c * kCycle;
    const topo::RackId first_tor = rng.next_below(racks);
    const topo::RackId second_tor = (first_tor + 1 + rng.next_below(racks - 1)) % racks;
    plan.fail_switch(topology.rack(first_tor).tor, at + 3, at + 9);
    plan.fail_switch(topology.rack(second_tor).tor, at + 15, at + 21);
    const topo::Rack& host_rack = topology.rack(rng.next_below(racks));
    plan.fail_host(rng.pick(host_rack.hosts), at + 6, at + 16);
    plan.fail_shim(rng.next_below(racks), at + 11, at + 19);
  }
  return plan;
}

}  // namespace perfbench

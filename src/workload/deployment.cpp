#include "workload/deployment.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/stats.hpp"
#include "snapshot/archive.hpp"

namespace sheriff::wl {

Deployment::Deployment(const topo::Topology& topo, const DeploymentOptions& options)
    : topo_(&topo), options_(options) {
  SHERIFF_REQUIRE(options.vms_per_host > 0.0, "vms_per_host must be positive");
  SHERIFF_REQUIRE(options.min_vm_capacity >= 1, "min VM capacity must be >= 1");
  SHERIFF_REQUIRE(options.max_vm_capacity >= options.min_vm_capacity,
                  "max VM capacity below min");
  SHERIFF_REQUIRE(options.max_vm_capacity <= options.host_capacity,
                  "a VM must fit on an empty host");
  host_vms_.resize(topo.node_count());
  host_used_.assign(topo.node_count(), 0);

  common::Pcg32 rng(options.seed);
  create_population(rng);
  place_population(rng);
  create_dependencies(rng);
  create_dynamics(rng);
  advance();  // start from a live profile, not all-zeros
}

void Deployment::create_population(common::Pcg32& rng) {
  const std::size_t host_count = topo_->host_count();
  const auto vm_count = static_cast<std::size_t>(
      std::llround(static_cast<double>(host_count) * options_.vms_per_host));
  vms_.reserve(vm_count);
  for (std::size_t i = 0; i < vm_count; ++i) {
    VirtualMachine vm;
    vm.id = static_cast<VmId>(i);
    vm.capacity = rng.uniform_int(options_.min_vm_capacity, options_.max_vm_capacity);
    vm.value = 1.0 + rng.exponential(1.0 / options_.value_mean);
    vm.delay_sensitive = rng.bernoulli(options_.delay_sensitive_fraction);
    vms_.push_back(vm);
  }
  dependencies_.resize(vms_.size());
}

void Deployment::place_population(common::Pcg32& rng) {
  const auto hosts = topo_->nodes_of_kind(topo::NodeKind::kHost);
  SHERIFF_REQUIRE(!hosts.empty(), "topology has no hosts");

  // Attraction weights: under the skewed policy a hot subset of hosts
  // attracts `skew_weight` times the placement probability, producing the
  // initial imbalance the balance experiments start from.
  std::vector<double> weight(hosts.size(), 1.0);
  attractor_host_.assign(host_vms_.size(), false);
  if (options_.placement == PlacementPolicy::kSkewed) {
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (rng.next_double() < options_.skew_hot_fraction) {
        weight[i] = options_.skew_weight;
        attractor_host_[hosts[i]] = true;
      }
    }
  }
  double total_weight = 0.0;
  for (double w : weight) total_weight += w;

  for (auto& vm : vms_) {
    topo::NodeId chosen = topo::kInvalidNode;
    // Weighted sampling with rejection on capacity/conflict; bounded tries
    // then linear fallback to guarantee progress.
    for (int attempt = 0; attempt < 64 && chosen == topo::kInvalidNode; ++attempt) {
      double pick = rng.next_double() * total_weight;
      std::size_t idx = 0;
      for (; idx + 1 < hosts.size(); ++idx) {
        pick -= weight[idx];
        if (pick <= 0.0) break;
      }
      if (host_used_[hosts[idx]] + vm.capacity <= options_.host_capacity) chosen = hosts[idx];
    }
    if (chosen == topo::kInvalidNode) {
      for (topo::NodeId h : hosts) {
        if (host_used_[h] + vm.capacity <= options_.host_capacity) {
          chosen = h;
          break;
        }
      }
    }
    SHERIFF_REQUIRE(chosen != topo::kInvalidNode,
                    "deployment does not fit: raise host_capacity or lower vms_per_host");
    vm.host = chosen;
    host_vms_[chosen].push_back(vm.id);
    host_used_[chosen] += vm.capacity;
  }
}

void Deployment::create_dependencies(common::Pcg32& rng) {
  if (vms_.size() < 2) return;
  const auto target_edges = static_cast<std::size_t>(
      std::llround(static_cast<double>(vms_.size()) * options_.dependency_degree / 2.0));
  std::size_t made = 0;
  std::size_t attempts = 0;
  const std::size_t max_attempts = target_edges * 20 + 100;
  while (made < target_edges && attempts < max_attempts) {
    ++attempts;
    const auto a = static_cast<VmId>(rng.next_below(static_cast<std::uint32_t>(vms_.size())));
    const auto b = static_cast<VmId>(rng.next_below(static_cast<std::uint32_t>(vms_.size())));
    if (a == b) continue;
    // Dependent VMs must not share a host (conflict rule), so only link
    // VMs that already live apart.
    if (vms_[a].host == vms_[b].host) continue;
    if (dependencies_.depends(a, b)) continue;
    dependencies_.add_dependency(a, b);
    ++made;
  }
}

void Deployment::create_dynamics(common::Pcg32& rng) {
  dynamics_.resize(vms_.size());
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    double hot_probability = options_.hot_vm_fraction;
    if (vms_[i].host != topo::kInvalidNode && attractor_host_[vms_[i].host]) {
      hot_probability *= options_.hot_host_bias;
    }
    const bool hot = rng.next_double() < hot_probability;
    for (std::size_t f = 0; f < kFeatureCount; ++f) {
      SeasonalTraceOptions opt;
      opt.base = hot ? rng.uniform(0.55, 0.75) : rng.uniform(0.2, 0.45);
      opt.amplitude = rng.uniform(0.05, hot ? 0.25 : 0.15);
      opt.period = rng.uniform(180.0, 420.0);
      opt.phase = rng.uniform(0.0, opt.period);
      opt.ar_coefficient = rng.uniform(0.6, 0.9);
      opt.noise_sigma = rng.uniform(0.01, 0.04);
      opt.burst_probability = hot ? 0.05 : 0.005;
      opt.burst_magnitude = hot ? 0.2 : 0.08;
      opt.floor = 0.0;
      opt.ceiling = 1.0;
      dynamics_[i].feature_sources[f] =
          std::make_unique<SeasonalTraceGenerator>(opt, rng.next_u32());
    }
  }
}

const VirtualMachine& Deployment::vm(VmId id) const {
  SHERIFF_REQUIRE(id < vms_.size(), "VM id out of range");
  return vms_[id];
}

std::span<const VmId> Deployment::vms_on_host(topo::NodeId host) const {
  SHERIFF_REQUIRE(host < host_vms_.size(), "host id out of range");
  return host_vms_[host];
}

int Deployment::host_used_capacity(topo::NodeId host) const {
  SHERIFF_REQUIRE(host < host_used_.size(), "host id out of range");
  return host_used_[host];
}

int Deployment::host_free_capacity(topo::NodeId host) const {
  return options_.host_capacity - host_used_capacity(host);
}

bool Deployment::can_place(VmId vm_id, topo::NodeId host) const {
  const VirtualMachine& m = vm(vm_id);
  SHERIFF_REQUIRE(topo_->node(host).kind == topo::NodeKind::kHost,
                  "placement target is not a host");
  if (m.host == host) return false;
  if (host_free_capacity(host) < m.capacity) return false;
  for (VmId other : dependencies_.neighbors(vm_id)) {
    if (vms_[other].host == host) return false;  // conflict rule (Eq. 7)
  }
  return true;
}

void Deployment::move_vm(VmId vm_id, topo::NodeId host) {
  SHERIFF_REQUIRE(can_place(vm_id, host), "infeasible VM move");
  VirtualMachine& m = vms_[vm_id];
  auto& source_list = host_vms_[m.host];
  source_list.erase(std::find(source_list.begin(), source_list.end(), vm_id));
  host_used_[m.host] -= m.capacity;
  m.host = host;
  host_vms_[host].push_back(vm_id);
  host_used_[host] += m.capacity;
}

void Deployment::add_dependency(VmId a, VmId b) {
  SHERIFF_REQUIRE(a < vms_.size() && b < vms_.size(), "VM id out of range");
  SHERIFF_REQUIRE(vms_[a].host != vms_[b].host,
                  "dependent VMs may not share a host (conflict rule)");
  dependencies_.add_dependency(a, b);
}

void Deployment::advance() {
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    for (std::size_t f = 0; f < kFeatureCount; ++f) {
      vms_[i].profile.values[f] = dynamics_[i].feature_sources[f]->next();
    }
  }
}

void Deployment::checkpoint(snapshot::Archive& ar) {
  ar.expect_u64(vms_.size(), "checkpoint VM count does not match this deployment");
  for (VirtualMachine& m : vms_) {
    ar.u32(m.host);
    ar.check(m.host < topo_->node_count() && topo_->node(m.host).kind == topo::NodeKind::kHost,
             "checkpoint places a VM off this topology's hosts");
    for (double& v : m.profile.values) ar.f64(v);
  }
  // host_vms_ ordering is history-dependent (move_vm erases + appends), and
  // vms_on_host() iteration order feeds migration decisions — serialize it
  // verbatim instead of reconstructing it. move_vm() indexes these lists
  // and erases the VM from its host's list, so a load accepts them only
  // when they list every VM once, on its own host.
  ar.expect_u64(host_vms_.size(), "checkpoint host table does not match this topology");
  std::vector<bool> listed(ar.loading() ? vms_.size() : 0);
  for (std::size_t host = 0; host < host_vms_.size(); ++host) {
    ar.u32v(host_vms_[host]);
    if (!ar.loading()) continue;
    for (const VmId id : host_vms_[host]) {
      ar.check(id < vms_.size() && vms_[id].host == host && !listed[id],
               "checkpoint host table does not match its VM placement");
      listed[id] = true;
    }
  }
  ar.check(std::find(listed.begin(), listed.end(), false) == listed.end(),
           "checkpoint host table leaves a VM unlisted");
  ar.expect_u64(host_used_.size(), "checkpoint host-capacity table does not match this topology");
  for (int& used : host_used_) ar.i64(used);
  ar.expect_u64(dynamics_.size(), "checkpoint dynamics table does not match this deployment");
  for (VmDynamics& d : dynamics_) {
    for (const auto& source : d.feature_sources) source->checkpoint(ar);
  }
}

double Deployment::host_load_percent(topo::NodeId host) const {
  double load = 0.0;
  for (VmId id : vms_on_host(host)) load += vms_[id].effective_load();
  return 100.0 * load / static_cast<double>(options_.host_capacity);
}

double Deployment::workload_stddev() const {
  common::RunningStats stats;
  for (const auto& node : topo_->nodes()) {
    if (node.kind == topo::NodeKind::kHost) stats.add(host_load_percent(node.id));
  }
  return stats.stddev();
}

double Deployment::workload_mean() const {
  common::RunningStats stats;
  for (const auto& node : topo_->nodes()) {
    if (node.kind == topo::NodeKind::kHost) stats.add(host_load_percent(node.id));
  }
  return stats.mean();
}

}  // namespace sheriff::wl

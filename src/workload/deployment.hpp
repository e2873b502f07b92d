#pragma once
// Deployment: the live state of "which VM runs where, under what load".
// It owns the VM population, per-host capacity bookkeeping, the dependency
// graph, and the per-VM workload dynamics (trace-generator driven), and it
// enforces the migration feasibility constraints of Sec. III-C:
// destination capacity (Eq. 8) and the dependency conflict rule (Eq. 7).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "snapshot/fwd.hpp"
#include "topology/topology.hpp"
#include "workload/dependency.hpp"
#include "workload/trace_generator.hpp"
#include "workload/vm.hpp"

namespace sheriff::wl {

enum class PlacementPolicy : std::uint8_t {
  kUniform,  ///< VMs spread uniformly over hosts with room
  kSkewed,   ///< a subset of hosts is preferentially packed (creates the
             ///< imbalance Fig. 9/10 start from)
};

struct DeploymentOptions {
  double vms_per_host = 3.0;        ///< average population density
  int min_vm_capacity = 1;
  int max_vm_capacity = 20;         ///< Sec. VI-B: "VM capacity up to 20"
  int host_capacity = 80;           ///< capacity units a host can carry
  double delay_sensitive_fraction = 0.1;
  double value_mean = 5.0;          ///< VM values ~ Exp(1/mean) + 1
  double dependency_degree = 1.0;   ///< average dependency edges per VM
  PlacementPolicy placement = PlacementPolicy::kSkewed;
  double skew_hot_fraction = 0.25;  ///< share of hosts that attract extra VMs
  double skew_weight = 6.0;         ///< attraction multiplier for hot hosts
  double hot_vm_fraction = 0.08;    ///< VMs with elevated load dynamics
  /// Multiplier on hot_vm_fraction for VMs placed on the skew-attractor
  /// hosts (1.0 = hotness independent of placement). Raising it makes the
  /// packed hosts also the busy ones — the overloaded-rack scenario the
  /// balance experiments start from.
  double hot_host_bias = 1.0;
  std::uint64_t seed = 42;
};

class Deployment {
 public:
  /// Creates and places the VM population over `topo`'s hosts. The
  /// topology must outlive the deployment.
  Deployment(const topo::Topology& topo, const DeploymentOptions& options);

  [[nodiscard]] const topo::Topology& topology() const noexcept { return *topo_; }
  [[nodiscard]] const DeploymentOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::size_t vm_count() const noexcept { return vms_.size(); }
  [[nodiscard]] const VirtualMachine& vm(VmId id) const;
  [[nodiscard]] std::span<const VirtualMachine> vms() const noexcept { return vms_; }
  [[nodiscard]] const DependencyGraph& dependencies() const noexcept { return dependencies_; }

  /// VMs currently hosted on `host`.
  [[nodiscard]] std::span<const VmId> vms_on_host(topo::NodeId host) const;
  /// Capacity units already committed on `host`.
  [[nodiscard]] int host_used_capacity(topo::NodeId host) const;
  [[nodiscard]] int host_free_capacity(topo::NodeId host) const;
  [[nodiscard]] int host_capacity() const noexcept { return options_.host_capacity; }

  /// True when `vm` may move to `host`: enough free capacity and no
  /// dependency conflict with VMs already there.
  [[nodiscard]] bool can_place(VmId vm, topo::NodeId host) const;

  /// Relocates the VM (checks can_place; throws if infeasible).
  void move_vm(VmId vm, topo::NodeId host);

  /// Declares a dependency between two VMs after construction (e.g. a new
  /// application tier coming up). The VMs must currently live on different
  /// hosts — dependent VMs may never share one.
  void add_dependency(VmId a, VmId b);

  /// Advances every VM's workload profile by one sample tick.
  void advance();

  /// Capacity-weighted load on a host as a percentage of its capacity.
  [[nodiscard]] double host_load_percent(topo::NodeId host) const;
  /// Standard deviation of host_load_percent over all hosts — the Fig. 9 /
  /// Fig. 10 balance metric.
  [[nodiscard]] double workload_stddev() const;
  /// Mean of host_load_percent over all hosts.
  [[nodiscard]] double workload_mean() const;

  /// Mutable access for the engine (updates profiles after prediction).
  VirtualMachine& vm_mutable(VmId id);

  /// Checkpoint hook. Everything the constructor derives deterministically
  /// from (topology, options, seed) — VM capacities/values, dependencies,
  /// attractor set, generator options — is NOT serialized; a load
  /// assumes a freshly constructed deployment with identical inputs and
  /// restores only the mutable state: placement (including the
  /// history-dependent per-host VM ordering, which downstream iteration
  /// depends on bit-for-bit), profiles, and trace-generator streams.
  void checkpoint(snapshot::Archive& ar);

 private:
  struct VmDynamics {
    // One generator per profile feature, pre-normalized to [0, 1].
    std::array<std::unique_ptr<TraceGenerator>, kFeatureCount> feature_sources;
  };

  void create_population(common::Pcg32& rng);
  void place_population(common::Pcg32& rng);
  void create_dependencies(common::Pcg32& rng);
  void create_dynamics(common::Pcg32& rng);

  const topo::Topology* topo_;
  DeploymentOptions options_;
  std::vector<VirtualMachine> vms_;
  std::vector<VmDynamics> dynamics_;
  DependencyGraph dependencies_;
  std::vector<std::vector<VmId>> host_vms_;  ///< indexed by NodeId
  std::vector<int> host_used_;               ///< indexed by NodeId
  std::vector<bool> attractor_host_;         ///< skew attractors, indexed by NodeId
};

}  // namespace sheriff::wl

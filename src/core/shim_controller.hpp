#pragma once
// ShimController: the per-rack delegated manager (Sec. II-B). Each round it
// runs in two phases:
//
//   collect() — inspect the predicted profiles of the rack's VMs, the
//   rack's ToR uplink state, and the congestion feedback from outer
//   switches, producing the round's Alert set (the input of Alg. 1). It
//   changes nothing shared: it only traces into the shim's own ring and
//   adds to its pending tallies.
//
//   propose() — Alg. 1 proper, without side effects: partition alerts by
//   type, build the candidate sets F, select VMs with PRIORITY (Alg. 2),
//   and record FLOWREROUTE claims on hot outer switches (rerouting first —
//   it is cheaper than migration) next to the migration set M_v. The
//   engine runs every shim's propose() against the same round snapshot,
//   then commits the claims in shim-id order (apply_reroute()) and hands
//   the committed migration sets to VMMIGRATION (Alg. 3) against each
//   shim's one-hop region (migration_targets()).

#include <span>
#include <vector>

#include "core/alert.hpp"
#include "core/config.hpp"
#include "net/queueing.hpp"
#include "net/reroute.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "topology/liveness.hpp"
#include "topology/topology.hpp"
#include "workload/deployment.hpp"

namespace sheriff::core {

struct ShimCollectResult {
  std::vector<Alert> alerts;
  /// ALERT value of every VM in this rack (parallel to `rack_vms`).
  std::vector<wl::VmId> rack_vms;
  std::vector<double> vm_alert_values;
};

/// Alg. 1's alert dispatch *without* side effects: the migration set M_v
/// plus the reroute claims (hot outer switches whose conflicting flows
/// should move) recorded instead of applied. Produced by propose() in the
/// engine's propose loop; the engine then commits the claims ordered by
/// shim id, deduplicating claims of different shims on the same switch
/// (DESIGN.md §11).
struct ShimProposal {
  std::vector<wl::VmId> migration_set;
  std::vector<topo::NodeId> reroute_claims;  ///< hot switches, in alert order
  std::size_t host_alerts = 0;
  std::size_t tor_alerts = 0;
  std::size_t switch_alerts = 0;
};

class ShimController {
 public:
  ShimController(topo::RackId rack, const topo::Topology& topo, SheriffConfig config);

  [[nodiscard]] topo::RackId rack() const noexcept { return rack_; }

  /// Attaches the fabric's liveness mask (nullptr = pristine fabric). Dead
  /// hosts raise no alerts and are never offered as migration receivers.
  /// The mask must outlive the controller.
  void set_liveness(const topo::LivenessMask* liveness) { liveness_ = liveness; }

  /// Attaches the event trace (nullptr detaches). This shim only ever
  /// writes its own ring. The trace must outlive the controller.
  void set_trace(obs::EventTrace* trace) noexcept { trace_ = trace; }

  /// Adds the alerts/reroutes recorded since the last call to the shared
  /// `shim.*` counters and resets the pending tallies. Called serially by
  /// the engine at the round boundary.
  void publish_metrics(obs::MetricRegistry& registry);

  /// Destination hosts of the shim's dominating region: the rack's own
  /// hosts plus every host in a one-hop neighbor rack.
  [[nodiscard]] std::vector<topo::NodeId> region_target_hosts() const;

  /// Everything a shim observes about the network in one round (filled by
  /// the engine before the collect phase).
  struct Observation {
    const net::FairShareResult* shares = nullptr;
    /// Congested outer switches some flow of this rack transits (the
    /// engine pre-filters per rack so the scan over all flows happens
    /// once, not once per rack).
    std::span<const topo::NodeId> hot_switches;
    double fleet_mean_load_percent = 0.0;  ///< for the relative hotspot detector
    /// T-ahead prediction of the worst ToR uplink utilization (Sec. IV-A:
    /// the shim forecasts its ToR's state); negative = not available, use
    /// the current shares instead.
    double predicted_tor_utilization = -1.0;
    /// T-ahead prediction of the ToR queue backlog (Gbit); triggers a ToR
    /// alert when it exceeds the QCN equilibrium. Negative = unavailable.
    double predicted_tor_queue = -1.0;
    double tor_queue_equilibrium = 4.0;
  };

  /// Phase 1 (see file comment). `predicted` is indexed by VmId.
  [[nodiscard]] ShimCollectResult collect(const wl::Deployment& deployment,
                                          std::span<const wl::WorkloadProfile> predicted,
                                          const Observation& observation);

  /// Alg. 1's alert dispatch against an immutable view of the round state:
  /// builds the candidate sets F, runs PRIORITY (Alg. 2), and returns the
  /// migration set M_v plus the reroute claims. Nothing shared is mutated,
  /// nothing is traced, and no tallies move, so every shim proposes
  /// against the same flow table. `predicted` ranks VMs
  /// for the host-alert single-VM selection when no VM crossed the ALERT
  /// threshold outright. `rack_flow_index` lists the indices of the flows
  /// owned by this rack's VMs, ascending (built by the engine once per round).
  [[nodiscard]] ShimProposal propose(const ShimCollectResult& collected,
                                     const wl::Deployment& deployment,
                                     std::span<const wl::WorkloadProfile> predicted,
                                     std::span<const net::Flow> flows,
                                     std::span<const wl::VmId> flow_owner,
                                     std::span<const std::size_t> rack_flow_index) const;

  /// Commits one reroute claim from propose(): moves conflicting flows off
  /// `hot_switch`, traces the decision, and tallies it. Serial phase only
  /// (mutates the shared flow table) — the engine orders these by shim id.
  net::RerouteReport apply_reroute(topo::NodeId hot_switch, net::Router& router,
                                   std::span<net::Flow> flows);

  /// Migration receivers within the region: underloaded hosts first, the
  /// whole region as fallback.
  [[nodiscard]] std::vector<topo::NodeId> migration_targets(
      const wl::Deployment& deployment) const;

  /// Checkpoint hook: the pending metric tallies (everything else a shim
  /// holds is constructor state or engine-attached pointers).
  void checkpoint(snapshot::Archive& ar);

 private:
  /// Predicted load percent of a host from the predicted VM profiles.
  [[nodiscard]] double predicted_host_load_percent(
      const wl::Deployment& deployment, topo::NodeId host,
      std::span<const wl::WorkloadProfile> predicted) const;

  [[nodiscard]] bool host_live(topo::NodeId host) const {
    return liveness_ == nullptr || liveness_->host_attached(*topo_, host);
  }

  topo::RackId rack_;
  const topo::Topology* topo_;
  const topo::LivenessMask* liveness_ = nullptr;
  SheriffConfig config_;
  obs::EventTrace* trace_ = nullptr;
  // Round tallies for publish_metrics.
  std::size_t pending_alerts_ = 0;
  std::size_t pending_reroutes_ = 0;
};

}  // namespace sheriff::core

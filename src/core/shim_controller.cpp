#include "core/shim_controller.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "core/priority.hpp"
#include "snapshot/archive.hpp"

namespace sheriff::core {

ShimController::ShimController(topo::RackId rack, const topo::Topology& topo,
                               SheriffConfig config)
    : rack_(rack), topo_(&topo), config_(config) {
  SHERIFF_REQUIRE(rack < topo.rack_count(), "rack out of range");
}

std::vector<topo::NodeId> ShimController::region_target_hosts() const {
  std::vector<topo::NodeId> targets;
  const auto& own = topo_->rack(rack_);
  for (topo::NodeId h : own.hosts) {
    if (host_live(h)) targets.push_back(h);
  }

  // One-hop neighbor racks, nearest first on the floor plan, capped at
  // max_region_racks — the shim's dominating region stays a locality even
  // on fabrics (BCube) where everything is one hop away.
  auto neighbors = topo_->neighbor_racks(rack_);
  std::sort(neighbors.begin(), neighbors.end(), [&](topo::RackId a, topo::RackId b) {
    const auto& ra = topo_->rack(a);
    const auto& rb = topo_->rack(b);
    const double da = std::hypot(ra.x - own.x, ra.y - own.y);
    const double db = std::hypot(rb.x - own.x, rb.y - own.y);
    if (da != db) return da < db;
    return a < b;
  });
  if (neighbors.size() > config_.max_region_racks) {
    neighbors.resize(config_.max_region_racks);
  }
  for (topo::RackId nr : neighbors) {
    for (topo::NodeId h : topo_->rack(nr).hosts) {
      if (host_live(h)) targets.push_back(h);
    }
  }
  return targets;
}

double ShimController::predicted_host_load_percent(
    const wl::Deployment& deployment, topo::NodeId host,
    std::span<const wl::WorkloadProfile> predicted) const {
  double load = 0.0;
  for (wl::VmId id : deployment.vms_on_host(host)) {
    load += static_cast<double>(deployment.vm(id).capacity) *
            predicted[id][wl::Feature::kCpu];
  }
  return 100.0 * load / static_cast<double>(deployment.host_capacity());
}

ShimCollectResult ShimController::collect(const wl::Deployment& deployment,
                                          std::span<const wl::WorkloadProfile> predicted,
                                          const Observation& observation) {
  SHERIFF_REQUIRE(predicted.size() == deployment.vm_count(),
                  "predicted profiles must cover every VM");
  ShimCollectResult out;
  const AlertScheme scheme(config_.vm_alert_threshold);
  const topo::Rack& rack = topo_->rack(rack_);

  // Per-VM ALERT values (Sec. IV-C) over the rack's population. A dead
  // host reports nothing: its VMs are orphans handled by the engine's
  // recovery path, not by the alert pipeline.
  for (topo::NodeId host : rack.hosts) {
    if (!host_live(host)) continue;
    for (wl::VmId id : deployment.vms_on_host(host)) {
      out.rack_vms.push_back(id);
      out.vm_alert_values.push_back(scheme.vm_alert(predicted[id]));
    }
  }

  // Host overload alerts: predicted load above the absolute overload line,
  // or a relative hotspot (well above the fleet mean).
  for (topo::NodeId host : rack.hosts) {
    if (!host_live(host)) continue;
    const double load = predicted_host_load_percent(deployment, host, predicted);
    const bool absolute = load > config_.host_overload_percent;
    const bool hotspot = load > config_.hotspot_floor_percent &&
                         load > config_.hotspot_factor * observation.fleet_mean_load_percent;
    if (absolute || hotspot) {
      out.alerts.push_back({AlertSource::kHost, rack_, host, load});
    }
  }

  // Local ToR congestion. Preferred signal: the T-ahead predictions of the
  // uplink utilization and the ToR queue (Sec. IV-A); fallback: current
  // utilization from the fair-share state.
  {
    double utilization = observation.predicted_tor_utilization;
    if (utilization < 0.0 && observation.shares != nullptr) {
      utilization = 0.0;
      for (topo::LinkId l : topo_->links_of(rack.tor)) {
        const topo::NodeId other = topo_->peer(l, rack.tor);
        if (!topo::is_switch(topo_->node(other).kind)) continue;  // host-side link
        utilization = std::max(utilization, observation.shares->link_utilization[l]);
      }
    }
    const bool uplink_hot = utilization > config_.tor_utilization_threshold;
    const bool queue_hot = observation.predicted_tor_queue >= 0.0 &&
                           observation.predicted_tor_queue > observation.tor_queue_equilibrium;
    if (uplink_hot || queue_hot) {
      out.alerts.push_back({AlertSource::kLocalTor, rack_, rack.tor,
                            uplink_hot ? utilization : observation.predicted_tor_queue});
    }
  }

  // Outer-switch congestion feedback, pre-filtered to this rack's flows.
  for (topo::NodeId sw : observation.hot_switches) {
    if (sw == rack.tor) continue;
    out.alerts.push_back({AlertSource::kOuterSwitch, rack_, sw, 1.0});
  }

  if (trace_ != nullptr) {
    for (const Alert& alert : out.alerts) {
      trace_->emit(rack_, obs::EventType::kAlertRaised, alert.node,
                   static_cast<std::uint32_t>(alert.source), alert.value);
    }
  }
  pending_alerts_ += out.alerts.size();
  return out;
}

ShimProposal ShimController::propose(const ShimCollectResult& collected,
                                     const wl::Deployment& deployment,
                                     std::span<const wl::WorkloadProfile> predicted,
                                     std::span<const net::Flow> flows,
                                     std::span<const wl::VmId> flow_owner,
                                     std::span<const std::size_t> rack_flow_index) const {
  // Alg. 1's alert dispatch against an immutable round snapshot: every
  // F-set sees the flow table as it stood when the manage phase began, and
  // reroutes are recorded as claims for the engine's ordered commit.
  ShimProposal result;
  bool tor_alerted = false;  // ALERT_TOR accumulator
  const auto alert_of = [&](wl::VmId id) {
    const auto it = std::find(collected.rack_vms.begin(), collected.rack_vms.end(), id);
    return it == collected.rack_vms.end()
               ? 0.0
               : collected.vm_alert_values[static_cast<std::size_t>(
                     it - collected.rack_vms.begin())];
  };
  // F for a switch alert: local VMs with flows through the hot switch s_j.
  const auto flows_through = [&](topo::NodeId hot) {
    std::vector<wl::VmId> f_set;
    for (std::size_t f : rack_flow_index) {
      const wl::VmId owner = flow_owner[f];
      if (!flows[f].transits(hot)) continue;
      if (std::find(f_set.begin(), f_set.end(), owner) == f_set.end()) f_set.push_back(owner);
    }
    return f_set;
  };

  for (const Alert& alert : collected.alerts) {
    switch (alert.source) {
      case AlertSource::kOuterSwitch: {
        ++result.switch_alerts;
        const std::vector<wl::VmId> f_set = flows_through(alert.node);
        std::vector<double> values;
        values.reserve(f_set.size());
        for (wl::VmId id : f_set) values.push_back(alert_of(id));
        const int budget = static_cast<int>(
            std::floor(config_.alpha * config_.switch_capacity_units));
        const auto picked =
            priority_select(deployment, f_set, values, PriorityMode::kAlpha, budget);
        // The selected VMs form M'_i: their conflicting flows are rerouted
        // around the hot switch (cheaper than migrating them).
        if (config_.reroute_first && !picked.selected.empty()) {
          result.reroute_claims.push_back(alert.node);
        } else {
          result.migration_set.insert(result.migration_set.end(), picked.selected.begin(),
                                      picked.selected.end());
        }
        break;
      }
      case AlertSource::kLocalTor: {
        ++result.tor_alerts;
        tor_alerted = true;  // handled once after the loop, like Alg. 1
        break;
      }
      case AlertSource::kHost: {
        ++result.host_alerts;
        std::vector<wl::VmId> f_set(deployment.vms_on_host(alert.node).begin(),
                                    deployment.vms_on_host(alert.node).end());
        // Rank by ALERT when one fired; otherwise (relative hotspot with no
        // single VM past THRESHOLD) by predicted CPU pressure, so the
        // heaviest tenant leaves first. True ALERTs (>= 0.9) dominate.
        std::vector<double> values;
        values.reserve(f_set.size());
        for (wl::VmId id : f_set) {
          const double alert_value = alert_of(id);
          values.push_back(alert_value > 0.0
                               ? alert_value
                               : 0.5 * predicted[id][wl::Feature::kCpu]);
        }
        const auto picked =
            priority_select(deployment, f_set, values, PriorityMode::kSingle, 0);
        result.migration_set.insert(result.migration_set.end(), picked.selected.begin(),
                                    picked.selected.end());
        break;
      }
    }
  }

  if (tor_alerted) {
    // F: every VM in the rack; budget β · ToR capacity.
    std::vector<double> values;
    values.reserve(collected.rack_vms.size());
    for (wl::VmId id : collected.rack_vms) values.push_back(alert_of(id));
    const int budget =
        static_cast<int>(std::floor(config_.beta * config_.tor_capacity_units));
    const auto picked = priority_select(deployment, collected.rack_vms, values,
                                        PriorityMode::kBeta, budget);
    result.migration_set.insert(result.migration_set.end(), picked.selected.begin(),
                                picked.selected.end());
  }

  return result;
}

net::RerouteReport ShimController::apply_reroute(topo::NodeId hot_switch, net::Router& router,
                                                 std::span<net::Flow> flows) {
  const auto report = net::reroute_around(router, flows, hot_switch, config_.reroute_fraction);
  if (trace_ != nullptr && report.rerouted > 0) {
    trace_->emit(rack_, obs::EventType::kRerouteChosen, hot_switch, 0,
                 static_cast<double>(report.rerouted));
  }
  pending_reroutes_ += report.rerouted;
  return report;
}

void ShimController::publish_metrics(obs::MetricRegistry& registry) {
  registry.counter("shim.alerts_raised").add(pending_alerts_);
  registry.counter("shim.reroutes_chosen").add(pending_reroutes_);
  pending_alerts_ = 0;
  pending_reroutes_ = 0;
}

std::vector<topo::NodeId> ShimController::migration_targets(
    const wl::Deployment& deployment) const {
  // Receivers: underloaded hosts of the one-hop region; migrating onto an
  // already-hot neighbor would just move the hotspot. Fall back to the
  // whole region when everything is busy.
  const auto region = region_target_hosts();
  std::vector<topo::NodeId> targets;
  for (topo::NodeId h : region) {
    if (deployment.host_load_percent(h) < config_.receiver_max_load_percent) {
      targets.push_back(h);
    }
  }
  if (targets.empty()) targets = region;
  return targets;
}

void ShimController::checkpoint(snapshot::Archive& ar) {
  ar.u64(pending_alerts_);
  ar.u64(pending_reroutes_);
}

}  // namespace sheriff::core

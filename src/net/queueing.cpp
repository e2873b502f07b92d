#include "net/queueing.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "obs/registry.hpp"
#include "snapshot/archive.hpp"

namespace sheriff::net {

SwitchQueues::SwitchQueues(const topo::Topology& topo, QcnConfig config)
    : topo_(&topo), config_(config) {
  queue_.assign(topo.node_count(), 0.0);
  prev_queue_.assign(topo.node_count(), 0.0);
  congested_flag_.assign(topo.node_count(), 0);
}

void SwitchQueues::update(const FairShareResult& shares, std::span<Flow> flows, double dt) {
  SHERIFF_REQUIRE(shares.link_load_gbps.size() == topo_->link_count(),
                  "fair-share result does not match topology");
  prev_queue_ = queue_;

  // Per-switch backlog integration.
  for (const auto& node : topo_->nodes()) {
    if (!topo::is_switch(node.kind)) continue;
    if (liveness_ != nullptr && !liveness_->node_up(node.id)) {
      queue_[node.id] = 0.0;
      continue;
    }
    // Excess = worst (offered − serviced) over incident links: demand the
    // switch was asked to carry but could not.
    double excess = 0.0;
    for (topo::LinkId l : topo_->links_of(node.id)) {
      excess = std::max(excess, shares.link_offered_gbps[l] - shares.link_load_gbps[l]);
    }
    if (excess > 0.0) {
      queue_[node.id] += excess * dt;
    } else {
      queue_[node.id] *= std::max(0.0, 1.0 - config_.drain_factor * dt);
      if (queue_[node.id] < 1e-9) queue_[node.id] = 0.0;
    }
  }

  decide_congested();

  // DSCP marking: flows transiting a congested switch get marked, others
  // get cleared (the mark reflects the current state, not history).
  const bool any_congested = !congested_.empty();
  for (Flow& f : flows) {
    const bool marked = any_congested && std::ranges::any_of(f.interior(), [&](topo::NodeId sw) {
                          return congested(sw);
                        });
    f.dscp = marked ? DscpMark::kCongested : DscpMark::kNone;
  }
}

void SwitchQueues::decide_congested() {
  for (const topo::NodeId sw : congested_) congested_flag_[sw] = 0;
  congested_.clear();
  for (const auto& node : topo_->nodes()) {
    if (!topo::is_switch(node.kind)) continue;
    if (liveness_ != nullptr && !liveness_->node_up(node.id)) continue;
    if (queue_[node.id] > 0.0 && feedback(node.id) < config_.congestion_feedback) {
      congested_.push_back(node.id);
      congested_flag_[node.id] = 1;
    }
  }
}

double SwitchQueues::queue_length(topo::NodeId sw) const {
  SHERIFF_REQUIRE(sw < queue_.size(), "switch id out of range");
  return queue_[sw];
}

double SwitchQueues::feedback(topo::NodeId sw) const {
  SHERIFF_REQUIRE(sw < queue_.size(), "switch id out of range");
  const double q_off = queue_[sw] - config_.equilibrium_queue;
  const double q_delta = queue_[sw] - prev_queue_[sw];
  return -(q_off + config_.weight * q_delta);
}

void SwitchQueues::publish_metrics(obs::MetricRegistry& registry) const {
  double max_queue = 0.0;
  double total_queue = 0.0;
  std::size_t congested = 0;
  obs::Histogram& depth =
      registry.histogram("queueing.queue_depth", {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
  for (topo::NodeId id = 0; id < topo_->node_count(); ++id) {
    if (!topo::is_switch(topo_->node(id).kind)) continue;
    const double q = queue_[id];
    depth.observe(q);
    max_queue = std::max(max_queue, q);
    total_queue += q;
    if (q > 0.0 && feedback(id) < config_.congestion_feedback) ++congested;
  }
  registry.gauge("queueing.max_queue").set(max_queue);
  registry.gauge("queueing.total_queue").set(total_queue);
  registry.gauge("queueing.congested_switches").set(static_cast<double>(congested));
}

void SwitchQueues::checkpoint(snapshot::Archive& ar) {
  constexpr const char* kMismatch = "checkpoint queue state does not match this topology";
  ar.expect_u64(queue_.size(), kMismatch);
  for (double& q : queue_) ar.f64(q);
  ar.expect_u64(prev_queue_.size(), kMismatch);
  for (double& q : prev_queue_) ar.f64(q);
  if (ar.loading()) decide_congested();
}

}  // namespace sheriff::net

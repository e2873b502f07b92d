#pragma once
// Switch queue model with QCN-style congestion feedback (Sec. III-A/B).
// Each switch's backlog integrates (offered load − serviced load) over its
// most loaded incident link; QCN computes Fb = −(q_off + w·q_delta) and a
// negative Fb signals congestion, which the shim treats as a switch alert.
//
// The congested set is decided once per update(), as an ascending list
// plus a per-switch flag. Its readers — DSCP marking, the QCN reaction
// point, the engine's per-rack hot lists — walk each flow's interior
// nodes once against the flag, whatever the number of congested switches.

#include <cstdint>
#include <span>
#include <vector>

#include "net/fair_share.hpp"
#include "net/flow.hpp"
#include "topology/liveness.hpp"
#include "topology/topology.hpp"

namespace sheriff::net {

struct QcnConfig {
  double equilibrium_queue = 4.0;   ///< q_eq, in Gbit of backlog
  double weight = 2.0;              ///< w, the rate-of-change weight
  double drain_factor = 0.25;       ///< share of backlog drained per tick when idle
  double congestion_feedback = -1.0;  ///< Fb below this marks the switch congested
};

class SwitchQueues {
 public:
  SwitchQueues(const topo::Topology& topo, QcnConfig config = {});

  /// Attaches a liveness mask (nullptr detaches): a dead switch neither
  /// accumulates backlog nor signals congestion, and its queue is flushed
  /// (a crashed switch loses its buffered frames).
  void set_liveness(const topo::LivenessMask* liveness) { liveness_ = liveness; }

  /// Advances the backlog of every switch by `dt` given the current
  /// allocation, decides the congested set, and applies DSCP marks to
  /// flows through congested switches.
  void update(const FairShareResult& shares, std::span<Flow> flows, double dt = 1.0);

  [[nodiscard]] double queue_length(topo::NodeId sw) const;
  /// QCN feedback Fb = −(q − q_eq + w·(q − q_prev)); negative = congested.
  [[nodiscard]] double feedback(topo::NodeId sw) const;
  /// Switches signalling congestion as of the last update() or
  /// checkpoint load (live switches with a backlog and Fb below the
  /// threshold), in ascending id.
  [[nodiscard]] const std::vector<topo::NodeId>& congested_switches() const noexcept {
    return congested_;
  }
  /// True when `node` is in congested_switches() (unchecked: `node` must be
  /// a NodeId of the topology).
  [[nodiscard]] bool congested(topo::NodeId node) const noexcept {
    return congested_flag_[node] != 0;
  }
  [[nodiscard]] const QcnConfig& config() const noexcept { return config_; }

  /// Publishes the current backlog state as `queueing.*` gauges and feeds
  /// every switch's queue length into a fixed-bucket depth histogram.
  void publish_metrics(obs::MetricRegistry& registry) const;

  /// Checkpoint hook: the two backlog vectors (current + previous tick),
  /// each sized by the topology. The congested set is derived state: a
  /// load recomputes it.
  void checkpoint(snapshot::Archive& ar);

 private:
  /// Rebuilds congested_ and congested_flag_ from the backlog state.
  void decide_congested();

  const topo::Topology* topo_;
  const topo::LivenessMask* liveness_ = nullptr;
  QcnConfig config_;
  std::vector<double> queue_;       ///< indexed by NodeId (hosts stay zero)
  std::vector<double> prev_queue_;
  std::vector<topo::NodeId> congested_;       ///< ascending
  std::vector<std::uint8_t> congested_flag_;  ///< indexed by NodeId
};

}  // namespace sheriff::net

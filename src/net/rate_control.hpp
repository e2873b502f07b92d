#pragma once
// QCN reaction-point rate control (Sec. III-A.2 of the paper: on
// congestion feedback "modify the rate at end host to reach the goal of
// easing the congestion"). Senders keep a per-flow rate limit:
//
//   * on congestion feedback Fb < 0 from a switch the flow transits, the
//     limit drops multiplicatively (target remembers the pre-drop rate);
//   * otherwise the limit recovers toward the target in binary-search
//     style (QCN "fast recovery"), and past the target it probes upward.
//
// The fair-share allocator honors the limit via Flow::rate_limit_gbps.

#include <unordered_map>

#include "net/flow.hpp"
#include "net/queueing.hpp"

namespace sheriff::net {

struct QcnRateConfig {
  double decrease_gain = 0.5;     ///< Gd: fraction of |Fb|-scaled cut per event
  double min_rate_gbps = 0.05;    ///< floor so flows never fully starve
  double probe_step_gbps = 0.05;  ///< additive probe once recovered
  double feedback_scale = 4.0;    ///< |Fb| normalization (queue units)
};

class QcnRateController {
 public:
  explicit QcnRateController(QcnRateConfig config = {});

  /// One control period: adjusts every flow's rate limit from the current
  /// switch feedback. Call after SwitchQueues::update().
  void update(std::span<Flow> flows, const SwitchQueues& queues);

  /// Current limit of a flow (infinity when the flow was never cut).
  [[nodiscard]] double limit(FlowId flow) const;
  [[nodiscard]] std::size_t tracked_flows() const noexcept { return state_.size(); }

  /// Checkpoint hook. Entries are written sorted by FlowId so the archive
  /// is independent of unordered_map iteration order; lookups only ever go
  /// through find(), so rebuilt bucket order cannot change behavior.
  void checkpoint(snapshot::Archive& ar);

 private:
  struct FlowState {
    double limit_gbps = 0.0;
    double target_gbps = 0.0;
  };

  QcnRateConfig config_;
  std::unordered_map<FlowId, FlowState> state_;
};

}  // namespace sheriff::net

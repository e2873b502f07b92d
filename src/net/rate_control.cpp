#include "net/rate_control.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/require.hpp"
#include "snapshot/archive.hpp"

namespace sheriff::net {

QcnRateController::QcnRateController(QcnRateConfig config) : config_(config) {
  SHERIFF_REQUIRE(config.decrease_gain > 0.0 && config.decrease_gain < 1.0,
                  "decrease gain must be in (0,1)");
  SHERIFF_REQUIRE(config.min_rate_gbps > 0.0, "minimum rate must be positive");
}

void QcnRateController::update(std::span<Flow> flows, const SwitchQueues& queues) {
  const bool any_congested = !queues.congested_switches().empty();
  for (Flow& flow : flows) {
    if (!flow.routed()) continue;

    // Worst (most negative) feedback among congested switches on the path
    // (a min, so visiting them in path order changes nothing).
    double worst_fb = 0.0;
    if (any_congested) {
      for (const topo::NodeId sw : flow.interior()) {
        if (queues.congested(sw)) worst_fb = std::min(worst_fb, queues.feedback(sw));
      }
    }

    if (worst_fb < 0.0) {
      auto& st = state_[flow.id];
      const double current =
          st.limit_gbps > 0.0 ? std::min(st.limit_gbps, flow.demand_gbps) : flow.demand_gbps;
      st.target_gbps = current;
      const double severity =
          std::min(1.0, std::fabs(worst_fb) / config_.feedback_scale);
      st.limit_gbps =
          std::max(config_.min_rate_gbps, current * (1.0 - config_.decrease_gain * severity));
    } else if (auto it = state_.find(flow.id); it != state_.end()) {
      auto& st = it->second;
      if (st.limit_gbps < st.target_gbps) {
        // Fast recovery: halve the gap to the pre-congestion rate.
        st.limit_gbps = 0.5 * (st.limit_gbps + st.target_gbps);
      } else {
        // Active probing above the old target.
        st.limit_gbps += config_.probe_step_gbps;
        st.target_gbps = st.limit_gbps;
      }
      if (st.limit_gbps >= flow.demand_gbps) {
        state_.erase(it);  // fully recovered: stop limiting
      }
    }
  }

  for (Flow& flow : flows) {
    const auto it = state_.find(flow.id);
    flow.rate_limit_gbps =
        it != state_.end() ? it->second.limit_gbps : std::numeric_limits<double>::infinity();
  }
}

double QcnRateController::limit(FlowId flow) const {
  const auto it = state_.find(flow);
  return it != state_.end() ? it->second.limit_gbps : std::numeric_limits<double>::infinity();
}

void QcnRateController::checkpoint(snapshot::Archive& ar) {
  std::vector<FlowId> ids;
  if (ar.saving()) {
    ids.reserve(state_.size());
    for (const auto& [id, st] : state_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
  } else {
    state_.clear();
  }
  std::uint64_t entries = ids.size();
  ar.count(entries, 20);
  ids.resize(entries);
  for (FlowId& id : ids) {
    ar.u32(id);
    FlowState& st = state_[id];
    ar.f64(st.limit_gbps);
    ar.f64(st.target_gbps);
  }
}

}  // namespace sheriff::net

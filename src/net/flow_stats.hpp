#pragma once
// QoS statistics over a fair-share allocation: how satisfied flows are,
// how fairly the bandwidth is split (Jain's index), and aggregate
// throughput. The paper's motivation is exactly these quantities — shims
// act so that "QoS may be guaranteed".

#include <span>

#include "net/fair_share.hpp"
#include "net/flow.hpp"

namespace sheriff::net {

struct FlowQosStats {
  std::size_t offered_flows = 0;     ///< routed flows with positive demand
  std::size_t satisfied_flows = 0;   ///< allocated >= demand (after rate limits)
  double total_demand_gbps = 0.0;
  double total_allocated_gbps = 0.0;
  double mean_satisfaction = 0.0;    ///< mean of allocated/demand over offered flows
  double jain_fairness = 0.0;        ///< Jain's index over allocated rates, in (0, 1]

  [[nodiscard]] double satisfied_fraction() const noexcept {
    return offered_flows == 0
               ? 1.0
               : static_cast<double>(satisfied_flows) / static_cast<double>(offered_flows);
  }
};

/// Jain's fairness index: (Σx)^2 / (n Σx^2); 1 = perfectly equal shares.
/// Zero-rate entries count; returns 1 for empty input.
double jain_fairness_index(std::span<const double> rates);

/// Computes QoS statistics for an allocation (flows carry allocated_gbps
/// after FairShareSolver::solve()).
FlowQosStats compute_qos_stats(std::span<const Flow> flows);

}  // namespace sheriff::net

#pragma once
// Tunables of the Sheriff scheme, with defaults from the paper's
// evaluation (Sec. VI-B) where it gives them. Each numeric field states
// its domain; DistributedEngine's constructor rejects a value outside it
// (RequirementError), the Eq. (1) parameters through MigrationCostModel.
// A NaN is outside every domain.

#include <cstddef>

#include "migration/cost_model.hpp"

namespace sheriff::core {

struct SheriffConfig {
  // --- pre-alert (Sec. IV) ------------------------------------------------
  /// THRESHOLD on predicted profile components, in (0, 1].
  double vm_alert_threshold = 0.9;
  /// Predicted host load (%) that raises a host alert, ≥ 0 (+inf turns
  /// absolute host alerts off).
  double host_overload_percent = 90.0;
  // Relative hotspot detection: a host whose predicted load is both above
  // `hotspot_floor_percent` and more than `hotspot_factor` times the fleet
  // mean is also alerted. Absolute 90 % overloads are rare in a healthy
  // DCN; imbalance (the Fig. 9/10 condition) is what migration fixes.
  double hotspot_factor = 1.5;          ///< ≥ 0 (+inf turns relative alerts off)
  double hotspot_floor_percent = 25.0;  ///< ≥ 0
  /// Migration receivers: prefer hosts below this load (%, ≥ 0); if none
  /// qualify in the region the shim falls back to any host with free
  /// capacity.
  double receiver_max_load_percent = 50.0;
  /// Predicted ToR uplink utilization alert level, ≥ 0.
  double tor_utilization_threshold = 0.85;
  std::size_t prediction_horizon = 1;  ///< T-seconds-ahead steps predicted (≥ 1)

  // --- selection (Alg. 2) --------------------------------------------------
  double alpha = 0.3;  ///< switch-alert capacity fraction (C = α · capacity), in [0, 1]
  double beta = 0.2;   ///< ToR-alert capacity fraction (C = β · capacity), in [0, 1]
  int switch_capacity_units = 100;  ///< s_j.capacity in VM-capacity units (≥ 1)
  int tor_capacity_units = 150;     ///< ToR_i.capacity in VM-capacity units (≥ 1)

  // --- migration (Alg. 3, Sec. V) ------------------------------------------
  mig::CostParams cost;          ///< Eq. (1) parameters (C_r=100, C_d=δ=η=1)
  /// Bound on a shim's dominating region: at most this many one-hop
  /// neighbor racks (nearest first by floor distance; any value, 0 keeps
  /// a shim to its own rack). Rich fabrics like BCube make *every* rack a
  /// one-hop neighbor; the paper's regions are small localities, which is
  /// what keeps the search space flat.
  std::size_t max_region_racks = 12;
  std::size_t max_matching_rounds = 8;  ///< Alg. 3 retry bound (≥ 1)

  // --- rerouting -----------------------------------------------------------
  bool reroute_first = true;     ///< Sec. III-B: reroute before migrating
  double reroute_fraction = 0.5; ///< share of conflicting flows to move, in (0, 1]
};

}  // namespace sheriff::core

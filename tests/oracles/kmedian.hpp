#pragma once
// Reference k-median solvers: Alg. 5 as the paper states it — the Arya et
// al. local search with swaps of up to p medians, every candidate
// re-priced from scratch — and the exhaustive optimum over all
// C(|facilities|, k) subsets. graph::fast_kmedian replays the reference
// scan's trajectory (the differential tests pin identical medians and
// bitwise costs); the ratio tests and benches divide by the optimum.

#include <cstddef>
#include <functional>
#include <vector>

#include "core/kmedian_planner.hpp"
#include "graph/kmedian.hpp"
#include "topology/entities.hpp"

namespace sheriff::oracle {

/// Connection cost of a given median set for the instance.
double kmedian_cost(const graph::KMedianInstance& instance,
                    const std::vector<std::size_t>& medians);

/// Enumerates all index-combinations of size `p` from [0, n) in
/// lexicographic order; invokes fn with each. Returns false if fn requested
/// a stop (found improvement). The fast solver's multi-swap scan visits
/// candidates in exactly this order.
bool for_each_combination(std::size_t n, std::size_t p,
                          const std::function<bool(const std::vector<std::size_t>&)>& fn);

/// Alg. 5: local search with swaps of up to `p` facilities at a time,
/// first-improvement, deterministic initial solution (first k facilities).
/// `min_relative_gain` is the improvement threshold that makes the
/// 3 + 2/p guarantee polynomial-time (Arya et al. use cost reductions of at
/// least cost/poly; any positive epsilon preserves the ratio up to (1+eps)).
graph::KMedianSolution local_search_kmedian(const graph::KMedianInstance& instance,
                                            std::size_t p, double min_relative_gain = 1e-9);

/// Exhaustive optimum over all C(|facilities|, k) subsets. Test-scale only.
graph::KMedianSolution exhaustive_kmedian(const graph::KMedianInstance& instance);

/// local_search_kmedian on the instance KMedianPlanner::plan solves (the
/// planner's rack_distances() and facility_racks(), `sources` as clients),
/// as a plan.
core::KMedianPlan reference_plan(const core::KMedianPlanner& planner,
                                 const std::vector<topo::RackId>& sources, std::size_t k,
                                 std::size_t p);

/// exhaustive_kmedian on that instance, as a plan.
core::KMedianPlan exact_plan(const core::KMedianPlanner& planner,
                             const std::vector<topo::RackId>& sources, std::size_t k);

}  // namespace sheriff::oracle

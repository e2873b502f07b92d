#include "oracles/kmedian.hpp"

#include <algorithm>
#include <limits>

#include "common/require.hpp"

namespace sheriff::oracle {

using graph::KMedianInstance;
using graph::KMedianSolution;
using graph::detail::validate;

bool for_each_combination(std::size_t n, std::size_t p,
                          const std::function<bool(const std::vector<std::size_t>&)>& fn) {
  std::vector<std::size_t> idx(p);
  for (std::size_t i = 0; i < p; ++i) idx[i] = i;
  if (p > n) return true;
  for (;;) {
    if (!fn(idx)) return false;
    // Advance to the next combination.
    std::size_t i = p;
    while (i > 0) {
      --i;
      if (idx[i] != i + n - p) break;
      if (i == 0) return true;
    }
    if (idx[i] == i + n - p) return true;
    ++idx[i];
    for (std::size_t j = i + 1; j < p; ++j) idx[j] = idx[j - 1] + 1;
  }
}


double kmedian_cost(const KMedianInstance& instance, const std::vector<std::size_t>& medians) {
  SHERIFF_REQUIRE(!medians.empty(), "median set must be non-empty");
  double total = 0.0;
  for (std::size_t c : instance.clients) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t m : medians) best = std::min(best, instance.distance->at(c, m));
    total += best;
  }
  return total;
}

KMedianSolution local_search_kmedian(const KMedianInstance& instance, std::size_t p,
                                     double min_relative_gain) {
  validate(instance);
  SHERIFF_REQUIRE(p >= 1, "swap size p must be at least 1");
  const auto& facilities = instance.facilities;

  KMedianSolution sol;
  sol.medians.assign(facilities.begin(),
                     facilities.begin() + static_cast<std::ptrdiff_t>(instance.k));
  sol.cost = kmedian_cost(instance, sol.medians);
  sol.evaluations = 1;
  const std::size_t max_swap = std::min(p, instance.k);

  bool improved = true;
  while (improved && !sol.hit_evaluation_cap) {
    improved = false;
    // Try swap sizes 1..p; first improvement restarts the scan.
    for (std::size_t swap = 1; swap <= max_swap && !improved; ++swap) {
      std::vector<std::size_t> outside;
      outside.reserve(facilities.size());
      for (std::size_t f : facilities) {
        if (std::find(sol.medians.begin(), sol.medians.end(), f) == sol.medians.end()) {
          outside.push_back(f);
        }
      }
      if (outside.size() < swap) continue;
      for_each_combination(sol.medians.size(), swap, [&](const std::vector<std::size_t>& out_idx) {
        return for_each_combination(outside.size(), swap,
                                    [&](const std::vector<std::size_t>& in_idx) {
          if (instance.max_evaluations != 0 &&
              sol.evaluations >= instance.max_evaluations) {
            sol.hit_evaluation_cap = true;
            return false;  // budget spent: keep the current solution
          }
          std::vector<std::size_t> candidate = sol.medians;
          for (std::size_t i = 0; i < swap; ++i) candidate[out_idx[i]] = outside[in_idx[i]];
          const double cost = kmedian_cost(instance, candidate);
          ++sol.evaluations;
          if (cost < sol.cost * (1.0 - min_relative_gain)) {
            sol.medians = std::move(candidate);
            sol.cost = cost;
            improved = true;
            return false;  // stop scanning, restart outer loop
          }
          return true;
        });
      });
      if (sol.hit_evaluation_cap) break;
    }
  }
  std::sort(sol.medians.begin(), sol.medians.end());
  return sol;
}

KMedianSolution exhaustive_kmedian(const KMedianInstance& instance) {
  validate(instance);
  KMedianSolution best;
  best.cost = std::numeric_limits<double>::infinity();
  for_each_combination(instance.facilities.size(), instance.k,
                       [&](const std::vector<std::size_t>& idx) {
    std::vector<std::size_t> candidate(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) candidate[i] = instance.facilities[idx[i]];
    const double cost = kmedian_cost(instance, candidate);
    ++best.evaluations;
    if (cost < best.cost) {
      best.cost = cost;
      best.medians = std::move(candidate);
    }
    return true;
  });
  std::sort(best.medians.begin(), best.medians.end());
  return best;
}

namespace {

KMedianInstance rack_instance(const core::KMedianPlanner& planner,
                              const std::vector<topo::RackId>& sources, std::size_t k) {
  KMedianInstance instance;
  instance.distance = &planner.rack_distances();
  instance.k = k;
  instance.clients.assign(sources.begin(), sources.end());
  instance.facilities.assign(planner.facility_racks().begin(), planner.facility_racks().end());
  return instance;
}

core::KMedianPlan as_plan(const KMedianSolution& solution) {
  core::KMedianPlan out;
  out.destinations.assign(solution.medians.begin(), solution.medians.end());
  out.connection_cost = solution.cost;
  out.evaluations = solution.evaluations;
  out.hit_evaluation_cap = solution.hit_evaluation_cap;
  return out;
}

}  // namespace

core::KMedianPlan reference_plan(const core::KMedianPlanner& planner,
                                 const std::vector<topo::RackId>& sources, std::size_t k,
                                 std::size_t p) {
  return as_plan(local_search_kmedian(rack_instance(planner, sources, k), p));
}

core::KMedianPlan exact_plan(const core::KMedianPlanner& planner,
                             const std::vector<topo::RackId>& sources, std::size_t k) {
  return as_plan(exhaustive_kmedian(rack_instance(planner, sources, k)));
}

}  // namespace sheriff::oracle

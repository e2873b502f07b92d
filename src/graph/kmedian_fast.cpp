#include "graph/kmedian_fast.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/require.hpp"

namespace sheriff::graph {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The single swap a delta sweep applies.
struct SwapChoice {
  bool found = false;
  std::size_t position = 0;  ///< median slot to close
  std::size_t facility = 0;  ///< facility id to open
};

bool improves(double cost, double gain, double min_relative_gain) {
  // Mirror the reference acceptance test: candidate < cost · (1 − ε).
  return cost - gain < cost * (1.0 - min_relative_gain);
}

}  // namespace

KMedianState::KMedianState(const KMedianInstance& instance, std::vector<std::size_t> medians)
    : instance_(&instance) {
  open_mask_.assign(instance.distance->size(), 0);
  reset(std::move(medians));
}

void KMedianState::reset(std::vector<std::size_t> medians) {
  SHERIFF_REQUIRE(!medians.empty(), "median set must be non-empty");
  for (std::size_t f : open_) open_mask_[f] = 0;
  open_ = std::move(medians);
  for (std::size_t f : open_) {
    SHERIFF_REQUIRE(f < open_mask_.size(), "median out of range");
    open_mask_[f] = 1;
  }
  const std::size_t clients = instance_->clients.size();
  d1_.assign(clients, kInf);
  d2_.assign(clients, kInf);
  m1_.assign(clients, 0);
  m2_.assign(clients, 0);
  for (std::size_t ci = 0; ci < clients; ++ci) rebuild_client(ci);
  recompute_cost();
}

bool KMedianState::is_open(std::size_t facility) const {
  return facility < open_mask_.size() && open_mask_[facility] != 0;
}

void KMedianState::rebuild_client(std::size_t ci) {
  const std::size_t c = instance_->clients[ci];
  double d1 = kInf;
  double d2 = kInf;
  std::uint32_t m1 = 0;
  std::uint32_t m2 = 0;
  for (std::size_t s = 0; s < open_.size(); ++s) {
    const double d = instance_->distance->at(c, open_[s]);
    if (d < d1) {
      d2 = d1;
      m2 = m1;
      d1 = d;
      m1 = static_cast<std::uint32_t>(s);
    } else if (d < d2) {
      d2 = d;
      m2 = static_cast<std::uint32_t>(s);
    }
  }
  d1_[ci] = d1;
  d2_[ci] = d2;
  m1_[ci] = m1;
  m2_[ci] = m2;
}

void KMedianState::recompute_cost() {
  // Fixed client order: the sum is bitwise equal to kmedian_cost over the
  // same median set, so the fast trajectory tracks the reference exactly.
  double total = 0.0;
  for (std::size_t ci = 0; ci < d1_.size(); ++ci) total += d1_[ci];
  cost_ = total;
}

void KMedianState::apply_swap(std::size_t position, std::size_t facility) {
  SHERIFF_REQUIRE(position < open_.size(), "swap position out of range");
  SHERIFF_REQUIRE(facility < open_mask_.size(), "swap facility out of range");
  SHERIFF_REQUIRE(open_mask_[facility] == 0, "swap facility already open");
  open_mask_[open_[position]] = 0;
  open_[position] = facility;
  open_mask_[facility] = 1;
  const std::uint32_t pos = static_cast<std::uint32_t>(position);
  for (std::size_t ci = 0; ci < d1_.size(); ++ci) {
    if (m1_[ci] == pos || m2_[ci] == pos) {
      rebuild_client(ci);
      continue;
    }
    const double d = instance_->distance->at(instance_->clients[ci], facility);
    if (d < d1_[ci]) {
      d2_[ci] = d1_[ci];
      m2_[ci] = m1_[ci];
      d1_[ci] = d;
      m1_[ci] = pos;
    } else if (d < d2_[ci]) {
      d2_[ci] = d;
      m2_[ci] = pos;
    }
  }
  recompute_cost();
}

namespace {

/// Facilities outside the current median set, in instance order — the same
/// scan order the reference solver uses.
std::vector<std::size_t> outside_facilities(const KMedianInstance& instance,
                                            const KMedianState& state) {
  std::vector<std::size_t> outside;
  outside.reserve(instance.facilities.size());
  for (std::size_t f : instance.facilities) {
    if (!state.is_open(f)) outside.push_back(f);
  }
  return outside;
}

/// One full delta sweep over all k·|outside| single swaps: evaluates every
/// candidate facility against every median slot and returns the first
/// improving swap in the reference scan order — the lowest slot with any
/// improving facility, then the smallest scan index there.
SwapChoice delta_sweep(const KMedianInstance& instance, const KMedianState& state,
                       const std::vector<std::size_t>& outside,
                       const FastKMedianOptions& options) {
  const std::size_t k = state.open().size();
  const std::size_t clients = instance.clients.size();
  const double cost = state.cost();
  std::vector<double> loss(k);
  // Per median slot, the smallest outside-scan index of an improving
  // facility (kNone when none improves there).
  std::vector<std::size_t> first_by_pos(k, kNone);
  for (std::size_t oi = 0; oi < outside.size(); ++oi) {
    const std::size_t f = outside[oi];
    std::fill(loss.begin(), loss.end(), 0.0);
    double gain_add = 0.0;
    for (std::size_t ci = 0; ci < clients; ++ci) {
      const double dcf = instance.distance->at(instance.clients[ci], f);
      const double d1 = state.nearest_distance(ci);
      if (dcf < d1) {
        gain_add += d1 - dcf;
      } else {
        // Only matters when the client's own median closes: it reconnects
        // to min(second-nearest, f).
        loss[state.nearest_position(ci)] += std::min(state.second_distance(ci), dcf) - d1;
      }
    }
    for (std::size_t pos = 0; pos < k; ++pos) {
      // oi ascends, so the first hit per slot is the smallest.
      if (first_by_pos[pos] == kNone &&
          improves(cost, gain_add - loss[pos], options.min_relative_gain)) {
        first_by_pos[pos] = oi;
      }
    }
  }
  for (std::size_t pos = 0; pos < k; ++pos) {
    if (first_by_pos[pos] != kNone) return {true, pos, outside[first_by_pos[pos]]};
  }
  return {};
}

/// Advances `idx`, a strictly increasing combination of [0, n), to its
/// lexicographic successor (detail::for_each_combination's order). Returns
/// the lowest position that changed, or kNone after the last combination.
std::size_t next_combination(std::vector<std::size_t>& idx, std::size_t n) {
  const std::size_t p = idx.size();
  for (std::size_t i = p; i-- > 0;) {
    if (idx[i] != i + n - p) {
      ++idx[i];
      for (std::size_t j = i + 1; j < p; ++j) idx[j] = idx[j - 1] + 1;
      return i;
    }
  }
  return kNone;
}

bool all_distances_finite(const KMedianInstance& instance) {
  for (std::size_t c : instance.clients) {
    for (std::size_t f : instance.facilities) {
      if (!std::isfinite(instance.distance->at(c, f))) return false;
    }
  }
  return true;
}

}  // namespace

bool multi_swap_scan(const KMedianInstance& instance, KMedianState& state, KMedianSolution& sol,
                     const FastKMedianOptions& options) {
  const std::size_t k = state.open().size();
  const std::size_t max_swap = std::min(options.p, k);
  const std::vector<std::size_t> outside = outside_facilities(instance, state);
  const std::size_t n = outside.size();
  if (max_swap < 2 || n < 2) return false;

  // Facility-major rows, built once per scan: rows[g·|C| + ci] is client
  // ci's distance to outside[g], open_rows[s·|C| + ci] to median slot s.
  const std::size_t clients = instance.clients.size();
  std::vector<double> rows(n * clients);
  std::vector<double> open_rows(k * clients);
  for (std::size_t ci = 0; ci < clients; ++ci) {
    const std::size_t c = instance.clients[ci];
    for (std::size_t g = 0; g < n; ++g) rows[g * clients + ci] = instance.distance->at(c, outside[g]);
    for (std::size_t s = 0; s < k; ++s) {
      open_rows[s * clients + ci] = instance.distance->at(c, state.open()[s]);
    }
  }
  // prefix level 0 is the residual (per-client min over the kept medians);
  // level d + 1 adds the opened facility at depth d. A candidate's cost is
  // Σ_ci min(last level, its leaf row) summed in client order from 0.0:
  // the same values kmedian_cost adds, in the same order, so it is bitwise
  // that function's result for the candidate's median set.
  std::vector<double> prefix(max_swap * clients);
  std::vector<std::size_t> closed;
  std::vector<std::size_t> opened;
  const double threshold = state.cost() * (1.0 - options.min_relative_gain);
  bool improved = false;
  // Prices the leaf candidate `g` for the current closed/opened prefix in
  // scan order; true ends the scan (cap reached or improvement applied).
  const auto stop_at = [&](std::size_t g, double cost) {
    if (instance.max_evaluations != 0 && sol.evaluations >= instance.max_evaluations) {
      sol.hit_evaluation_cap = true;
      return true;
    }
    ++sol.evaluations;
    if (!(cost < threshold)) return false;
    std::vector<std::size_t> medians = state.open();
    for (std::size_t i = 0; i < opened.size(); ++i) medians[closed[i]] = outside[opened[i]];
    medians[closed.back()] = outside[g];
    state.reset(std::move(medians));
    improved = true;
    return true;
  };

  for (std::size_t swap = 2; swap <= max_swap; ++swap) {
    if (n < swap) continue;
    closed.resize(swap);
    for (std::size_t i = 0; i < swap; ++i) closed[i] = i;
    do {
      double* residual = prefix.data();
      std::fill(residual, residual + clients, kInf);
      for (std::size_t s = 0, next = 0; s < k; ++s) {
        if (next < swap && closed[next] == s) {
          ++next;
          continue;
        }
        const double* row = open_rows.data() + s * clients;
        for (std::size_t ci = 0; ci < clients; ++ci) residual[ci] = std::min(residual[ci], row[ci]);
      }
      // All but the last opened facility form a combination of [0, n − 1);
      // the last one ranges over the facilities after it.
      opened.resize(swap - 1);
      for (std::size_t i = 0; i + 1 < swap; ++i) opened[i] = i;
      std::size_t changed = 0;
      do {
        for (std::size_t d = changed; d + 1 < swap; ++d) {
          const double* below = prefix.data() + d * clients;
          const double* row = rows.data() + opened[d] * clients;
          double* level = prefix.data() + (d + 1) * clients;
          for (std::size_t ci = 0; ci < clients; ++ci) level[ci] = std::min(below[ci], row[ci]);
        }
        const double* base = prefix.data() + (swap - 1) * clients;
        std::size_t g = opened.back() + 1;
        // Four leaf rows per pass: four independent client-order sums hide
        // the latency of the serial add chain; they are then visited in
        // scan order, so the extra sums past a stop are simply unused.
        for (; g + 4 <= n; g += 4) {
          const double* r = rows.data() + g * clients;
          double s0 = 0.0;
          double s1 = 0.0;
          double s2 = 0.0;
          double s3 = 0.0;
          for (std::size_t ci = 0; ci < clients; ++ci) {
            const double b = base[ci];
            s0 += std::min(b, r[ci]);
            s1 += std::min(b, r[clients + ci]);
            s2 += std::min(b, r[2 * clients + ci]);
            s3 += std::min(b, r[3 * clients + ci]);
          }
          if (stop_at(g, s0) || stop_at(g + 1, s1) || stop_at(g + 2, s2) || stop_at(g + 3, s3)) {
            return improved;
          }
        }
        for (; g < n; ++g) {
          const double* r = rows.data() + g * clients;
          double total = 0.0;
          for (std::size_t ci = 0; ci < clients; ++ci) total += std::min(base[ci], r[ci]);
          if (stop_at(g, total)) return improved;
        }
        changed = next_combination(opened, n - 1);
      } while (changed != kNone);
    } while (next_combination(closed, k) != kNone);
  }
  return false;
}

KMedianSolution fast_kmedian(const KMedianInstance& instance, const FastKMedianOptions& options) {
  detail::validate(instance);
  SHERIFF_REQUIRE(options.p >= 1, "swap size p must be at least 1");
  if (!all_distances_finite(instance)) {
    // A partitioned fabric can leave unreachable pairs; the delta formulas
    // would mix infinities (∞ − ∞), so defer to the reference solver.
    return local_search_kmedian(instance, options.p, options.min_relative_gain);
  }

  KMedianState state(instance,
                     {instance.facilities.begin(),
                      instance.facilities.begin() + static_cast<std::ptrdiff_t>(instance.k)});
  KMedianSolution sol;
  sol.evaluations = 1;

  bool converged = false;
  while (!converged && !sol.hit_evaluation_cap) {
    // Fast p=1 phase: delta sweeps until no single swap improves.
    for (;;) {
      if (instance.max_evaluations != 0 && sol.evaluations >= instance.max_evaluations) {
        sol.hit_evaluation_cap = true;
        break;
      }
      const std::vector<std::size_t> outside = outside_facilities(instance, state);
      const SwapChoice choice = delta_sweep(instance, state, outside, options);
      sol.evaluations += outside.size() * state.open().size();
      if (!choice.found) break;
      state.apply_swap(choice.position, choice.facility);
    }
    if (sol.hit_evaluation_cap) break;
    // Convergence check: no p ≤ options.p swap may improve. A successful
    // multi-swap re-opens the fast p=1 phase, exactly like the reference
    // restarting its scan at swap size 1.
    converged = options.p < 2 || !multi_swap_scan(instance, state, sol, options);
  }

  sol.medians = state.open();
  std::sort(sol.medians.begin(), sol.medians.end());
  sol.cost = state.cost();
  return sol;
}

}  // namespace sheriff::graph

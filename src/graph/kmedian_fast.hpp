#pragma once
// Fast swap-based k-median (Resende & Werneck-style delta evaluation): the
// engine's one Alg. 5 solver.
//
// The reference Alg. 5 local search (the test oracle in
// tests/oracles/kmedian.hpp) re-evaluates kmedian_cost from scratch for
// every candidate swap — O(k·|F|·|C|·k) per improvement step for p = 1. The classic fast formulation keeps, per
// client, the distance to its nearest and second-nearest open median; with
// that bookkeeping the gain of every single swap ⟨close r, open f⟩ is
//
//   gain(r, f) = gain_add(f) − loss(r, f)
//   gain_add(f) = Σ_c max(0, d1(c) − d(c, f))
//   loss(r, f)  = Σ_{c: nearest(c)=r, d(c,f) ≥ d1(c)} (min(d2(c), d(c,f)) − d1(c))
//
// so one sweep over all k·(|F|−k) swaps costs O(|F|·(|C|+k)) — each
// candidate facility f needs one pass over the clients plus a k-sized
// reduction. A sweep applies the first improving swap in the reference
// solver's scan order (median slot major, then facilities in instance
// order), so the fast solver replays the reference trajectory exactly and
// terminates with identical medians — the differential tests pin it.
//
// Swap sizes p ≥ 2 run as a convergence check on the fast p=1 local
// optimum: the 3 + 2/p analysis of Arya et al. only needs that *no* swap
// of size ≤ p improves the final solution, so certifying that with
// multi_swap_scan (and resuming fast p=1 sweeps after any accepted
// multi-swap) preserves the approximation ratio. The check visits the
// reference scan's candidates in the reference order but prices them with
// a residual-min kernel instead of a from-scratch kmedian_cost each: per
// closed-slot combination the per-client min over the kept medians, per
// opened-facility depth a prefix min, and at the leaf one min(prefix, row)
// per client, summed in client order — bitwise kmedian_cost's value, so
// the accepted swap, the evaluation count and the cap stop are the
// reference's.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/kmedian.hpp"

namespace sheriff::graph {

struct FastKMedianOptions {
  std::size_t p = 1;                   ///< Alg. 5 swap size (≥2 adds the multi_swap_scan check)
  double min_relative_gain = 1e-9;     ///< same improvement threshold as the reference
};

/// Per-client nearest / second-nearest open-median bookkeeping plus the
/// connection cost, repaired incrementally after each accepted swap.
class KMedianState {
 public:
  /// `medians` are facility ids (positions in the distance matrix).
  KMedianState(const KMedianInstance& instance, std::vector<std::size_t> medians);

  /// Rebuilds all bookkeeping for a new median set (used when
  /// multi_swap_scan accepts a multi-swap).
  void reset(std::vector<std::size_t> medians);

  [[nodiscard]] double cost() const noexcept { return cost_; }
  [[nodiscard]] const std::vector<std::size_t>& open() const noexcept { return open_; }
  [[nodiscard]] bool is_open(std::size_t facility) const;

  /// Closes the median at `position` and opens `facility` there, repairing
  /// the per-client bookkeeping incrementally: clients whose nearest or
  /// second-nearest lived at `position` rescan the open set (O(k)), every
  /// other client only compares against the new facility (O(1)). The cost
  /// is re-summed over the repaired d1 in fixed client order, so it stays
  /// bitwise equal to a from-scratch kmedian_cost of the same median set.
  void apply_swap(std::size_t position, std::size_t facility);

  /// Distance from client index `ci` (into instance.clients) to its
  /// nearest / second-nearest open median. Test hooks.
  [[nodiscard]] double nearest_distance(std::size_t ci) const { return d1_[ci]; }
  [[nodiscard]] double second_distance(std::size_t ci) const { return d2_[ci]; }
  /// Median slot (position in open()) serving client `ci`.
  [[nodiscard]] std::size_t nearest_position(std::size_t ci) const { return m1_[ci]; }

 private:
  friend KMedianSolution fast_kmedian(const KMedianInstance&, const FastKMedianOptions&);

  void rebuild_client(std::size_t ci);
  void recompute_cost();

  const KMedianInstance* instance_;
  std::vector<std::size_t> open_;       ///< facility id per median slot
  std::vector<char> open_mask_;         ///< by facility id (matrix index)
  std::vector<double> d1_;              ///< per client: nearest open distance
  std::vector<double> d2_;              ///< per client: second-nearest distance
  std::vector<std::uint32_t> m1_;       ///< per client: slot of the nearest
  std::vector<std::uint32_t> m2_;       ///< per client: slot of the second
  double cost_ = 0.0;
};

/// The p ≥ 2 convergence check, run from `state`: the reference solver's
/// first-improvement scan over swap sizes 2..min(options.p, k) — closed
/// median slots major, opened facilities (those outside `state`, in
/// instance order) minor, both in lexicographic combination order —
/// accepting the first candidate whose cost is < state.cost() ·
/// (1 − options.min_relative_gain). Applies that multi-swap via
/// state.reset and returns true. Returns false when no such swap improves
/// (the local-optimality certificate) or when instance.max_evaluations
/// stops the scan (sol.hit_evaluation_cap is then set). Counts every
/// candidate it prices in sol.evaluations, checking the cap before each
/// one, exactly as the reference does; each candidate's cost is bitwise
/// kmedian_cost of its median set.
bool multi_swap_scan(const KMedianInstance& instance, KMedianState& state, KMedianSolution& sol,
                     const FastKMedianOptions& options);

/// Delta-evaluated local search. The accepted-swap trajectory — and
/// therefore the final median set — is identical to the reference
/// local_search_kmedian(instance, options.p); only the work to find each
/// swap shrinks. Every client–facility distance must be finite
/// (RequirementError otherwise): the planner prices the racks a faulted
/// fabric separates at a finite M. Honors KMedianInstance::max_evaluations
/// at sweep granularity in the p = 1 phase, which may overshoot the cap by
/// at most one sweep (k·(|F|−k) candidates); multi_swap_scan stops exactly
/// at it.
KMedianSolution fast_kmedian(const KMedianInstance& instance,
                             const FastKMedianOptions& options = {});

}  // namespace sheriff::graph

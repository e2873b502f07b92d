#pragma once
// Migration cost model, Eq. (1) of the paper:
//
//   Cost(v_i, v_p) = C_r                                  (computing cost)
//                  + C_d · D(e) · χ                       (dependency cost)
//                  + Σ_{e ∈ P(v_i,v_p)} (δ·T(e) + η·P(e)) (transmission cost)
//
// with T(e) = m.capacity / B(e) the transmission time, P(e) = B(e)/C(e)
// the utilization rate, B(e) = min(available bandwidth, requested
// bandwidth) required to exceed the threshold B_t.
//
// Dependency cost: the paper's term is the change in total wired distance
// of the induced dependency neighborhood after the move. We evaluate it as
// C_d times the summed distance from the *destination* to every dependency
// neighbor of the VM (the post-move neighborhood span); this keeps the
// term non-negative — as the assignment solvers require — while preserving
// the paper's intent of penalizing moves away from communication partners.
//
// Hot path (DESIGN.md §14): distances and paths come from the fabric's
// shared flat row set (Topology::distance_rows()), each row carrying a
// rack-keyed CSR of root→ToR link sequences; per-link bandwidth state is
// snapshotted once per round into a CostSurface. The engine, the figure
// benches and the tests all price moves with this one model.

#include <cstdint>
#include <vector>

#include "migration/cost_surface.hpp"
#include "net/fair_share.hpp"
#include "topology/distance_rows.hpp"
#include "topology/topology.hpp"
#include "workload/deployment.hpp"

namespace sheriff::mig {

/// Eq. (1) parameters. The constructor of MigrationCostModel rejects a
/// value outside its domain (RequirementError).
struct CostParams {
  double computing_cost = 100.0;      ///< C_r, finite ≥ 0 (Sec. VI-B sets 100)
  double unit_distance_cost = 1.0;    ///< C_d, finite ≥ 0 (Sec. VI-B sets 1)
  double delta = 1.0;                 ///< δ, transmission-time weight, finite ≥ 0
  double eta = 1.0;                   ///< η, utilization weight, finite ≥ 0
  double bandwidth_threshold_gbps = 0.05;  ///< B_t, finite ≥ 0: links at or below it are unusable
  double request_gbps = 1.0;          ///< bandwidth requested for the transfer, > 0
  /// Management-plane reserve, in [0, 1]: live migration always gets at
  /// least this fraction of a link's capacity even when tenant flows
  /// saturate it (DCNs carve out a management slice; without it, the
  /// saturated hosts — exactly the ones that must shed VMs — could never
  /// migrate anything).
  double management_reserve_fraction = 0.1;
};

struct CostBreakdown {
  double computing = 0.0;
  double dependency = 0.0;
  double transmission = 0.0;
  bool feasible = false;  ///< false when some path link is below B_t

  [[nodiscard]] double total() const noexcept { return computing + dependency + transmission; }
};

/// Monotone evaluation counters (process-lifetime; the engine publishes
/// per-round deltas). `evaluated + pruned` over any matching sweep equals
/// the sweep's exhaustive evaluation count — pruning is provably lossless,
/// never a silent cap, and the identity is asserted in the tier-1 tests.
struct CostModelStats {
  std::uint64_t evaluated = 0;       ///< full Eq. (1) evaluations (cost() calls)
  std::uint64_t pruned = 0;          ///< candidates skipped by the admissible bound
  std::uint64_t surface_builds = 0;  ///< set_bandwidth_state snapshots taken
};

/// Evaluates Eq. (1) for candidate moves on a fixed topology. Shortest
/// (distance-weighted) rows come from the topology's shared row set, built
/// lazily per root on the immutable distance graph, so they never depend
/// on the bandwidth state. Two structural facts keep the row count small:
/// the dependency span is read from each partner's row (the wired graph
/// is undirected, so d(a, b) = d(b, a)), one row per partner rather than
/// per candidate destination; and a single-homed node — every Fat-Tree
/// host, not a BCube server — reaches the fabric only through its one
/// link, so its distances and paths are its peer's row plus that leaf
/// link. A model belongs to one engine and is used from one thread; the
/// queries that count evaluations (cost(), total_cost(),
/// total_cost_with_base(), note_pruned()) are therefore not const.
class MigrationCostModel {
 public:
  MigrationCostModel(const topo::Topology& topo, const wl::Deployment& deployment,
                     CostParams params = {});

  MigrationCostModel(const MigrationCostModel&) = delete;
  MigrationCostModel& operator=(const MigrationCostModel&) = delete;

  /// Snapshots the round's link loads from the fair-share allocator into
  /// the cost surface; nullptr means idle links, which is also the state
  /// a new model starts in (that initial snapshot is not counted in
  /// stats().surface_builds).
  void set_bandwidth_state(const net::FairShareResult* shares);

  [[nodiscard]] CostModelStats stats() const noexcept;

  /// Cost of migrating `vm` from its current host to `destination`.
  [[nodiscard]] CostBreakdown cost(wl::VmId vm, topo::NodeId destination);

  /// Total cost convenience: +inf when infeasible.
  [[nodiscard]] double total_cost(wl::VmId vm, topo::NodeId destination);

  /// Admissible lower bound on total_cost(vm, destination): the exact
  /// computing + dependency base (identical FP expression to cost()) plus
  /// the cheapest transmission terms any path must pay on its first link
  /// (incident to the source) and last link (incident to the
  /// destination). Nonnegative left-folded partial sums are monotone under
  /// rounding, so bound ≤ total_cost always — the argmin can never be
  /// pruned away. +inf when the move is provably infeasible (then
  /// total_cost is +inf too). When `base_out` is given it receives the
  /// computing + dependency base, which the caller can hand back to
  /// total_cost_with_base so a surviving candidate never pays the
  /// dependency walk twice.
  [[nodiscard]] double candidate_lower_bound(wl::VmId vm, topo::NodeId destination,
                                             double* base_out = nullptr) const;

  /// total_cost with the computing + dependency base precomputed by
  /// candidate_lower_bound. total() folds (computing + dependency) +
  /// transmission left-to-right and `base` is that exact inner sum, so
  /// `base + transmission` is bitwise total_cost(vm, destination) — just
  /// without re-walking the dependency set. Counts as one full evaluation
  /// in the stats (it is one).
  [[nodiscard]] double total_cost_with_base(wl::VmId vm, topo::NodeId destination,
                                            double base);

  /// True when every source→destination path is provably below B_t (or the
  /// destination is the VM's own host): total_cost is certainly +inf, so
  /// the matching layer can skip the evaluation at any batch size.
  [[nodiscard]] bool provably_infeasible(wl::VmId vm, topo::NodeId destination) const;

  /// Accounting hook for the matching layer: one candidate skipped by the
  /// bound (would have been evaluated by the exhaustive sweep).
  void note_pruned() noexcept { ++pruned_; }

  [[nodiscard]] const CostParams& params() const noexcept { return params_; }

  /// Wired distance (meters over shortest distance path) between hosts.
  [[nodiscard]] double host_distance(topo::NodeId from, topo::NodeId to) const;

  /// Bottleneck bandwidth B(e*) the migration transfer would get on the
  /// path from the VM's host to `destination` (management reserve
  /// applied); 0 when unreachable. Feeds the live-migration timeline.
  [[nodiscard]] double path_bottleneck_bandwidth(wl::VmId vm, topo::NodeId destination) const;

 private:
  /// One shortest distance path `from` → `to` (empty when unreachable).
  [[nodiscard]] std::vector<topo::NodeId> shortest_path(topo::NodeId from,
                                                        topo::NodeId to) const;
  /// Eq. (1)'s dependency term, shared verbatim between cost() and
  /// candidate_lower_bound() so their FP results are identical.
  [[nodiscard]] double dependency_cost(wl::VmId vm_id, topo::NodeId destination) const;
  /// Fills breakdown.transmission and .feasible: the per-link terms of
  /// the shortest path, summed from the source out, read off the surface.
  void transmission_cost(const wl::VirtualMachine& vm, topo::NodeId destination,
                         CostBreakdown& breakdown) const;

  const topo::Topology* topo_;
  const wl::Deployment* deployment_;
  CostParams params_;
  const topo::DistanceRows* rows_;  ///< the topology's shared row set
  bool hosts_adjacent_ = false;  ///< any host—host link (disables the 2-link bound)
  CostSurface surface_;
  // Static leaf tables (hosts with exactly one wired link).
  std::vector<std::uint8_t> single_homed_;  ///< per node: exactly one incident link
  std::vector<std::uint8_t> rack_leaf_;     ///< single-homed AND leaf peer == own rack's ToR
  std::vector<topo::LinkId> leaf_link_;     ///< the leaf link (valid iff single_homed_)
  std::vector<topo::NodeId> leaf_tor_;      ///< the leaf peer (valid iff single_homed_)
  std::vector<double> leaf_distance_;       ///< the leaf link's D(e) (valid iff single_homed_)
  // Evaluation counters (monotone totals).
  std::uint64_t evaluated_ = 0;
  std::uint64_t pruned_ = 0;
  std::uint64_t surface_builds_ = 0;
};

}  // namespace sheriff::mig

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
// snapshotted once per round into a CostSurface. Both are bit-transparent:
// every mode produces the same CostBreakdown with the surface on or off.

#include <atomic>
#include <cstdint>
#include <vector>

#include "migration/cost_surface.hpp"
#include "net/fair_share.hpp"
#include "topology/distance_rows.hpp"
#include "topology/topology.hpp"
#include "workload/deployment.hpp"

namespace sheriff::mig {

/// How the dependency term of Eq. (1) is evaluated.
enum class DependencyCostMode : std::uint8_t {
  /// C_d times the post-move communication span: Σ_{u ∈ N_d(m)}
  /// D(dest, host(u)). Non-negative and monotone — the default, because
  /// the matching solvers need non-negative costs.
  kPostMoveSpan,
  /// The paper's literal formula: C_d times the *change* of the induced
  /// neighborhood distance, Σ D(new) − Σ D(old), clamped at 0 (a move
  /// toward the partners is free, never negative).
  kClampedDelta,
};

struct CostParams {
  double computing_cost = 100.0;      ///< C_r (Sec. VI-B sets 100)
  double unit_distance_cost = 1.0;    ///< C_d (Sec. VI-B sets 1)
  DependencyCostMode dependency_mode = DependencyCostMode::kPostMoveSpan;
  double delta = 1.0;                 ///< δ, transmission-time weight
  double eta = 1.0;                   ///< η, utilization weight
  double bandwidth_threshold_gbps = 0.05;  ///< B_t: links below this are unusable
  double request_gbps = 1.0;          ///< bandwidth requested for the transfer
  /// Management-plane reserve: live migration always gets at least this
  /// fraction of a link's capacity even when tenant flows saturate it
  /// (DCNs carve out a management slice; without it, the saturated hosts —
  /// exactly the ones that must shed VMs — could never migrate anything).
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
  std::uint64_t surface_builds = 0;  ///< per-round CostSurface snapshots taken
};

/// Evaluates Eq. (1) for candidate moves on a fixed topology. Shortest
/// (distance-weighted) rows come from the topology's shared row set, built
/// lazily per root on the immutable distance graph, so they never depend
/// on the bandwidth state. Concurrent cost()/total_cost() calls are safe
/// (rows are immutable once published; a lost publication race discards
/// the duplicate).
class MigrationCostModel {
 public:
  MigrationCostModel(const topo::Topology& topo, const wl::Deployment& deployment,
                     CostParams params = {});

  MigrationCostModel(const MigrationCostModel&) = delete;
  MigrationCostModel& operator=(const MigrationCostModel&) = delete;

  /// Installs the current bandwidth state (link loads from the fair-share
  /// allocator). Without it, links are treated as idle. With the surface
  /// enabled this snapshots the per-link SoA arrays once for the round.
  void set_bandwidth_state(const net::FairShareResult* shares);

  /// Roots the dependency-span Dijkstra trees at the VMs' *partners*
  /// instead of the candidate destination. Distances on the undirected
  /// wired graph are symmetric, so the spans are equal (up to FP summation
  /// order along a path); but a matching pass evaluates every candidate
  /// destination against a small partner set, so partner rooting shrinks
  /// the row cache from one tree per candidate host to one per partner —
  /// the dominant Dijkstra load of the manage phase.
  void set_partner_rooted(bool partner_rooted) noexcept { partner_rooted_ = partner_rooted; }
  [[nodiscard]] bool partner_rooted() const noexcept { return partner_rooted_; }

  /// Shares trees across single-homed hosts: a host with exactly one wired
  /// link (every fat-tree host; not BCube servers, which relay traffic)
  /// reaches the fabric only through that link, so its distances and paths
  /// are the neighbor ToR's tree plus the leaf edge. All hosts of a rack
  /// then share the ToR-rooted tree, collapsing the cache from one tree
  /// per queried host to one per queried rack. Distances can differ from
  /// the host-rooted tree by FP summation order, and equal-length paths by
  /// tie-break root, so this is a mode, not a pure cache change.
  void set_shared_leaf_trees(bool shared) noexcept { shared_leaf_trees_ = shared; }
  [[nodiscard]] bool shared_leaf_trees() const noexcept { return shared_leaf_trees_; }

  /// Toggles the per-round CostSurface (flat SoA link state, priced along
  /// the rows' rack-keyed link sequences). Bit-transparent: the flat
  /// kernel replays the legacy kernel's FP ops in the legacy order, so
  /// every CostBreakdown is identical with the surface on or off.
  /// Serial-only toggle.
  void set_surface_enabled(bool enabled);
  [[nodiscard]] bool surface_enabled() const noexcept { return surface_enabled_; }

  /// Toggles bound-guarded candidate pruning in propose_matching. The
  /// bound is exact and admissible (see candidate_lower_bound), so the
  /// selected moves are bitwise identical with pruning on or off; only the
  /// evaluated/pruned counter split changes.
  void set_pruning_enabled(bool enabled) noexcept { pruning_ = enabled; }
  [[nodiscard]] bool pruning_enabled() const noexcept { return pruning_; }

  [[nodiscard]] CostModelStats stats() const noexcept;

  /// Cost of migrating `vm` from its current host to `destination`.
  [[nodiscard]] CostBreakdown cost(wl::VmId vm, topo::NodeId destination) const;

  /// Total cost convenience: +inf when infeasible.
  [[nodiscard]] double total_cost(wl::VmId vm, topo::NodeId destination) const;

  /// Admissible lower bound on total_cost(vm, destination): the exact
  /// computing + dependency base (identical FP expression to cost()) plus,
  /// when the surface is live, the cheapest transmission terms any path
  /// must pay on its first link (incident to the source) and last link
  /// (incident to the destination). Nonnegative left-folded partial sums
  /// are monotone under rounding, so bound ≤ total_cost always — the
  /// argmin can never be pruned away. +inf when the move is provably
  /// infeasible (then total_cost is +inf too). When `base_out` is given it
  /// receives the computing + dependency base, which the caller can hand
  /// back to total_cost_with_base so a surviving candidate never pays the
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
                                            double base) const;

  /// True when every source→destination path is provably below B_t (or the
  /// destination is the VM's own host): total_cost is certainly +inf, so
  /// the matching layer can skip the evaluation at any batch size.
  [[nodiscard]] bool provably_infeasible(wl::VmId vm, topo::NodeId destination) const;

  /// Accounting hook for the matching layer: one candidate skipped by the
  /// bound (would have been evaluated by the exhaustive sweep).
  void note_pruned() const noexcept { pruned_.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] const CostParams& params() const noexcept { return params_; }

  /// Wired distance (meters over shortest distance path) between hosts.
  [[nodiscard]] double host_distance(topo::NodeId from, topo::NodeId to) const;

  /// Bottleneck bandwidth B(e*) the migration transfer would get on the
  /// path from the VM's host to `destination` (management reserve
  /// applied); 0 when unreachable. Feeds the live-migration timeline.
  [[nodiscard]] double path_bottleneck_bandwidth(wl::VmId vm, topo::NodeId destination) const;

  /// The topology's shared distance row rooted at `root` on the immutable
  /// (unmasked) distance graph, built on demand. KMedianPlanner reads its
  /// pristine-fabric distance matrix here so there is one source of truth
  /// for ToR distances.
  [[nodiscard]] const topo::DistanceRow& distance_row(topo::NodeId root) const {
    return rows_->row(root);
  }

 private:
  /// One shortest distance path `from` → `to` (empty when unreachable),
  /// routed through the shared leaf tree when the mode is on.
  [[nodiscard]] std::vector<topo::NodeId> shortest_path(topo::NodeId from,
                                                        topo::NodeId to) const;
  /// Eq. (1)'s dependency term, shared verbatim between cost() and
  /// candidate_lower_bound() so their FP results are identical.
  [[nodiscard]] double dependency_cost(wl::VmId vm_id, topo::NodeId vm_host,
                                       topo::NodeId destination) const;
  /// Surface-mode transmission kernel: fills breakdown.transmission and
  /// .feasible replaying the legacy per-link loop on the SoA arrays.
  void surface_transmission(const wl::VirtualMachine& vm, topo::NodeId destination,
                            CostBreakdown& breakdown) const;
  /// Legacy transmission kernel (per-link walk against the fair-share
  /// result), shared by cost() and total_cost_with_base.
  void legacy_transmission(const wl::VirtualMachine& vm, topo::NodeId destination,
                           CostBreakdown& breakdown) const;

  const topo::Topology* topo_;
  const wl::Deployment* deployment_;
  CostParams params_;
  const topo::DistanceRows* rows_;  ///< the topology's shared row set
  const net::FairShareResult* shares_ = nullptr;
  bool partner_rooted_ = false;
  bool shared_leaf_trees_ = false;
  bool surface_enabled_ = false;
  bool pruning_ = false;
  bool hosts_adjacent_ = false;  ///< any host—host link (disables the 2-link bound)
  CostSurface surface_;
  // Static leaf tables (hosts with exactly one wired link).
  std::vector<std::uint8_t> single_homed_;  ///< per node: exactly one incident link
  std::vector<std::uint8_t> rack_leaf_;     ///< single-homed AND leaf peer == own rack's ToR
  std::vector<topo::LinkId> leaf_link_;     ///< the leaf link (valid iff single_homed_)
  std::vector<topo::NodeId> leaf_tor_;      ///< the leaf peer (valid iff single_homed_)
  std::vector<double> leaf_distance_;       ///< the leaf link's D(e) (valid iff single_homed_)
  // Evaluation counters (relaxed: monotone totals, read at serial points).
  mutable std::atomic<std::uint64_t> evaluated_{0};
  mutable std::atomic<std::uint64_t> pruned_{0};
  mutable std::atomic<std::uint64_t> surface_builds_{0};
};

}  // namespace sheriff::mig

#pragma once
// Sec. V-A: the reduction of (centralized) VMMIGRATION to k-median.
//
//   1. Build the rack graph T (vertices = racks, edge costs = wired
//      connection costs between rack ToRs).
//   2. Collapse it to a complete metric T' by all-pairs shortest paths
//      (the paper uses Floyd–Warshall; we read the equivalent per-ToR
//      Dijkstra rows, which are much cheaper on large fabrics).
//   3. Treat the alerting source ToRs as clients, all ToRs as facilities,
//      and solve k-median with the Alg. 5 local search (ratio 3 + 2/p),
//      run by the delta-evaluated graph::fast_kmedian.
//
// The ToR rows of T' are computed once and shared across plan() calls; a
// planner bound to a LivenessMask recomputes them only when the mask's
// version counter moved (refresh()), never once per round on an
// unchanged fabric. A masked rebuild keeps T' finite: racks the mask
// separates are M = 1 + racks · (largest finite entry) apart, which keeps
// T' a metric and makes a plan that serves one more source rack cheaper
// than every plan that serves fewer (DESIGN.md §9).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "topology/liveness.hpp"
#include "topology/topology.hpp"

namespace sheriff::core {

struct KMedianPlan {
  std::vector<topo::RackId> destinations;  ///< the chosen m destination ToRs
  double connection_cost = 0.0;            ///< Σ_clients dist(client, nearest dest)
  std::size_t evaluations = 0;             ///< local-search solutions examined
  bool hit_evaluation_cap = false;         ///< stopped on the evaluation budget
};

struct KMedianPlannerOptions {
  /// When set, distances are computed over the masked graph (unusable links
  /// skipped), racks with a dead ToR are excluded from the facility set,
  /// and refresh() rebuilds the rows when the mask's version moves. The
  /// mask must outlive the planner. Without it the planner reads the
  /// topology's shared ToR rows (Topology::distance_rows()).
  const topo::LivenessMask* liveness = nullptr;
};

class KMedianPlanner {
 public:
  /// Precomputes the rack-level distance matrix of T'.
  explicit KMedianPlanner(const topo::Topology& topo, KMedianPlannerOptions options = {});

  /// d(T')(i, j) between two racks; always finite (M between racks a
  /// masked rebuild found disconnected).
  [[nodiscard]] const graph::DistanceMatrix& rack_distances() const noexcept {
    return distances_;
  }

  /// Racks eligible as destinations (all racks, minus dead-ToR racks when a
  /// liveness mask is bound).
  [[nodiscard]] const std::vector<topo::RackId>& facility_racks() const noexcept {
    return facilities_;
  }

  /// Recomputes the shared ToR rows iff the bound liveness mask changed
  /// since the last build. Returns true when a rebuild happened. Planners
  /// without a mask never rebuild (the topology is immutable).
  bool refresh();

  /// Times the distance rows were (re)built, the initial build included.
  [[nodiscard]] std::size_t rebuilds() const noexcept { return rebuilds_; }

  /// How plan() searches.
  struct PlanOptions {
    std::size_t k = 1;                  ///< destination racks to open
    std::size_t p = 2;                  ///< Alg. 5 swap size
    std::size_t max_evaluations = 0;    ///< safety cap (0 = unlimited)
  };

  /// Chooses destination racks for the given alerting source racks with
  /// graph::fast_kmedian over rack_distances(), the facilities being
  /// facility_racks(). The reference and exhaustive solvers the ratio
  /// tests and benches compare against run over the same two in the test
  /// oracles (tests/oracles/kmedian.hpp).
  [[nodiscard]] KMedianPlan plan(const std::vector<topo::RackId>& source_racks,
                                 const PlanOptions& options) const;

 private:
  /// Computes the ToR rows and the facility set (construction and refresh()).
  void rebuild();

  const topo::Topology* topo_;
  KMedianPlannerOptions options_;
  graph::DistanceMatrix distances_;
  std::vector<topo::RackId> facilities_;
  std::uint64_t built_version_ = 0;
  std::size_t rebuilds_ = 0;
};

}  // namespace sheriff::core

#include "core/vm_migration.hpp"
#include "migration/cost_model.hpp"

namespace sheriff::core {

/// The full Sec. V-A centralized strategy: reduce VMMIGRATION to k-median
/// — pick `destination_racks` medians among all ToRs for the alerting
/// source ToRs with the Alg. 5 local search (the delta-evaluated solver,
/// whose medians equal the reference scan's) — then match the alerted VMs
/// onto the chosen racks' hosts by minimal weighted matching. Its search
/// space is the local-search evaluations plus the matching over the
/// chosen racks only, and the local search over all racks dominates it:
/// on bench_kmedian_manager's Fat-Trees (8–24 pods, k = 8, p = 1) it scans
/// 2.7–6.1× as many candidates as the exhaustive global matching, for a
/// cost 1.01–1.17× the matching's, and with only k racks open it may
/// place fewer VMs (69 of 77 at 24 pods).
class KMedianMigrationManager {
 public:
  struct Options {
    std::size_t destination_racks = 4;  ///< k medians to open
    std::size_t local_search_p = 2;     ///< Alg. 5 swap size
    std::size_t max_evaluations = 0;    ///< k-median safety cap (0 = unlimited)
    /// When set, detached hosts (dead, or cut off behind a dead ToR) are
    /// excluded from the migration targets. Must outlive the manager.
    const topo::LivenessMask* liveness = nullptr;
  };

  /// Cumulative counters across migrate() calls, for the obs registry and
  /// the engine's manage_kmedian sub-phase profile.
  struct Stats {
    std::size_t plans = 0;            ///< k-median plans solved
    std::size_t evaluations = 0;      ///< candidate evaluations across plans
    std::size_t cap_hits = 0;         ///< plans stopped by max_evaluations
    std::uint64_t kmedian_ns = 0;     ///< wall time in the k-median solve
  };

  /// The planner must be built over the same topology as the deployment.
  KMedianMigrationManager(wl::Deployment& deployment, mig::MigrationCostModel& cost_model,
                          const KMedianPlanner& planner);
  KMedianMigrationManager(wl::Deployment& deployment, mig::MigrationCostModel& cost_model,
                          const KMedianPlanner& planner, Options options);

  /// Migrates the alerted VMs into the k chosen destination racks. The
  /// returned plan's search_space includes the k-median evaluations.
  MigrationPlan migrate(std::vector<wl::VmId> alerted);

  /// The destination racks chosen by the most recent migrate() call.
  [[nodiscard]] const std::vector<topo::RackId>& last_destinations() const noexcept {
    return last_destinations_;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  wl::Deployment* deployment_;
  mig::MigrationCostModel* cost_model_;
  const KMedianPlanner* planner_;
  Options options_;
  std::vector<topo::RackId> last_destinations_;
  Stats stats_;
};

}  // namespace sheriff::core

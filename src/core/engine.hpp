#pragma once
// DistributedEngine: the round-based simulation driver tying everything
// together. Every round (one management period T):
//
//   1. VM workloads evolve (trace-driven) and flows update their demands.
//   2. The fair-share allocator produces link loads; switch queues update
//      and emit QCN congestion feedback.
//   3. Every VM's predictor observes the new sample; shims *collect*
//      alerts from the T-ahead predictions, one rack after another.
//   4. Shims *propose* (Alg. 1) against the round snapshot, in shim-id
//      order; one *commit* ordered by shim id applies the FLOWREROUTE
//      claims and gathers the migration demands; the *decide* step places
//      them (VMMIGRATION, Alg. 3/4) — by default as one message-passing
//      REQUEST/ACK round.
//
// run_round() is exactly that sequence of phase methods, each owning its
// PhaseProfile clock, and runs on the calling thread: the shims are
// independent regional controllers, modelled by a pure propose and an
// ordered commit, not by threads (DESIGN.md §11). The same engine can run
// in centralized mode, where one manager with the global view processes
// the union of all alerts against all hosts — the baseline of Fig. 11–14.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/centralized_manager.hpp"
#include "core/config.hpp"
#include "core/kmedian_planner.hpp"
#include "core/predictor.hpp"
#include "core/protocol.hpp"
#include "core/shim_controller.hpp"
#include "core/vm_migration.hpp"
#include "fault/fault_injector.hpp"
#include "fault/lossy_channel.hpp"
#include "migration/cost_model.hpp"
#include "net/fair_share.hpp"
#include "net/queueing.hpp"
#include "net/flow_stats.hpp"
#include "net/rate_control.hpp"
#include "net/routing.hpp"
#include "obs/hub.hpp"
#include "topology/topology.hpp"
#include "workload/deployment.hpp"

namespace sheriff::common {
class ThreadPool;
}

namespace sheriff::core {

enum class ManagerMode : std::uint8_t {
  kSheriff,      ///< regional shims (the paper's scheme)
  kCentralized,  ///< one global manager (the baseline)
  kKMedian,      ///< Sec. V-A centralized k-median reduction (Alg. 5 planner)
};

enum class MigrationProtocol : std::uint8_t {
  kMessagePassing,  ///< propose/decide/apply rounds with per-rack delegates
                    ///< (the paper's distributed REQUEST/ACK; default)
  kSerializedFcfs,  ///< committed demands scheduled one by one through one
                    ///< FCFS admission broker (the Ablation G comparison)
};

enum class PredictorKind : std::uint8_t {
  kHolt,      ///< cheap double-exponential smoothing (default at scale)
  kEnsemble,  ///< full ARIMA+NARNET dynamic selection (small scenarios)
  kNaive,     ///< no prediction (contingency baseline for ablations)
};

/// What one engine simulates. Every field but `pool` changes results that
/// a study varies (fabric-side knobs, mode, protocol, predictor, demand
/// scale, QCN, faults, the k-median settings) or what the engine reports
/// (observability). The engine has one implementation of each layer: no
/// field switches a cache or an accelerated path off. The constructor
/// rejects a numeric field outside its stated domain (RequirementError).
struct EngineConfig {
  SheriffConfig sheriff;
  ManagerMode mode = ManagerMode::kSheriff;
  MigrationProtocol protocol = MigrationProtocol::kMessagePassing;
  PredictorKind predictor = PredictorKind::kHolt;
  double flow_demand_scale_gbps = 0.4;  ///< demand per dependency edge at TRF=1 (finite, ≥ 0)
  bool qcn_rate_control = true;         ///< end-host reaction to QCN feedback (Sec. III-A.2)
  /// The three k-median settings below apply to kKMedian mode only: in
  /// any other mode the constructor rejects a value away from its default
  /// (RequirementError).
  std::size_t kmedian_destination_racks = 4;  ///< k medians per plan (≥ 1)
  std::size_t kmedian_swap_p = 2;             ///< Alg. 5 swap size (≥ 1)
  std::size_t kmedian_max_evaluations = 0;    ///< k-median safety cap (0 = unlimited)
  /// Not read by the engine, which runs every round on the calling
  /// thread. Kept only because perfbench assigns it from its --pool flag;
  /// it goes with that flag (ROADMAP item 6).
  common::ThreadPool* pool = nullptr;
  /// Optional timed fault schedule (link/switch/host/shim failures, lossy
  /// protocol messaging). Must outlive the engine. An empty plan (or
  /// nullptr) reproduces the pristine-fabric run bit for bit.
  const fault::FaultPlan* fault_plan = nullptr;
  // --- observability (src/obs/): all off by default. With everything off
  //     the engine owns no ObservationHub and the per-round hot path takes
  //     a handful of null checks; perfbench's trace.overhead_pct measures
  //     what turning it on costs.
  bool observe = false;  ///< own an ObservationHub (event trace + metric registry)
  bool audit = false;    ///< run the InvariantAuditor each round (implies observe)
  /// Requires `audit`; the constructor rejects it otherwise (RequirementError).
  bool audit_fail_fast = false;  ///< first violation throws RequirementError
  std::size_t trace_capacity_per_shim = 4096;  ///< records per shim ring (≥ 1)
};

struct RoundMetrics {
  std::size_t round = 0;
  double workload_stddev_before = 0.0;  ///< Fig. 9/10 metric, pre-management
  double workload_stddev_after = 0.0;   ///< ... post-management
  double workload_mean = 0.0;
  std::size_t host_alerts = 0;
  std::size_t tor_alerts = 0;
  std::size_t switch_alerts = 0;
  std::size_t migrations = 0;
  std::size_t migration_requests = 0;
  std::size_t migration_rejects = 0;
  std::size_t reroutes = 0;
  double migration_cost = 0.0;     ///< Fig. 11/13 metric
  std::size_t search_space = 0;    ///< Fig. 12/14 metric
  double max_link_utilization = 0.0;
  std::size_t congested_switches = 0;
  std::size_t rate_limited_flows = 0;      ///< flows under a QCN cut this round
  double flow_satisfaction = 1.0;          ///< mean allocated/demand over offered flows
  double flow_fairness = 1.0;              ///< Jain's index over allocated rates
  std::size_t protocol_conflicts = 0;      ///< same-round reservation races resolved
  std::size_t protocol_iterations = 0;     ///< propose/decide/apply rounds used
  /// Duplicate claims resolved by the ordered commit of the manage phase
  /// (a second reroute claim on one hot switch, or a second migration
  /// claim on one VM, dropped in favor of the lowest shim id); 0 outside
  /// kSheriff mode. The name predates the serial propose loop and stays
  /// because it is a metrics CSV column.
  std::size_t shard_conflicts = 0;
  double migration_seconds = 0.0;          ///< summed live-migration wall time
  double migration_downtime_seconds = 0.0; ///< summed stop&copy suspensions
  // --- failure model (all zero on a pristine fabric) -----------------------
  std::size_t failed_links = 0;        ///< links unable to carry traffic this round
  std::size_t failed_switches = 0;     ///< switches currently crashed
  std::size_t orphaned_vms = 0;        ///< VMs on dead/cut-off hosts before recovery
  std::size_t unroutable_flows = 0;    ///< flows with no live path this round
  std::size_t protocol_drops = 0;      ///< REQUEST/ACK messages lost this round
  std::size_t protocol_retries = 0;    ///< re-proposals after message loss
  std::size_t recovery_migrations = 0; ///< orphaned VMs re-placed this round
};

/// Wall time spent in each stage of run_round, summed over all rounds run
/// so far, at two clock reads per phase. Feeds perfbench's per-layer
/// spans.
struct PhaseProfile {
  std::uint64_t fault_ns = 0;       ///< fault events + liveness propagation
  std::uint64_t workload_ns = 0;    ///< trace advance + demand updates + routing
  std::uint64_t fair_share_ns = 0;  ///< max–min allocation
  /// FairShareSolver sub-phases of fair_share_ns: link ids, incidence,
  /// components and reverse CSR vs the demand sort, the water-filling
  /// kernel and the load sums.
  std::uint64_t fair_share_build_ns = 0;
  std::uint64_t fair_share_fill_ns = 0;
  std::uint64_t queue_ns = 0;       ///< switch queues + QCN rate control
  std::uint64_t predict_ns = 0;     ///< predictor observe + shim collect
  std::uint64_t manage_ns = 0;      ///< reroutes + migration protocol (total)
  /// kKMedian-mode sub-phase of manage_ns: planner row upkeep + the
  /// k-median solve.
  std::uint64_t manage_kmedian_ns = 0;
  /// kSheriff-mode sub-phases of manage_ns: wall time of the propose loop
  /// and of the ordered commit. Zero in the centralized modes. The propose
  /// clock is a one-entry vector because perfbench sums it as one.
  std::vector<std::uint64_t> manage_shard_propose_ns = {0};
  std::uint64_t manage_commit_ns = 0;
  /// Migration decision kernel inside manage_ns: the protocol run, the
  /// FCFS scheduler runs or the centralized manager's migrate call — the
  /// Eq. (1) evaluation load, disjoint from propose and commit.
  std::uint64_t manage_decision_ns = 0;
  std::size_t rounds = 0;
};

/// Cumulative bookkeeping of the kSheriff manage phase. Every field is a
/// deterministic function of the run, so the whole struct travels in
/// checkpoints (section SHRD) and must survive a resume byte-exactly. The
/// shard names predate the serial propose loop; they stay because they
/// are the SHRD layout and registry names (DESIGN.md §11).
struct ManageShardStats {
  std::uint64_t sharded_rounds = 0;     ///< rounds run through propose/commit
  std::uint64_t reroute_claims = 0;     ///< reroute claims proposed
  std::uint64_t reroute_commits = 0;    ///< claims that won the ordered commit
  std::uint64_t reroute_conflicts = 0;  ///< duplicate claims dropped
  std::uint64_t vm_claims = 0;          ///< VM migration claims proposed
  std::uint64_t vm_commits = 0;         ///< VM claims that won the ordered commit
  std::uint64_t vm_conflicts = 0;       ///< duplicate VM claims dropped
  std::vector<std::uint64_t> demands_by_rack;  ///< migration demands issued per managing rack
};

class DistributedEngine {
 public:
  /// The topology must outlive the engine. Every engine on one topology
  /// shares its distance rows (Topology::distance_rows()); the first one
  /// builds every ToR row here, later ones find them built. Throws
  /// RequirementError on an inconsistent config.
  DistributedEngine(const topo::Topology& topo, const wl::DeploymentOptions& deployment_options,
                    EngineConfig config);

  /// Runs one management round; returns its metrics.
  RoundMetrics run_round();
  /// Runs `rounds` rounds.
  std::vector<RoundMetrics> run(std::size_t rounds);

  [[nodiscard]] const topo::Topology& topology() const noexcept { return *topo_; }
  [[nodiscard]] const wl::Deployment& deployment() const noexcept { return deployment_; }
  [[nodiscard]] std::span<const net::Flow> flows() const noexcept { return flows_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t rounds_run() const noexcept { return round_; }
  [[nodiscard]] const PhaseProfile& phase_profile() const noexcept { return profile_; }
  [[nodiscard]] const net::Router& router() const noexcept { return router_; }
  [[nodiscard]] const net::FairShareSolver& fair_share_solver() const noexcept {
    return solver_;
  }
  [[nodiscard]] const mig::MigrationCostModel& cost_model() const noexcept { return cost_model_; }
  [[nodiscard]] const ManageShardStats& shard_stats() const noexcept { return shard_stats_; }

  /// Force-collects the alerted VM set of the *current* state (used by
  /// benches that want to hand the same alerts to both manager modes).
  [[nodiscard]] std::vector<wl::VmId> alerted_vms() const;

  /// The observation hub, or nullptr when observability is off
  /// (EngineConfig::observe/audit both false and SHERIFF_FORCE_AUDIT unset).
  [[nodiscard]] obs::ObservationHub* observation_hub() noexcept { return hub_.get(); }
  [[nodiscard]] const obs::ObservationHub* observation_hub() const noexcept {
    return hub_.get();
  }

  /// The fault injector driving this run, or nullptr on a pristine fabric.
  [[nodiscard]] const fault::FaultInjector* fault_injector() const noexcept {
    return injector_.get();
  }
  /// The rack whose shim currently manages `rack` (a live neighbor when the
  /// own shim is down), or topo::kInvalidRack when nobody can take over.
  [[nodiscard]] topo::RackId managing_rack(topo::RackId rack) const;

  /// Checkpoint hook (see DESIGN.md §10): saves every piece of mutable
  /// cross-round state, or loads it into a freshly constructed engine over
  /// the *same* (topology, deployment options, config) —
  /// constructor-derived structure (VM population, dependency graph, flow
  /// table shape, shims) is validated via a fingerprint, not serialized.
  /// The per-round cost surface resumes cold and is rebuilt on demand
  /// without changing results. The routing tables and distance rows belong
  /// to the topology, so a restore into an engine on the same topology
  /// finds them warm. No cache counter reaches the registry, so a resumed
  /// observed run writes the checkpoint bytes of one that never stopped.
  /// The fault injector is restored by replaying its plan up to the saved
  /// round (trace-detached), which reproduces the LivenessMask bit for bit
  /// including its version counter. After a load, run_round() continues
  /// the run bit-identically to one that never stopped.
  void checkpoint(snapshot::Archive& ar);

 private:
  void build_flows();
  [[nodiscard]] std::unique_ptr<ProfilePredictor> make_predictor() const;
  void recompute_takeovers();
  /// True when the host is up and has at least one usable link.
  [[nodiscard]] bool host_attached(topo::NodeId host) const;
  /// VMs stranded on dead or cut-off hosts, ascending by id.
  [[nodiscard]] std::vector<wl::VmId> collect_orphans() const;

  // The phases of run_round(), in order; each owns its PhaseProfile clock.
  void apply_fault_events(RoundMetrics& metrics);  ///< no-op on a pristine fabric
  void advance_workload(RoundMetrics& metrics);    ///< traces, flow demands, routing
  [[nodiscard]] const net::FairShareResult& solve_network(const RoundMetrics& metrics);
  /// Switch queues, DSCP marks and the congested set, then QCN rate limits.
  void update_queues(const net::FairShareResult& shares, RoundMetrics& metrics);
  /// Also rebuilds rack_flows_; returns each rack's alerts.
  [[nodiscard]] std::vector<ShimCollectResult> predict_and_collect(
      const net::FairShareResult& shares, RoundMetrics& metrics);
  /// Orphan recovery + manage_regional or manage_global; returns the
  /// round's committed moves.
  MigrationPlan manage(std::span<const ShimCollectResult> collected,
                       const net::FairShareResult& shares, RoundMetrics& metrics);
  /// kSheriff: propose → ordered commit → decide (DESIGN.md §11).
  MigrationPlan manage_regional(std::span<const ShimCollectResult> collected,
                                std::span<const wl::VmId> orphans, RoundMetrics& metrics);
  /// kCentralized / kKMedian: one manager over the union of all alerts.
  MigrationPlan manage_global(std::span<const ShimCollectResult> collected,
                              std::span<const wl::VmId> orphans, RoundMetrics& metrics);
  /// Plan tallies and recovered orphans into the metrics; one trace event
  /// per committed move.
  void account(const MigrationPlan& plan, std::span<const wl::VmId> orphans,
               RoundMetrics& metrics);
  /// Publishes subsystem metrics into the hub's registry and runs the
  /// management-side audit. hub_ must be set.
  void publish_round(const RoundMetrics& metrics, const MigrationPlan& plan);
  /// Propose: every managed shim runs propose() against the manage-entry
  /// state, in shim-id order. Indexed by rack id; unmanaged racks stay
  /// empty.
  [[nodiscard]] std::vector<ShimProposal> propose_all(
      std::span<const ShimCollectResult> collected);
  /// Commit: one serial pass in shim-id order, first claimant wins (losers
  /// become RoundMetrics::shard_conflicts). Applies the reroutes; returns
  /// the migration demands with region_targets left to the decide step.
  [[nodiscard]] std::vector<MigrationDemand> commit_proposals(std::span<ShimProposal> proposals,
                                                              RoundMetrics& metrics);

  const topo::Topology* topo_;
  EngineConfig config_;
  wl::Deployment deployment_;
  net::Router router_;
  net::SwitchQueues queues_;
  net::FairShareSolver solver_;
  net::QcnRateController rate_controller_;
  mig::MigrationCostModel cost_model_;
  std::vector<ShimController> shims_;
  std::vector<net::Flow> flows_;
  std::vector<wl::VmId> flow_owner_;  ///< source VM of each flow
  std::vector<wl::VmId> flow_peer_;   ///< destination VM of each flow
  /// Per-round rack flow index: the flows owned by each rack's VMs,
  /// ascending (rebuilt by predict_and_collect, read by propose).
  std::vector<std::vector<std::size_t>> rack_flows_;
  std::vector<std::unique_ptr<ProfilePredictor>> predictors_;  ///< by VmId
  std::vector<wl::WorkloadProfile> predicted_;                 ///< by VmId
  std::vector<HoltScalar> tor_utilization_predictors_;         ///< by RackId
  std::vector<HoltScalar> tor_queue_predictors_;               ///< by RackId
  std::unique_ptr<fault::FaultInjector> injector_;  ///< null = pristine fabric
  std::unique_ptr<fault::LossyChannel> channel_;    ///< null = reliable messaging
  std::unique_ptr<KMedianPlanner> kmedian_planner_;          ///< kKMedian mode only
  std::unique_ptr<KMedianMigrationManager> kmedian_manager_; ///< kKMedian mode only
  std::unique_ptr<obs::ObservationHub> hub_;        ///< null = observability off
  std::vector<topo::RackId> takeover_;              ///< managing rack per rack
  ManageShardStats shard_stats_;
  std::size_t round_ = 0;
  PhaseProfile profile_;
  /// Last stats snapshot published to the metric registry (delta counters).
  KMedianMigrationManager::Stats published_kmedian_stats_;
  std::size_t published_planner_rebuilds_ = 0;
  mig::CostModelStats published_cost_stats_;
};

}  // namespace sheriff::core

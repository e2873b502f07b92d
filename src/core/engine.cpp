#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/require.hpp"
#include "obs/timing.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/rng_io.hpp"

namespace sheriff::core {

using PhaseTimer = obs::ScopedTimer;

namespace {

/// The caller's config, rejected if inconsistent or outside a field's
/// documented domain (config.hpp, EngineConfig) — before any state is
/// built. The Eq. (1) parameters are checked by MigrationCostModel.
/// SHERIFF_FORCE_AUDIT applies afterwards and is always consistent.
EngineConfig checked_config(const EngineConfig& config) {
  SHERIFF_REQUIRE(config.audit || !config.audit_fail_fast, "audit_fail_fast requires audit");
  // A negative scale offers no flow at all (QoS would read a carried-
  // nothing fabric as fully satisfied); NaN lifts every rate limit.
  SHERIFF_REQUIRE(std::isfinite(config.flow_demand_scale_gbps) &&
                      config.flow_demand_scale_gbps >= 0.0,
                  "flow_demand_scale_gbps must be finite and non-negative");
  // The trace would clamp a zero ring to one record without a word.
  SHERIFF_REQUIRE(config.trace_capacity_per_shim >= 1,
                  "trace_capacity_per_shim must be at least 1");
  const SheriffConfig& sheriff = config.sheriff;
  // Alert levels. NaN fails every compare, so an alert it guards would
  // silently never fire; AlertScheme refuses a bad THRESHOLD only at the
  // first collect. Each check below is false for NaN.
  SHERIFF_REQUIRE(sheriff.vm_alert_threshold > 0.0 && sheriff.vm_alert_threshold <= 1.0,
                  "sheriff.vm_alert_threshold must be in (0, 1]");
  SHERIFF_REQUIRE(sheriff.host_overload_percent >= 0.0,
                  "sheriff.host_overload_percent must be non-negative");
  SHERIFF_REQUIRE(sheriff.hotspot_factor >= 0.0, "sheriff.hotspot_factor must be non-negative");
  SHERIFF_REQUIRE(sheriff.hotspot_floor_percent >= 0.0,
                  "sheriff.hotspot_floor_percent must be non-negative");
  SHERIFF_REQUIRE(sheriff.receiver_max_load_percent >= 0.0,
                  "sheriff.receiver_max_load_percent must be non-negative");
  SHERIFF_REQUIRE(sheriff.tor_utilization_threshold >= 0.0,
                  "sheriff.tor_utilization_threshold must be non-negative");
  // Alg. 2 budgets floor(α·capacity) and floor(β·capacity) into an int: a
  // NaN there is undefined behaviour, and a zero capacity silently turns
  // FLOWREROUTE (or the ToR selection) off.
  SHERIFF_REQUIRE(sheriff.alpha >= 0.0 && sheriff.alpha <= 1.0,
                  "sheriff.alpha must be in [0, 1]");
  SHERIFF_REQUIRE(sheriff.beta >= 0.0 && sheriff.beta <= 1.0, "sheriff.beta must be in [0, 1]");
  SHERIFF_REQUIRE(sheriff.switch_capacity_units >= 1,
                  "sheriff.switch_capacity_units must be at least 1");
  SHERIFF_REQUIRE(sheriff.tor_capacity_units >= 1,
                  "sheriff.tor_capacity_units must be at least 1");
  // FLOWREROUTE moves ceil(fraction × candidates) flows.
  // net::reroute_around refuses a fraction outside (0, 1] only when the
  // first reroute claim commits, which a run may reach late or never. NaN fails both compares.
  SHERIFF_REQUIRE(sheriff.reroute_fraction > 0.0 && sheriff.reroute_fraction <= 1.0,
                  "sheriff.reroute_fraction must be in (0, 1]");
  // Zero matching rounds silently turns VMMIGRATION off in the message-
  // passing protocol (and throws at the first demand elsewhere); a zero
  // horizon makes Holt "predict" the current sample, so the pre-alert is
  // silently off (and the ensemble throws after its first fit).
  SHERIFF_REQUIRE(sheriff.max_matching_rounds >= 1,
                  "sheriff.max_matching_rounds must be at least 1");
  SHERIFF_REQUIRE(sheriff.prediction_horizon >= 1,
                  "sheriff.prediction_horizon must be at least 1");
  if (config.mode != ManagerMode::kKMedian) {
    const EngineConfig defaults;
    SHERIFF_REQUIRE(config.kmedian_destination_racks == defaults.kmedian_destination_racks &&
                        config.kmedian_swap_p == defaults.kmedian_swap_p &&
                        config.kmedian_max_evaluations == defaults.kmedian_max_evaluations,
                    "kmedian_* settings require mode kKMedian");
  }
  return config;
}

}  // namespace

DistributedEngine::DistributedEngine(const topo::Topology& topo,
                                     const wl::DeploymentOptions& deployment_options,
                                     EngineConfig config)
    : topo_(&topo),
      config_(checked_config(config)),
      deployment_(topo, deployment_options),
      router_(topo),
      queues_(topo),
      solver_(topo),
      cost_model_(topo, deployment_, config.sheriff.cost) {
  // Startup, not round, time: the ToR-rooted distance rows (and their
  // rack link CSRs) derive from the immutable pristine topology only, so
  // the first engine on a fabric builds them all here and every later
  // one (a restore, a bisect probe, a fleet run) finds them built. The
  // first manage round's decision sweep then runs against warm rows.
  topo.distance_rows().build_tor_rows();
  // SHERIFF_FORCE_AUDIT=1 (the CI sanitizer job sets it) turns the
  // invariant auditor on in fail-fast mode for every engine, so the whole
  // tier-1 suite hard-fails on any conservation-law breach.
  if (const char* force = std::getenv("SHERIFF_FORCE_AUDIT");
      force != nullptr && force[0] == '1') {
    config_.audit = true;
    config_.audit_fail_fast = true;
  }
  if (config_.observe || config_.audit) {
    obs::ObservationConfig observation;
    observation.trace_capacity_per_shim = config_.trace_capacity_per_shim;
    observation.audit = config_.audit;
    observation.audit_options.fail_fast = config_.audit_fail_fast;
    hub_ = std::make_unique<obs::ObservationHub>(topo.rack_count(), observation);
  }
  shims_.reserve(topo.rack_count());
  for (topo::RackId r = 0; r < topo.rack_count(); ++r) {
    shims_.emplace_back(r, topo, config.sheriff);
    if (hub_ != nullptr) shims_.back().set_trace(&hub_->trace());
  }
  predictors_.reserve(deployment_.vm_count());
  for (std::size_t i = 0; i < deployment_.vm_count(); ++i) {
    predictors_.push_back(make_predictor());
  }
  predicted_.resize(deployment_.vm_count());
  rack_flows_.resize(topo.rack_count());
  tor_utilization_predictors_.resize(topo.rack_count());
  tor_queue_predictors_.resize(topo.rack_count());
  if (config_.fault_plan != nullptr) {
    injector_ = std::make_unique<fault::FaultInjector>(topo, *config_.fault_plan);
    if (hub_ != nullptr) injector_->set_trace(&hub_->trace());
    const fault::FaultOptions& fault_options = config_.fault_plan->options();
    if (fault_options.message_drop_probability > 0.0) {
      channel_ = std::make_unique<fault::LossyChannel>(fault_options.message_drop_probability,
                                                       fault_options.seed);
    }
    router_.apply_liveness(&injector_->liveness());
    queues_.set_liveness(&injector_->liveness());
    for (ShimController& shim : shims_) shim.set_liveness(&injector_->liveness());
    takeover_.resize(topo.rack_count());
    recompute_takeovers();
  }
  shard_stats_.demands_by_rack.assign(topo.rack_count(), 0);
  if (config_.mode == ManagerMode::kKMedian) {
    // The planner's ToR rows are computed once here and shared across
    // rounds; a faulted fabric rebuilds them when the liveness mask moves.
    KMedianPlannerOptions planner_options;
    planner_options.liveness = injector_ != nullptr ? &injector_->liveness() : nullptr;
    kmedian_planner_ = std::make_unique<KMedianPlanner>(topo, planner_options);
    KMedianMigrationManager::Options manager_options;
    manager_options.destination_racks = config_.kmedian_destination_racks;
    manager_options.local_search_p = config_.kmedian_swap_p;
    manager_options.max_evaluations = config_.kmedian_max_evaluations;
    manager_options.liveness = injector_ != nullptr ? &injector_->liveness() : nullptr;
    kmedian_manager_ = std::make_unique<KMedianMigrationManager>(
        deployment_, cost_model_, *kmedian_planner_, manager_options);
  }
  build_flows();
}

topo::RackId DistributedEngine::managing_rack(topo::RackId rack) const {
  SHERIFF_REQUIRE(rack < topo_->rack_count(), "rack out of range");
  return injector_ == nullptr ? rack : takeover_[rack];
}

void DistributedEngine::recompute_takeovers() {
  for (topo::RackId r = 0; r < topo_->rack_count(); ++r) {
    if (!injector_->shim_down(r)) {
      takeover_[r] = r;
      continue;
    }
    // Neighbor-region takeover: the lowest-numbered one-hop neighbor with a
    // live shim adopts the rack. No live neighbor means the rack runs
    // unmanaged until a shim recovers.
    takeover_[r] = topo::kInvalidRack;
    for (topo::RackId n : topo_->neighbor_racks(r)) {  // ascending
      if (!injector_->shim_down(n)) {
        takeover_[r] = n;
        break;
      }
    }
    if (hub_ != nullptr) {
      hub_->trace().emit(obs::EventTrace::kEngine, obs::EventType::kShimTakeover, r,
                         takeover_[r]);
    }
  }
}

bool DistributedEngine::host_attached(topo::NodeId host) const {
  return injector_ == nullptr || injector_->liveness().host_attached(*topo_, host);
}

std::vector<wl::VmId> DistributedEngine::collect_orphans() const {
  std::vector<wl::VmId> orphans;
  if (injector_ == nullptr || injector_->liveness().all_up()) return orphans;
  for (topo::NodeId h : topo_->nodes_of_kind(topo::NodeKind::kHost)) {
    if (host_attached(h)) continue;
    const auto& stranded = deployment_.vms_on_host(h);
    orphans.insert(orphans.end(), stranded.begin(), stranded.end());
  }
  std::sort(orphans.begin(), orphans.end());
  return orphans;
}

void DistributedEngine::apply_fault_events(RoundMetrics& metrics) {
  // Apply this round's due events, propagate the new liveness to the
  // router, and tear down routes over dead elements.
  if (injector_ == nullptr) return;
  PhaseTimer timer(profile_.fault_ns);
  const fault::InjectionReport report = injector_->advance(metrics.round);
  if (report.fabric_changed) {
    router_.refresh_liveness();
    // Tear down routes crossing a changed element; advance_workload
    // re-routes them over the surviving fabric (or counts them as
    // unroutable).
    const topo::LivenessMask& mask = injector_->liveness();
    const auto usable = [&](topo::LinkId l) { return mask.link_usable(*topo_, l); };
    for (net::Flow& flow : flows_) {
      if (!std::ranges::all_of(flow.links, usable)) flow.unroute();
    }
  }
  if (report.fabric_changed || report.shims_changed) recompute_takeovers();
  metrics.failed_links = injector_->failed_link_count();
  metrics.failed_switches = injector_->failed_switch_count();
}

std::unique_ptr<ProfilePredictor> DistributedEngine::make_predictor() const {
  switch (config_.predictor) {
    case PredictorKind::kHolt: return std::make_unique<HoltProfilePredictor>();
    case PredictorKind::kEnsemble: return std::make_unique<EnsembleProfilePredictor>();
    case PredictorKind::kNaive: return std::make_unique<NaiveProfilePredictor>();
  }
  SHERIFF_REQUIRE(false, "unknown predictor kind");
  return nullptr;
}

void DistributedEngine::build_flows() {
  // One flow per dependency edge (a < b to avoid duplicates): dependent
  // VMs communicate, and their traffic feature drives the demand.
  const auto& deps = deployment_.dependencies();
  for (wl::VmId a = 0; a < deployment_.vm_count(); ++a) {
    for (wl::VmId b : deps.neighbors(a)) {
      if (a >= b) continue;
      net::Flow flow;
      flow.id = static_cast<net::FlowId>(flows_.size());
      flow.src_host = deployment_.vm(a).host;
      flow.dst_host = deployment_.vm(b).host;
      flow.delay_sensitive =
          deployment_.vm(a).delay_sensitive || deployment_.vm(b).delay_sensitive;
      flows_.push_back(std::move(flow));
      flow_owner_.push_back(a);
      flow_peer_.push_back(b);
    }
  }
  router_.route_all(flows_);
}

std::vector<wl::VmId> DistributedEngine::alerted_vms() const {
  const AlertScheme scheme(config_.sheriff.vm_alert_threshold);
  std::vector<wl::VmId> out;
  for (std::size_t i = 0; i < predicted_.size(); ++i) {
    if (scheme.fires(predicted_[i])) out.push_back(static_cast<wl::VmId>(i));
  }
  return out;
}

RoundMetrics DistributedEngine::run_round() {
  RoundMetrics metrics;
  metrics.round = round_++;
  if (hub_ != nullptr) hub_->trace().set_round(static_cast<std::uint32_t>(metrics.round));
  apply_fault_events(metrics);
  advance_workload(metrics);
  const net::FairShareResult& shares = solve_network(metrics);
  update_queues(shares, metrics);
  const std::vector<ShimCollectResult> collected = predict_and_collect(shares, metrics);
  const MigrationPlan plan = manage(collected, shares, metrics);
  metrics.workload_stddev_after = deployment_.workload_stddev();
  if (hub_ != nullptr) publish_round(metrics, plan);
  ++profile_.rounds;
  return metrics;
}

void DistributedEngine::advance_workload(RoundMetrics& metrics) {
  // Workloads evolve; flows track the new traffic levels and any migrated
  // endpoints.
  PhaseTimer timer(profile_.workload_ns);
  deployment_.advance();
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    net::Flow& flow = flows_[f];
    const topo::NodeId src = deployment_.vm(flow_owner_[f]).host;
    const topo::NodeId dst = deployment_.vm(flow_peer_[f]).host;
    if (flow.src_host != src || flow.dst_host != dst) {
      flow.src_host = src;
      flow.dst_host = dst;
      flow.unroute();
    }
    const double trf = deployment_.vm(flow_owner_[f]).profile[wl::Feature::kTraffic];
    flow.demand_gbps = config_.flow_demand_scale_gbps * trf;
  }
  for (net::Flow& flow : flows_) {
    if (!flow.routed()) router_.route(flow);
  }
  if (injector_ != nullptr) {
    for (const net::Flow& flow : flows_) {
      if (flow.src_host != flow.dst_host && !flow.routed()) ++metrics.unroutable_flows;
    }
  }
}

const net::FairShareResult& DistributedEngine::solve_network(const RoundMetrics& metrics) {
  // One canonical solve per round.
  const topo::LivenessMask* liveness =
      injector_ != nullptr ? &injector_->liveness() : nullptr;
  const net::FairShareResult* shares = nullptr;
  {
    PhaseTimer timer(profile_.fair_share_ns);
    shares = &solver_.solve(flows_, liveness);
    profile_.fair_share_build_ns = solver_.timings().build_ns;
    profile_.fair_share_fill_ns = solver_.timings().fill_ns;
  }
  // Network-state invariants are checked here, while flows' paths and rate
  // limits are exactly what the allocation saw: the QCN update moves rate
  // limits, and management reroutes change paths mid-round.
  if (hub_ != nullptr && hub_->auditor() != nullptr) {
    obs::InvariantAuditor::RoundInputs inputs;
    inputs.round = static_cast<std::uint32_t>(metrics.round);
    inputs.deployment = &deployment_;
    inputs.flows = flows_;
    inputs.shares = shares;
    inputs.solver = &solver_;
    inputs.liveness = liveness;
    hub_->auditor()->audit_network(inputs);
  }
  return *shares;
}

void DistributedEngine::update_queues(const net::FairShareResult& shares, RoundMetrics& metrics) {
  // Switch queues + QCN feedback, then the end-host reaction point adjusts
  // rate limits for the next period.
  PhaseTimer timer(profile_.queue_ns);
  queues_.update(shares, flows_);
  // QoS is measured against the demands the allocator actually saw: the
  // QCN reaction point below tightens rate limits for the *next* period,
  // and a freshly lowered limit would read as allocated/demand > 1.
  const auto qos = net::compute_qos_stats(flows_);
  metrics.flow_satisfaction = qos.mean_satisfaction;
  metrics.flow_fairness = qos.jain_fairness;
  if (config_.qcn_rate_control) {
    rate_controller_.update(flows_, queues_);
    metrics.rate_limited_flows = rate_controller_.tracked_flows();
  }
  metrics.congested_switches = queues_.congested_switches().size();
  for (double u : shares.link_utilization) {
    metrics.max_link_utilization = std::max(metrics.max_link_utilization, u);
  }
}

std::vector<ShimCollectResult> DistributedEngine::predict_and_collect(
    const net::FairShareResult& shares, RoundMetrics& metrics) {
  PhaseTimer timer(profile_.predict_ns);
  // Every VM's predictor observes the new sample and forecasts T ahead.
  for (std::size_t i = 0; i < deployment_.vm_count(); ++i) {
    const wl::WorkloadProfile& sample = deployment_.vm(static_cast<wl::VmId>(i)).profile;
    predictors_[i]->observe(sample);
    predicted_[i] = predictors_[i]->ready()
                        ? predictors_[i]->predict(config_.sheriff.prediction_horizon)
                        : sample;
  }
  metrics.workload_stddev_before = deployment_.workload_stddev();
  metrics.workload_mean = deployment_.workload_mean();

  // Per-rack flow index, built once per round: it pre-filters the
  // congestion feedback per rack below, and scopes each shim's switch-alert
  // F-set scan in propose() to its own flows, in ascending flow order.
  for (std::vector<std::size_t>& own : rack_flows_) own.clear();
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    rack_flows_[topo_->node(deployment_.vm(flow_owner_[f]).host).rack].push_back(f);
  }

  // Per-rack ToR signal prediction (Sec. IV-A): feed this round's uplink
  // utilization and queue length into the scalar predictors, then hand the
  // shims their T-ahead extrapolations.
  const double fleet_mean = metrics.workload_mean;
  const bool any_congested = !queues_.congested_switches().empty();
  std::vector<std::vector<topo::NodeId>> rack_hot(topo_->rack_count());
  std::vector<topo::NodeId> flow_hot;
  std::vector<ShimController::Observation> observations(shims_.size());
  for (topo::RackId r = 0; r < topo_->rack_count(); ++r) {
    // Congested outer switches that some flow of this rack transits, in
    // first-seen order: flow by flow, and within a flow in ascending id
    // (the congested list's order).
    std::vector<topo::NodeId>& hot = rack_hot[r];
    for (std::size_t f : rack_flows_[r]) {
      if (!any_congested) break;  // no flag is set
      flow_hot.clear();
      for (const topo::NodeId sw : flows_[f].interior()) {
        if (queues_.congested(sw)) flow_hot.push_back(sw);
      }
      std::sort(flow_hot.begin(), flow_hot.end());
      for (const topo::NodeId sw : flow_hot) {
        if (std::find(hot.begin(), hot.end(), sw) == hot.end()) hot.push_back(sw);
      }
    }
    const topo::NodeId tor = topo_->rack(r).tor;
    double utilization = 0.0;
    for (topo::LinkId l : topo_->links_of(tor)) {
      const topo::NodeId other = topo_->peer(l, tor);
      if (!topo::is_switch(topo_->node(other).kind)) continue;
      utilization = std::max(utilization, shares.link_utilization[l]);
    }
    tor_utilization_predictors_[r].observe(utilization);
    tor_queue_predictors_[r].observe(queues_.queue_length(tor));

    auto& obs = observations[r];
    obs.shares = &shares;
    obs.hot_switches = hot;
    obs.fleet_mean_load_percent = fleet_mean;
    obs.tor_queue_equilibrium = queues_.config().equilibrium_queue;
    if (tor_utilization_predictors_[r].ready()) {
      obs.predicted_tor_utilization = std::max(
          0.0, tor_utilization_predictors_[r].predict(config_.sheriff.prediction_horizon));
      obs.predicted_tor_queue = std::max(
          0.0, tor_queue_predictors_[r].predict(config_.sheriff.prediction_horizon));
    }
  }

  // Each shim traces its alerts into its own ring, in shim order.
  std::vector<ShimCollectResult> collected(shims_.size());
  for (std::size_t s = 0; s < shims_.size(); ++s) {
    collected[s] = shims_[s].collect(deployment_, predicted_, observations[s]);
  }
  return collected;
}

MigrationPlan DistributedEngine::manage(std::span<const ShimCollectResult> collected,
                                        const net::FairShareResult& shares,
                                        RoundMetrics& metrics) {
  PhaseTimer timer(profile_.manage_ns);
  // VMs stranded on dead or cut-off hosts are re-placed through the same
  // machinery as alert-driven migrations (a control-plane restart from
  // shared storage, so a severed source does not block it).
  const std::vector<wl::VmId> orphans = collect_orphans();
  metrics.orphaned_vms = orphans.size();
  cost_model_.set_bandwidth_state(&shares);
  MigrationPlan plan = config_.mode == ManagerMode::kSheriff
                           ? manage_regional(collected, orphans, metrics)
                           : manage_global(collected, orphans, metrics);
  account(plan, orphans, metrics);
  return plan;
}

MigrationPlan DistributedEngine::manage_regional(std::span<const ShimCollectResult> collected,
                                                 std::span<const wl::VmId> orphans,
                                                 RoundMetrics& metrics) {
  std::vector<ShimProposal> proposals = propose_all(collected);
  std::vector<MigrationDemand> demands;
  {
    PhaseTimer timer(profile_.manage_commit_ns);
    demands = commit_proposals(proposals, metrics);
  }
  // Recovery demands follow: orphans grouped by the rack of their stranded
  // host, each group issued by the rack's managing shim. A rack whose shim
  // is down is handled by its takeover neighbor, so its demands are placed
  // in the neighbor's region.
  std::vector<std::vector<wl::VmId>> orphans_by_rack(orphans.empty() ? 0 : shims_.size());
  for (wl::VmId vm : orphans) {
    orphans_by_rack[topo_->node(deployment_.vm(vm).host).rack].push_back(vm);
  }
  for (std::size_t r = 0; r < orphans_by_rack.size(); ++r) {
    const topo::RackId mgr = managing_rack(static_cast<topo::RackId>(r));
    if (orphans_by_rack[r].empty() || mgr == topo::kInvalidRack) continue;
    demands.push_back({mgr, std::move(orphans_by_rack[r]), {}});
  }

  // Decide. A demand's receivers are its shim's underloaded region hosts
  // as the deployment stands when that demand is placed.
  if (config_.protocol == MigrationProtocol::kSerializedFcfs) {
    // One broker, demands scheduled strictly one after another.
    mig::AdmissionBroker broker(deployment_);
    MigrationPlan plan;
    PhaseTimer timer(profile_.manage_decision_ns);
    for (MigrationDemand& demand : demands) {
      VmMigrationScheduler scheduler(deployment_, cost_model_, broker,
                                     config_.sheriff.max_matching_rounds);
      plan.merge(scheduler.migrate(std::move(demand.vms),
                                   shims_[demand.shim].migration_targets(deployment_)));
    }
    return plan;
  }
  for (MigrationDemand& demand : demands) {
    demand.region_targets = shims_[demand.shim].migration_targets(deployment_);
  }
  DistributedMigrationProtocol protocol(
      deployment_, cost_model_, config_.sheriff, channel_.get(),
      config_.fault_plan != nullptr ? config_.fault_plan->options().max_protocol_retries : 0,
      hub_ != nullptr ? &hub_->trace() : nullptr);
  ProtocolResult outcome;
  {
    PhaseTimer timer(profile_.manage_decision_ns);
    outcome = protocol.run(std::move(demands));
  }
  metrics.protocol_conflicts = outcome.conflicts;
  metrics.protocol_iterations = outcome.iterations;
  metrics.protocol_drops = outcome.drops;
  metrics.protocol_retries = outcome.retries;
  return std::move(outcome.plan);
}

MigrationPlan DistributedEngine::manage_global(std::span<const ShimCollectResult> collected,
                                               std::span<const wl::VmId> orphans,
                                               RoundMetrics& metrics) {
  // Centralized baselines (kCentralized, kKMedian): the same per-rack
  // alert collection feeds one manager with the global view; host alerts
  // of every rack are gathered through PRIORITY's single-VM rule applied
  // per host, ToR/switch alerts per rack. A rack whose shim died
  // unreplaced reports nothing — monitoring is lost too.
  std::vector<wl::VmId> global_set;
  for (std::size_t s = 0; s < shims_.size(); ++s) {
    if (injector_ != nullptr && takeover_[s] == topo::kInvalidRack) continue;
    for (const Alert& alert : collected[s].alerts) {
      metrics.host_alerts += alert.source == AlertSource::kHost ? 1 : 0;
      metrics.tor_alerts += alert.source == AlertSource::kLocalTor ? 1 : 0;
      metrics.switch_alerts += alert.source == AlertSource::kOuterSwitch ? 1 : 0;
    }
    // The global manager migrates every VM whose own ALERT fired.
    for (std::size_t i = 0; i < collected[s].rack_vms.size(); ++i) {
      if (collected[s].vm_alert_values[i] > 0.0 &&
          !deployment_.vm(collected[s].rack_vms[i]).delay_sensitive) {
        global_set.push_back(collected[s].rack_vms[i]);
      }
    }
  }
  // Orphans are re-placed unconditionally (their host is gone, so even
  // delay-sensitive VMs must restart elsewhere). collect() skipped their
  // hosts, so no VM appears twice.
  global_set.insert(global_set.end(), orphans.begin(), orphans.end());
  if (config_.mode == ManagerMode::kKMedian) {
    // Sec. V-A: planner row upkeep + the k-median solve are the
    // manage_kmedian sub-phase.
    {
      PhaseTimer timer(profile_.manage_kmedian_ns);
      kmedian_planner_->refresh();
    }
    const KMedianMigrationManager::Stats& stats = kmedian_manager_->stats();
    const std::uint64_t kmedian_before = stats.kmedian_ns;
    MigrationPlan plan;
    {
      PhaseTimer timer(profile_.manage_decision_ns);
      plan = kmedian_manager_->migrate(std::move(global_set));
    }
    profile_.manage_kmedian_ns += stats.kmedian_ns - kmedian_before;
    return plan;
  }
  CentralizedManager manager(deployment_, cost_model_, config_.sheriff);
  if (injector_ != nullptr) manager.set_liveness(&injector_->liveness());
  PhaseTimer timer(profile_.manage_decision_ns);
  return manager.migrate(std::move(global_set));
}

void DistributedEngine::account(const MigrationPlan& plan, std::span<const wl::VmId> orphans,
                                RoundMetrics& metrics) {
  metrics.migrations = plan.moves.size();
  metrics.migration_requests = plan.requests;
  metrics.migration_rejects = plan.rejects;
  metrics.migration_cost = plan.total_cost;
  metrics.search_space = plan.search_space;
  metrics.migration_seconds = plan.total_duration_seconds;
  metrics.migration_downtime_seconds = plan.total_downtime_seconds;
  for (const MigrationMove& move : plan.moves) {
    if (std::binary_search(orphans.begin(), orphans.end(), move.vm)) {
      ++metrics.recovery_migrations;
    }
    if (hub_ != nullptr) {
      hub_->trace().emit(obs::EventTrace::kEngine, obs::EventType::kMigrationCompleted,
                         move.vm, move.to, move.cost);
    }
  }
}

std::vector<ShimProposal> DistributedEngine::propose_all(
    std::span<const ShimCollectResult> collected) {
  // propose() is pure (no flow mutation, no trace emission, no tallies):
  // every shim sees the same manage-entry state, and the commit below is
  // the one place claims take effect.
  PhaseTimer timer(profile_.manage_shard_propose_ns.front());
  std::vector<ShimProposal> proposals(shims_.size());
  for (topo::RackId s = 0; s < shims_.size(); ++s) {
    if (managing_rack(s) == topo::kInvalidRack) continue;
    proposals[s] = shims_[s].propose(collected[s], deployment_, predicted_, flows_, flow_owner_,
                                     rack_flows_[s]);
  }
  return proposals;
}

std::vector<MigrationDemand> DistributedEngine::commit_proposals(
    std::span<ShimProposal> proposals, RoundMetrics& metrics) {
  // Apply, totally ordered by shim id: the one place the regional sweep
  // touches shared state. Both claim kinds commit first-claimant-wins —
  // each hot switch is rerouted once per round, and each VM migrates at
  // most once per round (one shim can claim a tenant twice: the host-alert
  // single-VM rule and the ToR budget pass may pick the same VM). Losing
  // claims are resolved as shard conflicts instead of re-applied.
  std::vector<bool> switch_claimed(topo_->node_count(), false);
  std::vector<bool> vm_claimed(deployment_.vm_count(), false);
  std::vector<MigrationDemand> demands;
  for (std::size_t s = 0; s < proposals.size(); ++s) {
    const topo::RackId mgr = managing_rack(static_cast<topo::RackId>(s));
    if (mgr == topo::kInvalidRack) continue;
    ShimProposal& proposal = proposals[s];
    metrics.host_alerts += proposal.host_alerts;
    metrics.tor_alerts += proposal.tor_alerts;
    metrics.switch_alerts += proposal.switch_alerts;
    shard_stats_.reroute_claims += proposal.reroute_claims.size();
    for (topo::NodeId hot : proposal.reroute_claims) {
      if (switch_claimed[hot]) {
        ++metrics.shard_conflicts;
        ++shard_stats_.reroute_conflicts;
        continue;
      }
      switch_claimed[hot] = true;
      ++shard_stats_.reroute_commits;
      metrics.reroutes += shims_[s].apply_reroute(hot, router_, flows_).rerouted;
    }
    shard_stats_.vm_claims += proposal.migration_set.size();
    std::vector<wl::VmId> migration_set;
    migration_set.reserve(proposal.migration_set.size());
    for (wl::VmId vm : proposal.migration_set) {
      if (vm_claimed[vm]) {
        ++metrics.shard_conflicts;
        ++shard_stats_.vm_conflicts;
        continue;
      }
      vm_claimed[vm] = true;
      ++shard_stats_.vm_commits;
      migration_set.push_back(vm);
    }
    if (migration_set.empty()) continue;
    ++shard_stats_.demands_by_rack[mgr];
    demands.push_back({mgr, std::move(migration_set), {}});
  }
  ++shard_stats_.sharded_rounds;
  return demands;
}

void DistributedEngine::publish_round(const RoundMetrics& metrics, const MigrationPlan& plan) {
  obs::MetricRegistry& registry = hub_->registry();
  registry.gauge("engine.rounds").set(static_cast<double>(round_));
  registry.counter("engine.migrations").add(metrics.migrations);
  registry.counter("engine.reroutes").add(metrics.reroutes);
  registry.counter("engine.host_alerts").add(metrics.host_alerts);
  registry.counter("engine.tor_alerts").add(metrics.tor_alerts);
  registry.counter("engine.switch_alerts").add(metrics.switch_alerts);
  registry.counter("engine.migration_requests").add(metrics.migration_requests);
  registry.counter("engine.migration_rejects").add(metrics.migration_rejects);
  registry.counter("engine.protocol_drops").add(metrics.protocol_drops);
  registry.counter("engine.protocol_retries").add(metrics.protocol_retries);
  registry.counter("engine.recovery_migrations").add(metrics.recovery_migrations);
  // Propose/commit bookkeeping (the names predate the serial propose loop).
  registry.counter("engine.shard_conflicts").add(metrics.shard_conflicts);
  registry.gauge("manage.sharded_rounds").set(static_cast<double>(shard_stats_.sharded_rounds));
  registry.gauge("manage.reroute_claims").set(static_cast<double>(shard_stats_.reroute_claims));
  registry.gauge("manage.reroute_commits").set(static_cast<double>(shard_stats_.reroute_commits));
  registry.gauge("manage.reroute_conflicts")
      .set(static_cast<double>(shard_stats_.reroute_conflicts));
  registry.gauge("engine.workload_stddev").set(metrics.workload_stddev_after);
  registry.gauge("engine.max_link_utilization").set(metrics.max_link_utilization);
  registry.gauge("engine.flow_satisfaction").set(metrics.flow_satisfaction);
  registry.gauge("engine.flow_fairness").set(metrics.flow_fairness);
  registry
      .histogram("engine.round_migration_cost", {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0})
      .observe(metrics.migration_cost);
  registry.gauge("trace.emitted").set(static_cast<double>(hub_->trace().total_emitted()));
  registry.gauge("trace.dropped").set(static_cast<double>(hub_->trace().total_dropped()));
  if (kmedian_manager_ != nullptr) {
    const KMedianMigrationManager::Stats& stats = kmedian_manager_->stats();
    registry.counter("kmedian.plans").add(stats.plans - published_kmedian_stats_.plans);
    registry.counter("kmedian.evaluations")
        .add(stats.evaluations - published_kmedian_stats_.evaluations);
    registry.counter("kmedian.cap_hits").add(stats.cap_hits - published_kmedian_stats_.cap_hits);
    registry.counter("kmedian.planner_rebuilds")
        .add(kmedian_planner_->rebuilds() - published_planner_rebuilds_);
    published_kmedian_stats_ = stats;
    published_planner_rebuilds_ = kmedian_planner_->rebuilds();
  }
  {
    // Per-round deltas of the decision-kernel counters. The pruning-
    // losslessness identity (evaluated + pruned == the pairs an exhaustive
    // sweep prices) is checked per sweep in tests.
    const mig::CostModelStats cost = cost_model_.stats();
    registry.counter("cost.evaluated").add(cost.evaluated - published_cost_stats_.evaluated);
    registry.counter("cost.pruned").add(cost.pruned - published_cost_stats_.pruned);
    registry.counter("cost.surface_builds")
        .add(cost.surface_builds - published_cost_stats_.surface_builds);
    published_cost_stats_ = cost;
  }
  solver_.publish_metrics(registry);
  router_.publish_metrics(registry);
  queues_.publish_metrics(registry);
  if (injector_ != nullptr) injector_->publish_metrics(registry);
  for (ShimController& shim : shims_) shim.publish_metrics(registry);

  if (hub_->auditor() != nullptr) {
    std::vector<obs::AuditedMove> moves;
    moves.reserve(plan.moves.size());
    for (const MigrationMove& move : plan.moves) {
      moves.push_back({move.vm, move.from, move.to, move.cost, move.duration_seconds,
                       move.downtime_seconds});
    }
    obs::InvariantAuditor::RoundInputs inputs;
    inputs.round = static_cast<std::uint32_t>(metrics.round);
    inputs.deployment = &deployment_;
    inputs.moves = moves;
    hub_->auditor()->audit_management(inputs);
  }
}

std::vector<RoundMetrics> DistributedEngine::run(std::size_t rounds) {
  std::vector<RoundMetrics> out;
  out.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) out.push_back(run_round());
  return out;
}

// --- checkpoint/restore (DESIGN.md §10) -------------------------------------

namespace {
// Section schema versions. Bump a section's version whenever its payload
// layout changes; a load rejects skew loudly in begin_section.
constexpr std::uint32_t kMetaVersion = 4;
constexpr std::uint32_t kDeploymentVersion = 1;
constexpr std::uint32_t kFlowVersion = 1;
constexpr std::uint32_t kFaultVersion = 1;
constexpr std::uint32_t kFairShareVersion = 3;
constexpr std::uint32_t kQueueVersion = 1;
constexpr std::uint32_t kPredictVersion = 1;
constexpr std::uint32_t kShimVersion = 1;
constexpr std::uint32_t kShardVersion = 1;
constexpr std::uint32_t kObsVersion = 1;
}  // namespace

void DistributedEngine::checkpoint(snapshot::Archive& ar) {
  // META: run position + a structural fingerprint so a checkpoint can only
  // be loaded into an engine built over the same inputs. The round lands
  // only after the whole fingerprint matched, before any other state.
  ar.begin_section("META", kMetaVersion);
  std::uint64_t round = round_;
  ar.u64(round);
  constexpr const char* kTopology = "checkpoint was taken over a different topology";
  ar.expect_u64(topo_->node_count(), kTopology);
  ar.expect_u64(topo_->link_count(), kTopology);
  ar.expect_u64(topo_->rack_count(), kTopology);
  ar.expect_u64(deployment_.vm_count(), "checkpoint was taken over a different VM population");
  ar.expect_u64(flows_.size(), "checkpoint was taken over a different flow table");
  constexpr const char* kConfig = "checkpoint was taken under a different engine configuration";
  ar.expect_u8(config_.mode, kConfig);
  ar.expect_u8(config_.protocol, kConfig);
  ar.expect_u8(config_.predictor, kConfig);
  constexpr const char* kSetup = "checkpoint was taken under a different fault/manager setup";
  ar.expect_bool(injector_ != nullptr, kSetup);
  ar.expect_bool(channel_ != nullptr, kSetup);
  ar.expect_bool(kmedian_manager_ != nullptr, kSetup);
  constexpr const char* kObs = "checkpoint was taken under a different observability setup";
  ar.expect_bool(hub_ != nullptr, kObs);
  ar.expect_bool(hub_ != nullptr && hub_->auditor() != nullptr, kObs);
  ar.end_section();
  round_ = round;

  ar.begin_section("DEPL", kDeploymentVersion);
  deployment_.checkpoint(ar);
  ar.end_section();

  // FLOW: the mutable half of the flow table. Ids, delay sensitivity, and
  // the owner/peer maps are constructor-derived from the dependency graph.
  ar.begin_section("FLOW", kFlowVersion);
  ar.expect_u64(flows_.size(), "corrupt flow section");
  const auto is_host = [&](topo::NodeId n) {
    return n < topo_->node_count() && topo_->node(n).kind == topo::NodeKind::kHost;
  };
  for (net::Flow& flow : flows_) {
    ar.u32(flow.src_host);
    ar.u32(flow.dst_host);
    ar.check(is_host(flow.src_host) && is_host(flow.dst_host),
             "checkpoint flow ends off this topology's hosts");
    ar.f64(flow.demand_gbps);
    ar.u8(flow.dscp);
    ar.u32v(flow.path);
    if (ar.loading()) {
      // Paths index per-node tables; each checked hop rebuilds the link id
      // the router wrote next to it (links are not serialized).
      flow.links.clear();
      for (std::size_t i = 0; i < flow.path.size(); ++i) {
        ar.check(flow.path[i] < topo_->node_count() &&
                     (i == 0 || topo_->adjacent(flow.path[i - 1], flow.path[i])),
                 "checkpoint flow path is not a path of this topology");
        if (i > 0) flow.links.push_back(topo_->link_between(flow.path[i - 1], flow.path[i]));
      }
    }
    ar.f64(flow.allocated_gbps);
    ar.f64(flow.rate_limit_gbps);
  }
  ar.end_section();

  // FALT: only the lossy channel's stream state travels in the archive —
  // the injector itself is reconstructed by replaying its (deterministic)
  // plan up to the saved round at load time.
  ar.begin_section("FALT", kFaultVersion);
  ar.expect_bool(channel_ != nullptr, "corrupt fault section");
  if (channel_ != nullptr) {
    fault::LossyChannel::State s = channel_->state();
    snapshot::checkpoint_rng(ar, s.rng);
    ar.u64(s.drops);
    if (ar.loading()) channel_->restore(s);
  }
  ar.end_section();
  if (ar.loading() && injector_ != nullptr) {
    // Replay the plan up to the saved round with the trace detached: the
    // LivenessMask (version counter included) and shim availability land
    // exactly where the saved run left them, without duplicate trace
    // events — the OBSR restore below carries the authoritative rings.
    injector_->set_trace(nullptr);
    for (std::size_t r = 0; r < round_; ++r) (void)injector_->advance(r);
    if (hub_ != nullptr) injector_->set_trace(&hub_->trace());
    router_.refresh_liveness();
    recompute_takeovers();
  }

  ar.begin_section("FAIR", kFairShareVersion);
  solver_.checkpoint(ar);
  ar.end_section();

  ar.begin_section("QUEU", kQueueVersion);
  queues_.checkpoint(ar);
  rate_controller_.checkpoint(ar);
  ar.end_section();

  ar.begin_section("PRED", kPredictVersion);
  ar.expect_u64(predictors_.size(), "corrupt predictor section");
  for (const auto& predictor : predictors_) predictor->checkpoint(ar);
  ar.expect_u64(predicted_.size(), "corrupt predictor section");
  for (wl::WorkloadProfile& profile : predicted_) {
    for (double& v : profile.values) ar.f64(v);
  }
  ar.expect_u64(tor_utilization_predictors_.size(), "corrupt ToR predictor section");
  for (HoltScalar& s : tor_utilization_predictors_) s.checkpoint(ar);
  for (HoltScalar& s : tor_queue_predictors_) s.checkpoint(ar);
  ar.end_section();

  ar.begin_section("SHIM", kShimVersion);
  ar.expect_u64(shims_.size(), "corrupt shim section");
  for (ShimController& shim : shims_) shim.checkpoint(ar);
  ar.end_section();

  // SHRD: propose/commit bookkeeping (ManageShardStats).
  ar.begin_section("SHRD", kShardVersion);
  ar.u64(shard_stats_.sharded_rounds);
  ar.u64(shard_stats_.reroute_claims);
  ar.u64(shard_stats_.reroute_commits);
  ar.u64(shard_stats_.reroute_conflicts);
  ar.u64(shard_stats_.vm_claims);
  ar.u64(shard_stats_.vm_commits);
  ar.u64(shard_stats_.vm_conflicts);
  ar.u64v(shard_stats_.demands_by_rack);
  ar.check(shard_stats_.demands_by_rack.size() == topo_->rack_count(), "corrupt shard section");
  ar.end_section();

  // OBSR: registry contents, trace rings, auditor tallies. Saved last and
  // restored last, so anything load-time replay emits is overwritten.
  ar.begin_section("OBSR", kObsVersion);
  ar.expect_bool(hub_ != nullptr, "corrupt observability section");
  if (hub_ != nullptr) hub_->checkpoint(ar);
  ar.end_section();

  if (ar.loading()) {
    // Delta-published k-median counters: re-baseline against the fresh
    // planner/manager so the next publish adds only post-resume activity.
    // (The fresh planner's construction rebuild makes
    // kmedian.planner_rebuilds the one registry counter that may run +1
    // ahead after a resume.)
    if (kmedian_manager_ != nullptr) {
      published_kmedian_stats_ = kmedian_manager_->stats();
      published_planner_rebuilds_ = kmedian_planner_->rebuilds();
    }
    // Same re-baseline for the decision-kernel counters (the cost model's
    // counters are process-local, never serialized).
    published_cost_stats_ = cost_model_.stats();
  }
}

}  // namespace sheriff::core

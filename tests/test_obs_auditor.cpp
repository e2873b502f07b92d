// End-to-end invariant-auditor sweep (the lockdown for src/obs/): the
// engine runs with the auditor on across pristine and faulted scenarios,
// on Fat-Tree and BCube fabrics, and every round must close with zero
// invariant violations. The second half feeds the auditor deliberately
// corrupted round state and proves each check actually fires.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "fault/fault_plan.hpp"
#include "net/fair_share.hpp"
#include "net/routing.hpp"
#include "obs/auditor.hpp"
#include "obs/hub.hpp"
#include "oracles/fair_share.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"

namespace core = sheriff::core;
namespace fault = sheriff::fault;
namespace net = sheriff::net;
namespace obs = sheriff::obs;
namespace topo = sheriff::topo;
namespace wl = sheriff::wl;
namespace sc = sheriff::common;
namespace oracle = sheriff::oracle;

namespace {

constexpr std::size_t kLongRun = 200;

const topo::Topology& fat_tree() {
  static const topo::Topology t = [] {
    topo::FatTreeOptions options;
    options.pods = 4;
    options.hosts_per_rack = 3;
    return topo::build_fat_tree(options);
  }();
  return t;
}

const topo::Topology& bcube() {
  static const topo::Topology t = [] {
    topo::BCubeOptions options;
    options.ports = 4;
    options.levels = 1;
    return topo::build_bcube(options);
  }();
  return t;
}

wl::DeploymentOptions deployment_options(std::uint64_t seed = 42) {
  wl::DeploymentOptions options;
  options.seed = seed;
  return options;
}

core::EngineConfig audited_config() {
  core::EngineConfig config;
  config.audit = true;  // implies observe
  return config;
}

fault::FaultPlan faulted_plan(const topo::Topology& t) {
  fault::FaultOptions options;
  options.seed = 7;
  options.message_drop_probability = 0.05;
  auto plan = fault::FaultPlan::random_link_flaps(t, options, 3, 5, 120, 8);
  plan.fail_shim(1, 10, 30);
  plan.fail_shim(2, 60, 0);  // permanent shim loss
  plan.set_options(options);
  return plan;
}

/// Runs `rounds` audited rounds and returns the engine for inspection;
/// asserts zero violations (dumping the retained messages on failure).
void expect_clean_run(const topo::Topology& t, core::EngineConfig config, std::size_t rounds,
                      std::uint64_t seed = 42) {
  core::DistributedEngine engine(t, deployment_options(seed), config);
  engine.run(rounds);
  ASSERT_NE(engine.observation_hub(), nullptr);
  const obs::InvariantAuditor& auditor = *engine.observation_hub()->auditor();
  EXPECT_EQ(auditor.rounds_audited(), rounds);
  EXPECT_EQ(auditor.violation_count(), 0u) << [&] {
    std::string all;
    for (const auto& m : auditor.messages()) all += m + "\n";
    return all;
  }();
}

}  // namespace

// --- S1: auditor-on end-to-end runs ---------------------------------------

TEST(AuditorE2E, FatTreePristineSequential) {
  expect_clean_run(fat_tree(), audited_config(), kLongRun);
}

// The *Pool8 runs attach an 8-thread pool, which the engine never reads:
// they are serial audited runs like the others.
TEST(AuditorE2E, FatTreePristinePool8) {
  sc::ThreadPool pool(8);
  auto config = audited_config();
  config.pool = &pool;
  expect_clean_run(fat_tree(), config, kLongRun);
}

TEST(AuditorE2E, FatTreeFaultedSequential) {
  const auto plan = faulted_plan(fat_tree());
  auto config = audited_config();
  config.fault_plan = &plan;
  expect_clean_run(fat_tree(), config, kLongRun);
}

TEST(AuditorE2E, FatTreeFaultedPool8) {
  sc::ThreadPool pool(8);
  const auto plan = faulted_plan(fat_tree());
  auto config = audited_config();
  config.fault_plan = &plan;
  config.pool = &pool;
  expect_clean_run(fat_tree(), config, kLongRun);
}

TEST(AuditorE2E, BCubePristineSequential) {
  expect_clean_run(bcube(), audited_config(), kLongRun, 11);
}

TEST(AuditorE2E, BCubeFaultedPool8) {
  sc::ThreadPool pool(8);
  // BCube(4,1) has no switch-to-switch links, so random_link_flaps does not
  // apply — fail concrete links, one level switch, and a shim instead.
  const topo::Topology& t = bcube();
  fault::FaultOptions options;
  options.seed = 7;
  options.message_drop_probability = 0.05;
  fault::FaultPlan plan;
  plan.fail_link(0, 5, 40);
  plan.fail_link(t.link_count() - 1, 20, 60);
  plan.fail_switch(t.nodes_of_kind(topo::NodeKind::kBCubeSwitch).front(), 30, 80);
  plan.fail_shim(1, 10, 30);
  plan.set_options(options);
  auto config = audited_config();
  config.fault_plan = &plan;
  config.pool = &pool;
  expect_clean_run(t, config, kLongRun, 11);
}

TEST(AuditorE2E, CentralizedManagerIsAlsoClean) {
  auto config = audited_config();
  config.mode = core::ManagerMode::kCentralized;
  expect_clean_run(fat_tree(), config, 60);
}

TEST(AuditorE2E, SerializedFcfsProtocolIsAlsoClean) {
  auto config = audited_config();
  config.protocol = core::MigrationProtocol::kSerializedFcfs;
  expect_clean_run(fat_tree(), config, 60);
}

TEST(AuditorE2E, FailFastCleanRunDoesNotThrow) {
  const auto plan = faulted_plan(fat_tree());
  auto config = audited_config();
  config.fault_plan = &plan;
  config.audit_fail_fast = true;
  EXPECT_NO_THROW({
    core::DistributedEngine engine(fat_tree(), deployment_options(), config);
    engine.run(50);
  });
}

TEST(AuditorE2E, AuditRefinementsWithoutAuditAreRejected) {
  // audit_fail_fast without `audit` would be silently ignored, so the
  // engine refuses the config (SHERIFF_FORCE_AUDIT applies only after the
  // caller's config passed).
  core::EngineConfig fail_fast;
  fail_fast.audit_fail_fast = true;
  EXPECT_THROW(core::DistributedEngine(fat_tree(), deployment_options(), fail_fast),
               sc::RequirementError);
}

TEST(AuditorE2E, KMedianSettingsOutsideKMedianModeAreRejected) {
  // A k-median field set in another mode would be silently ignored, so the
  // engine refuses the config (before SHERIFF_FORCE_AUDIT applies).
  core::EngineConfig racks;
  racks.kmedian_destination_racks = 3;
  EXPECT_THROW(core::DistributedEngine(fat_tree(), deployment_options(), racks),
               sc::RequirementError);
  core::EngineConfig swap;
  swap.mode = core::ManagerMode::kCentralized;
  swap.kmedian_swap_p = 3;
  EXPECT_THROW(core::DistributedEngine(fat_tree(), deployment_options(), swap),
               sc::RequirementError);
  core::EngineConfig cap;
  cap.kmedian_max_evaluations = 1500;
  EXPECT_THROW(core::DistributedEngine(fat_tree(), deployment_options(), cap),
               sc::RequirementError);
  cap.mode = core::ManagerMode::kKMedian;
  EXPECT_NO_THROW(core::DistributedEngine(fat_tree(), deployment_options(), cap));
}

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// One numeric config field's domain: every out-of-domain value must be
/// refused at construction (before SHERIFF_FORCE_AUDIT applies), and the
/// in-domain boundary value accepted, on each base config of the row.
struct DomainRow {
  const char* field;
  std::function<void(core::EngineConfig&, double)> set;
  std::vector<double> rejected;
  double boundary;
  std::vector<core::EngineConfig> bases{core::EngineConfig{}};
};

void expect_domain(const DomainRow& row) {
  for (const core::EngineConfig& base : row.bases) {
    for (const double value : row.rejected) {
      core::EngineConfig config = base;
      row.set(config, value);
      EXPECT_THROW(core::DistributedEngine(fat_tree(), deployment_options(), config),
                   sc::RequirementError)
          << row.field << " = " << value;
    }
    core::EngineConfig config = base;
    row.set(config, row.boundary);
    EXPECT_NO_THROW(core::DistributedEngine(fat_tree(), deployment_options(), config))
        << row.field << " = " << row.boundary;
  }
}

/// The documented domains (config.hpp, CostParams, EngineConfig) of the
/// fields that the four per-field tests below do not cover.
std::vector<DomainRow> config_domain_rows() {
  core::EngineConfig observed;
  observed.observe = true;
  return {
      // AlertScheme refused a bad THRESHOLD only at the first collect.
      {"sheriff.vm_alert_threshold", [](auto& c, double v) { c.sheriff.vm_alert_threshold = v; },
       {0.0, -0.5, 1.01, kNaN, kInf}, 1.0},
      // A NaN overload level silently turned absolute host alerts off.
      {"sheriff.host_overload_percent",
       [](auto& c, double v) { c.sheriff.host_overload_percent = v; }, {kNaN, -1.0}, 0.0},
      {"sheriff.hotspot_factor", [](auto& c, double v) { c.sheriff.hotspot_factor = v; },
       {kNaN, -1.0}, 0.0},
      {"sheriff.hotspot_floor_percent",
       [](auto& c, double v) { c.sheriff.hotspot_floor_percent = v; }, {kNaN, -1.0}, 0.0},
      {"sheriff.receiver_max_load_percent",
       [](auto& c, double v) { c.sheriff.receiver_max_load_percent = v; }, {kNaN, -1.0}, 0.0},
      {"sheriff.tor_utilization_threshold",
       [](auto& c, double v) { c.sheriff.tor_utilization_threshold = v; }, {kNaN, -0.1}, 0.0},
      // A NaN α or β reached static_cast<int>(floor(...)) at the first
      // switch or ToR alert: undefined behaviour.
      {"sheriff.alpha", [](auto& c, double v) { c.sheriff.alpha = v; },
       {kNaN, -0.1, 1.5, kInf}, 0.0},
      {"sheriff.beta", [](auto& c, double v) { c.sheriff.beta = v; }, {kNaN, -1.0, 1.5, kInf},
       1.0},
      // A zero switch capacity silently turned FLOWREROUTE off.
      {"sheriff.switch_capacity_units",
       [](auto& c, double v) { c.sheriff.switch_capacity_units = static_cast<int>(v); },
       {0.0, -5.0}, 1.0},
      {"sheriff.tor_capacity_units",
       [](auto& c, double v) { c.sheriff.tor_capacity_units = static_cast<int>(v); },
       {0.0, -5.0}, 1.0},
      // The trace silently clamped a zero ring to one record.
      {"trace_capacity_per_shim",
       [](auto& c, double v) { c.trace_capacity_per_shim = static_cast<std::size_t>(v); }, {0.0},
       1.0, {observed}},
      // Eq. (1)'s parameters, checked by the cost model's constructor.
      {"sheriff.cost.computing_cost", [](auto& c, double v) { c.sheriff.cost.computing_cost = v; },
       {-1.0, kNaN, kInf}, 0.0},
      {"sheriff.cost.unit_distance_cost",
       [](auto& c, double v) { c.sheriff.cost.unit_distance_cost = v; }, {-1.0, kNaN, kInf},
       0.0},
      {"sheriff.cost.delta", [](auto& c, double v) { c.sheriff.cost.delta = v; },
       {-1.0, kNaN, kInf}, 0.0},
      {"sheriff.cost.eta", [](auto& c, double v) { c.sheriff.cost.eta = v; },
       {-1.0, kNaN, kInf}, 0.0},
      {"sheriff.cost.bandwidth_threshold_gbps",
       [](auto& c, double v) { c.sheriff.cost.bandwidth_threshold_gbps = v; },
       {-0.01, kNaN, kInf}, 0.0},
      {"sheriff.cost.request_gbps", [](auto& c, double v) { c.sheriff.cost.request_gbps = v; },
       {0.0, -1.0, kNaN}, std::numeric_limits<double>::min()},
      {"sheriff.cost.management_reserve_fraction",
       [](auto& c, double v) { c.sheriff.cost.management_reserve_fraction = v; },
       {-0.1, 1.5, kNaN}, 1.0},
  };
}

}  // namespace

TEST(AuditorE2E, BadDemandScaleIsRejected) {
  // A negative scale offers no flow, so QoS would report full satisfaction
  // for a fabric that carries nothing; NaN or inf lifts every rate limit.
  // An idle fabric is a valid study.
  expect_domain({"flow_demand_scale_gbps", [](auto& c, double v) { c.flow_demand_scale_gbps = v; },
                 {-0.4, -std::numeric_limits<double>::min(), kNaN, kInf}, 0.0});
}

TEST(AuditorE2E, BadRerouteFractionIsRejected) {
  // FLOWREROUTE moves ceil(fraction × candidates) flows. Outside (0, 1]
  // the rerouter would throw only when the first reroute claim commits,
  // late in a run or never.
  expect_domain({"sheriff.reroute_fraction",
                 [](auto& c, double v) { c.sheriff.reroute_fraction = v; },
                 {0.0, -0.5, 1.5, kNaN, kInf}, 1.0});
}

TEST(AuditorE2E, ZeroMatchingRoundsAreRejected) {
  // With no Alg. 3 round the message-passing protocol silently issued no
  // migration request at all, while FCFS and the centralized manager threw
  // only at their first demand.
  std::vector<core::EngineConfig> protocols_and_modes;
  for (const auto protocol :
       {core::MigrationProtocol::kMessagePassing, core::MigrationProtocol::kSerializedFcfs}) {
    for (const auto mode : {core::ManagerMode::kSheriff, core::ManagerMode::kCentralized}) {
      core::EngineConfig config;
      config.protocol = protocol;
      config.mode = mode;
      protocols_and_modes.push_back(config);
    }
  }
  expect_domain({"sheriff.max_matching_rounds",
                 [](auto& c, double v) {
                   c.sheriff.max_matching_rounds = static_cast<std::size_t>(v);
                 },
                 {0.0}, 1.0, protocols_and_modes});
}

TEST(AuditorE2E, ZeroPredictionHorizonIsRejected) {
  // A zero horizon made Holt "predict" the current sample, so the
  // pre-alert was silently off, and made the ensemble throw after its
  // first fit.
  std::vector<core::EngineConfig> predictors;
  for (const auto predictor :
       {core::PredictorKind::kHolt, core::PredictorKind::kEnsemble, core::PredictorKind::kNaive}) {
    core::EngineConfig config;
    config.predictor = predictor;
    predictors.push_back(config);
  }
  expect_domain({"sheriff.prediction_horizon",
                 [](auto& c, double v) {
                   c.sheriff.prediction_horizon = static_cast<std::size_t>(v);
                 },
                 {0.0}, 1.0, predictors});
}

TEST(AuditorE2E, OutOfDomainConfigValuesAreRejected) {
  for (const DomainRow& row : config_domain_rows()) expect_domain(row);
}

TEST(AuditorE2E, MetricsAndTraceAgreeWithRoundMetrics) {
  const auto plan = faulted_plan(fat_tree());
  auto config = audited_config();
  config.fault_plan = &plan;
  core::DistributedEngine engine(fat_tree(), deployment_options(), config);
  const auto rounds = engine.run(100);

  const obs::ObservationHub& hub = *engine.observation_hub();
  const auto sum = [&rounds](auto pick) {
    return std::accumulate(rounds.begin(), rounds.end(), std::uint64_t{0},
                           [&pick](std::uint64_t acc, const core::RoundMetrics& m) {
                             return acc + static_cast<std::uint64_t>(pick(m));
                           });
  };

  const obs::Counter* migrations = hub.registry().find_counter("engine.migrations");
  ASSERT_NE(migrations, nullptr);
  EXPECT_EQ(migrations->value(), sum([](const auto& m) { return m.migrations; }));

  const obs::Counter* reroutes = hub.registry().find_counter("engine.reroutes");
  ASSERT_NE(reroutes, nullptr);
  EXPECT_EQ(reroutes->value(), sum([](const auto& m) { return m.reroutes; }));

  const obs::Counter* drops = hub.registry().find_counter("engine.protocol_drops");
  ASSERT_NE(drops, nullptr);
  EXPECT_EQ(drops->value(), sum([](const auto& m) { return m.protocol_drops; }));

  const obs::Gauge* audited = hub.registry().find_gauge("auditor.rounds");
  ASSERT_NE(audited, nullptr);
  EXPECT_DOUBLE_EQ(audited->value(), 100.0);

  // The fault plan fired, so the trace must hold FaultInjected events, and
  // the plan's shim failures must have produced takeovers.
  bool saw_fault = false;
  bool saw_takeover = false;
  for (const auto& r : hub.trace().snapshot()) {
    saw_fault |= r.type == obs::EventType::kFaultInjected;
    saw_takeover |= r.type == obs::EventType::kShimTakeover;
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_takeover);
}

// --- negative tests: the auditor detects corrupted state -------------------

namespace {

/// A small self-consistent network state: a few routed flows with their
/// true max–min allocation, plus a fresh deployment.
struct AuditFixture {
  explicit AuditFixture(const topo::Topology& t)
      : topology(&t), deployment(t, deployment_options()), router(t) {
    const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
    const std::size_t half = hosts.size() / 2;
    for (std::uint32_t i = 0; i < 6 && i < half; ++i) {
      net::Flow flow;
      flow.id = i;
      flow.src_host = hosts[i];
      flow.dst_host = hosts[i + half];
      flow.demand_gbps = 0.4;
      SHERIFF_REQUIRE(router.route(flow), "fixture flow must be routable");
      flows.push_back(std::move(flow));
    }
    shares = oracle::max_min_fair_share(t, flows, nullptr);
  }

  [[nodiscard]] obs::InvariantAuditor::RoundInputs inputs() const {
    obs::InvariantAuditor::RoundInputs in;
    in.round = 1;
    in.deployment = &deployment;
    in.flows = flows;
    in.shares = &shares;
    return in;
  }

  const topo::Topology* topology;
  wl::Deployment deployment;
  net::Router router;
  std::vector<net::Flow> flows;
  net::FairShareResult shares;
};

}  // namespace

TEST(AuditorDetects, ConsistentFixtureIsClean) {
  AuditFixture fx(fat_tree());
  obs::InvariantAuditor auditor;
  auditor.audit_round(fx.inputs());
  EXPECT_EQ(auditor.violation_count(), 0u) << (auditor.messages().empty()
                                                   ? ""
                                                   : auditor.messages().front());
}

TEST(AuditorDetects, InflatedFlowRate) {
  AuditFixture fx(fat_tree());
  fx.shares.flow_rate[0] = 1e6;  // beyond demand and every link capacity
  obs::InvariantAuditor auditor;
  auditor.audit_network(fx.inputs());
  // check 1 (demand + per-link capacity) and check 2 (link conservation)
  EXPECT_GE(auditor.violation_count(), 3u);
  ASSERT_FALSE(auditor.messages().empty());
  EXPECT_NE(auditor.messages().front().find("[check 1]"), std::string::npos);
}

TEST(AuditorDetects, NegativeFlowRate) {
  AuditFixture fx(fat_tree());
  fx.shares.flow_rate[1] = -0.5;
  obs::InvariantAuditor auditor;
  auditor.audit_network(fx.inputs());
  EXPECT_GE(auditor.violation_count(), 1u);
}

TEST(AuditorDetects, MismatchedResultVectors) {
  AuditFixture fx(fat_tree());
  fx.shares.flow_rate.pop_back();
  obs::InvariantAuditor auditor;
  auditor.audit_network(fx.inputs());
  EXPECT_EQ(auditor.violation_count(), 1u);
  EXPECT_NE(auditor.messages().front().find("[check 2]"), std::string::npos);
}

TEST(AuditorDetects, LinkLoadDisagreement) {
  AuditFixture fx(fat_tree());
  // Claim load on a link no flow crosses; conservation (check 2) must trip.
  fx.shares.link_load_gbps.back() += 0.25;
  obs::InvariantAuditor auditor;
  auditor.audit_network(fx.inputs());
  EXPECT_GE(auditor.violation_count(), 1u);
}

TEST(AuditorDetects, CorruptMigrationMoves) {
  AuditFixture fx(fat_tree());
  const auto hosts = fx.topology->nodes_of_kind(topo::NodeKind::kHost);
  std::vector<obs::AuditedMove> moves(4);
  moves[0] = {0, hosts[0], hosts[1], -1.0, 1.0, 0.1};      // negative cost
  moves[1] = {1, hosts[0], hosts[0], 1.0, 1.0, 0.1};       // self-move
  moves[2] = {2, hosts[0], hosts[1], 1.0, 0.05, 0.2};      // downtime > duration
  moves[3] = {3, hosts[0], fx.topology->nodes_of_kind(topo::NodeKind::kTorSwitch)[0], 1.0, 1.0,
              0.1};                                        // target is a switch
  auto in = fx.inputs();
  in.moves = moves;
  obs::InvariantAuditor auditor;
  auditor.audit_management(in);
  // Check 4 trips once per corrupt move; the moves also disagree with the
  // fixture's actual placement, so check 8 piles on top — count per check.
  std::size_t check4 = 0;
  for (const std::string& m : auditor.messages()) {
    if (m.find("[check 4]") != std::string::npos) ++check4;
  }
  EXPECT_EQ(check4, 4u);
  EXPECT_GE(auditor.violation_count(), 4u);
}

// Check 8: a VM committed by two shims in one round (a failed cross-shard
// claim resolution) and a destination overfed beyond its headroom must
// both trip, while a move list matching the actual placement stays clean.
TEST(AuditorDetects, ShardCommitDoubleMoveAndOverfedHost) {
  AuditFixture fx(fat_tree());
  const auto hosts = fx.topology->nodes_of_kind(topo::NodeKind::kHost);
  const auto count_check8 = [](const obs::InvariantAuditor& auditor) {
    std::size_t n = 0;
    for (const std::string& m : auditor.messages()) {
      if (m.find("[check 8]") != std::string::npos) ++n;
    }
    return n;
  };

  // A clean commit: one VM, reported exactly where the deployment has it.
  {
    const wl::VmId vm = fx.deployment.vms_on_host(hosts[0]).front();
    std::vector<obs::AuditedMove> moves{
        {vm, hosts[1], fx.deployment.vm(vm).host, 1.0, 1.0, 0.1}};
    auto in = fx.inputs();
    in.moves = moves;
    obs::InvariantAuditor auditor;
    auditor.audit_management(in);
    EXPECT_EQ(count_check8(auditor), 0u)
        << (auditor.messages().empty() ? "" : auditor.messages().front());
  }

  // The same VM committed twice — exclusivity must trip exactly once.
  {
    const wl::VmId vm = fx.deployment.vms_on_host(hosts[0]).front();
    const topo::NodeId home = fx.deployment.vm(vm).host;
    std::vector<obs::AuditedMove> moves{{vm, hosts[1], home, 1.0, 1.0, 0.1},
                                        {vm, hosts[2], home, 1.0, 1.0, 0.1}};
    auto in = fx.inputs();
    in.moves = moves;
    obs::InvariantAuditor auditor;
    auditor.audit_management(in);
    EXPECT_EQ(count_check8(auditor), 1u);
    EXPECT_NE(auditor.messages().front().find("more than one shim"), std::string::npos);
  }

  // Incoming capacity beyond what the destination could ever hold: feed
  // one host more VMs than host_capacity admits in a single round.
  {
    std::vector<obs::AuditedMove> moves;
    int fed = 0;
    for (topo::NodeId h : hosts) {
      if (h == hosts[0]) continue;
      for (wl::VmId vm : fx.deployment.vms_on_host(h)) {
        moves.push_back({vm, h, hosts[0], 1.0, 1.0, 0.1});
        fed += fx.deployment.vm(vm).capacity;
      }
      if (fed > fx.deployment.host_capacity()) break;
    }
    ASSERT_GT(fed, fx.deployment.host_capacity());
    auto in = fx.inputs();
    in.moves = moves;
    obs::InvariantAuditor auditor;
    auditor.audit_management(in);
    EXPECT_GE(count_check8(auditor), 1u);
    bool saw_headroom = false;
    for (const std::string& m : auditor.messages()) {
      saw_headroom |= m.find("more than it can hold") != std::string::npos;
    }
    EXPECT_TRUE(saw_headroom);
  }
}

TEST(AuditorDetects, FailFastThrowsOnFirstViolation) {
  AuditFixture fx(fat_tree());
  fx.shares.flow_rate[0] = 1e6;
  obs::AuditOptions options;
  options.fail_fast = true;
  obs::InvariantAuditor auditor(options);
  EXPECT_THROW(auditor.audit_network(fx.inputs()), sc::RequirementError);
  EXPECT_EQ(auditor.violation_count(), 1u);  // stopped at the first
}

TEST(AuditorDetects, MessageRetentionIsCappedButCountIsNot) {
  AuditFixture fx(fat_tree());
  for (double& rate : fx.shares.flow_rate) rate = 1e6;  // many violations
  obs::AuditOptions options;
  options.max_messages = 2;
  obs::InvariantAuditor auditor(options);
  auditor.audit_network(fx.inputs());
  EXPECT_EQ(auditor.messages().size(), 2u);
  EXPECT_GT(auditor.violation_count(), 2u);
}

TEST(AuditorDetects, ViolationsReachTraceAndRegistry) {
  AuditFixture fx(fat_tree());
  fx.shares.flow_rate[0] = 1e6;
  obs::EventTrace trace(1, 64);
  obs::MetricRegistry registry;
  obs::InvariantAuditor auditor;
  auditor.attach(&trace, &registry);
  auditor.audit_network(fx.inputs());
  ASSERT_GE(auditor.violation_count(), 1u);

  const obs::Counter* counter = registry.find_counter("auditor.violations");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), auditor.violation_count());

  std::size_t traced = 0;
  for (const auto& r : trace.snapshot()) {
    if (r.type == obs::EventType::kInvariantViolation) {
      ++traced;
      EXPECT_EQ(r.shim, obs::EventTrace::kEngine);
      EXPECT_GE(r.a, 1u);  // check id
      EXPECT_LE(r.a, 7u);
    }
  }
  EXPECT_EQ(traced, auditor.violation_count());
}

// Fault subsystem tests: plan ordering/dedup, liveness-aware routing,
// injector semantics, shim takeover, lossy-protocol convergence, replay
// determinism, and orphan recovery after host/ToR failures.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/lossy_channel.hpp"
#include "net/routing.hpp"
#include "topology/fat_tree.hpp"

namespace core = sheriff::core;
namespace fault = sheriff::fault;
namespace net = sheriff::net;
namespace topo = sheriff::topo;
namespace wl = sheriff::wl;

namespace {

const topo::Topology& fat_tree() {
  static const topo::Topology t = [] {
    topo::FatTreeOptions options;
    options.pods = 4;
    options.hosts_per_rack = 3;
    return topo::build_fat_tree(options);
  }();
  return t;
}

wl::DeploymentOptions deployment_options(std::uint64_t seed = 42) {
  wl::DeploymentOptions options;
  options.seed = seed;
  options.vms_per_host = 3.0;
  return options;
}

std::string csv_of(std::span<const core::RoundMetrics> rounds) {
  std::ostringstream os;
  core::write_metrics_csv(os, rounds);
  return os.str();
}

}  // namespace

// --- FaultPlan -------------------------------------------------------------

TEST(FaultPlan, EventsSortedAndDeduped) {
  fault::FaultPlan plan;
  plan.add(5, fault::FaultKind::kLinkDown, 3)
      .add(1, fault::FaultKind::kSwitchDown, 2)
      .add(5, fault::FaultKind::kLinkDown, 3)  // duplicate, dropped
      .add(1, fault::FaultKind::kLinkDown, 7);
  ASSERT_EQ(plan.size(), 3u);
  const auto events = plan.events();
  EXPECT_EQ(events[0].round, 1u);
  EXPECT_EQ(events[0].kind, fault::FaultKind::kLinkDown);
  EXPECT_EQ(events[0].target, 7u);
  EXPECT_EQ(events[1].kind, fault::FaultKind::kSwitchDown);
  EXPECT_EQ(events[2].round, 5u);
  EXPECT_EQ(plan.due(1).size(), 2u);
  EXPECT_EQ(plan.due(5).size(), 1u);
  EXPECT_TRUE(plan.due(2).empty());
  EXPECT_TRUE(plan.due(99).empty());
  EXPECT_EQ(plan.horizon(), 5u);
}

TEST(FaultPlan, FailHelpersEmitRecoveryPairs) {
  fault::FaultPlan plan;
  plan.fail_switch(4, 2, 6);
  plan.fail_host(9, 3);      // permanent: no up event
  plan.fail_host(9, 3, 1);   // up_round <= down_round: still permanent
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.due(2).front().kind, fault::FaultKind::kSwitchDown);
  EXPECT_EQ(plan.due(6).front().kind, fault::FaultKind::kSwitchUp);
  EXPECT_EQ(plan.due(3).front().kind, fault::FaultKind::kHostDown);
  EXPECT_EQ(plan.horizon(), 6u);
}

TEST(FaultPlan, RandomLinkFlapsAreFabricOnlyAndInRange) {
  const auto& t = fat_tree();
  fault::FaultOptions options;
  options.seed = 7;
  const auto plan = fault::FaultPlan::random_link_flaps(t, options, 5, 2, 10, 2);
  EXPECT_EQ(plan.size(), 10u);  // 5 down + 5 up
  for (const auto& e : plan.events()) {
    ASSERT_TRUE(e.kind == fault::FaultKind::kLinkDown || e.kind == fault::FaultKind::kLinkUp);
    const auto& link = t.link(static_cast<topo::LinkId>(e.target));
    EXPECT_NE(t.node(link.a).kind, topo::NodeKind::kHost);
    EXPECT_NE(t.node(link.b).kind, topo::NodeKind::kHost);
    if (e.kind == fault::FaultKind::kLinkDown) {
      EXPECT_GE(e.round, 2u);
      EXPECT_LT(e.round, 10u);
    }
  }
  // Same seed replays the same schedule.
  const auto replay = fault::FaultPlan::random_link_flaps(t, options, 5, 2, 10, 2);
  ASSERT_EQ(replay.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(replay.events()[i], plan.events()[i]);
  }
}

// --- LossyChannel ----------------------------------------------------------

TEST(LossyChannel, DropRateTracksProbability) {
  fault::LossyChannel reliable(0.0, 1);
  EXPECT_TRUE(reliable.lossless());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(reliable.deliver());

  fault::LossyChannel lossy(0.3, 1);
  EXPECT_FALSE(lossy.lossless());
  std::size_t delivered = 0;
  for (int i = 0; i < 1000; ++i) delivered += lossy.deliver() ? 1 : 0;
  EXPECT_EQ(lossy.drops(), 1000u - delivered);
  EXPECT_GT(delivered, 600u);
  EXPECT_LT(delivered, 800u);
}

// --- FaultInjector ---------------------------------------------------------

TEST(FaultInjector, TorDeathTakesShimDownAndRecovers) {
  const auto& t = fat_tree();
  fault::FaultPlan plan;
  plan.fail_switch(t.rack(2).tor, 1, 3);
  fault::FaultInjector injector(t, plan);

  auto report = injector.advance(0);
  EXPECT_FALSE(report.fabric_changed);
  EXPECT_FALSE(injector.shim_down(2));

  report = injector.advance(1);
  EXPECT_TRUE(report.fabric_changed);
  EXPECT_TRUE(report.shims_changed);
  EXPECT_TRUE(injector.shim_down(2));
  EXPECT_EQ(injector.failed_switch_count(), 1u);
  EXPECT_GT(injector.failed_link_count(), 0u);  // the ToR's links are severed

  report = injector.advance(2);
  EXPECT_FALSE(report.fabric_changed);

  report = injector.advance(3);
  EXPECT_TRUE(report.fabric_changed);
  EXPECT_FALSE(injector.shim_down(2));
  EXPECT_EQ(injector.failed_switch_count(), 0u);
  EXPECT_EQ(injector.failed_link_count(), 0u);
}

TEST(FaultInjector, ExplicitShimCrashOutlivesTorRecovery) {
  const auto& t = fat_tree();
  fault::FaultPlan plan;
  plan.fail_shim(2, 1, 5);
  plan.fail_switch(t.rack(2).tor, 1, 2);
  fault::FaultInjector injector(t, plan);
  injector.advance(0);
  injector.advance(1);
  EXPECT_TRUE(injector.shim_down(2));
  injector.advance(2);  // ToR back, but the shim process is still dead
  EXPECT_TRUE(injector.shim_down(2));
  EXPECT_EQ(injector.failed_switch_count(), 0u);
  injector.advance(5);
  EXPECT_FALSE(injector.shim_down(2));
}

TEST(FaultInjector, HostFailureTracksOrphanSources) {
  const auto& t = fat_tree();
  const topo::NodeId host = t.rack(0).hosts[1];
  fault::FaultPlan plan;
  plan.fail_host(host, 2, 4);
  fault::FaultInjector injector(t, plan);
  injector.advance(2);
  ASSERT_EQ(injector.failed_hosts().size(), 1u);
  EXPECT_EQ(injector.failed_hosts().front(), host);
  EXPECT_TRUE(injector.host_down(host));
  injector.advance(4);
  EXPECT_TRUE(injector.failed_hosts().empty());
}

// --- Router liveness -------------------------------------------------------
// The router has no reachability query of its own: route() answers under
// the attached mask, and a path never touches a dead node.

namespace {

/// Routes a flow src→dst; true when a path exists, which then avoids every
/// node the mask has down.
bool routes(net::Router& router, const topo::LivenessMask& mask, topo::NodeId src,
            topo::NodeId dst) {
  net::Flow flow;
  flow.src_host = src;
  flow.dst_host = dst;
  if (!router.route(flow)) {
    EXPECT_FALSE(flow.routed());
    return false;
  }
  for (const topo::NodeId node : flow.path) EXPECT_TRUE(mask.node_up(node)) << "node " << node;
  return true;
}

}  // namespace

TEST(RouterLiveness, DeadTorSeversItsRackOnly) {
  const auto& t = fat_tree();
  topo::LivenessMask mask(t);
  net::Router router(t);
  router.apply_liveness(&mask);

  const auto& victim = t.rack(0);
  const topo::NodeId inside = victim.hosts[0];
  const topo::NodeId sibling = victim.hosts[1];
  const topo::NodeId outside = t.rack(2).hosts[0];
  ASSERT_TRUE(routes(router, mask, inside, outside));

  mask.set_node(victim.tor, false);
  EXPECT_TRUE(router.refresh_liveness());
  EXPECT_FALSE(router.refresh_liveness());  // version unchanged: no rebuild
  // Single-homed fat-tree hosts talk only through their ToR: even the
  // intra-rack pair is cut, in either direction, while the rest of the
  // fabric is untouched.
  EXPECT_FALSE(routes(router, mask, inside, outside));
  EXPECT_FALSE(routes(router, mask, outside, inside));
  EXPECT_FALSE(routes(router, mask, inside, sibling));
  EXPECT_TRUE(routes(router, mask, t.rack(1).hosts[0], outside));

  mask.set_node(victim.tor, true);
  EXPECT_TRUE(router.refresh_liveness());
  EXPECT_TRUE(routes(router, mask, inside, outside));
  EXPECT_TRUE(routes(router, mask, inside, sibling));
}

TEST(RouterLiveness, FatTreeMultipathSurvivesAggAndCoreLoss) {
  const auto& t = fat_tree();
  topo::LivenessMask mask(t);
  net::Router router(t);
  router.apply_liveness(&mask);

  // One agg switch and one core switch die; every host pair stays
  // connected, over paths that avoid both, because the fat tree has
  // redundant equal-cost paths.
  mask.set_node(t.nodes_of_kind(topo::NodeKind::kAggSwitch).front(), false);
  mask.set_node(t.nodes_of_kind(topo::NodeKind::kCoreSwitch).front(), false);
  router.refresh_liveness();
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  for (const topo::NodeId h : hosts) {
    if (h == hosts.front()) continue;
    EXPECT_TRUE(routes(router, mask, hosts.front(), h)) << "host " << h;
  }
}

// --- Engine integration ----------------------------------------------------

TEST(EngineFault, EmptyPlanMatchesNoPlanByteForByte) {
  const fault::FaultPlan empty_plan;
  core::EngineConfig with_plan;
  with_plan.fault_plan = &empty_plan;
  core::DistributedEngine a(fat_tree(), deployment_options(5), core::EngineConfig{});
  core::DistributedEngine b(fat_tree(), deployment_options(5), with_plan);
  const auto ma = a.run(6);
  const auto mb = b.run(6);
  EXPECT_EQ(csv_of(ma), csv_of(mb));
}

TEST(EngineFault, ReplayIsByteIdentical) {
  fault::FaultOptions options;
  options.seed = 11;
  options.message_drop_probability = 0.25;
  auto plan = fault::FaultPlan::random_link_flaps(fat_tree(), options, 4, 1, 6, 2);
  plan.fail_host(fat_tree().rack(1).hosts[0], 3);
  plan.set_options(options);

  core::EngineConfig config;
  config.fault_plan = &plan;
  core::DistributedEngine a(fat_tree(), deployment_options(5), config);
  core::DistributedEngine b(fat_tree(), deployment_options(5), config);
  const std::string ca = csv_of(a.run(8));
  const std::string cb = csv_of(b.run(8));
  EXPECT_FALSE(ca.empty());
  EXPECT_EQ(ca, cb);
}

TEST(EngineFault, ShimCrashHandsRackToNeighbor) {
  fault::FaultPlan plan;
  plan.fail_shim(0, 1);
  core::EngineConfig config;
  config.fault_plan = &plan;
  core::DistributedEngine engine(fat_tree(), deployment_options(5), config);
  EXPECT_EQ(engine.managing_rack(0), 0u);  // nothing failed yet
  engine.run(2);
  const topo::RackId takeover = engine.managing_rack(0);
  ASSERT_NE(takeover, topo::kInvalidRack);
  EXPECT_NE(takeover, 0u);
  const auto neighbors = fat_tree().neighbor_racks(0);
  EXPECT_NE(std::find(neighbors.begin(), neighbors.end(), takeover), neighbors.end());
  EXPECT_EQ(engine.managing_rack(takeover), takeover);
}

TEST(EngineFault, LossyProtocolStillConvergesAtThirtyPercent) {
  fault::FaultPlan plan;  // pristine fabric, lossy control plane
  fault::FaultOptions options;
  options.message_drop_probability = 0.3;
  options.max_protocol_retries = 16;
  plan.set_options(options);

  core::EngineConfig config;
  config.fault_plan = &plan;
  core::DistributedEngine engine(fat_tree(), deployment_options(3), config);
  const auto metrics = engine.run(10);

  const std::size_t iteration_cap =
      engine.config().sheriff.max_matching_rounds + options.max_protocol_retries;
  std::size_t total_migrations = 0;
  std::size_t total_drops = 0;
  for (const auto& m : metrics) {
    EXPECT_LE(m.protocol_iterations, iteration_cap);
    EXPECT_LE(m.migrations, m.migration_requests);
    total_migrations += m.migrations;
    total_drops += m.protocol_drops;
  }
  EXPECT_GT(total_migrations, 0u);  // losses delay, they must not starve
  EXPECT_GT(total_drops, 0u);      // and the channel really was lossy

  // No lost reservations: the deployment ledger still balances and no
  // dependency pair was collapsed onto one host.
  const auto& d = engine.deployment();
  for (const auto& node : fat_tree().nodes()) {
    if (node.kind != topo::NodeKind::kHost) continue;
    int used = 0;
    for (wl::VmId id : d.vms_on_host(node.id)) used += d.vm(id).capacity;
    EXPECT_EQ(used, d.host_used_capacity(node.id));
    EXPECT_LE(used, d.host_capacity());
  }
  for (wl::VmId a = 0; a < d.vm_count(); ++a) {
    for (wl::VmId b : d.dependencies().neighbors(a)) {
      EXPECT_NE(d.vm(a).host, d.vm(b).host);
    }
  }
}

namespace {

void expect_orphans_replaced(core::ManagerMode mode) {
  const auto& t = fat_tree();
  auto dopt = deployment_options(4);
  // Probe the deterministic placement for a populated host to kill.
  const topo::NodeId victim = [&] {
    wl::Deployment probe(t, dopt);
    for (topo::NodeId h : t.nodes_of_kind(topo::NodeKind::kHost)) {
      if (!probe.vms_on_host(h).empty()) return h;
    }
    return t.nodes_of_kind(topo::NodeKind::kHost).front();
  }();

  fault::FaultPlan plan;
  plan.fail_host(victim, 2);
  core::EngineConfig config;
  config.mode = mode;
  config.fault_plan = &plan;
  core::DistributedEngine engine(t, dopt, config);
  const auto metrics = engine.run(8);

  EXPECT_GT(metrics[2].orphaned_vms, 0u);
  std::size_t recovered = 0;
  for (const auto& m : metrics) recovered += m.recovery_migrations;
  EXPECT_GE(recovered, metrics[2].orphaned_vms);
  EXPECT_EQ(metrics.back().orphaned_vms, 0u);
  EXPECT_TRUE(engine.deployment().vms_on_host(victim).empty());
}

}  // namespace

TEST(EngineFault, HostFailureOrphansReplacedSheriff) {
  expect_orphans_replaced(core::ManagerMode::kSheriff);
}

TEST(EngineFault, HostFailureOrphansReplacedCentralized) {
  expect_orphans_replaced(core::ManagerMode::kCentralized);
}

TEST(EngineFault, TorOutageOrphansWholeRackAndRecovers) {
  const auto& t = fat_tree();
  auto dopt = deployment_options(42);
  dopt.vms_per_host = 2.0;  // headroom so the whole rack can evacuate
  const auto plan = fault::FaultPlan::tor_outage(t, 0, 2, 12);
  core::EngineConfig config;
  config.fault_plan = &plan;
  core::DistributedEngine engine(t, dopt, config);
  const auto outage_rounds = engine.run(10);

  EXPECT_EQ(outage_rounds[1].failed_switches, 0u);
  EXPECT_EQ(outage_rounds[2].failed_switches, 1u);
  EXPECT_GT(outage_rounds[2].orphaned_vms, 0u);
  EXPECT_GT(outage_rounds[2].unroutable_flows, 0u);
  // Evacuation completes while the ToR is still down: the cut-off rack is
  // empty and nothing can have migrated back in.
  EXPECT_EQ(outage_rounds.back().orphaned_vms, 0u);
  for (topo::NodeId h : t.rack(0).hosts) {
    EXPECT_TRUE(engine.deployment().vms_on_host(h).empty());
  }

  // The rebooted ToR rejoins the fabric without residue.
  const auto recovered_rounds = engine.run(4);
  EXPECT_EQ(recovered_rounds.back().failed_switches, 0u);
  EXPECT_EQ(recovered_rounds.back().unroutable_flows, 0u);
  EXPECT_EQ(engine.managing_rack(0), 0u);
}

// --- Thread-pool determinism ------------------------------------------------
// The engine never reads EngineConfig::pool — every round runs on the
// calling thread — and perfbench's --pool relies on that, so the pool size
// must never show in the output. 60 rounds on a 324-VM, 18-rack fabric,
// byte-compared across pool sizes 1, 2, and 8, with and without a fault
// schedule.

namespace {

const topo::Topology& parallel_fat_tree() {
  static const topo::Topology t = [] {
    topo::FatTreeOptions options;
    options.pods = 6;
    options.hosts_per_rack = 6;
    return topo::build_fat_tree(options);
  }();
  return t;
}

std::string run_with_pool(std::size_t pool_threads, const fault::FaultPlan* plan) {
  sheriff::common::ThreadPool pool(pool_threads);
  core::EngineConfig config;
  config.pool = &pool;
  config.fault_plan = plan;
  core::DistributedEngine engine(parallel_fat_tree(), deployment_options(9), config);
  return csv_of(engine.run(60));
}

}  // namespace

TEST(EngineDeterminism, PoolSizeNeverChangesMetricsPristine) {
  const std::string baseline = run_with_pool(1, nullptr);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(run_with_pool(2, nullptr), baseline);
  EXPECT_EQ(run_with_pool(8, nullptr), baseline);
}

TEST(EngineDeterminism, PoolSizeNeverChangesMetricsUnderFaults) {
  const auto& t = parallel_fat_tree();
  fault::FaultOptions options;
  options.seed = 23;
  options.message_drop_probability = 0.15;
  options.max_protocol_retries = 8;
  auto plan = fault::FaultPlan::random_link_flaps(t, options, 6, 5, 50, 10);
  plan.fail_switch(t.rack(3).tor, 12, 30);
  plan.fail_host(t.rack(7).hosts[1], 20, 44);
  plan.set_options(options);

  const std::string baseline = run_with_pool(1, &plan);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(run_with_pool(2, &plan), baseline);
  EXPECT_EQ(run_with_pool(8, &plan), baseline);
}

// --- Metrics plumbing ------------------------------------------------------

TEST(MetricsFault, SummarizeEmptySpanIsZeroed) {
  const auto s = core::summarize({});
  EXPECT_EQ(s.rounds, 0u);
  EXPECT_EQ(s.total_migrations, 0u);
  EXPECT_EQ(s.rounds_with_failures, 0u);
  EXPECT_EQ(s.peak_orphaned_vms, 0u);
  EXPECT_EQ(s.total_protocol_drops, 0u);
  EXPECT_DOUBLE_EQ(s.mean_link_peak, 0.0);
}

TEST(MetricsFault, CsvAndSummaryCarryFailureColumns) {
  std::vector<core::RoundMetrics> rounds(3);
  rounds[1].failed_links = 4;
  rounds[1].failed_switches = 1;
  rounds[1].orphaned_vms = 5;
  rounds[1].recovery_migrations = 5;
  rounds[2].protocol_drops = 7;
  rounds[2].protocol_retries = 2;

  const std::string csv = csv_of(rounds);
  EXPECT_NE(csv.find("failed_links"), std::string::npos);
  EXPECT_NE(csv.find("orphaned_vms"), std::string::npos);
  EXPECT_NE(csv.find("recovery_migrations"), std::string::npos);

  const auto s = core::summarize(rounds);
  EXPECT_EQ(s.rounds_with_failures, 1u);
  EXPECT_EQ(s.peak_orphaned_vms, 5u);
  EXPECT_EQ(s.total_recovery_migrations, 5u);
  EXPECT_EQ(s.total_protocol_drops, 7u);
  EXPECT_EQ(s.total_protocol_retries, 2u);
}

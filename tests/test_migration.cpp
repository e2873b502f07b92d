// Migration substrate tests: the six-stage live-migration timeline, the
// Eq. (1) cost model, and the Alg. 4 REQUEST/ACK admission broker.

#include <gtest/gtest.h>

#include <cmath>

#include "common/require.hpp"
#include "migration/cost_model.hpp"
#include "migration/live_migration.hpp"
#include "migration/request.hpp"
#include "net/fair_share.hpp"
#include "net/routing.hpp"
#include "oracles/fair_share.hpp"
#include "topology/fat_tree.hpp"

namespace mig = sheriff::mig;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;
namespace net = sheriff::net;
namespace sc = sheriff::common;
namespace oracle = sheriff::oracle;

namespace {

const topo::Topology& test_topology() {
  static const topo::Topology t = [] {
    topo::FatTreeOptions options;
    options.pods = 4;
    options.hosts_per_rack = 3;
    return topo::build_fat_tree(options);
  }();
  return t;
}

wl::Deployment make_deployment(std::uint64_t seed = 42) {
  wl::DeploymentOptions options;
  options.seed = seed;
  return wl::Deployment(test_topology(), options);
}

}  // namespace

TEST(LiveMigration, ConvergesWhenDirtyRateBelowBandwidth) {
  mig::LiveMigrationParams params;
  params.memory_gb = 4.0;
  params.dirty_rate_gbps = 0.2;
  params.bandwidth_gbps = 1.0;
  const auto timeline = mig::simulate_live_migration(params);
  EXPECT_GT(timeline.precopy_rounds, 1);
  EXPECT_LE(timeline.precopy_rounds, params.max_precopy_rounds);
  // Downtime must be tiny relative to the total (the 60 ms story).
  EXPECT_LT(timeline.t3_downtime_seconds, 0.05 * timeline.total_seconds());
  EXPECT_GE(timeline.transferred_gb, params.memory_gb);
}

TEST(LiveMigration, FasterLinkShortensEverything) {
  mig::LiveMigrationParams slow;
  slow.bandwidth_gbps = 1.0;
  mig::LiveMigrationParams fast = slow;
  fast.bandwidth_gbps = 10.0;
  const auto ts = mig::simulate_live_migration(slow);
  const auto tf = mig::simulate_live_migration(fast);
  EXPECT_LT(tf.t2_precopy_seconds, ts.t2_precopy_seconds);
  EXPECT_LT(tf.t3_downtime_seconds, ts.t3_downtime_seconds);
  EXPECT_LT(tf.total_seconds(), ts.total_seconds());
}

TEST(LiveMigration, HighDirtyRateHitsRoundBound) {
  mig::LiveMigrationParams params;
  params.memory_gb = 4.0;
  params.dirty_rate_gbps = 2.0;  // dirtying faster than the 1 Gbps link copies
  params.bandwidth_gbps = 1.0;
  const auto timeline = mig::simulate_live_migration(params);
  EXPECT_EQ(timeline.precopy_rounds, params.max_precopy_rounds);
  // Stop&copy still ships the residue, so downtime is substantial.
  EXPECT_GT(timeline.t3_downtime_seconds, 1.0);
}

TEST(LiveMigration, ZeroDirtyRateIsOneRound) {
  mig::LiveMigrationParams params;
  params.dirty_rate_gbps = 0.0;
  const auto timeline = mig::simulate_live_migration(params);
  EXPECT_EQ(timeline.precopy_rounds, 1);
  EXPECT_NEAR(timeline.t3_downtime_seconds, 0.0, 1e-9);
}

TEST(CostModel, BreakdownComponentsBehave) {
  const auto d = make_deployment();
  mig::MigrationCostModel model(test_topology(), d);
  const auto& vm = d.vm(0);

  // Any host in another rack.
  topo::NodeId far_host = topo::kInvalidNode;
  for (const auto& node : test_topology().nodes()) {
    if (node.kind == topo::NodeKind::kHost && node.rack != test_topology().node(vm.host).rack) {
      far_host = node.id;
      break;
    }
  }
  ASSERT_NE(far_host, topo::kInvalidNode);

  const auto breakdown = model.cost(vm.id, far_host);
  EXPECT_TRUE(breakdown.feasible);
  EXPECT_DOUBLE_EQ(breakdown.computing, model.params().computing_cost);
  EXPECT_GE(breakdown.dependency, 0.0);
  EXPECT_GT(breakdown.transmission, 0.0);
  EXPECT_NEAR(breakdown.total(),
              breakdown.computing + breakdown.dependency + breakdown.transmission, 1e-12);
}

TEST(CostModel, IntraRackCheaperThanCrossPod) {
  const auto d = make_deployment();
  mig::MigrationCostModel model(test_topology(), d);

  // A VM with no dependencies isolates the transmission term.
  wl::VmId loner = wl::kInvalidVm;
  for (const auto& vm : d.vms()) {
    if (d.dependencies().neighbors(vm.id).empty()) {
      loner = vm.id;
      break;
    }
  }
  ASSERT_NE(loner, wl::kInvalidVm);
  const auto& vm = d.vm(loner);
  const auto& topo_ref = test_topology();
  const auto& own_rack = topo_ref.rack(topo_ref.node(vm.host).rack);

  topo::NodeId same_rack = topo::kInvalidNode;
  for (topo::NodeId h : own_rack.hosts) {
    if (h != vm.host) same_rack = h;
  }
  topo::NodeId cross_pod = topo::kInvalidNode;
  const int own_pod = topo_ref.node(vm.host).pod;
  for (const auto& node : topo_ref.nodes()) {
    if (node.kind == topo::NodeKind::kHost && node.pod != own_pod) cross_pod = node.id;
  }
  ASSERT_NE(same_rack, topo::kInvalidNode);
  ASSERT_NE(cross_pod, topo::kInvalidNode);
  EXPECT_LT(model.total_cost(loner, same_rack), model.total_cost(loner, cross_pod));
}

TEST(CostModel, DependencyTermPullsTowardPartners) {
  const auto d = make_deployment();
  mig::MigrationCostModel model(test_topology(), d);
  // A VM with at least one dependency: destination in the partner's rack
  // has lower dependency cost than a far pod.
  for (const auto& vm : d.vms()) {
    const auto deps = d.dependencies().neighbors(vm.id);
    if (deps.empty()) continue;
    const auto partner_host = d.vm(deps.front()).host;
    const auto& partner_rack = test_topology().rack(test_topology().node(partner_host).rack);
    topo::NodeId near_partner = topo::kInvalidNode;
    for (topo::NodeId h : partner_rack.hosts) {
      if (h != partner_host) near_partner = h;
    }
    if (near_partner == topo::kInvalidNode) continue;
    topo::NodeId far = topo::kInvalidNode;
    const int partner_pod = test_topology().node(partner_host).pod;
    for (const auto& node : test_topology().nodes()) {
      if (node.kind == topo::NodeKind::kHost && node.pod != partner_pod) far = node.id;
    }
    const auto near_cost = model.cost(vm.id, near_partner);
    const auto far_cost = model.cost(vm.id, far);
    EXPECT_LT(near_cost.dependency, far_cost.dependency);
    return;
  }
  FAIL() << "no VM with dependencies";
}

TEST(CostModel, SaturatedPathBecomesInfeasible) {
  auto d = make_deployment();
  const auto& topo_ref = test_topology();
  net::Router router(topo_ref);

  // Saturate the source host's only uplink completely.
  const auto& vm = d.vm(0);
  std::vector<net::Flow> flows;
  net::Flow f;
  f.id = 0;
  f.src_host = vm.host;
  // Send to another rack to keep the uplink busy.
  f.dst_host = topo_ref.rack((topo_ref.node(vm.host).rack + 1) % topo_ref.rack_count()).hosts[0];
  f.demand_gbps = 100.0;
  flows.push_back(f);
  router.route_all(flows);
  const auto shares = oracle::max_min_fair_share(topo_ref, flows);

  mig::CostParams params;
  params.bandwidth_threshold_gbps = 0.05;
  params.management_reserve_fraction = 0.0;  // no management slice: B_t bites
  mig::MigrationCostModel model(topo_ref, d, params);
  model.set_bandwidth_state(&shares);

  topo::NodeId other_rack_host =
      topo_ref.rack((topo_ref.node(vm.host).rack + 2) % topo_ref.rack_count()).hosts[0];
  EXPECT_FALSE(model.cost(vm.id, other_rack_host).feasible);
  EXPECT_TRUE(std::isinf(model.total_cost(vm.id, other_rack_host)));

  // A management reserve above B_t keeps the move feasible but expensive.
  mig::CostParams reserved = params;
  reserved.management_reserve_fraction = 0.1;
  mig::MigrationCostModel reserved_model(topo_ref, d, reserved);
  reserved_model.set_bandwidth_state(&shares);
  const auto congested_cost = reserved_model.cost(vm.id, other_rack_host);
  EXPECT_TRUE(congested_cost.feasible);
  reserved_model.set_bandwidth_state(nullptr);
  const auto idle_cost = reserved_model.cost(vm.id, other_rack_host);
  EXPECT_GT(congested_cost.transmission, idle_cost.transmission);

  // Without the bandwidth state the same move is feasible.
  model.set_bandwidth_state(nullptr);
  EXPECT_TRUE(model.cost(vm.id, other_rack_host).feasible);
}

TEST(AdmissionBroker, AckMovesRejectKeeps) {
  auto d = make_deployment();
  mig::AdmissionBroker broker(d);
  // Find a feasible target in some rack.
  for (const auto& vm : d.vms()) {
    for (const auto& node : d.topology().nodes()) {
      if (node.kind != topo::NodeKind::kHost || !d.can_place(vm.id, node.id)) continue;
      const auto outcome = broker.request(vm.id, node.id, node.rack);
      EXPECT_EQ(outcome, mig::RequestOutcome::kAck);
      EXPECT_EQ(d.vm(vm.id).host, node.id);
      EXPECT_EQ(broker.ack_count(), 1u);
      return;
    }
  }
  FAIL() << "no feasible placement";
}

TEST(AdmissionBroker, WrongDelegateIsIgnored) {
  auto d = make_deployment();
  mig::AdmissionBroker broker(d);
  const auto& vm = d.vm(0);
  const auto& topo_ref = d.topology();
  // Address a host owned by rack R to the shim of a different rack.
  const topo::NodeId dest = topo_ref.rack(1).hosts[0];
  const auto outcome = broker.request(vm.id, dest, /*handler_rack=*/2);
  EXPECT_EQ(outcome, mig::RequestOutcome::kIgnoredNotDelegate);
  EXPECT_EQ(d.vm(0).host, vm.host);  // nothing moved
}

TEST(AdmissionBroker, CapacityExhaustionRejects) {
  auto d = make_deployment();
  mig::AdmissionBroker broker(d);
  // Fill one destination host until a request bounces.
  const topo::NodeId dest = d.topology().rack(0).hosts[0];
  const auto dest_rack = d.topology().node(dest).rack;
  std::size_t moved = 0;
  bool saw_reject = false;
  for (const auto& vm : d.vms()) {
    if (vm.host == dest) continue;
    const auto outcome = broker.request(vm.id, dest, dest_rack);
    if (outcome == mig::RequestOutcome::kAck) {
      ++moved;
    } else if (outcome == mig::RequestOutcome::kRejectCapacity) {
      saw_reject = true;
      break;
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_TRUE(saw_reject);
  EXPECT_LE(d.host_used_capacity(dest), d.host_capacity());
  EXPECT_EQ(broker.reject_count(), 1u);
}

TEST(RequestOutcome, ToStringCovered) {
  EXPECT_STREQ(mig::to_string(mig::RequestOutcome::kAck), "ACK");
  EXPECT_STREQ(mig::to_string(mig::RequestOutcome::kRejectCapacity), "REJECT");
  EXPECT_STREQ(mig::to_string(mig::RequestOutcome::kIgnoredNotDelegate), "IGNORED");
}

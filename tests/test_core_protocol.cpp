// Message-passing migration protocol tests: contention at one destination
// is resolved FCFS, same-round dependency races are caught at commit, lost
// messages back off and retry, and the engine's two protocol modes both
// preserve the global invariants.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/require.hpp"
#include "core/engine.hpp"
#include "core/protocol.hpp"
#include "fault/lossy_channel.hpp"
#include "migration/cost_model.hpp"
#include "topology/fat_tree.hpp"

namespace core = sheriff::core;
namespace mig = sheriff::mig;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;

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

wl::Deployment make_deployment(std::uint64_t seed) {
  wl::DeploymentOptions options;
  options.seed = seed;
  options.dependency_degree = 0.0;  // controlled dependencies per test
  return wl::Deployment(test_topology(), options);
}

/// Demands: every VM of rack r targeting exactly the given host list.
core::MigrationDemand demand_for(const wl::Deployment&, topo::RackId rack,
                                 std::vector<wl::VmId> vms,
                                 std::vector<topo::NodeId> targets) {
  core::MigrationDemand demand;
  demand.shim = rack;
  demand.vms = std::move(vms);
  demand.region_targets = std::move(targets);
  return demand;
}

}  // namespace

TEST(Protocol, PlacesSimpleDemands) {
  auto d = make_deployment(81);
  mig::MigrationCostModel model(test_topology(), d);
  core::DistributedMigrationProtocol protocol(d, model, core::SheriffConfig{});

  const topo::RackId r0 = test_topology().node(d.vm(0).host).rack;
  const auto plan = protocol.run(
      {demand_for(d, r0, {0}, test_topology().rack((r0 + 1) % 8).hosts)});
  ASSERT_EQ(plan.plan.moves.size(), 1u);
  EXPECT_EQ(plan.plan.moves[0].vm, 0u);
  EXPECT_EQ(d.vm(0).host, plan.plan.moves[0].to);
  EXPECT_EQ(plan.conflicts, 0u);
  EXPECT_GE(plan.iterations, 1u);
}

TEST(Protocol, ContentionAtOneDestinationResolvedFcfs) {
  auto d = make_deployment(82);
  mig::MigrationCostModel model(test_topology(), d);

  // Two shims push VMs at a single destination host with limited room.
  // Pick the emptiest host so at least the first few requests fit.
  topo::NodeId dest = topo::kInvalidNode;
  int best_free = 0;
  for (const auto& node : test_topology().nodes()) {
    if (node.kind == topo::NodeKind::kHost && d.host_free_capacity(node.id) > best_free) {
      best_free = d.host_free_capacity(node.id);
      dest = node.id;
    }
  }
  ASSERT_NE(dest, topo::kInvalidNode);
  const int free = d.host_free_capacity(dest);

  // Collect enough fitting VMs from other racks to overshoot the capacity.
  std::vector<core::MigrationDemand> demands;
  int queued_capacity = 0;
  for (const auto& vm : d.vms()) {
    if (vm.host == dest || vm.capacity > free) continue;
    const topo::RackId rack = test_topology().node(vm.host).rack;
    if (rack == test_topology().node(dest).rack) continue;
    demands.push_back(demand_for(d, rack, {vm.id}, {dest}));
    queued_capacity += vm.capacity;
    if (queued_capacity > 2 * free + 40) break;
  }
  ASSERT_GT(queued_capacity, free);

  core::DistributedMigrationProtocol protocol(d, model, core::SheriffConfig{});
  const auto result = protocol.run(std::move(demands));
  // Destination never over capacity; the overflow is rejected/unplaced.
  EXPECT_LE(d.host_used_capacity(dest), d.host_capacity());
  EXPECT_FALSE(result.plan.unplaced.empty());
  EXPECT_GT(result.plan.rejects + result.plan.unplaced.size(), 0u);
  EXPECT_GT(result.plan.moves.size(), 0u);  // FCFS winners landed
}

TEST(Protocol, DependencyRaceCountsAsConflict) {
  auto d = make_deployment(83);
  mig::MigrationCostModel model(test_topology(), d);

  // Two dependent VMs in *different* racks, both proposed to one host
  // with plenty of capacity: each delegate decision alone is fine, the
  // pair is not — the commit must catch the race.
  wl::VmId a = wl::kInvalidVm;
  wl::VmId b = wl::kInvalidVm;
  for (const auto& va : d.vms()) {
    for (const auto& vb : d.vms()) {
      if (va.id >= vb.id) continue;
      if (va.host == vb.host) continue;
      if (test_topology().node(va.host).rack == test_topology().node(vb.host).rack) continue;
      a = va.id;
      b = vb.id;
      break;
    }
    if (a != wl::kInvalidVm) break;
  }
  ASSERT_NE(a, wl::kInvalidVm);
  d.add_dependency(a, b);

  topo::NodeId dest = topo::kInvalidNode;
  for (const auto& node : test_topology().nodes()) {
    if (node.kind != topo::NodeKind::kHost) continue;
    if (d.can_place(a, node.id) && d.can_place(b, node.id) &&
        d.host_free_capacity(node.id) >= d.vm(a).capacity + d.vm(b).capacity) {
      dest = node.id;
      break;
    }
  }
  ASSERT_NE(dest, topo::kInvalidNode);

  core::SheriffConfig config;
  config.max_matching_rounds = 1;  // single round: expose the race itself
  core::DistributedMigrationProtocol protocol(d, model, config);
  const auto result = protocol.run(
      {demand_for(d, test_topology().node(d.vm(a).host).rack, {a}, {dest}),
       demand_for(d, test_topology().node(d.vm(b).host).rack, {b}, {dest})});

  // Exactly one of them lands; the other is a recorded conflict.
  EXPECT_EQ(result.plan.moves.size(), 1u);
  EXPECT_EQ(result.conflicts, 1u);
  EXPECT_NE(d.vm(a).host, d.vm(b).host);  // conflict rule intact
}

TEST(Protocol, EmptyDemandsAreNoOp) {
  auto d = make_deployment(85);
  mig::MigrationCostModel model(test_topology(), d);
  core::DistributedMigrationProtocol protocol(d, model, core::SheriffConfig{});
  const auto result = protocol.run({});
  EXPECT_TRUE(result.plan.moves.empty());
  EXPECT_EQ(result.iterations, 0u);
}

TEST(Protocol, LossBackoffIsCappedAtThreeIterations) {
  // Under a drop-everything channel a VM is re-proposed on a fixed
  // schedule: backoff grows 1, 2, then stays at kBackoffCap = 3, so
  // REQUESTs go out at iterations 0, 2, 5, 9, 13, ... (every 4 once
  // capped). Over a 30-iteration budget that is exactly 9 proposals —
  // a cap of 2 would yield 11 drops, an uncapped backoff only 7, so the
  // drop count pins the cap itself.
  auto d = make_deployment(87);
  mig::MigrationCostModel model(test_topology(), d);
  sheriff::fault::LossyChannel channel(1.0, 87);
  core::SheriffConfig config;
  config.max_matching_rounds = 1;
  core::DistributedMigrationProtocol protocol(d, model, config, &channel,
                                              /*loss_retry_budget=*/29);

  const topo::NodeId home = d.vm(0).host;
  const topo::RackId r0 = test_topology().node(home).rack;
  const auto result = protocol.run(
      {demand_for(d, r0, {0}, test_topology().rack((r0 + 1) % 8).hosts)});

  EXPECT_EQ(result.iterations, 30u);  // losses keep the budget alive
  EXPECT_EQ(result.drops, 9u);
  EXPECT_TRUE(result.plan.moves.empty());
  ASSERT_EQ(result.plan.unplaced.size(), 1u);
  EXPECT_EQ(result.plan.unplaced[0], 0u);
  EXPECT_EQ(d.vm(0).host, home);  // nothing committed, nothing leaked
}

TEST(Protocol, DuplicateVmClaimsCommitAtMostOnce) {
  // One VM claimed three times — twice inside one demand (the host-alert
  // single-VM rule and the ToR budget pass can pick the same tenant) and
  // once by a second shim. The cross-demand dedup must collapse all of
  // them to a single move; every VM in the final plan is unique.
  auto d = make_deployment(88);
  mig::MigrationCostModel model(test_topology(), d);
  core::DistributedMigrationProtocol protocol(d, model, core::SheriffConfig{});

  const topo::NodeId home = d.vm(0).host;
  const topo::RackId r0 = test_topology().node(home).rack;
  const auto targets = test_topology().rack((r0 + 1) % 8).hosts;
  const auto result =
      protocol.run({demand_for(d, r0, {0, 0}, targets),
                    demand_for(d, (r0 + 2) % 8, {0}, targets)});

  std::size_t moves_of_vm0 = 0;
  std::vector<bool> moved(d.vm_count(), false);
  for (const auto& move : result.plan.moves) {
    EXPECT_FALSE(moved[move.vm]) << "VM " << move.vm << " moved twice in one round";
    moved[move.vm] = true;
    if (move.vm == 0) ++moves_of_vm0;
  }
  EXPECT_EQ(moves_of_vm0, 1u);
  EXPECT_NE(d.vm(0).host, home);
  EXPECT_EQ(result.conflicts, 0u);  // dropped duplicates, not apply races
}

TEST(Protocol, DropAllChannelTerminatesWithoutSideEffects) {
  // A channel that loses every message must still terminate within the
  // iteration budget and leave the deployment untouched: no moves, no
  // leaked reservations, every demanded VM reported unplaced.
  auto d = make_deployment(89);
  mig::MigrationCostModel model(test_topology(), d);
  std::vector<topo::NodeId> homes;
  for (const auto& vm : d.vms()) homes.push_back(vm.host);
  std::vector<int> used_before;
  for (const auto& node : test_topology().nodes()) {
    if (node.kind == topo::NodeKind::kHost) {
      used_before.push_back(d.host_used_capacity(node.id));
    }
  }

  sheriff::fault::LossyChannel channel(1.0, 89);
  core::SheriffConfig config;
  config.max_matching_rounds = 4;
  core::DistributedMigrationProtocol protocol(d, model, config, &channel,
                                              /*loss_retry_budget=*/8);
  std::vector<core::MigrationDemand> demands;
  std::size_t demanded = 0;
  for (topo::RackId r = 0; r < 4; ++r) {
    std::vector<wl::VmId> vms;
    for (topo::NodeId h : test_topology().rack(r).hosts) {
      for (wl::VmId id : d.vms_on_host(h)) vms.push_back(id);
    }
    vms.resize(std::min<std::size_t>(vms.size(), 2));
    demanded += vms.size();
    demands.push_back(demand_for(d, r, std::move(vms),
                                 test_topology().rack(r + 4).hosts));
  }
  const auto result = protocol.run(std::move(demands));

  EXPECT_LE(result.iterations, 12u);  // max_matching_rounds + retry budget
  EXPECT_TRUE(result.plan.moves.empty());
  EXPECT_EQ(result.plan.unplaced.size(), demanded);
  EXPECT_GT(result.drops, 0u);
  for (const auto& vm : d.vms()) EXPECT_EQ(vm.host, homes[vm.id]);
  std::size_t h = 0;
  for (const auto& node : test_topology().nodes()) {
    if (node.kind == topo::NodeKind::kHost) {
      EXPECT_EQ(d.host_used_capacity(node.id), used_before[h++]);
    }
  }
}

TEST(Protocol, HeavyLossStillConvergesWithinBudgetAndInvariants) {
  // 60% loss: the protocol may need the retry budget, but it terminates,
  // never moves a VM twice, and never overfills a host.
  auto d = make_deployment(90);
  mig::MigrationCostModel model(test_topology(), d);
  sheriff::fault::LossyChannel channel(0.6, 90);
  core::SheriffConfig config;
  config.max_matching_rounds = 4;
  core::DistributedMigrationProtocol protocol(d, model, config, &channel,
                                              /*loss_retry_budget=*/16);
  std::vector<core::MigrationDemand> demands;
  for (topo::RackId r = 0; r < 4; ++r) {
    std::vector<wl::VmId> vms;
    for (topo::NodeId h : test_topology().rack(r).hosts) {
      for (wl::VmId id : d.vms_on_host(h)) vms.push_back(id);
    }
    vms.resize(std::min<std::size_t>(vms.size(), 3));
    demands.push_back(demand_for(d, r, std::move(vms),
                                 test_topology().rack(r + 4).hosts));
  }
  const auto result = protocol.run(std::move(demands));

  EXPECT_LE(result.iterations, 20u);
  EXPECT_GT(result.drops, 0u);
  EXPECT_GT(result.plan.moves.size(), 0u);  // losses delay, not starve
  std::vector<bool> moved(d.vm_count(), false);
  for (const auto& move : result.plan.moves) {
    EXPECT_FALSE(moved[move.vm]) << "VM " << move.vm << " moved twice in one round";
    moved[move.vm] = true;
  }
  for (const auto& node : test_topology().nodes()) {
    if (node.kind == topo::NodeKind::kHost) {
      EXPECT_LE(d.host_used_capacity(node.id), d.host_capacity());
    }
  }
}

TEST(Protocol, EngineModesBothPreserveInvariants) {
  for (const auto protocol_kind :
       {core::MigrationProtocol::kMessagePassing, core::MigrationProtocol::kSerializedFcfs}) {
    core::EngineConfig config;
    config.protocol = protocol_kind;
    wl::DeploymentOptions deploy;
    deploy.seed = 86;
    core::DistributedEngine engine(test_topology(), deploy, config);
    const auto metrics = engine.run(8);
    const auto& d = engine.deployment();
    for (const auto& node : test_topology().nodes()) {
      if (node.kind == topo::NodeKind::kHost) {
        EXPECT_LE(d.host_used_capacity(node.id), d.host_capacity());
      }
    }
    for (wl::VmId x = 0; x < d.vm_count(); ++x) {
      for (wl::VmId y : d.dependencies().neighbors(x)) {
        EXPECT_NE(d.vm(x).host, d.vm(y).host);
      }
    }
    std::size_t migrations = 0;
    for (const auto& m : metrics) migrations += m.migrations;
    EXPECT_GT(migrations, 0u);
  }
}

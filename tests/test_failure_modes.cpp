// Failure-injection and adversarial-input tests: saturated fabrics, full
// hosts, unroutable flows, conflicting dependencies, degenerate
// topologies, and pathological time series — the system must degrade
// gracefully (reject / skip / stay consistent), never corrupt state.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "core/engine.hpp"
#include "core/vm_migration.hpp"
#include "migration/cost_model.hpp"
#include "migration/request.hpp"
#include "net/fair_share.hpp"
#include "net/reroute.hpp"
#include "net/routing.hpp"
#include "timeseries/arima.hpp"
#include "timeseries/narnet.hpp"
#include "topology/fat_tree.hpp"
#include "workload/deployment.hpp"

namespace core = sheriff::core;
namespace mig = sheriff::mig;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;
namespace net = sheriff::net;
namespace sc = sheriff::common;
namespace ts = sheriff::ts;

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

}  // namespace

TEST(FailureModes, SaturatedTargetsLeaveEveryCandidateUnplaced) {
  wl::DeploymentOptions options;
  options.seed = 50;
  options.min_vm_capacity = 10;
  options.max_vm_capacity = 10;
  options.host_capacity = 80;
  options.dependency_degree = 0.0;
  wl::Deployment d(test_topology(), options);

  mig::MigrationCostModel model(test_topology(), d);
  mig::AdmissionBroker broker(d);
  core::VmMigrationScheduler scheduler(d, model, broker);
  // Targets: hosts without room for a 10-unit VM (the skewed placement
  // packs some hosts to the brim).
  std::vector<topo::NodeId> full_hosts;
  for (const auto& node : test_topology().nodes()) {
    if (node.kind == topo::NodeKind::kHost && d.host_free_capacity(node.id) < 10) {
      full_hosts.push_back(node.id);
    }
  }
  ASSERT_FALSE(full_hosts.empty()) << "seed produced no full hosts";
  // Candidates living elsewhere cannot enter any of them.
  std::vector<wl::VmId> candidates;
  for (const auto& vm : d.vms()) {
    if (std::find(full_hosts.begin(), full_hosts.end(), vm.host) == full_hosts.end()) {
      candidates.push_back(vm.id);
    }
    if (candidates.size() == 3) break;
  }
  ASSERT_EQ(candidates.size(), 3u);
  const auto plan = scheduler.migrate(candidates, full_hosts);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_EQ(plan.unplaced.size(), 3u);
}

TEST(FailureModes, DependencyCliqueBlocksColocation) {
  wl::DeploymentOptions options;
  options.seed = 51;
  options.dependency_degree = 0.0;
  wl::Deployment d(test_topology(), options);
  // Make VM 0 depend on every VM of a destination host: it cannot move there.
  const topo::NodeId dest = [&] {
    for (const auto& node : test_topology().nodes()) {
      if (node.kind == topo::NodeKind::kHost && node.id != d.vm(0).host &&
          !d.vms_on_host(node.id).empty() && d.host_free_capacity(node.id) >= d.vm(0).capacity) {
        return node.id;
      }
    }
    return topo::kInvalidNode;
  }();
  ASSERT_NE(dest, topo::kInvalidNode);
  const auto deps =
      std::vector<wl::VmId>(d.vms_on_host(dest).begin(), d.vms_on_host(dest).end());
  for (wl::VmId other : deps) d.add_dependency(0, other);
  EXPECT_FALSE(d.can_place(0, dest));
  EXPECT_THROW(d.move_vm(0, dest), sc::RequirementError);
  // And the guard itself: two VMs on one host cannot become dependent.
  const auto cohost = d.vms_on_host(d.vm(0).host);
  if (cohost.size() >= 2) {
    EXPECT_THROW(d.add_dependency(cohost[0], cohost[1]), sc::RequirementError);
  }
}

TEST(FailureModes, RerouteWithNoAlternativePathKeepsOldRoute) {
  // Intra-rack flow: host — ToR — host has no ToR-free alternative.
  const auto& t = test_topology();
  const net::Router router(t);
  const net::FlowRerouter rerouter(router);
  net::Flow flow;
  flow.id = 0;
  flow.src_host = t.rack(0).hosts[0];
  flow.dst_host = t.rack(0).hosts[1];
  flow.demand_gbps = 0.5;
  std::vector<net::Flow> flows{flow};
  router.route_all(flows);
  const auto old_path = flows[0].path;
  const auto report = rerouter.reroute_around(flows, t.rack(0).tor, 1.0);
  EXPECT_EQ(report.candidates, 1u);
  EXPECT_EQ(report.rerouted, 0u);
  EXPECT_EQ(flows[0].path, old_path);  // untouched, not broken
}

TEST(FailureModes, FairShareWithZeroDemandsAndUnroutedFlows) {
  const auto& t = test_topology();
  std::vector<net::Flow> flows(3);
  flows[0].demand_gbps = 0.0;  // zero demand
  flows[1].demand_gbps = 1.0;  // unrouted (empty path)
  const auto result = net::max_min_fair_share(t, flows);
  for (double rate : result.flow_rate) EXPECT_DOUBLE_EQ(rate, 0.0);
  for (double load : result.link_load_gbps) EXPECT_DOUBLE_EQ(load, 0.0);
}

TEST(FailureModes, CostModelRejectsNonHostDestination) {
  wl::DeploymentOptions options;
  options.seed = 52;
  const wl::Deployment d(test_topology(), options);
  mig::MigrationCostModel model(test_topology(), d);
  const auto tor = test_topology().rack(0).tor;
  EXPECT_THROW((void)model.cost(0, tor), sc::RequirementError);
}

TEST(FailureModes, EngineSurvivesExtremeDemand) {
  core::EngineConfig config;
  config.flow_demand_scale_gbps = 50.0;  // absurd oversubscription
  wl::DeploymentOptions options;
  options.seed = 53;
  options.dependency_degree = 2.0;
  core::DistributedEngine engine(test_topology(), options, config);
  const auto metrics = engine.run(5);
  for (const auto& m : metrics) {
    EXPECT_LE(m.max_link_utilization, 1.0 + 1e-9);  // fair share still caps links
    EXPECT_TRUE(std::isfinite(m.migration_cost));
  }
  for (const auto& node : test_topology().nodes()) {
    if (node.kind == topo::NodeKind::kHost) {
      EXPECT_LE(engine.deployment().host_used_capacity(node.id),
                engine.deployment().host_capacity());
    }
  }
}

TEST(FailureModes, EngineWithNoDependenciesHasNoFlows) {
  core::EngineConfig config;
  wl::DeploymentOptions options;
  options.seed = 54;
  options.dependency_degree = 0.0;
  core::DistributedEngine engine(test_topology(), options, config);
  EXPECT_TRUE(engine.flows().empty());
  const auto metrics = engine.run(3);  // still runs: host alerts only
  EXPECT_EQ(metrics.size(), 3u);
  for (const auto& m : metrics) {
    EXPECT_EQ(m.switch_alerts, 0u);
    EXPECT_EQ(m.reroutes, 0u);
  }
}

TEST(FailureModes, MinimalPodFatTreeHasEmptyRegions) {
  // pods = 2: each pod has one rack; two-hop neighbors via aggs stay
  // within the pod, so regions contain only the rack itself.
  topo::FatTreeOptions options;
  options.pods = 2;
  options.hosts_per_rack = 2;
  const auto t = topo::build_fat_tree(options);
  EXPECT_TRUE(t.neighbor_racks(0).empty());

  core::SheriffConfig config;
  core::ShimController shim(0, t, config);
  const auto targets = shim.region_target_hosts();
  EXPECT_EQ(targets.size(), 2u);  // own hosts only: migration stays possible
}

TEST(FailureModes, ArimaOnConstantSeriesStaysFinite) {
  const std::vector<double> flat(100, 5.0);
  ts::ArimaModel model(ts::ArimaOrder{1, 0, 1});
  model.fit(flat);
  const auto f = model.forecast(flat, 5);
  for (double v : f) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_NEAR(v, 5.0, 0.5);
  }
}

TEST(FailureModes, NarnetOnWildSeriesStaysBounded) {
  // Alternating extremes — the net must not blow up numerically.
  std::vector<double> wild;
  for (int t = 0; t < 200; ++t) wild.push_back(t % 2 == 0 ? 1000.0 : -1000.0);
  ts::NarNet::Options options;
  options.inputs = 4;
  options.hidden = 6;
  options.max_epochs = 50;
  ts::NarNet net(options);
  net.fit(wild);
  const double prediction = net.predict_next(wild);
  EXPECT_TRUE(std::isfinite(prediction));
  EXPECT_LT(std::fabs(prediction), 1e4);
}

TEST(FailureModes, BrokerSurvivesRepeatedRequestsForSameVm) {
  wl::DeploymentOptions options;
  options.seed = 55;
  wl::Deployment d(test_topology(), options);
  mig::AdmissionBroker broker(d);
  const auto& vm = d.vm(0);
  topo::NodeId dest = topo::kInvalidNode;
  for (const auto& node : test_topology().nodes()) {
    if (node.kind == topo::NodeKind::kHost && d.can_place(vm.id, node.id)) {
      dest = node.id;
      break;
    }
  }
  ASSERT_NE(dest, topo::kInvalidNode);
  EXPECT_EQ(broker.request(0, dest, test_topology().node(dest).rack),
            mig::RequestOutcome::kAck);
  // Asking again for the same placement: the VM already lives there.
  EXPECT_EQ(broker.request(0, dest, test_topology().node(dest).rack),
            mig::RequestOutcome::kRejectCapacity);
  EXPECT_EQ(d.vm(0).host, dest);
}

TEST(FailureModes, OversizedVmNeverFits) {
  wl::DeploymentOptions options;
  options.seed = 56;
  options.min_vm_capacity = 80;  // every VM is as large as a whole host
  options.max_vm_capacity = 80;
  options.host_capacity = 80;
  options.vms_per_host = 0.5;
  wl::Deployment d(test_topology(), options);
  // A full-host VM can only move to a completely empty host.
  const auto& vm = d.vm(0);
  ASSERT_EQ(vm.capacity, 80);
  std::size_t empty_hosts = 0;
  std::size_t occupied_hosts = 0;
  for (const auto& node : test_topology().nodes()) {
    if (node.kind != topo::NodeKind::kHost || node.id == vm.host) continue;
    const bool empty = d.vms_on_host(node.id).empty();
    (empty ? empty_hosts : occupied_hosts) += 1;
    EXPECT_EQ(d.can_place(vm.id, node.id), empty);
  }
  // Both outcomes occur: half the hosts carry one VM, the rest are empty.
  EXPECT_GT(empty_hosts, 0u);
  EXPECT_GT(occupied_hosts, 0u);
}

// Core scheduler tests: VMMIGRATION (Alg. 3), the centralized baseline,
// and the Sec. V-A k-median planner with its 3 + 2/p guarantee on real
// topologies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/require.hpp"
#include "core/centralized_manager.hpp"
#include "core/kmedian_planner.hpp"
#include "core/vm_migration.hpp"
#include "migration/cost_model.hpp"
#include "migration/request.hpp"
#include "oracles/kmedian.hpp"
#include "oracles/shortest_paths.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"
#include "topology/liveness.hpp"
#include "workload/deployment.hpp"

namespace core = sheriff::core;
namespace mig = sheriff::mig;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;
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

TEST(Scheduler, MigratesIntoGivenTargets) {
  auto d = make_deployment();
  mig::MigrationCostModel model(test_topology(), d);
  mig::AdmissionBroker broker(d);
  core::VmMigrationScheduler scheduler(d, model, broker);

  const std::vector<wl::VmId> candidates{0, 1, 2};
  const std::vector<topo::NodeId> targets = test_topology().rack(5).hosts;
  const auto plan = scheduler.migrate(candidates, targets);

  EXPECT_GT(plan.moves.size(), 0u);
  EXPECT_GT(plan.search_space, 0u);
  for (const auto& move : plan.moves) {
    EXPECT_NE(std::find(targets.begin(), targets.end(), move.to), targets.end());
    EXPECT_EQ(d.vm(move.vm).host, move.to);
    EXPECT_GT(move.cost, 0.0);
  }
  EXPECT_NEAR(plan.total_cost,
              std::accumulate(plan.moves.begin(), plan.moves.end(), 0.0,
                              [](double acc, const auto& m) { return acc + m.cost; }),
              1e-9);
}

TEST(Scheduler, CapacityNeverViolatedUnderPressure) {
  auto d = make_deployment(7);
  mig::MigrationCostModel model(test_topology(), d);
  mig::AdmissionBroker broker(d);
  core::VmMigrationScheduler scheduler(d, model, broker);

  // Push many VMs at a single small rack: most must be rejected/unplaced.
  std::vector<wl::VmId> candidates;
  for (wl::VmId id = 0; id < 40; ++id) candidates.push_back(id);
  const std::vector<topo::NodeId> targets = test_topology().rack(3).hosts;
  const auto plan = scheduler.migrate(candidates, targets);

  for (topo::NodeId h : targets) {
    EXPECT_LE(d.host_used_capacity(h), d.host_capacity());
  }
  EXPECT_EQ(plan.moves.size() + plan.unplaced.size(), 40u);
}

TEST(Scheduler, RecordsLiveMigrationTimelines) {
  auto d = make_deployment(31);
  mig::MigrationCostModel model(test_topology(), d);
  mig::AdmissionBroker broker(d);
  core::VmMigrationScheduler scheduler(d, model, broker);
  const auto plan = scheduler.migrate({0, 1, 2}, test_topology().rack(7).hosts);
  ASSERT_GT(plan.moves.size(), 0u);
  double duration_sum = 0.0;
  double downtime_sum = 0.0;
  for (const auto& move : plan.moves) {
    EXPECT_GT(move.duration_seconds, 0.0);
    EXPECT_GE(move.downtime_seconds, 0.0);
    EXPECT_LT(move.downtime_seconds, move.duration_seconds);
    duration_sum += move.duration_seconds;
    downtime_sum += move.downtime_seconds;
  }
  EXPECT_NEAR(plan.total_duration_seconds, duration_sum, 1e-9);
  EXPECT_NEAR(plan.total_downtime_seconds, downtime_sum, 1e-9);
}

TEST(Scheduler, BottleneckBandwidthFeedsTimeline) {
  auto d = make_deployment(32);
  mig::MigrationCostModel model(test_topology(), d);
  // Idle network: the bottleneck equals min(request, host link) = 1 Gbps.
  const auto& vm = d.vm(0);
  topo::NodeId far = topo::kInvalidNode;
  for (const auto& node : test_topology().nodes()) {
    if (node.kind == topo::NodeKind::kHost &&
        node.rack != test_topology().node(vm.host).rack) {
      far = node.id;
      break;
    }
  }
  ASSERT_NE(far, topo::kInvalidNode);
  EXPECT_NEAR(model.path_bottleneck_bandwidth(0, far), 1.0, 1e-9);
  // Unreachable (same host) yields zero.
  EXPECT_DOUBLE_EQ(model.path_bottleneck_bandwidth(0, vm.host), 0.0);
}

TEST(Scheduler, EmptyInputsAreGraceful) {
  auto d = make_deployment();
  mig::MigrationCostModel model(test_topology(), d);
  mig::AdmissionBroker broker(d);
  core::VmMigrationScheduler scheduler(d, model, broker);
  EXPECT_TRUE(scheduler.migrate({}, test_topology().rack(0).hosts).moves.empty());
  const auto plan = scheduler.migrate({0}, {});
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_EQ(plan.unplaced.size(), 1u);
}

TEST(Scheduler, DeduplicatesCandidates) {
  auto d = make_deployment();
  mig::MigrationCostModel model(test_topology(), d);
  mig::AdmissionBroker broker(d);
  core::VmMigrationScheduler scheduler(d, model, broker);
  const auto plan = scheduler.migrate({0, 0, 0}, test_topology().rack(5).hosts);
  std::size_t moves_of_zero = 0;
  for (const auto& m : plan.moves) moves_of_zero += m.vm == 0 ? 1 : 0;
  EXPECT_LE(moves_of_zero, 1u);
}

TEST(Scheduler, MatchingIsLocallyOptimalForSingleVm) {
  auto d = make_deployment(11);
  mig::MigrationCostModel model(test_topology(), d);
  // Cheapest feasible destination should be chosen for a single VM.
  const std::vector<topo::NodeId> targets = test_topology().rack(6).hosts;
  double best = std::numeric_limits<double>::infinity();
  for (topo::NodeId h : targets) {
    if (d.can_place(0, h)) best = std::min(best, model.total_cost(0, h));
  }
  mig::AdmissionBroker broker(d);
  core::VmMigrationScheduler scheduler(d, model, broker);
  const auto plan = scheduler.migrate({0}, targets);
  ASSERT_EQ(plan.moves.size(), 1u);
  EXPECT_NEAR(plan.moves[0].cost, best, 1e-9);
}

TEST(Centralized, GlobalSearchCostsAtMostRegional) {
  // Same initial state (same seed): the centralized manager optimizes over
  // every host, so its matched cost per VM cannot exceed the regional
  // scheduler's for the same single VM.
  auto d_regional = make_deployment(21);
  auto d_global = make_deployment(21);
  mig::MigrationCostModel model_r(test_topology(), d_regional);
  mig::MigrationCostModel model_g(test_topology(), d_global);

  const std::vector<wl::VmId> alerted{0, 5, 9};

  mig::AdmissionBroker broker(d_regional);
  core::VmMigrationScheduler regional(d_regional, model_r, broker);
  // Regional region: one rack's hosts only.
  const auto regional_plan =
      regional.migrate(alerted, test_topology().rack(2).hosts);

  core::CentralizedManager manager(d_global, model_g);
  const auto global_plan = manager.migrate(alerted);

  ASSERT_EQ(global_plan.moves.size(), alerted.size());
  if (regional_plan.moves.size() == alerted.size()) {
    EXPECT_LE(global_plan.total_cost, regional_plan.total_cost + 1e-9);
  }
  EXPECT_GT(global_plan.search_space, regional_plan.search_space);
}

TEST(KMedianPlanner, DijkstraAndFloydWarshallAgree) {
  // The paper collapses the rack graph with Floyd–Warshall; the planner
  // reads per-ToR Dijkstra rows, which must give the same metric T'.
  const topo::Topology& t = test_topology();
  const core::KMedianPlanner planner(t);
  const auto apsp = oracle::floyd_warshall(t.wired_graph(topo::EdgeWeight::kDistance));
  const auto n = t.rack_count();
  for (topo::RackId i = 0; i < n; ++i) {
    for (topo::RackId j = 0; j < n; ++j) {
      EXPECT_NEAR(planner.rack_distances().at(i, j),
                  apsp.distance.at(t.rack(i).tor, t.rack(j).tor), 1e-6);
    }
  }
}

TEST(KMedianPlanner, DistancesFormAMetric) {
  const core::KMedianPlanner planner(test_topology());
  const auto& m = planner.rack_distances();
  EXPECT_TRUE(m.all_finite());
  EXPECT_NEAR(m.max_triangle_violation(), 0.0, 1e-9);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_DOUBLE_EQ(m.at(i, i), 0.0);
    for (std::size_t j = 0; j < m.size(); ++j) {
      EXPECT_NEAR(m.at(i, j), m.at(j, i), 1e-9);  // symmetric
      if (i != j) {
        EXPECT_GT(m.at(i, j), 0.0);
      }
    }
  }
}

class PlannerRatio : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlannerRatio, LocalSearchWithinBoundOnFatTree) {
  const std::size_t p = GetParam();
  const core::KMedianPlanner planner(test_topology());
  std::vector<topo::RackId> sources;
  for (topo::RackId r = 0; r < test_topology().rack_count(); r += 2) sources.push_back(r);
  const std::size_t k = 3;
  const auto approx = planner.plan(sources, {.k = k, .p = p});
  const auto exact = oracle::exact_plan(planner, sources, k);
  ASSERT_GT(exact.connection_cost, 0.0);
  const double bound = 3.0 + 2.0 / static_cast<double>(p);
  EXPECT_LE(approx.connection_cost, bound * exact.connection_cost + 1e-9);
  EXPECT_GE(approx.connection_cost, exact.connection_cost - 1e-9);
  EXPECT_EQ(approx.destinations.size(), k);
}

INSTANTIATE_TEST_SUITE_P(SwapSizes, PlannerRatio, ::testing::Values(1u, 2u, 3u));

TEST(KMedianManager, MigratesIntoChosenRacks) {
  auto d = make_deployment(41);
  mig::MigrationCostModel model(test_topology(), d);
  const core::KMedianPlanner planner(test_topology());
  core::KMedianMigrationManager::Options options;
  options.destination_racks = 3;
  core::KMedianMigrationManager manager(d, model, planner, options);

  const std::vector<wl::VmId> alerted{0, 4, 8, 12};
  const auto plan = manager.migrate(alerted);
  EXPECT_EQ(manager.last_destinations().size(), 3u);
  EXPECT_GT(plan.search_space, 0u);
  for (const auto& move : plan.moves) {
    const topo::RackId dest_rack = test_topology().node(move.to).rack;
    EXPECT_NE(std::find(manager.last_destinations().begin(),
                        manager.last_destinations().end(), dest_rack),
              manager.last_destinations().end());
  }
}

TEST(KMedianManager, EmptyAlertSetIsNoOp) {
  auto d = make_deployment(42);
  mig::MigrationCostModel model(test_topology(), d);
  const core::KMedianPlanner planner(test_topology());
  core::KMedianMigrationManager manager(d, model, planner);
  const auto plan = manager.migrate({});
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_TRUE(manager.last_destinations().empty());
}

TEST(KMedianManager, SearchesLessThanGlobalMatching) {
  auto d_kmedian = make_deployment(43);
  auto d_global = make_deployment(43);
  mig::MigrationCostModel model_k(test_topology(), d_kmedian);
  mig::MigrationCostModel model_g(test_topology(), d_global);
  const core::KMedianPlanner planner(test_topology());

  std::vector<wl::VmId> alerted;
  for (wl::VmId id = 0; id < 12; ++id) alerted.push_back(id);

  core::KMedianMigrationManager::Options options;
  options.destination_racks = 2;
  core::KMedianMigrationManager manager(d_kmedian, model_k, planner, options);
  const auto kmedian_plan = manager.migrate(alerted);

  core::CentralizedManager global(d_global, model_g);
  const auto global_plan = global.migrate(alerted);

  EXPECT_LT(kmedian_plan.search_space, global_plan.search_space);
  if (!global_plan.moves.empty() && kmedian_plan.moves.size() == global_plan.moves.size()) {
    EXPECT_GE(kmedian_plan.total_cost, global_plan.total_cost - 1e-9);
  }
}

TEST(KMedianPlanner, WorksOnBCube) {
  topo::BCubeOptions options;
  options.ports = 4;
  options.levels = 1;
  const auto t = topo::build_bcube(options);
  const core::KMedianPlanner planner(t);
  EXPECT_TRUE(planner.rack_distances().all_finite());
  const auto plan = planner.plan({0, 1, 2}, {.k = 2, .p = 1});
  EXPECT_EQ(plan.destinations.size(), 2u);
  EXPECT_GE(plan.connection_cost, 0.0);
}

// --- The finite T' of a masked rebuild (DESIGN.md §9): racks the mask
// --- separates are M = 1 + racks · (largest finite entry) apart.

namespace {

const topo::Topology& fat_tree_8x3() {
  static const topo::Topology t = [] {
    topo::FatTreeOptions options;
    options.pods = 8;
    options.hosts_per_rack = 3;
    return topo::build_fat_tree(options);
  }();
  return t;
}

/// Racks 24–28, 30, 31 and then 29, the last one the rack a fault hits.
const std::vector<topo::RackId> kFaultedSources{24, 25, 26, 27, 28, 30, 31, 29};
const core::KMedianPlanner::PlanOptions kFaultedPlan{.k = 4, .p = 2};

void expect_finite_metric(const core::KMedianPlanner& planner) {
  EXPECT_TRUE(planner.rack_distances().all_finite());
  EXPECT_EQ(planner.rack_distances().max_triangle_violation(), 0.0);
}

}  // namespace

TEST(KMedianPlannerFiniteMetric, DeadToRPlansAsWithoutItsRack) {
  const topo::Topology& t = fat_tree_8x3();
  topo::LivenessMask mask(t);
  mask.set_node(t.rack(29).tor, false);
  const core::KMedianPlanner planner(t, {.liveness = &mask});
  expect_finite_metric(planner);

  const auto plan = planner.plan(kFaultedSources, kFaultedPlan);
  EXPECT_EQ(plan.destinations, (std::vector<topo::RackId>{24, 27, 28, 31}));
  // Rack 29 is M from every live rack, a constant that moves no median.
  const std::vector<topo::RackId> without_29(kFaultedSources.begin(), kFaultedSources.end() - 1);
  EXPECT_EQ(planner.plan(without_29, kFaultedPlan).destinations, plan.destinations);
  EXPECT_FALSE(plan.hit_evaluation_cap);
}

TEST(KMedianPlannerFiniteMetric, CutOffToRIsOpenedForItsOwnRack) {
  const topo::Topology& t = fat_tree_8x3();
  topo::LivenessMask mask(t);
  const topo::NodeId tor = t.rack(29).tor;
  std::size_t uplinks = 0;
  for (const topo::LinkId l : t.links_of(tor)) {
    if (t.node(t.peer(l, tor)).kind == topo::NodeKind::kHost) continue;
    mask.set_link(l, false);
    ++uplinks;
  }
  ASSERT_GT(uplinks, 0u);
  const core::KMedianPlanner planner(t, {.liveness = &mask});
  expect_finite_metric(planner);
  // Serving rack 29 saves M, more than any plan of the other racks costs.
  EXPECT_EQ(planner.plan(kFaultedSources, kFaultedPlan).destinations,
            (std::vector<topo::RackId>{24, 27, 28, 29}));
  // Even when opening rack 29 leaves one median for two far pods, whose
  // racks a second median would save a lot: M outweighs any such saving.
  const std::vector<topo::RackId> two_pods{0, 1, 2, 3, 24, 25, 26, 27, 29};
  const auto plan = planner.plan(two_pods, {.k = 2, .p = 2});
  EXPECT_NE(std::find(plan.destinations.begin(), plan.destinations.end(), 29),
            plan.destinations.end());
}

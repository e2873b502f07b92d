// The flattened migration decision kernel (DESIGN.md §14): the per-round
// CostSurface must be bit-transparent (every CostBreakdown identical with
// the surface on or off), the candidate lower bound must be admissible
// (bound <= exact cost, always), and bound-guarded pruning must never
// change a selection — locked by a 50-seed pruned-vs-exhaustive
// differential on both reference fabrics plus engine-level CSV/checkpoint
// byte parity across the unread EngineConfig::pool, pristine and faulted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "core/vm_migration.hpp"
#include "fault/fault_plan.hpp"
#include "migration/cost_model.hpp"
#include "net/fair_share.hpp"
#include "net/routing.hpp"
#include "snapshot/checkpoint.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"
#include "workload/deployment.hpp"

namespace core = sheriff::core;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;
namespace mig = sheriff::mig;
namespace net = sheriff::net;
namespace fault = sheriff::fault;
namespace sc = sheriff::common;

namespace {

topo::Topology small_fat_tree() {
  topo::FatTreeOptions options;
  options.pods = 4;
  options.hosts_per_rack = 3;
  options.tor_agg_gbps = 1.0;  // oversubscribed uplinks: infeasible paths exist
  return topo::build_fat_tree(options);
}

topo::Topology small_bcube() {
  topo::BCubeOptions options;
  options.ports = 3;
  options.levels = 2;
  return topo::build_bcube(options);
}

wl::DeploymentOptions surface_deployment() {
  wl::DeploymentOptions options;
  options.seed = 23;
  options.vms_per_host = 2.5;
  options.placement = wl::PlacementPolicy::kSkewed;
  return options;
}

/// Routed flows + one fair-share allocation: the bandwidth state the
/// manage phase hands the cost model each round.
net::FairShareResult loaded_shares(const topo::Topology& topology,
                                   std::vector<net::Flow>& flows, std::uint64_t seed) {
  const net::Router router(topology);
  sc::Pcg32 rng(seed);
  const auto hosts = topology.nodes_of_kind(topo::NodeKind::kHost);
  for (net::FlowId id = 0; id < net::FlowId{512}; ++id) {
    net::Flow f;
    f.id = id;
    f.src_host = rng.pick(hosts);
    f.dst_host = rng.pick(hosts);
    if (f.src_host == f.dst_host) continue;
    f.demand_gbps = rng.uniform(0.05, 1.5);
    flows.push_back(f);
  }
  router.route_all(flows);
  return net::max_min_fair_share(topology, flows);
}

/// A model in the engine's optimized shape (partner-rooted, shared-leaf)
/// with the surface/pruning toggles under test.
void configure_model(mig::MigrationCostModel& model, const net::FairShareResult* shares,
                     bool surface, bool pruning) {
  model.set_partner_rooted(true);
  model.set_shared_leaf_trees(true);
  model.set_surface_enabled(surface);
  model.set_pruning_enabled(pruning);
  model.set_bandwidth_state(shares);
}

void expect_breakdown_bitwise_equal(const mig::CostBreakdown& a, const mig::CostBreakdown& b,
                                    wl::VmId vm, topo::NodeId dest) {
  // EXPECT_EQ on doubles is exact equality — the surface kernel replays
  // the legacy FP ops in the legacy order, so no tolerance is owed.
  EXPECT_EQ(a.feasible, b.feasible) << "vm=" << vm << " dest=" << dest;
  EXPECT_EQ(a.computing, b.computing) << "vm=" << vm << " dest=" << dest;
  EXPECT_EQ(a.dependency, b.dependency) << "vm=" << vm << " dest=" << dest;
  EXPECT_EQ(a.transmission, b.transmission) << "vm=" << vm << " dest=" << dest;
}

void expect_surface_transparent(const topo::Topology& topology) {
  const wl::Deployment deployment(topology, surface_deployment());
  std::vector<net::Flow> flows;
  const net::FairShareResult shares = loaded_shares(topology, flows, 5);
  const auto hosts = topology.nodes_of_kind(topo::NodeKind::kHost);

  // Both leaf-tree modes: shared (engine's optimized shape, rack-memo fast
  // path) and per-host (the generic shortest_path branch).
  for (const bool shared_leaf : {true, false}) {
    mig::MigrationCostModel legacy(topology, deployment);
    mig::MigrationCostModel surfaced(topology, deployment);
    configure_model(legacy, &shares, false, false);
    configure_model(surfaced, &shares, true, false);
    legacy.set_shared_leaf_trees(shared_leaf);
    surfaced.set_shared_leaf_trees(shared_leaf);

    sc::Pcg32 rng(11);
    for (int i = 0; i < 500; ++i) {
      const auto vm = static_cast<wl::VmId>(rng.next_below(
          static_cast<std::uint32_t>(deployment.vm_count())));
      const topo::NodeId dest = rng.pick(hosts);
      expect_breakdown_bitwise_equal(legacy.cost(vm, dest), surfaced.cost(vm, dest), vm, dest);
      EXPECT_EQ(legacy.total_cost(vm, dest), surfaced.total_cost(vm, dest));
    }
    // Idle-fabric corner: no bandwidth state installed -> the surface is
    // cleared and both models run the legacy loop on idle links.
    legacy.set_bandwidth_state(nullptr);
    surfaced.set_bandwidth_state(nullptr);
    sc::Pcg32 rng2(12);
    for (int i = 0; i < 100; ++i) {
      const auto vm = static_cast<wl::VmId>(rng2.next_below(
          static_cast<std::uint32_t>(deployment.vm_count())));
      const topo::NodeId dest = rng2.pick(hosts);
      expect_breakdown_bitwise_equal(legacy.cost(vm, dest), surfaced.cost(vm, dest), vm, dest);
    }
  }
}

}  // namespace

// --- bit-transparency of the surface kernel ---------------------------------

TEST(CostSurface, FatTreeSurfaceCostsMatchLegacyBitwise) {
  expect_surface_transparent(small_fat_tree());
}

TEST(CostSurface, BCubeSurfaceCostsMatchLegacyBitwise) {
  expect_surface_transparent(small_bcube());
}

// --- admissibility of the candidate lower bound -----------------------------

TEST(CostSurface, LowerBoundIsAdmissibleOnRandomCandidatePairs) {
  for (const bool bcube : {false, true}) {
    const topo::Topology topology = bcube ? small_bcube() : small_fat_tree();
    const wl::Deployment deployment(topology, surface_deployment());
    std::vector<net::Flow> flows;
    const net::FairShareResult shares = loaded_shares(topology, flows, 7);
    mig::MigrationCostModel model(topology, deployment);
    configure_model(model, &shares, true, true);

    const auto hosts = topology.nodes_of_kind(topo::NodeKind::kHost);
    sc::Pcg32 rng(13);
    std::size_t infeasible = 0;
    for (int i = 0; i < 1000; ++i) {
      const auto vm = static_cast<wl::VmId>(rng.next_below(
          static_cast<std::uint32_t>(deployment.vm_count())));
      const topo::NodeId dest = rng.pick(hosts);
      const double bound = model.candidate_lower_bound(vm, dest);
      const double exact = model.total_cost(vm, dest);
      // The defining property: bound <= exact, so the argmin can never be
      // pruned. (<= holds for +inf == +inf too.)
      ASSERT_LE(bound, exact) << "inadmissible bound: vm=" << vm << " dest=" << dest;
      if (model.provably_infeasible(vm, dest)) {
        ++infeasible;
        ASSERT_EQ(exact, std::numeric_limits<double>::infinity())
            << "provably_infeasible lied: vm=" << vm << " dest=" << dest;
      }
    }
    // The own-host case alone guarantees some provably-infeasible pairs.
    EXPECT_GT(infeasible, 0u);
  }
}

// --- 50-seed pruned-vs-exhaustive selection identity ------------------------

TEST(CostSurface, PrunedMatchingSelectsIdenticallyAcross50Seeds) {
  for (const bool bcube : {false, true}) {
    const topo::Topology topology = bcube ? small_bcube() : small_fat_tree();
    const wl::Deployment deployment(topology, surface_deployment());
    std::vector<net::Flow> flows;
    const net::FairShareResult shares = loaded_shares(topology, flows, 3);
    mig::MigrationCostModel model(topology, deployment);
    configure_model(model, &shares, true, false);

    const auto hosts = topology.nodes_of_kind(topo::NodeKind::kHost);
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      sc::Pcg32 rng(seed + 1);
      // Candidate sets of 1 (the bound-guarded scan) and 2..4 (the
      // Hungarian branch with infeasibility skips).
      std::vector<wl::VmId> candidates;
      const std::size_t n = 1 + rng.next_below(4);
      for (std::size_t i = 0; i < n; ++i) {
        candidates.push_back(static_cast<wl::VmId>(rng.next_below(
            static_cast<std::uint32_t>(deployment.vm_count()))));
      }
      std::vector<topo::NodeId> targets;
      for (std::size_t i = 0; i < 16; ++i) targets.push_back(rng.pick(hosts));

      const mig::CostModelStats before = model.stats();
      model.set_pruning_enabled(false);
      std::size_t space_off = 0;
      const auto exhaustive =
          core::propose_matching(deployment, model, candidates, targets, &space_off);
      const mig::CostModelStats mid = model.stats();
      model.set_pruning_enabled(true);
      std::size_t space_on = 0;
      const auto pruned =
          core::propose_matching(deployment, model, candidates, targets, &space_on);
      const mig::CostModelStats after = model.stats();

      // Selection identity, bitwise: same pairs, same costs, same order.
      ASSERT_EQ(pruned.size(), exhaustive.size()) << "seed=" << seed;
      for (std::size_t i = 0; i < pruned.size(); ++i) {
        EXPECT_EQ(pruned[i].vm, exhaustive[i].vm) << "seed=" << seed;
        EXPECT_EQ(pruned[i].dest, exhaustive[i].dest) << "seed=" << seed;
        EXPECT_EQ(pruned[i].cost, exhaustive[i].cost) << "seed=" << seed;
      }
      // Scanned search space is an accounting invariant of the sweep
      // shape, not of pruning.
      EXPECT_EQ(space_on, space_off) << "seed=" << seed;
      // Losslessness identity: every candidate the exhaustive sweep
      // evaluated was either evaluated or explicitly counted as pruned —
      // pruning is never a silent cap.
      const std::uint64_t evaluated_off = mid.evaluated - before.evaluated;
      const std::uint64_t pruned_off = mid.pruned - before.pruned;
      const std::uint64_t evaluated_on = after.evaluated - mid.evaluated;
      const std::uint64_t pruned_on = after.pruned - mid.pruned;
      EXPECT_EQ(pruned_off, 0u) << "seed=" << seed;
      EXPECT_EQ(evaluated_on + pruned_on, evaluated_off) << "seed=" << seed;
    }
  }
}

// --- engine-level differential: CSV + checkpoint byte parity ----------------

namespace {

std::string metrics_csv(const std::vector<core::RoundMetrics>& rounds) {
  std::ostringstream os;
  core::write_metrics_csv(os, rounds);
  return os.str();
}

fault::FaultPlan surface_fault_plan(const topo::Topology& topology, std::size_t rounds) {
  fault::FaultOptions options;
  options.seed = 17;
  options.message_drop_probability = 0.15;
  fault::FaultPlan plan(options);
  const auto link = [&](std::size_t nth) {
    return static_cast<topo::LinkId>(nth % topology.link_count());
  };
  plan.fail_link(link(7), 2, rounds / 4);
  plan.fail_link(link(23), rounds / 3, rounds / 2);
  plan.fail_host(topology.rack(1).hosts[0], rounds / 2);
  plan.fail_shim(0, rounds / 4, 3 * rounds / 4);
  return plan;
}

/// Runs one engine on a pool of `pool_threads` and returns (metrics CSV,
/// checkpoint bytes).
std::pair<std::string, std::vector<std::uint8_t>> run_decision_leg(
    const topo::Topology& topology, const fault::FaultPlan* plan, std::size_t pool_threads,
    std::size_t rounds) {
  sc::ThreadPool pool(pool_threads);
  core::EngineConfig config;
  config.fault_plan = plan;
  config.pool = &pool;
  core::DistributedEngine engine(topology, surface_deployment(), config);
  std::vector<core::RoundMetrics> metrics;
  metrics.reserve(rounds);
  std::size_t actions = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    metrics.push_back(engine.run_round());
    actions += metrics.back().migrations + metrics.back().reroutes;
  }
  EXPECT_GT(actions, 0u);  // the comparison must not be vacuous
  return {metrics_csv(metrics), core::Checkpoint::serialize(engine)};
}

/// The decision kernel (surface, pruned matching) with pools of size 1/2/8
/// attached against a pool of 1: the engine never reads EngineConfig::pool,
/// so metrics CSV and checkpoint bytes must match byte for byte.
void expect_decision_kernel_invariance(const topo::Topology& topology, bool faulted) {
  const std::size_t rounds = 60;
  fault::FaultPlan plan =
      faulted ? surface_fault_plan(topology, rounds) : fault::FaultPlan{};
  const fault::FaultPlan* plan_ptr = faulted ? &plan : nullptr;

  const auto [reference_csv, reference_bytes] = run_decision_leg(topology, plan_ptr, 1, rounds);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto [csv, bytes] = run_decision_leg(topology, plan_ptr, threads, rounds);
    EXPECT_EQ(csv, reference_csv) << "metrics diverged at pool=" << threads;
    EXPECT_TRUE(bytes == reference_bytes) << "checkpoint diverged at pool=" << threads;
  }
}

}  // namespace

TEST(CostSurface, FatTreePristineDecisionKernelIsPoolSizeInvariant) {
  expect_decision_kernel_invariance(small_fat_tree(), false);
}

TEST(CostSurface, FatTreeFaultedDecisionKernelIsPoolSizeInvariant) {
  expect_decision_kernel_invariance(small_fat_tree(), true);
}

TEST(CostSurface, BCubePristineDecisionKernelIsPoolSizeInvariant) {
  expect_decision_kernel_invariance(small_bcube(), false);
}

TEST(CostSurface, BCubeFaultedDecisionKernelIsPoolSizeInvariant) {
  expect_decision_kernel_invariance(small_bcube(), true);
}


// Differential harness for the per-round fair-share solver against the
// oracle's from-scratch max_min_fair_share. First, drive one long-lived
// FairShareSolver through random perturbation sequences (demand changes,
// rate-limit toggles, link/switch liveness flips, reroutes, endpoint
// migrations, flow-table growth) and check after every step that it
// matches the reference on every flow rate and link load to 1e-9. The
// solver reads each flow's link ids while the reference resolves the node
// path, so a writer that leaves the two out of step (a reroute, a
// teardown) shows up as a wrong rate here. The same 50-seed sweep runs on
// both reference fabrics (Fat-Tree and BCube); liveness flips inside the
// sequence cover the faulted regime. Second, the flow tables real engine
// runs produce, pristine and faulted, solved both ways after every round.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "fault/fault_plan.hpp"
#include "net/fair_share.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "oracles/fair_share.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"
#include "topology/liveness.hpp"

namespace core = sheriff::core;
namespace fault = sheriff::fault;
namespace topo = sheriff::topo;
namespace net = sheriff::net;
namespace sc = sheriff::common;
namespace wl = sheriff::wl;
namespace oracle = sheriff::oracle;

namespace {

constexpr double kTol = 1e-9;

topo::Topology contended_fat_tree() {
  topo::FatTreeOptions options;
  options.pods = 4;
  options.hosts_per_rack = 2;
  options.tor_agg_gbps = 1.0;  // narrow uplinks: most seeds hit saturation
  return topo::build_fat_tree(options);
}

topo::Topology contended_bcube() {
  topo::BCubeOptions options;
  options.ports = 3;  // BCube(3,2): 27 servers, 3 switch levels
  options.levels = 2;
  options.link_gbps = 0.5;  // narrow uniform links: saturation everywhere
  return topo::build_bcube(options);
}

net::Flow make_flow(net::FlowId id, topo::NodeId src, topo::NodeId dst, double demand) {
  net::Flow f;
  f.id = id;
  f.src_host = src;
  f.dst_host = dst;
  f.demand_gbps = demand;
  return f;
}

/// Runs the from-scratch reference on a copy and compares every flow rate,
/// allocated_gbps, and per-link load/offered/utilization.
void expect_matches_reference(const topo::Topology& t, const std::vector<net::Flow>& flows,
                              const topo::LivenessMask* mask,
                              const net::FairShareResult& incremental, std::size_t step) {
  std::vector<net::Flow> reference_flows = flows;
  const auto reference = oracle::max_min_fair_share(t, reference_flows, mask);
  ASSERT_EQ(incremental.flow_rate.size(), reference.flow_rate.size()) << "step " << step;
  for (std::size_t f = 0; f < reference.flow_rate.size(); ++f) {
    EXPECT_NEAR(incremental.flow_rate[f], reference.flow_rate[f], kTol)
        << "flow " << f << " at step " << step;
    EXPECT_NEAR(flows[f].allocated_gbps, reference_flows[f].allocated_gbps, kTol)
        << "flow " << f << " at step " << step;
  }
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    EXPECT_NEAR(incremental.link_load_gbps[l], reference.link_load_gbps[l], kTol)
        << "link " << l << " at step " << step;
    EXPECT_NEAR(incremental.link_offered_gbps[l], reference.link_offered_gbps[l], kTol)
        << "link " << l << " at step " << step;
    EXPECT_NEAR(incremental.link_utilization[l], reference.link_utilization[l], kTol)
        << "link " << l << " at step " << step;
  }
}

/// The full perturbation sweep for one (fabric, seed) pair. `flip_kind`
/// names the switch layer liveness flips and reroute blocks draw from —
/// core switches on the fat tree, level-1+ switches on BCube (a BCube
/// server keeps other levels when one switch dies, so the mask never
/// strands an endpoint for the whole run).
void run_differential(const topo::Topology& t, topo::NodeKind flip_kind, int seed) {
  sc::Pcg32 rng(static_cast<std::uint64_t>(seed) * 2654435761ULL + 17);
  net::Router router(t);
  topo::LivenessMask mask(t);
  router.apply_liveness(&mask);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  const auto cores = t.nodes_of_kind(flip_kind);

  std::vector<net::Flow> flows;
  const std::size_t n_flows = 24 + rng.next_below(48);
  for (net::FlowId id = 0; id < n_flows; ++id) {
    const auto a = rng.pick(hosts);
    const auto b = rng.pick(hosts);
    if (a == b) continue;
    auto f = make_flow(id, a, b, rng.uniform(0.05, 2.0));
    if (rng.bernoulli(0.25)) f.rate_limit_gbps = rng.uniform(0.1, 1.5);
    flows.push_back(f);
  }
  router.route_all(flows);

  net::FairShareSolver solver(t);
  expect_matches_reference(t, flows, &mask, solver.solve(flows, &mask), 0);

  // Track one failed fabric element at a time so recovery steps are exact
  // inverses and the mask never drifts into a partitioned mess.
  topo::LinkId downed_link = t.link_count();
  topo::NodeId downed_switch = t.node_count();

  const std::size_t steps = 25;
  for (std::size_t step = 1; step <= steps; ++step) {
    switch (rng.next_below(8)) {
      case 0: {  // single-flow demand change (sometimes to zero and back)
        auto& f = flows[rng.next_below(static_cast<std::uint32_t>(flows.size()))];
        f.demand_gbps = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.05, 2.5);
        break;
      }
      case 1: {  // global demand drift, the engine's every-round shape
        for (auto& f : flows) f.demand_gbps *= rng.uniform(0.8, 1.25);
        break;
      }
      case 2: {  // rate-limit toggle (QCN feedback path)
        auto& f = flows[rng.next_below(static_cast<std::uint32_t>(flows.size()))];
        f.rate_limit_gbps = rng.bernoulli(0.5) ? rng.uniform(0.05, 1.0) : 0.0;
        break;
      }
      case 3: {  // link liveness flip
        if (downed_link == t.link_count()) {
          downed_link = rng.next_below(static_cast<std::uint32_t>(t.link_count()));
          mask.set_link(downed_link, false);
        } else {
          mask.set_link(downed_link, true);
          downed_link = t.link_count();
        }
        break;
      }
      case 4: {  // switch liveness flip (severs every incident link)
        if (downed_switch == t.node_count()) {
          downed_switch = rng.pick(cores);
          mask.set_node(downed_switch, false);
        } else {
          mask.set_node(downed_switch, true);
          downed_switch = t.node_count();
        }
        break;
      }
      case 5: {  // reroute around a blocked core (FLOWREROUTE shape)
        auto& f = flows[rng.next_below(static_cast<std::uint32_t>(flows.size()))];
        const std::vector<topo::NodeId> blocked{rng.pick(cores)};
        router.refresh_liveness();
        router.route(f, blocked);
        break;
      }
      case 6: {  // endpoint migration + teardown, re-routed next step
        auto& f = flows[rng.next_below(static_cast<std::uint32_t>(flows.size()))];
        f.src_host = rng.pick(hosts);
        f.unroute();
        break;
      }
      default: {  // no-op round: nothing changed, nothing may move
        break;
      }
    }
    // Re-route unrouted flows like the engine does each round.
    router.refresh_liveness();
    for (auto& f : flows) {
      if (!f.routed() && f.src_host != f.dst_host) router.route(f);
    }
    // Occasionally the flow table grows (a new dependency edge appears).
    if (rng.bernoulli(0.1)) {
      const auto a = rng.pick(hosts);
      const auto b = rng.pick(hosts);
      if (a != b) {
        auto f = make_flow(static_cast<net::FlowId>(flows.size()), a, b,
                           rng.uniform(0.05, 2.0));
        router.route(f);
        flows.push_back(f);
      }
    }
    expect_matches_reference(t, flows, &mask, solver.solve(flows, &mask), step);
  }

  EXPECT_EQ(solver.stats().solves, steps + 1);
}

}  // namespace

class FairShareDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FairShareDifferential, IncrementalMatchesFromScratchUnderPerturbations) {
  run_differential(contended_fat_tree(), topo::NodeKind::kCoreSwitch, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairShareDifferential, ::testing::Range(0, 50));

class FairShareDifferentialBCube : public ::testing::TestWithParam<int> {};

TEST_P(FairShareDifferentialBCube, IncrementalMatchesFromScratchUnderPerturbations) {
  run_differential(contended_bcube(), topo::NodeKind::kBCubeSwitch, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairShareDifferentialBCube, ::testing::Range(0, 50));

// Solving an unchanged table again must not move a single bit.
TEST(FairShareDifferentialEdge, NoopSolveIsBitwiseStable) {
  const auto t = contended_fat_tree();
  net::Router router(t);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  std::vector<net::Flow> flows{make_flow(0, hosts[0], hosts[4], 1.5),
                               make_flow(1, hosts[1], hosts[5], 0.7)};
  router.route_all(flows);

  net::FairShareSolver solver(t);
  const auto first = solver.solve(flows);  // copy
  const auto& second = solver.solve(flows);
  EXPECT_EQ(first.flow_rate, second.flow_rate);
  EXPECT_EQ(first.link_load_gbps, second.link_load_gbps);
  EXPECT_EQ(first.link_offered_gbps, second.link_offered_gbps);
  EXPECT_EQ(first.link_utilization, second.link_utilization);
}

// Liveness attach/detach transitions (nullptr ↔ mask) must be handled as
// wholesale changes in either direction.
TEST(FairShareDifferentialEdge, LivenessAttachDetach) {
  const auto t = contended_fat_tree();
  net::Router router(t);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  std::vector<net::Flow> flows;
  for (net::FlowId id = 0; id < 12; ++id) {
    flows.push_back(make_flow(id, hosts[id % hosts.size()],
                              hosts[(id * 5 + 3) % hosts.size()], 0.9));
  }
  router.route_all(flows);
  topo::LivenessMask mask(t);
  mask.set_node(t.nodes_of_kind(topo::NodeKind::kAggSwitch).front(), false);

  net::FairShareSolver solver(t);
  expect_matches_reference(t, flows, nullptr, solver.solve(flows, nullptr), 1);
  expect_matches_reference(t, flows, &mask, solver.solve(flows, &mask), 2);
  expect_matches_reference(t, flows, nullptr, solver.solve(flows, nullptr), 3);
}

// --- Engine flow tables -----------------------------------------------------

namespace {

/// Narrow ToR uplinks, so engine rounds saturate links and QCN
/// rate-limits flows (BCube's 1 Gbps links do so as they are).
topo::Topology fat_tree_k4() {
  topo::FatTreeOptions options;
  options.pods = 4;
  options.hosts_per_rack = 3;
  options.tor_agg_gbps = 1.0;
  return topo::build_fat_tree(options);
}

topo::Topology bcube_4_1() {
  topo::BCubeOptions options;
  options.ports = 4;
  options.levels = 1;
  return topo::build_bcube(options);
}

/// Runs 40 engine rounds; after each one a fresh FairShareSolver and the
/// oracle solve copies of the engine's flow table under its liveness mask
/// and must agree within a relative 1e-6 on every flow rate. Returns the
/// number of QCN rate-limited flows the solves saw.
std::size_t expect_engine_tables_match(const topo::Topology& t, const fault::FaultPlan* plan,
                                       std::uint64_t seed) {
  constexpr std::size_t kRounds = 40;
  wl::DeploymentOptions deployment;
  deployment.seed = seed;
  core::EngineConfig config;
  config.fault_plan = plan;
  core::DistributedEngine engine(t, deployment, config);
  std::size_t faulted_rounds = 0;
  std::size_t bottlenecked = 0;  // rated below their offered demand
  std::size_t rate_limited = 0;  // capped by a QCN rate limit
  for (std::size_t round = 0; round < kRounds; ++round) {
    (void)engine.run_round();
    const topo::LivenessMask* mask =
        engine.fault_injector() != nullptr ? &engine.fault_injector()->liveness() : nullptr;
    if (mask != nullptr && !mask->all_up()) ++faulted_rounds;
    std::vector<net::Flow> solver_flows(engine.flows().begin(), engine.flows().end());
    std::vector<net::Flow> reference_flows = solver_flows;
    net::FairShareSolver solver(t);
    const net::FairShareResult& got = solver.solve(solver_flows, mask);
    const net::FairShareResult want = oracle::max_min_fair_share(t, reference_flows, mask);
    EXPECT_EQ(got.flow_rate.size(), want.flow_rate.size()) << "round " << round;
    if (got.flow_rate.size() != want.flow_rate.size()) return rate_limited;
    for (std::size_t f = 0; f < want.flow_rate.size(); ++f) {
      EXPECT_LE(std::abs(got.flow_rate[f] - want.flow_rate[f]),
                1e-6 * (1.0 + std::abs(want.flow_rate[f])))
          << "round " << round << " flow " << f;
      const net::Flow& flow = reference_flows[f];
      bottlenecked += want.flow_rate[f] + 1e-9 < flow.effective_demand() ? 1 : 0;
      rate_limited += flow.effective_demand() < flow.demand_gbps ? 1 : 0;
    }
  }
  // Not vacuous: links saturate, and a faulted run solves under a mask
  // with something down.
  EXPECT_GT(bottlenecked, 0u);
  if (plan != nullptr) {
    EXPECT_GT(faulted_rounds, 0u);
  }
  return rate_limited;
}

}  // namespace

TEST(FairShareDifferential, EngineFlowTablesMatchReference) {
  // QCN limits bind on the Fat-Tree legs.
  const topo::Topology fat_tree = fat_tree_k4();
  EXPECT_GT(expect_engine_tables_match(fat_tree, nullptr, 42), 0u);

  fault::FaultOptions options;
  options.seed = 7;
  options.message_drop_probability = 0.05;
  fault::FaultPlan flaps = fault::FaultPlan::random_link_flaps(fat_tree, options, 4, 2, 30, 8);
  flaps.fail_switch(fat_tree.nodes_of_kind(topo::NodeKind::kAggSwitch).front(), 12, 24);
  flaps.fail_shim(1, 10, 30);
  flaps.set_options(options);
  EXPECT_GT(expect_engine_tables_match(fat_tree, &flaps, 42), 0u);

  // BCube(4,1) has no switch-to-switch links: fail concrete links and one
  // level switch instead.
  const topo::Topology bcube = bcube_4_1();
  fault::FaultPlan outages;
  outages.fail_link(0, 5, 30);
  outages.fail_link(bcube.link_count() - 1, 12, 36);
  outages.fail_switch(bcube.nodes_of_kind(topo::NodeKind::kBCubeSwitch).front(), 20, 34);
  outages.set_options(options);
  (void)expect_engine_tables_match(bcube, &outages, 11);
}

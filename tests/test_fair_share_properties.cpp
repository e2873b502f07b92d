// Fair-share invariant properties, checked against BOTH implementations
// (from-scratch reference and incremental FairShareSolver) on fuzzed flow
// sets, and re-checked on the solver mid-way through a perturbation
// sequence. The invariants are the ones the management layer relies on:
//
//   (1) capacity: no link carries more than its capacity,
//   (2) demand:   no flow exceeds its effective demand,
//   (3) Pareto:   every unsatisfied routed flow crosses a saturated link
//                 (max–min: you cannot raise it without lowering someone).

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "net/fair_share.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "oracles/fair_share.hpp"
#include "topology/fat_tree.hpp"
#include "topology/liveness.hpp"

namespace topo = sheriff::topo;
namespace net = sheriff::net;
namespace sc = sheriff::common;
namespace oracle = sheriff::oracle;

namespace {

topo::Topology small_fat_tree(double tor_agg_gbps) {
  topo::FatTreeOptions options;
  options.pods = 4;
  options.hosts_per_rack = 2;
  options.tor_agg_gbps = tor_agg_gbps;
  return topo::build_fat_tree(options);
}

net::Flow make_flow(net::FlowId id, topo::NodeId src, topo::NodeId dst, double demand) {
  net::Flow f;
  f.id = id;
  f.src_host = src;
  f.dst_host = dst;
  f.demand_gbps = demand;
  return f;
}

std::vector<net::Flow> fuzzed_flows(sc::Pcg32& rng, const topo::Topology& t,
                                    net::Router& router) {
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  std::vector<net::Flow> flows;
  const std::size_t n_flows = 16 + rng.next_below(64);
  for (net::FlowId id = 0; id < n_flows; ++id) {
    const auto a = rng.pick(hosts);
    const auto b = rng.pick(hosts);
    if (a == b) continue;
    auto f = make_flow(id, a, b, rng.uniform(0.0, 2.5));
    if (rng.bernoulli(0.3)) f.rate_limit_gbps = rng.uniform(0.1, 1.0);
    flows.push_back(f);
  }
  router.route_all(flows);
  return flows;
}

/// Asserts invariants (1)–(3) on an allocation. `mask` (optional) makes the
/// Pareto check skip flows zero-rated for crossing a dead link.
void expect_invariants(const topo::Topology& t, const std::vector<net::Flow>& flows,
                       const net::FairShareResult& result, const topo::LivenessMask* mask,
                       const char* which) {
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    EXPECT_LE(result.link_load_gbps[l], t.link(l).capacity_gbps + 1e-6)
        << which << ": link " << l << " over capacity";
    EXPECT_GE(result.available_bandwidth(t, l), 0.0) << which;
  }
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_LE(result.flow_rate[f], flows[f].effective_demand() + 1e-9)
        << which << ": flow " << f << " over its demand";
    EXPECT_GE(result.flow_rate[f], 0.0) << which;
    if (!flows[f].routed() || result.flow_rate[f] >= flows[f].effective_demand() - 1e-6) {
      continue;
    }
    const auto& path = flows[f].path;
    bool dead_path = false;
    bool saturated = false;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto l = t.link_between(path[i], path[i + 1]);
      if (mask != nullptr && !mask->link_usable(t, l)) dead_path = true;
      if (result.link_load_gbps[l] >= t.link(l).capacity_gbps - 1e-6) saturated = true;
    }
    if (dead_path) {
      EXPECT_NEAR(result.flow_rate[f], 0.0, 1e-12)
          << which << ": flow " << f << " rated over a dead link";
    } else {
      EXPECT_TRUE(saturated) << which << ": flow " << f << " starved without a bottleneck";
    }
  }
}

}  // namespace

class FairShareBothSolvers : public ::testing::TestWithParam<int> {};

TEST_P(FairShareBothSolvers, InvariantsHoldOnFuzzedFlowSets) {
  sc::Pcg32 rng(static_cast<std::uint64_t>(GetParam()) * 97 + 13);
  const auto t = small_fat_tree(rng.bernoulli(0.5) ? 1.0 : 10.0);
  net::Router router(t);
  auto flows = fuzzed_flows(rng, t, router);

  auto reference_flows = flows;
  const auto reference = oracle::max_min_fair_share(t, reference_flows);
  expect_invariants(t, reference_flows, reference, nullptr, "reference");

  net::FairShareSolver solver(t);
  expect_invariants(t, flows, solver.solve(flows), nullptr, "incremental");
}

TEST_P(FairShareBothSolvers, InvariantsSurvivePerturbationSequences) {
  sc::Pcg32 rng(static_cast<std::uint64_t>(GetParam()) * 131 + 5);
  const auto t = small_fat_tree(1.0);
  net::Router router(t);
  topo::LivenessMask mask(t);
  router.apply_liveness(&mask);
  auto flows = fuzzed_flows(rng, t, router);

  net::FairShareSolver solver(t);
  const auto aggs = t.nodes_of_kind(topo::NodeKind::kAggSwitch);
  topo::NodeId downed = t.node_count();
  for (std::size_t step = 0; step < 12; ++step) {
    if (!flows.empty() && rng.bernoulli(0.7)) {
      auto& f = flows[rng.next_below(static_cast<std::uint32_t>(flows.size()))];
      f.demand_gbps = rng.uniform(0.0, 3.0);
    }
    if (rng.bernoulli(0.3)) {
      if (downed == t.node_count()) {
        downed = rng.pick(aggs);
        mask.set_node(downed, false);
      } else {
        mask.set_node(downed, true);
        downed = t.node_count();
      }
      router.refresh_liveness();
    }
    expect_invariants(t, flows, solver.solve(flows, &mask), &mask, "incremental");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairShareBothSolvers, ::testing::Range(0, 16));

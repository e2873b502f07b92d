// Lockdown for the flat water-filling kernel (DESIGN.md §13): component
// decomposition under partial churn, the pinned link-event tie order,
// engine-level metrics-CSV + checkpoint-byte equality across the unread
// EngineConfig::pool, and the fair_share.components /
// fair_share.arena_bytes gauges.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "fault/fault_plan.hpp"
#include "net/fair_share.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "obs/registry.hpp"
#include "oracles/fair_share.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/checkpoint.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"
#include "workload/deployment.hpp"

namespace core = sheriff::core;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;
namespace net = sheriff::net;
namespace fault = sheriff::fault;
namespace sc = sheriff::common;
namespace oracle = sheriff::oracle;

namespace {

constexpr double kTol = 1e-9;

topo::Topology small_fat_tree() {
  topo::FatTreeOptions options;
  options.pods = 4;  // 8 racks
  options.hosts_per_rack = 2;
  options.tor_agg_gbps = 1.0;
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

/// Intra-rack flows only: each rack's flows share that rack's host—ToR
/// links and nothing else, so every rack is its own connected component of
/// the flow–link sharing graph. `per_rack` flows between the rack's two
/// hosts (alternating direction — both directions ride the same undirected
/// links, so they stay one component).
std::vector<net::Flow> intra_rack_flows(const topo::Topology& t, net::Router& router,
                                        std::size_t per_rack) {
  std::vector<net::Flow> flows;
  for (topo::RackId r = 0; r < t.rack_count(); ++r) {
    const auto& rack = t.rack(r);
    for (std::size_t i = 0; i < per_rack; ++i) {
      const topo::NodeId a = rack.hosts[i % 2];
      const topo::NodeId b = rack.hosts[(i + 1) % 2];
      flows.push_back(make_flow(static_cast<net::FlowId>(flows.size()), a, b,
                                0.3 + 0.1 * static_cast<double>(i)));
    }
  }
  router.route_all(flows);
  return flows;
}

void expect_matches_reference(const topo::Topology& t, const std::vector<net::Flow>& flows,
                              const net::FairShareResult& incremental) {
  std::vector<net::Flow> reference_flows = flows;
  const auto reference = oracle::max_min_fair_share(t, reference_flows);
  ASSERT_EQ(incremental.flow_rate.size(), reference.flow_rate.size());
  for (std::size_t f = 0; f < reference.flow_rate.size(); ++f) {
    EXPECT_NEAR(incremental.flow_rate[f], reference.flow_rate[f], kTol) << "flow " << f;
  }
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    EXPECT_NEAR(incremental.link_load_gbps[l], reference.link_load_gbps[l], kTol)
        << "link " << l;
    EXPECT_NEAR(incremental.link_utilization[l], reference.link_utilization[l], kTol)
        << "link " << l;
  }
}

}  // namespace

// --- partial churn -----------------------------------------------------------

// 10% of the flows change demand, all inside rack 0's component. The
// allocation must match the from-scratch reference, and every other
// component's flows and links must keep their exact bits: a component's
// fill reads nothing outside it.
TEST(FairShareKernel, PartialChurnKeepsUntouchedComponentsBitwise) {
  const auto t = small_fat_tree();
  net::Router router(t);
  auto flows = intra_rack_flows(t, router, 5);  // 8 racks × 5 = 40 flows

  net::FairShareSolver solver(t);
  const net::FairShareResult before = solver.solve(flows);  // copy
  ASSERT_EQ(solver.component_count(), t.rack_count());

  for (std::size_t f = 0; f < 4; ++f) flows[f].demand_gbps *= 1.7;
  const net::FairShareResult& after = solver.solve(flows);
  expect_matches_reference(t, flows, after);
  EXPECT_EQ(solver.component_count(), t.rack_count());
  for (std::size_t f = 5; f < flows.size(); ++f) {
    EXPECT_EQ(after.flow_rate[f], before.flow_rate[f]) << "flow " << f;
  }
  for (const net::Flow& flow : flows) {
    if (t.node(flow.src_host).rack == 0) continue;
    for (std::size_t i = 0; i + 1 < flow.path.size(); ++i) {
      const topo::LinkId l = t.link_between(flow.path[i], flow.path[i + 1]);
      EXPECT_EQ(after.link_load_gbps[l], before.link_load_gbps[l]) << "link " << l;
    }
  }
}

// Demand churn that leaves the effective demand unchanged (rate-limited
// flow) must not move a single output bit.
TEST(FairShareKernel, RateLimitedDemandChurnIsInvisible) {
  const auto t = small_fat_tree();
  net::Router router(t);
  auto flows = intra_rack_flows(t, router, 3);
  for (auto& f : flows) f.rate_limit_gbps = 0.2;  // below every demand

  net::FairShareSolver solver(t);
  const net::FairShareResult before = solver.solve(flows);  // copy
  for (auto& f : flows) f.demand_gbps += 1.0;  // effective demand still 0.2
  const net::FairShareResult& after = solver.solve(flows);
  EXPECT_EQ(after.flow_rate, before.flow_rate);
  EXPECT_EQ(after.link_load_gbps, before.link_load_gbps);
  EXPECT_EQ(after.link_offered_gbps, before.link_offered_gbps);
}

// --- link-event tie order ----------------------------------------------------

namespace {

/// The ft32_core_hotspot shape at k = 8: 1 Gbps agg–core links under
/// 10 Gbps everywhere else, so the core layer saturates.
topo::Topology agg_core_bottleneck_fat_tree() {
  topo::FatTreeOptions options;
  options.pods = 8;
  options.hosts_per_rack = 2;
  options.host_link_gbps = 10.0;
  options.tor_agg_gbps = 10.0;
  options.agg_core_gbps = 1.0;
  return topo::build_fat_tree(options);
}

/// CRC-32 of the bit patterns of every flow rate, then every link load.
std::uint32_t allocation_crc(const net::FairShareResult& result) {
  std::vector<std::uint8_t> bytes;
  const auto append = [&bytes](double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  };
  for (const double rate : result.flow_rate) append(rate);
  for (const double load : result.link_load_gbps) append(load);
  return sheriff::snapshot::detail::crc32(bytes.data(), bytes.size());
}

}  // namespace

// On a core-bottlenecked fabric many saturation levels tie exactly, and
// which tied link the event heap pops first moves the last bits of rates
// and loads (each order is max–min fair; they differ in FP rounding). The
// heap's push/pop sequence is therefore part of the result contract. The
// CRCs were generated by the incremental solver this kernel replaced:
// odd seeds draw mixed demands, even seeds give every flow 2 Gbps.
TEST(FairShareKernel, LinkEventTieOrderIsPinned) {
  constexpr std::array<std::uint32_t, 12> kPinned = {
      0xa95a492cU, 0x914da5b2U, 0xab116f32U, 0x02a274d0U, 0x143e793cU, 0xf9340c9aU,
      0xd1b1f0e6U, 0x0bfc6a95U, 0xba6fa339U, 0x5d02c067U, 0xc5d32d04U, 0x2c99ba21U};
  const auto t = agg_core_bottleneck_fat_tree();
  net::Router router(t);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  for (std::uint64_t seed = 1; seed <= kPinned.size(); ++seed) {
    sc::Pcg32 rng(seed);
    const bool uniform = seed % 2 == 0;
    std::vector<net::Flow> flows;
    while (flows.size() < 96) {
      const topo::NodeId a = rng.pick(hosts);
      const topo::NodeId b = rng.pick(hosts);
      if (a == b) continue;
      flows.push_back(make_flow(static_cast<net::FlowId>(flows.size()), a, b,
                                uniform ? 2.0 : rng.uniform(0.1, 3.0)));
    }
    router.route_all(flows);
    net::FairShareSolver solver(t);
    const net::FairShareResult& result = solver.solve(flows);
    expect_matches_reference(t, flows, result);
    EXPECT_EQ(allocation_crc(result), kPinned[seed - 1]) << "seed " << seed;
  }
}

// --- engine-level determinism ------------------------------------------------

namespace {

topo::Topology small_bcube() {
  topo::BCubeOptions options;
  options.ports = 3;
  options.levels = 2;
  return topo::build_bcube(options);
}

wl::DeploymentOptions kernel_deployment() {
  wl::DeploymentOptions options;
  options.seed = 23;
  options.vms_per_host = 2.5;
  options.placement = wl::PlacementPolicy::kSkewed;
  return options;
}

fault::FaultPlan kernel_fault_plan(const topo::Topology& topology, std::size_t rounds) {
  fault::FaultOptions options;
  options.seed = 17;
  fault::FaultPlan plan(options);
  plan.fail_link(static_cast<topo::LinkId>(7 % topology.link_count()), 2, rounds / 3);
  plan.fail_link(static_cast<topo::LinkId>(23 % topology.link_count()), rounds / 3,
                 2 * rounds / 3);
  plan.fail_host(topology.rack(1).hosts[0], rounds / 2);
  return plan;
}

std::string metrics_csv(const std::vector<core::RoundMetrics>& rounds) {
  std::ostringstream os;
  core::write_metrics_csv(os, rounds);
  return os.str();
}

/// Runs R rounds at pool sizes 1/2/8 and requires the metrics CSV and every
/// checkpoint byte to be identical: the engine never reads
/// EngineConfig::pool, which perfbench's --pool relies on.
void expect_pool_size_invariance(const topo::Topology& topology, bool faulted) {
  const std::size_t rounds_n = 120;
  fault::FaultPlan plan = faulted ? kernel_fault_plan(topology, rounds_n) : fault::FaultPlan{};
  std::string reference_csv;
  std::vector<std::uint8_t> reference_checkpoint;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    sc::ThreadPool pool(workers);
    core::EngineConfig config;
    config.observe = true;
    config.pool = &pool;
    if (faulted) config.fault_plan = &plan;
    core::DistributedEngine engine(topology, kernel_deployment(), config);
    std::vector<core::RoundMetrics> rounds;
    rounds.reserve(rounds_n);
    for (std::size_t r = 0; r < rounds_n; ++r) rounds.push_back(engine.run_round());
    const std::string csv = metrics_csv(rounds);
    const std::vector<std::uint8_t> checkpoint = core::Checkpoint::serialize(engine);
    if (workers == 1) {
      reference_csv = csv;
      reference_checkpoint = checkpoint;
    } else {
      EXPECT_EQ(csv, reference_csv) << "metrics diverged at pool size " << workers;
      EXPECT_EQ(checkpoint == reference_checkpoint, true)
          << "checkpoint bytes diverged at pool size " << workers;
    }
  }
}

}  // namespace

TEST(FairShareKernel, FatTreePristineEngineIsPoolSizeInvariant) {
  expect_pool_size_invariance(small_fat_tree(), false);
}

TEST(FairShareKernel, FatTreeFaultedEngineIsPoolSizeInvariant) {
  expect_pool_size_invariance(small_fat_tree(), true);
}

TEST(FairShareKernel, BCubeFaultedEngineIsPoolSizeInvariant) {
  expect_pool_size_invariance(small_bcube(), true);
}

// --- observability -----------------------------------------------------------

TEST(FairShareKernel, PublishesComponentAndArenaGauges) {
  const auto t = small_fat_tree();
  net::Router router(t);
  auto flows = intra_rack_flows(t, router, 3);
  net::FairShareSolver solver(t);
  solver.solve(flows);

  sheriff::obs::MetricRegistry registry;
  solver.publish_metrics(registry);
  const auto* components = registry.find_gauge("fair_share.components");
  const auto* arena = registry.find_gauge("fair_share.arena_bytes");
  ASSERT_NE(components, nullptr);
  ASSERT_NE(arena, nullptr);
  EXPECT_EQ(components->value(), static_cast<double>(t.rack_count()));
  EXPECT_EQ(arena->value(), static_cast<double>(solver.arena_bytes()));
  EXPECT_GT(solver.arena_bytes(), 0u);
}

// The engine's phase profile splits the fair-share time into build + fill.
TEST(FairShareKernel, PhaseProfileSplitsBuildAndFill) {
  const auto topology = small_fat_tree();
  core::DistributedEngine engine(topology, kernel_deployment(), core::EngineConfig{});
  for (std::size_t r = 0; r < 10; ++r) engine.run_round();
  const core::PhaseProfile& profile = engine.phase_profile();
  EXPECT_GT(profile.fair_share_build_ns + profile.fair_share_fill_ns, 0u);
  EXPECT_LE(profile.fair_share_build_ns + profile.fair_share_fill_ns, profile.fair_share_ns);
}

// The fabric's shared distance rows (topology/distance_rows.hpp): every
// row equals graph::dijkstra from the same root (distances bitwise, the
// lowest-id tight parent, the rack-link CSR and the reachable flags), every
// engine on one Topology reads the same row objects, a cold copy of the
// fabric reproduces an engine's bytes, and engines constructed on one
// Topology from 8 threads at once publish one row per root.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "graph/dijkstra.hpp"
#include "snapshot/checkpoint.hpp"
#include "topology/bcube.hpp"
#include "topology/distance_rows.hpp"
#include "topology/fat_tree.hpp"
#include "topology/three_tier.hpp"
#include "workload/deployment.hpp"

namespace core = sheriff::core;
namespace graph = sheriff::graph;
namespace topo = sheriff::topo;
namespace wl = sheriff::wl;

namespace {

topo::Topology fat_tree(int pods) {
  topo::FatTreeOptions options;
  options.pods = pods;
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

topo::Topology three_tier() {
  topo::ThreeTierOptions options;
  options.racks = 8;
  options.hosts_per_rack = 3;
  return topo::build_three_tier(options);
}

wl::DeploymentOptions deployment() {
  wl::DeploymentOptions options;
  options.seed = 2015;
  options.vms_per_host = 2.5;
  options.placement = wl::PlacementPolicy::kSkewed;
  return options;
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// Every root's row against a fresh graph::dijkstra from that root: the
/// ToR rows from the batch build (one scratch tree reused across rows),
/// the others from lazy single-row builds.
void expect_rows_match_oracle(const topo::Topology& t) {
  const graph::Graph g = t.wired_graph(topo::EdgeWeight::kDistance);
  const topo::DistanceRows& rows = t.distance_rows();
  rows.build_tor_rows();
  ASSERT_EQ(rows.built_rows(), t.rack_count());
  for (topo::NodeId root = 0; root < t.node_count(); ++root) {
    const topo::DistanceRow& row = rows.row(root);
    const graph::ShortestPathTree oracle = graph::dijkstra(g, root);
    ASSERT_EQ(bits(row.distance), bits(oracle.distance)) << t.name() << " root " << root;
    for (topo::NodeId v = 0; v < t.node_count(); ++v) {
      const auto& parents = oracle.parents[v];
      const topo::NodeId lowest =
          parents.empty() ? topo::kInvalidNode : *std::min_element(parents.begin(), parents.end());
      ASSERT_EQ(row.parent[v], lowest) << t.name() << " root " << root << " node " << v;
      ASSERT_EQ(row.path_to(v), oracle.path_to(v)) << t.name() << " root " << root;
    }
    for (topo::RackId r = 0; r < t.rack_count(); ++r) {
      const topo::NodeId tor = t.rack(r).tor;
      const bool reachable = oracle.distance[tor] != graph::kInfiniteDistance;
      EXPECT_EQ(row.rack_reachable[r], reachable ? 1 : 0);
      std::vector<topo::LinkId> walk;
      const auto path = oracle.path_to(tor);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        walk.push_back(t.link_between(path[i], path[i + 1]));
      }
      const auto links = row.links_to_rack(r);
      EXPECT_EQ(std::vector<topo::LinkId>(links.begin(), links.end()), walk)
          << t.name() << " root " << root << " rack " << r;
    }
  }
  EXPECT_EQ(rows.built_rows(), t.node_count());
}

/// Metrics CSV and final checkpoint bytes of one engine run.
std::pair<std::string, std::vector<std::uint8_t>> run_bytes(const topo::Topology& t,
                                                           core::ManagerMode mode) {
  core::EngineConfig config;
  config.mode = mode;
  core::DistributedEngine engine(t, deployment(), config);
  const auto rounds = engine.run(12);
  std::ostringstream csv;
  core::write_metrics_csv(csv, rounds);
  return {csv.str(), core::Checkpoint::serialize(engine)};
}

}  // namespace

TEST(DistanceRows, FatTreeK4RowsMatchDijkstra) { expect_rows_match_oracle(fat_tree(4)); }

TEST(DistanceRows, FatTreeK8RowsMatchDijkstra) { expect_rows_match_oracle(fat_tree(8)); }

TEST(DistanceRows, BCubeRowsMatchDijkstra) { expect_rows_match_oracle(bcube_4_1()); }

TEST(DistanceRows, ThreeTierRowsMatchDijkstra) { expect_rows_match_oracle(three_tier()); }

TEST(DistanceRows, EnginesOnOneTopologyShareRowObjects) {
  const topo::Topology t = fat_tree(4);
  EXPECT_EQ(t.distance_rows().built_rows(), 0u);
  core::EngineConfig config;
  const core::DistributedEngine first(t, deployment(), config);
  // The first engine built every ToR row at construction.
  EXPECT_EQ(t.distance_rows().built_rows(), t.rack_count());
  config.mode = core::ManagerMode::kKMedian;
  const core::DistributedEngine second(t, deployment(), config);
  EXPECT_EQ(t.distance_rows().built_rows(), t.rack_count());
  for (const topo::Rack& rack : t.racks()) {
    const topo::DistanceRow* shared = &t.distance_rows().row(rack.tor);
    EXPECT_EQ(&first.cost_model().distance_row(rack.tor), shared);
    EXPECT_EQ(&second.cost_model().distance_row(rack.tor), shared);
  }
}

TEST(DistanceRows, FreshCopyOfFabricGivesIdenticalBytes) {
  for (const core::ManagerMode mode : {core::ManagerMode::kSheriff, core::ManagerMode::kKMedian}) {
    const topo::Topology warm = fat_tree(4);
    (void)run_bytes(warm, mode);  // warms the shared rows
    ASSERT_GE(warm.distance_rows().built_rows(), warm.rack_count());
    const auto [warm_csv, warm_bytes] = run_bytes(warm, mode);

    const topo::Topology cold = warm;  // a copy starts without rows
    EXPECT_NE(&cold.distance_rows(), &warm.distance_rows());
    EXPECT_EQ(cold.distance_rows().built_rows(), 0u);
    const auto [cold_csv, cold_bytes] = run_bytes(cold, mode);
    EXPECT_EQ(cold_csv, warm_csv) << "mode " << static_cast<int>(mode);
    EXPECT_TRUE(cold_bytes == warm_bytes) << "checkpoint diverged, mode " << static_cast<int>(mode);
  }
}

TEST(DistanceRows, MutatorsAndAssignmentDropTheSet) {
  topo::Topology t = fat_tree(4);
  (void)t.distance_rows().row(t.rack(0).tor);
  ASSERT_EQ(t.distance_rows().built_rows(), 1u);
  t.set_name("renamed");
  EXPECT_EQ(t.distance_rows().built_rows(), 0u);

  (void)t.distance_rows().row(t.rack(0).tor);
  const topo::Topology other = fat_tree(4);
  t = other;
  EXPECT_EQ(t.distance_rows().built_rows(), 0u);

  (void)t.distance_rows().row(t.rack(0).tor);
  topo::Topology moved = std::move(t);
  EXPECT_EQ(moved.distance_rows().built_rows(), 0u);
  t = std::move(moved);
  EXPECT_EQ(t.distance_rows().built_rows(), 0u);
  // Rows follow the graph: a new link shortens nothing here but still
  // drops the set, and the rebuilt row sees the new node.
  const topo::NodeId extra = t.add_node(topo::NodeKind::kCoreSwitch);
  t.add_link(extra, t.rack(0).tor, 1.0, 5.0);
  const topo::DistanceRow& row = t.distance_rows().row(t.rack(0).tor);
  ASSERT_EQ(row.distance.size(), t.node_count());
  EXPECT_EQ(row.distance[extra], 5.0);
}

TEST(DistanceRows, ConcurrentEnginesPublishOneRowPerRoot) {
  // Fleet workers construct engines on one Topology at once: every slot is
  // published once and every engine reads the winning row.
  constexpr std::size_t kThreads = 8;
  const topo::Topology t = fat_tree(8);
  std::vector<std::vector<const topo::DistanceRow*>> seen(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      core::EngineConfig config;
      config.mode = i % 2 == 0 ? core::ManagerMode::kSheriff : core::ManagerMode::kKMedian;
      start.arrive_and_wait();
      const core::DistributedEngine engine(t, deployment(), config);
      for (const topo::Rack& rack : t.racks()) {
        seen[i].push_back(&engine.cost_model().distance_row(rack.tor));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(t.distance_rows().built_rows(), t.rack_count());
  for (std::size_t r = 0; r < t.rack_count(); ++r) {
    const topo::DistanceRow* published = &t.distance_rows().row(t.rack(r).tor);
    for (std::size_t i = 0; i < kThreads; ++i) {
      EXPECT_EQ(seen[i][r], published) << "thread " << i << " rack " << r;
    }
  }
}

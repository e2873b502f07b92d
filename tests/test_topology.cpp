// Topology tests: Fat-Tree and BCube builders against their closed-form
// shapes, structural invariants, neighbor-rack regions, and geometry.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/require.hpp"
#include "topology/bcube.hpp"
#include "topology/dot_export.hpp"
#include "topology/fat_tree.hpp"
#include "topology/geometry.hpp"
#include "topology/topology.hpp"

namespace topo = sheriff::topo;
namespace sc = sheriff::common;

class FatTreeShapes : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeShapes, MatchesClosedForm) {
  topo::FatTreeOptions options;
  options.pods = GetParam();
  options.hosts_per_rack = 3;
  const auto shape = topo::fat_tree_shape(options);
  const auto t = topo::build_fat_tree(options);

  const auto k = static_cast<std::size_t>(options.pods);
  EXPECT_EQ(shape.racks, k * k / 2);
  EXPECT_EQ(t.rack_count(), shape.racks);
  EXPECT_EQ(t.count_kind(topo::NodeKind::kHost), shape.hosts);
  EXPECT_EQ(t.count_kind(topo::NodeKind::kTorSwitch), shape.tor_switches);
  EXPECT_EQ(t.count_kind(topo::NodeKind::kAggSwitch), shape.agg_switches);
  EXPECT_EQ(t.count_kind(topo::NodeKind::kCoreSwitch), shape.core_switches);
  EXPECT_EQ(t.link_count(), shape.links);
}

INSTANTIATE_TEST_SUITE_P(PodSizes, FatTreeShapes, ::testing::Values(2, 4, 8, 12, 16));

TEST(FatTree, EightPodExampleOfFig1) {
  // The paper's Fig. 1 instance: 8 pods → 32 racks, 16 cores.
  topo::FatTreeOptions options;
  options.pods = 8;
  const auto t = topo::build_fat_tree(options);
  EXPECT_EQ(t.rack_count(), 32u);
  EXPECT_EQ(t.count_kind(topo::NodeKind::kCoreSwitch), 16u);
}

TEST(FatTree, RejectsOddPodCount) {
  topo::FatTreeOptions options;
  options.pods = 5;
  EXPECT_THROW(topo::build_fat_tree(options), sc::RequirementError);
}

TEST(FatTree, EveryHostHangsOffItsRackTor) {
  topo::FatTreeOptions options;
  options.pods = 4;
  options.hosts_per_rack = 2;
  const auto t = topo::build_fat_tree(options);
  for (const auto& rack : t.racks()) {
    ASSERT_EQ(rack.hosts.size(), 2u);
    for (topo::NodeId h : rack.hosts) {
      EXPECT_TRUE(t.adjacent(h, rack.tor));
      EXPECT_EQ(t.node(h).rack, rack.id);
      EXPECT_EQ(t.links_of(h).size(), 1u);  // hosts are single-homed
    }
  }
}

TEST(FatTree, NeighborRacksArePodPeers) {
  // In a Fat-Tree, racks two hops away (ToR—agg—ToR) are exactly the other
  // racks of the same pod.
  topo::FatTreeOptions options;
  options.pods = 6;
  const auto t = topo::build_fat_tree(options);
  const auto neighbors = t.neighbor_racks(0);
  EXPECT_EQ(neighbors.size(), static_cast<std::size_t>(options.pods / 2 - 1));
  for (topo::RackId r : neighbors) {
    EXPECT_EQ(t.node(t.rack(r).tor).pod, t.node(t.rack(0).tor).pod);
  }
}

TEST(FatTree, TorUplinkCapacitiesApplied) {
  topo::FatTreeOptions options;
  options.pods = 4;
  options.tor_agg_gbps = 1.0;   // the Sec. VI-B setting
  options.agg_core_gbps = 10.0;
  const auto t = topo::build_fat_tree(options);
  for (const auto& link : t.links()) {
    const auto ka = t.node(link.a).kind;
    const auto kb = t.node(link.b).kind;
    if ((ka == topo::NodeKind::kTorSwitch && kb == topo::NodeKind::kAggSwitch) ||
        (kb == topo::NodeKind::kTorSwitch && ka == topo::NodeKind::kAggSwitch)) {
      EXPECT_DOUBLE_EQ(link.capacity_gbps, 1.0);
    }
    if (ka == topo::NodeKind::kCoreSwitch || kb == topo::NodeKind::kCoreSwitch) {
      EXPECT_DOUBLE_EQ(link.capacity_gbps, 10.0);
    }
  }
}

class BCubeShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BCubeShapes, MatchesClosedForm) {
  const auto [n, k] = GetParam();
  topo::BCubeOptions options;
  options.ports = n;
  options.levels = k;
  const auto shape = topo::bcube_shape(options);
  const auto t = topo::build_bcube(options);

  EXPECT_EQ(t.count_kind(topo::NodeKind::kHost), shape.servers);
  const std::size_t switches =
      t.count_kind(topo::NodeKind::kTorSwitch) + t.count_kind(topo::NodeKind::kBCubeSwitch);
  EXPECT_EQ(switches, shape.switches_per_level * shape.switch_levels);
  EXPECT_EQ(t.link_count(), shape.links);
  EXPECT_EQ(t.rack_count(), shape.racks);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BCubeShapes,
                         ::testing::Values(std::pair{2, 1}, std::pair{3, 1}, std::pair{4, 1},
                                           std::pair{8, 1}, std::pair{3, 2}, std::pair{4, 2}));

TEST(BCube, ServersHaveOnePortPerLevel) {
  topo::BCubeOptions options;
  options.ports = 4;
  options.levels = 2;
  const auto t = topo::build_bcube(options);
  for (const auto& node : t.nodes()) {
    if (node.kind == topo::NodeKind::kHost) {
      EXPECT_EQ(t.links_of(node.id).size(), 3u);  // k+1 = 3 levels
    }
  }
}

TEST(BCube, NeighborRacksViaHigherLevels) {
  // In BCube(n,1), each rack's servers reach all n-1 sibling racks through
  // level-1 switches.
  topo::BCubeOptions options;
  options.ports = 4;
  options.levels = 1;
  const auto t = topo::build_bcube(options);
  for (topo::RackId r = 0; r < t.rack_count(); ++r) {
    EXPECT_EQ(t.neighbor_racks(r).size(), 3u);
  }
}

TEST(BCube, SwitchLevelsAreLabelled) {
  topo::BCubeOptions options;
  options.ports = 3;
  options.levels = 2;
  const auto t = topo::build_bcube(options);
  std::size_t level0 = 0;
  std::size_t higher = 0;
  for (const auto& node : t.nodes()) {
    if (node.kind == topo::NodeKind::kTorSwitch) {
      EXPECT_EQ(node.level, 0);
      ++level0;
    } else if (node.kind == topo::NodeKind::kBCubeSwitch) {
      EXPECT_GE(node.level, 1);
      ++higher;
    }
  }
  EXPECT_EQ(level0, 9u);   // n^k = 3^2
  EXPECT_EQ(higher, 18u);  // two more levels of 9
}

TEST(Geometry, RackPositionsFoldIntoRows) {
  topo::FloorPlan plan;
  plan.racks_per_row = 4;
  const auto [x0, y0] = topo::rack_position(plan, 0);
  const auto [x3, y3] = topo::rack_position(plan, 3);
  const auto [x4, y4] = topo::rack_position(plan, 4);
  EXPECT_DOUBLE_EQ(y0, y3);          // same row
  EXPECT_GT(x3, x0);
  EXPECT_GT(y4, y0);                 // next row
  EXPECT_DOUBLE_EQ(x4, x0);          // first column again
}

TEST(Geometry, CableDistanceIsManhattanPlusPatching) {
  EXPECT_DOUBLE_EQ(topo::cable_distance(0.0, 0.0, 3.0, 4.0), 9.0);
  EXPECT_DOUBLE_EQ(topo::cable_distance(1.0, 1.0, 1.0, 1.0), 2.0);  // patching only
}

TEST(Topology, ValidateCatchesMissingPieces) {
  topo::Topology t;
  EXPECT_THROW(t.validate(), sc::RequirementError);  // empty

  const auto host = t.add_node(topo::NodeKind::kHost);
  const auto tor = t.add_node(topo::NodeKind::kTorSwitch);
  t.add_link(host, tor, 1.0, 1.0);
  EXPECT_THROW(t.validate(), sc::RequirementError);  // host not in a rack

  const auto rack = t.add_rack();
  t.assign_host_to_rack(host, rack);
  t.assign_tor_to_rack(tor, rack);
  t.validate();  // now fine
}

TEST(Topology, LinkBetweenAndPeer) {
  topo::FatTreeOptions options;
  options.pods = 4;
  const auto t = topo::build_fat_tree(options);
  const auto& rack = t.rack(0);
  const auto link = t.link_between(rack.hosts[0], rack.tor);
  EXPECT_EQ(t.peer(link, rack.hosts[0]), rack.tor);
  EXPECT_EQ(t.peer(link, rack.tor), rack.hosts[0]);
  EXPECT_THROW((void)t.link_between(rack.hosts[0], rack.hosts[1]), sc::RequirementError);
}

// G_r is a simple graph: the hop CSR keeps one link per neighbor, so a
// second link between two nodes (either way round) is refused, and the
// first stays the one link_between returns.
TEST(Topology, AddLinkRejectsAParallelLink) {
  topo::Topology t;
  const topo::NodeId a = t.add_node(topo::NodeKind::kTorSwitch);
  const topo::NodeId b = t.add_node(topo::NodeKind::kAggSwitch);
  const topo::NodeId c = t.add_node(topo::NodeKind::kAggSwitch);
  const topo::LinkId ab = t.add_link(a, b, 10.0, 1.0);
  EXPECT_THROW((void)t.add_link(a, b, 10.0, 1.0), sc::RequirementError);
  EXPECT_THROW((void)t.add_link(b, a, 40.0, 2.0), sc::RequirementError);
  EXPECT_THROW((void)t.add_link(a, a, 10.0, 1.0), sc::RequirementError);
  const topo::LinkId ac = t.add_link(a, c, 10.0, 1.0);
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_EQ(t.link_between(b, a), ab);
  EXPECT_EQ(t.link_between(c, a), ac);
  EXPECT_FALSE(t.adjacent(b, c));
}

TEST(DotExport, ContainsNodesEdgesAndClusters) {
  topo::FatTreeOptions options;
  options.pods = 2;
  options.hosts_per_rack = 1;
  const auto t = topo::build_fat_tree(options);
  std::ostringstream os;
  topo::write_dot(os, t);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("graph \"fat-tree-k2\""), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_rack0"), std::string::npos);
  EXPECT_NE(dot.find(" -- "), std::string::npos);
  EXPECT_NE(dot.find("10G"), std::string::npos);
  // Every node is declared exactly once (edge lines use a different
  // syntax, so the declaration label is a unique marker).
  for (const auto& node : t.nodes()) {
    const std::string needle =
        std::string("[label=\"") + topo::to_string(node.kind) + std::to_string(node.id) + "\"";
    const auto first = dot.find(needle);
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(dot.find(needle, first + 1), std::string::npos);
  }
}

TEST(DotExport, SwitchOnlyViewDropsHosts) {
  topo::FatTreeOptions options;
  options.pods = 4;
  const auto t = topo::build_fat_tree(options);
  std::ostringstream os;
  topo::DotOptions dopt;
  dopt.include_hosts = false;
  dopt.cluster_racks = false;
  topo::write_dot(os, t, dopt);
  EXPECT_EQ(os.str().find("host"), std::string::npos);
  EXPECT_NE(os.str().find("core"), std::string::npos);
}

TEST(Topology, WiredGraphWeightConventions) {
  topo::FatTreeOptions options;
  options.pods = 4;
  const auto t = topo::build_fat_tree(options);
  const auto hops = t.wired_graph(topo::EdgeWeight::kHops);
  const auto dist = t.wired_graph(topo::EdgeWeight::kDistance);
  const auto inv = t.wired_graph(topo::EdgeWeight::kInverseCapacity);
  EXPECT_EQ(hops.edge_count(), t.link_count());
  const auto& link = t.link(0);
  EXPECT_DOUBLE_EQ(hops.min_edge_weight(link.a, link.b), 1.0);
  EXPECT_DOUBLE_EQ(dist.min_edge_weight(link.a, link.b), link.distance_m);
  EXPECT_DOUBLE_EQ(inv.min_edge_weight(link.a, link.b), 1.0 / link.capacity_gbps);
}

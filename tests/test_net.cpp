// Network substrate tests: routing validity and ECMP spread, max–min
// fairness invariants, queue/QCN congestion signalling with DSCP marking,
// and rerouting around hot switches.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "graph/hop_levels.hpp"
#include "net/fair_share.hpp"
#include "net/flow.hpp"
#include "net/flow_stats.hpp"
#include "net/queueing.hpp"
#include "net/reroute.hpp"
#include "net/routing.hpp"
#include "oracles/fair_share.hpp"
#include "oracles/shortest_paths.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"
#include "topology/liveness.hpp"
#include "topology/three_tier.hpp"

namespace topo = sheriff::topo;
namespace net = sheriff::net;
namespace graph = sheriff::graph;
namespace sc = sheriff::common;
namespace oracle = sheriff::oracle;

namespace {

topo::Topology small_fat_tree(double tor_agg_gbps = 10.0) {
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

/// A routed flow's link ids are the links of its node path, in order; an
/// unrouted flow (a failed query) has neither nodes nor links.
void expect_links_follow_path(const topo::Topology& t, const net::Flow& flow,
                              const std::string& label) {
  if (!flow.routed()) {
    EXPECT_TRUE(flow.path.empty()) << label;
    EXPECT_TRUE(flow.links.empty()) << label;
    return;
  }
  ASSERT_EQ(flow.links.size() + 1, flow.path.size()) << label;
  for (std::size_t i = 0; i < flow.links.size(); ++i) {
    EXPECT_EQ(flow.links[i], t.link_between(flow.path[i], flow.path[i + 1]))
        << label << " hop " << i;
  }
}

}  // namespace

// A cross-pod route is a path of the fabric with its links; routing it
// again returns the same route, and a probe blocking the core it transits
// (the path midpoint) detours around that switch.
TEST(Routing, PathEndpointsAndAdjacency) {
  const auto t = small_fat_tree();
  net::Router router(t);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  auto flow = make_flow(1, hosts.front(), hosts.back(), 1.0);
  ASSERT_TRUE(router.route(flow));
  ASSERT_GE(flow.path.size(), 3u);
  EXPECT_EQ(flow.path.front(), hosts.front());
  EXPECT_EQ(flow.path.back(), hosts.back());
  for (std::size_t i = 0; i + 1 < flow.path.size(); ++i) {
    EXPECT_TRUE(t.adjacent(flow.path[i], flow.path[i + 1]));
  }
  expect_links_follow_path(t, flow, "first route");

  const net::Flow first = flow;
  ASSERT_TRUE(router.route(flow));
  EXPECT_EQ(flow.path, first.path);
  EXPECT_EQ(flow.links, first.links);

  const std::vector<topo::NodeId> blocked{first.path[first.path.size() / 2]};
  ASSERT_TRUE(router.route(flow, blocked));
  EXPECT_EQ(std::ranges::find(flow.path, blocked[0]), flow.path.end());
  EXPECT_EQ(flow.path.front(), hosts.front());
  EXPECT_EQ(flow.path.back(), hosts.back());
  expect_links_follow_path(t, flow, "detour");
}

// An intra-rack route is host — ToR — host. Blocking the ToR, the source's
// only egress, leaves no path: the probe fails with path and links empty.
TEST(Routing, IntraRackPathIsTwoHops) {
  const auto t = small_fat_tree();
  net::Router router(t);
  const auto& rack = t.rack(0);
  auto flow = make_flow(2, rack.hosts[0], rack.hosts[1], 1.0);
  ASSERT_TRUE(router.route(flow));
  EXPECT_EQ(flow.path.size(), 3u);  // host — ToR — host
  EXPECT_EQ(flow.path[1], rack.tor);
  expect_links_follow_path(t, flow, "intra-rack");

  const std::vector<topo::NodeId> wall{rack.tor};
  EXPECT_FALSE(router.route(flow, wall));
  EXPECT_FALSE(flow.routed());
  expect_links_follow_path(t, flow, "egress blocked");
}

TEST(Routing, EcmpSpreadsAcrossCores) {
  const auto t = small_fat_tree();
  net::Router router(t);
  // Cross-pod pair: a 4-pod fat tree has 4 distinct shortest paths.
  const topo::NodeId src = t.rack(0).hosts[0];
  const topo::NodeId dst = t.rack(t.rack_count() - 1).hosts[0];
  EXPECT_EQ(router.shortest_path_count(src, dst), 4u);

  std::set<topo::NodeId> cores_used;
  for (net::FlowId id = 0; id < 64; ++id) {
    auto flow = make_flow(id, src, dst, 1.0);
    ASSERT_TRUE(router.route(flow));
    for (topo::NodeId n : flow.path) {
      if (t.node(n).kind == topo::NodeKind::kCoreSwitch) cores_used.insert(n);
    }
  }
  EXPECT_GE(cores_used.size(), 2u);  // hashing actually spreads
}

TEST(Routing, SelfFlowRejected) {
  const auto t = small_fat_tree();
  net::Router router(t);
  auto flow = make_flow(3, t.rack(0).hosts[0], t.rack(0).hosts[0], 1.0);
  EXPECT_FALSE(router.route(flow));
  EXPECT_FALSE(flow.routed());
}

// Path counts check both endpoints, as route() does: an out-of-range
// source must not index the level table.
TEST(Routing, ShortestPathCountRejectsOutOfRangeEndpoints) {
  const auto t = small_fat_tree();
  net::Router router(t);
  const topo::NodeId host = t.rack(0).hosts[0];
  const topo::NodeId far = static_cast<topo::NodeId>(t.node_count() + 100000000);
  EXPECT_THROW((void)router.shortest_path_count(far, host), sc::RequirementError);
  EXPECT_THROW((void)router.shortest_path_count(host, far), sc::RequirementError);
}

// --- Router vs a Dijkstra parent-list oracle -------------------------------
// The router reads the fabric's BFS hop levels and derives each ECMP step's
// parents from them. Its routes must equal an independent reference: a heap-loop
// oracle::dijkstra tree rooted at the source, with explicit parent lists,
// walked by the same salt-indexed ECMP walk (written out below). Derived
// parents taken in any order but ascending change the salt's picks and
// fail here.

namespace {

std::uint32_t oracle_mix(std::uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

bool oracle_route(const graph::Graph& live_hops, net::Flow& flow,
                  const std::vector<topo::NodeId>& blocked) {
  flow.path.clear();
  if (flow.src_host == flow.dst_host) return false;
  std::vector<bool> mask;
  if (!blocked.empty()) {
    mask.assign(live_hops.vertex_count(), false);
    for (const topo::NodeId b : blocked) mask[b] = true;
  }
  const auto tree = oracle::dijkstra(live_hops, flow.src_host, mask);
  if (tree.distance[flow.dst_host] == graph::kInfiniteDistance) return false;
  std::vector<topo::NodeId> reverse_path{flow.dst_host};
  topo::NodeId cur = flow.dst_host;
  std::uint32_t salt = oracle_mix(flow.id * 0x9e3779b9U + 1U);
  while (cur != flow.src_host) {
    const auto& parents = tree.parents[cur];
    if (parents.empty()) return false;
    salt = oracle_mix(salt + static_cast<std::uint32_t>(reverse_path.size()));
    cur = parents[salt % parents.size()];
    reverse_path.push_back(cur);
  }
  flow.path.assign(reverse_path.rbegin(), reverse_path.rend());
  return true;
}

/// Routes `pairs` under every blocked set through a fresh router and the
/// oracle, twice each (the first pass publishes levels, the repeat reads
/// them), checks every route's link ids against its node path, and
/// checks shortest_path_count against the oracle tree's path_count.
void expect_router_matches_oracle(const topo::Topology& t, const topo::LivenessMask* mask,
                                  std::uint64_t seed, const std::string& label) {
  net::Router router(t);
  router.apply_liveness(mask);
  const graph::Graph live_hops = mask == nullptr
                                     ? t.wired_graph(topo::EdgeWeight::kHops)
                                     : t.wired_graph(topo::EdgeWeight::kHops, *mask);
  sc::Pcg32 rng(seed, 11);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  std::vector<topo::NodeId> switches;
  for (const auto& node : t.nodes()) {
    if (topo::is_switch(node.kind)) switches.push_back(node.id);
  }
  const auto pick = [&](const std::vector<topo::NodeId>& from) {
    return from[rng.next_below(static_cast<std::uint32_t>(from.size()))];
  };
  std::vector<std::pair<topo::NodeId, topo::NodeId>> pairs;
  for (int i = 0; i < 120; ++i) pairs.emplace_back(pick(hosts), pick(hosts));

  // Blocked sets of 0, 1 and 2 switches; the pair is listed descending, so
  // an unsorted set runs too.
  const topo::NodeId a = pick(switches);
  topo::NodeId b = pick(switches);
  while (b == a) b = pick(switches);
  const std::vector<std::vector<topo::NodeId>> blocked_sets{
      {}, {pick(switches)}, {std::max(a, b), std::min(a, b)}};

  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t s = 0; s < blocked_sets.size(); ++s) {
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto [src, dst] = pairs[i];
        net::Flow got = make_flow(static_cast<net::FlowId>(i), src, dst, 1.0);
        net::Flow want = got;
        const bool got_ok = router.route(got, blocked_sets[s]);
        const bool want_ok = oracle_route(live_hops, want, blocked_sets[s]);
        ASSERT_EQ(got_ok, want_ok) << label << " pass " << pass << " set " << s << " flow " << i;
        ASSERT_EQ(got.path, want.path)
            << label << " pass " << pass << " set " << s << " flow " << i;
        expect_links_follow_path(t, got, label + " pass " + std::to_string(pass) + " set " +
                                             std::to_string(s) + " flow " + std::to_string(i));
      }
    }
  }
  for (const auto& [src, dst] : pairs) {
    EXPECT_EQ(router.shortest_path_count(src, dst),
              oracle::dijkstra(live_hops, src).path_count(dst))
        << label << " " << src << "->" << dst;
  }
}

}  // namespace

namespace {

/// The four fabrics the router is pinned on: Fat-Tree k=4 and k=8,
/// BCube(4,1) and a three-tier tree.
std::vector<std::pair<std::string, topo::Topology>> oracle_fabrics() {
  topo::FatTreeOptions ft8;
  ft8.pods = 8;
  topo::BCubeOptions bcube;
  bcube.ports = 4;
  bcube.levels = 1;
  std::vector<std::pair<std::string, topo::Topology>> fabrics;
  fabrics.emplace_back("fat_tree_k4", small_fat_tree());
  fabrics.emplace_back("fat_tree_k8", topo::build_fat_tree(ft8));
  fabrics.emplace_back("bcube_4_1", topo::build_bcube(bcube));
  fabrics.emplace_back("three_tier", topo::build_three_tier(topo::ThreeTierOptions{}));
  return fabrics;
}

/// Two switches and three links down, drawn from `seed`.
topo::LivenessMask seeded_faults(const topo::Topology& t, std::uint64_t seed) {
  topo::LivenessMask faulted(t);
  sc::Pcg32 rng(seed, 5);
  std::vector<topo::NodeId> switches;
  for (const auto& node : t.nodes()) {
    if (topo::is_switch(node.kind)) switches.push_back(node.id);
  }
  for (int i = 0; i < 2; ++i) {
    faulted.set_node(switches[rng.next_below(static_cast<std::uint32_t>(switches.size()))],
                     false);
  }
  for (int i = 0; i < 3; ++i) {
    faulted.set_link(
        static_cast<topo::LinkId>(rng.next_below(static_cast<std::uint32_t>(t.link_count()))),
        false);
  }
  return faulted;
}

}  // namespace

TEST(Routing, MatchesDijkstraOracleOnEveryFabric) {
  std::uint64_t seed = 1;
  for (const auto& [name, t] : oracle_fabrics()) {
    const topo::LivenessMask faulted = seeded_faults(t, seed);
    expect_router_matches_oracle(t, nullptr, seed, name + " pristine");
    expect_router_matches_oracle(t, &faulted, seed, name + " faulted");
    ++seed;
  }
}

// --- Hop-level repair vs the masked heap Dijkstra ---------------------------
// A faulted or blocked query repairs the root's pristine levels, read from
// the fabric's published tables, instead of running a BFS of the live
// graph. On the oracle fabrics, pristine and with the seeded faults in the
// cut as the router puts them there (every unusable link, with both
// endpoints), the repaired levels must equal the masked heap Dijkstra's
// distances on the live graph for every root with every single vertex
// blocked, and for seeded sets of 2–4 vertices drawn to hold the root,
// hosts, vertices the root cannot reach, and duplicates. Equal levels give
// equal tight parents, so this also pins every ECMP choice a repaired walk
// makes. A router on the same fabric then answers every single-vertex block
// for a few host pairs, with link ids that follow each route's node path.

namespace {

void expect_repair_matches_dijkstra(const topo::Topology& t, const topo::LivenessMask* faults,
                                    std::uint64_t seed, const std::string& label,
                                    graph::HopRepairScratch& scratch) {
  const graph::Graph live = faults == nullptr
                                ? t.wired_graph(topo::EdgeWeight::kHops)
                                : t.wired_graph(topo::EdgeWeight::kHops, *faults);
  const graph::HopGraph& hops = t.distance_rows().hop_graph();
  std::vector<std::uint8_t> removed;
  std::vector<graph::Vertex> removed_ends;
  if (faults != nullptr) {
    removed.assign(t.link_count(), 0);
    for (const topo::Link& l : t.links()) {
      if (faults->link_usable(t, l.id)) continue;
      removed[l.id] = 1;
      removed_ends.push_back(l.a);
      removed_ends.push_back(l.b);
    }
  }
  const std::size_t n = live.vertex_count();
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  sc::Pcg32 rng(seed, 17);
  const auto pick = [&](const std::vector<graph::Vertex>& from) {
    return from[rng.next_below(static_cast<std::uint32_t>(from.size()))];
  };
  std::vector<graph::HopLevel> repaired;
  std::vector<bool> mask(n, false);
  oracle::ShortestPathTree heap;
  const auto check = [&](graph::Vertex root, const std::vector<graph::Vertex>& blocked) {
    for (const graph::Vertex b : blocked) mask[b] = true;
    oracle::dijkstra_into(live, root, mask, heap);
    for (const graph::Vertex b : blocked) mask[b] = false;
    graph::hop_levels_without(hops, t.distance_rows().hop_levels(root),
                              {blocked, removed, removed_ends}, repaired, scratch);
    for (graph::Vertex v = 0; v < n; ++v) {
      const double distance = repaired[v] == graph::kUnreachedLevel
                                  ? graph::kInfiniteDistance
                                  : static_cast<double>(repaired[v]);
      ASSERT_EQ(distance, heap.distance[v])
          << label << " root " << root << " vertex " << v << " blocked set of "
          << blocked.size() << " starting " << blocked.front();
    }
  };
  for (graph::Vertex root = 0; root < n; ++root) {
    for (graph::Vertex b = 0; b < n; ++b) check(root, {b});
    std::vector<graph::Vertex> unreached;
    oracle::dijkstra_into(live, root, {}, heap);
    for (graph::Vertex v = 0; v < n; ++v) {
      if (heap.distance[v] == graph::kInfiniteDistance) unreached.push_back(v);
    }
    for (int draw = 0; draw < 6; ++draw) {
      std::vector<graph::Vertex> blocked;
      const std::uint32_t size = 2 + rng.next_below(3);
      while (blocked.size() < size) {
        switch (rng.next_below(5)) {
          case 0: blocked.push_back(root); break;
          case 1: blocked.push_back(pick(hosts)); break;
          case 2: if (!unreached.empty()) blocked.push_back(pick(unreached)); break;
          case 3: if (!blocked.empty()) blocked.push_back(pick(blocked)); break;  // a duplicate
          default: blocked.push_back(rng.next_below(static_cast<std::uint32_t>(n))); break;
        }
      }
      check(root, blocked);
    }
  }

  net::Router router(t);
  router.apply_liveness(faults);
  for (net::FlowId id = 0; id < 6; ++id) {
    const topo::NodeId src = pick(hosts);
    const topo::NodeId dst = pick(hosts);
    for (graph::Vertex b = 0; b < n; ++b) {
      if (b == src || b == dst) continue;
      net::Flow flow = make_flow(id, src, dst, 1.0);
      (void)router.route(flow, std::vector<topo::NodeId>{b});
      expect_links_follow_path(t, flow, label + " flow " + std::to_string(id) + " blocked " +
                                            std::to_string(b));
    }
  }
}

}  // namespace

TEST(HopLevelRepair, MatchesMaskedDijkstraOnEveryFabric) {
  std::uint64_t seed = 1;
  graph::HopRepairScratch scratch;  // one for every repair on every fabric
  for (const auto& [name, t] : oracle_fabrics()) {
    const topo::LivenessMask faulted = seeded_faults(t, seed);
    expect_repair_matches_dijkstra(t, nullptr, seed, name + " pristine", scratch);
    expect_repair_matches_dijkstra(t, &faulted, seed, name + " faulted", scratch);
    ++seed;
  }
}

// One Router answers the same probes — unblocked, and blocked at the
// source pod's aggregation switch (the largest repair on a Fat-Tree), at a
// core, at both, and at the source's ToR (no path) — in eight orders
// interleaved query by query, each order twice over, on a copy of the
// fabric whose tables start empty, so roots are published between repairs
// and every repair reuses the buffers the previous query left. Every
// answer, links included, must equal a serial router's on the original:
// the repair buffers carry nothing from one query to the next.
TEST(Routing, InterleavedQueriesMatchSerial) {
  topo::FatTreeOptions ft8;
  ft8.pods = 8;
  const auto t = topo::build_fat_tree(ft8);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  struct Probe {
    net::Flow flow;
    std::vector<topo::NodeId> blocked;
    bool ok = false;
  };
  std::vector<Probe> probes;
  {
    net::Router plain(t);
    sc::Pcg32 rng(7, 3);
    const auto pick = [&] {
      return hosts[rng.next_below(static_cast<std::uint32_t>(hosts.size()))];
    };
    for (net::FlowId id = 0; id < 96; ++id) {
      const topo::NodeId src = pick();
      net::Flow flow = make_flow(id, src, pick(), 1.0);
      if (!plain.route(flow)) continue;
      const std::vector<topo::NodeId> path = flow.path;
      probes.push_back({flow, {}, false});
      probes.push_back({flow, {path[1]}, false});
      if (path.size() >= 5) probes.push_back({flow, {path[2]}, false});
      if (path.size() >= 7) {
        probes.push_back({flow, {path[3]}, false});
        probes.push_back({flow, {path[4], path[2]}, false});
      }
    }
  }
  {
    net::Router serial(t);
    for (Probe& p : probes) p.ok = serial.route(p.flow, p.blocked);
  }

  const topo::Topology fresh = t;
  net::Router router(fresh);
  constexpr std::size_t kOrders = 8;
  std::vector<std::size_t> mismatches(kOrders, 0);
  for (std::size_t i = 0; i < 2 * probes.size(); ++i) {
    for (std::size_t w = 0; w < kOrders; ++w) {
      const Probe& p = probes[(w * 37 + i) % probes.size()];
      net::Flow flow = p.flow;
      const bool ok = router.route(flow, p.blocked);
      if (ok != p.ok || flow.path != p.flow.path || flow.links != p.flow.links) {
        ++mismatches[w];
      }
    }
  }
  for (std::size_t w = 0; w < kOrders; ++w) EXPECT_EQ(mismatches[w], 0u) << "order " << w;
  EXPECT_GT(router.cache_stats().repairs, 0u);
}

// The hop levels belong to the fabric: a second router on the same
// Topology finds every root published by the first and runs no BFS of its
// own, yet routes every flow, links included, as the first did. A copy of
// the fabric starts without tables, so a router on it publishes its own.
TEST(Routing, RoutersOnOneFabricShareLevels) {
  topo::FatTreeOptions ft8;
  ft8.pods = 8;
  const auto t = topo::build_fat_tree(ft8);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  std::vector<net::Flow> flows;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    flows.push_back(make_flow(static_cast<net::FlowId>(i), hosts[i],
                              hosts[(i * 7 + 1) % hosts.size()], 1.0));
  }
  std::vector<net::Flow> first_flows = flows;
  net::Router first(t);
  const std::size_t routed = first.route_all(first_flows);
  EXPECT_GT(routed, 0u);
  EXPECT_GT(first.cache_stats().tree_misses, 0u);

  std::vector<net::Flow> second_flows = flows;
  net::Router second(t);
  EXPECT_EQ(second.route_all(second_flows), routed);
  EXPECT_EQ(second.cache_stats().tree_misses, 0u);
  EXPECT_EQ(second.cache_stats().tree_hits,
            first.cache_stats().tree_hits + first.cache_stats().tree_misses);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_EQ(second_flows[f].path, first_flows[f].path) << "flow " << f;
    EXPECT_EQ(second_flows[f].links, first_flows[f].links) << "flow " << f;
  }

  const topo::Topology copy = t;
  std::vector<net::Flow> copy_flows = flows;
  net::Router third(copy);
  EXPECT_EQ(third.route_all(copy_flows), routed);
  EXPECT_EQ(third.cache_stats().tree_misses, first.cache_stats().tree_misses);
}

TEST(FairShare, SingleFlowGetsMinOfDemandAndBottleneck) {
  const auto t = small_fat_tree();
  net::Router router(t);
  std::vector<net::Flow> flows{
      make_flow(0, t.rack(0).hosts[0], t.rack(1).hosts[0], 5.0)};
  router.route_all(flows);
  const auto result = oracle::max_min_fair_share(t, flows);
  // Host links are 1 Gbps: the flow is capped at 1.
  EXPECT_NEAR(result.flow_rate[0], 1.0, 1e-9);
  EXPECT_NEAR(flows[0].allocated_gbps, 1.0, 1e-9);
}

TEST(FairShare, DemandBelowCapacityIsGrantedFully) {
  const auto t = small_fat_tree();
  net::Router router(t);
  std::vector<net::Flow> flows{
      make_flow(0, t.rack(0).hosts[0], t.rack(1).hosts[0], 0.25)};
  router.route_all(flows);
  const auto result = oracle::max_min_fair_share(t, flows);
  EXPECT_NEAR(result.flow_rate[0], 0.25, 1e-9);
}

TEST(FairShare, TwoFlowsShareABottleneckEqually) {
  const auto t = small_fat_tree();
  net::Router router(t);
  // Both flows originate at the same host: its 1 Gbps uplink is shared.
  const topo::NodeId src = t.rack(0).hosts[0];
  std::vector<net::Flow> flows{make_flow(0, src, t.rack(1).hosts[0], 5.0),
                               make_flow(1, src, t.rack(1).hosts[1], 5.0)};
  router.route_all(flows);
  const auto result = oracle::max_min_fair_share(t, flows);
  EXPECT_NEAR(result.flow_rate[0], 0.5, 1e-9);
  EXPECT_NEAR(result.flow_rate[1], 0.5, 1e-9);
}

TEST(FairShare, NoLinkExceedsCapacity) {
  const auto t = small_fat_tree(1.0);  // narrow ToR uplinks to force contention
  net::Router router(t);
  sc::Pcg32 rng(5);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  std::vector<net::Flow> flows;
  for (net::FlowId id = 0; id < 60; ++id) {
    const auto a = rng.pick(hosts);
    const auto b = rng.pick(hosts);
    if (a == b) continue;
    flows.push_back(make_flow(id, a, b, rng.uniform(0.1, 2.0)));
  }
  router.route_all(flows);
  const auto result = oracle::max_min_fair_share(t, flows);
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    EXPECT_LE(result.link_load_gbps[l], t.link(l).capacity_gbps + 1e-6);
    EXPECT_LE(result.link_utilization[l], 1.0 + 1e-6);
  }
  // Max-min property: no flow got more than its demand.
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_LE(result.flow_rate[f], flows[f].demand_gbps + 1e-9);
  }
}

TEST(FairShare, UnsatisfiedFlowHasSaturatedLink) {
  const auto t = small_fat_tree(1.0);
  net::Router router(t);
  const topo::NodeId src = t.rack(0).hosts[0];
  std::vector<net::Flow> flows{make_flow(0, src, t.rack(1).hosts[0], 3.0),
                               make_flow(1, src, t.rack(1).hosts[1], 3.0),
                               make_flow(2, src, t.rack(2).hosts[0], 3.0)};
  router.route_all(flows);
  const auto result = oracle::max_min_fair_share(t, flows);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (result.flow_rate[f] < flows[f].demand_gbps - 1e-6) {
      // A rate-limited flow must cross at least one saturated link.
      bool found_saturated = false;
      const auto& path = flows[f].path;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const auto l = t.link_between(path[i], path[i + 1]);
        if (result.link_load_gbps[l] >= t.link(l).capacity_gbps - 1e-6) {
          found_saturated = true;
        }
      }
      EXPECT_TRUE(found_saturated);
    }
  }
}

TEST(FairShare, AvailableBandwidthRejectsOutOfRangeLink) {
  const auto t = small_fat_tree();
  net::Router router(t);
  std::vector<net::Flow> flows{
      make_flow(0, t.rack(0).hosts[0], t.rack(1).hosts[0], 0.5)};
  router.route_all(flows);
  const auto result = oracle::max_min_fair_share(t, flows);
  // In range: fine. One past the end: a hard requirement failure, not UB —
  // this was a hot-path .at() once, and the bound must stay checked.
  EXPECT_GE(result.available_bandwidth(t, t.link_count() - 1), 0.0);
  EXPECT_THROW(static_cast<void>(result.available_bandwidth(t, t.link_count())),
               sc::RequirementError);
  EXPECT_THROW(static_cast<void>(result.available_bandwidth(t, static_cast<topo::LinkId>(-1))),
               sc::RequirementError);
}

TEST(FlowStats, JainIndexExtremes) {
  const std::vector<double> equal{1.0, 1.0, 1.0, 1.0};
  EXPECT_NEAR(net::jain_fairness_index(equal), 1.0, 1e-12);
  const std::vector<double> monopoly{4.0, 0.0, 0.0, 0.0};
  EXPECT_NEAR(net::jain_fairness_index(monopoly), 0.25, 1e-12);  // 1/n
  EXPECT_DOUBLE_EQ(net::jain_fairness_index({}), 1.0);
  const std::vector<double> starved{0.0, 0.0};
  EXPECT_DOUBLE_EQ(net::jain_fairness_index(starved), 1.0);
}

TEST(FlowStats, QosOnUncongestedFabricIsPerfect) {
  const auto t = small_fat_tree();
  net::Router router(t);
  std::vector<net::Flow> flows{
      make_flow(0, t.rack(0).hosts[0], t.rack(1).hosts[0], 0.2),
      make_flow(1, t.rack(2).hosts[0], t.rack(3).hosts[0], 0.3)};
  router.route_all(flows);
  (void)oracle::max_min_fair_share(t, flows);
  const auto stats = net::compute_qos_stats(flows);
  EXPECT_EQ(stats.offered_flows, 2u);
  EXPECT_EQ(stats.satisfied_flows, 2u);
  EXPECT_DOUBLE_EQ(stats.satisfied_fraction(), 1.0);
  EXPECT_NEAR(stats.mean_satisfaction, 1.0, 1e-9);
  EXPECT_NEAR(stats.total_allocated_gbps, 0.5, 1e-9);
}

TEST(FlowStats, QosDegradesUnderOverload) {
  const auto t = small_fat_tree();
  net::Router router(t);
  const topo::NodeId src = t.rack(0).hosts[0];  // one 1 Gbps uplink, 3 Gbps wanted
  std::vector<net::Flow> flows{make_flow(0, src, t.rack(1).hosts[0], 1.0),
                               make_flow(1, src, t.rack(2).hosts[0], 1.0),
                               make_flow(2, src, t.rack(3).hosts[0], 1.0)};
  router.route_all(flows);
  (void)oracle::max_min_fair_share(t, flows);
  const auto stats = net::compute_qos_stats(flows);
  EXPECT_EQ(stats.satisfied_flows, 0u);
  EXPECT_NEAR(stats.mean_satisfaction, 1.0 / 3.0, 1e-6);
  EXPECT_NEAR(stats.jain_fairness, 1.0, 1e-9);  // equal shares are fair
  EXPECT_NEAR(stats.total_allocated_gbps, 1.0, 1e-6);
}

TEST(FlowStats, RateLimitedDemandCounts) {
  const auto t = small_fat_tree();
  net::Router router(t);
  std::vector<net::Flow> flows{make_flow(0, t.rack(0).hosts[0], t.rack(1).hosts[0], 0.8)};
  flows[0].rate_limit_gbps = 0.4;
  router.route_all(flows);
  (void)oracle::max_min_fair_share(t, flows);
  const auto stats = net::compute_qos_stats(flows);
  // Satisfaction is judged against the *effective* (limited) demand.
  EXPECT_EQ(stats.satisfied_flows, 1u);
  EXPECT_NEAR(stats.total_demand_gbps, 0.4, 1e-9);
}

class FairShareProperties : public ::testing::TestWithParam<int> {};

TEST_P(FairShareProperties, InvariantsHoldOnRandomWorkloads) {
  sc::Pcg32 rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const auto t = small_fat_tree(rng.bernoulli(0.5) ? 1.0 : 10.0);
  net::Router router(t);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  std::vector<net::Flow> flows;
  const std::size_t n_flows = 20 + rng.next_below(80);
  for (net::FlowId id = 0; id < n_flows; ++id) {
    const auto a = rng.pick(hosts);
    const auto b = rng.pick(hosts);
    if (a == b) continue;
    auto f = make_flow(id, a, b, rng.uniform(0.05, 2.5));
    if (rng.bernoulli(0.3)) f.rate_limit_gbps = rng.uniform(0.1, 1.0);
    flows.push_back(f);
  }
  router.route_all(flows);
  const auto result = oracle::max_min_fair_share(t, flows);

  // (1) No link over capacity. (2) No flow over its effective demand.
  // (3) Pareto: every unsatisfied flow crosses a saturated link.
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    EXPECT_LE(result.link_load_gbps[l], t.link(l).capacity_gbps + 1e-6);
  }
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_LE(result.flow_rate[f], flows[f].effective_demand() + 1e-9);
    if (flows[f].routed() && result.flow_rate[f] < flows[f].effective_demand() - 1e-6) {
      bool saturated = false;
      const auto& path = flows[f].path;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const auto l = t.link_between(path[i], path[i + 1]);
        if (result.link_load_gbps[l] >= t.link(l).capacity_gbps - 1e-6) saturated = true;
      }
      EXPECT_TRUE(saturated) << "flow " << f << " starved without a bottleneck";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairShareProperties, ::testing::Range(1, 13));

TEST(Queueing, CongestionBuildsAndDrains) {
  const auto t = small_fat_tree(1.0);
  net::Router router(t);
  // Two hosts of rack 0 blast one host of rack 1: the shared downlink and
  // uplinks overload, so offered exceeds serviced somewhere.
  std::vector<net::Flow> flows{
      make_flow(0, t.rack(0).hosts[0], t.rack(1).hosts[0], 2.0),
      make_flow(1, t.rack(0).hosts[1], t.rack(1).hosts[0], 2.0)};
  router.route_all(flows);
  const auto result = oracle::max_min_fair_share(t, flows);

  net::QcnConfig config;
  config.equilibrium_queue = 0.5;
  net::SwitchQueues queues(t, config);
  for (int tick = 0; tick < 10; ++tick) queues.update(result, flows);
  const auto congested = queues.congested_switches();
  EXPECT_FALSE(congested.empty());

  // Marked flows transit a congested switch.
  bool any_marked = false;
  for (const auto& f : flows) any_marked |= f.dscp == net::DscpMark::kCongested;
  EXPECT_TRUE(any_marked);

  // Remove the load: queues drain and feedback recovers.
  for (auto& f : flows) f.demand_gbps = 0.0;
  std::vector<net::Flow> quiet = flows;
  const auto idle = oracle::max_min_fair_share(t, quiet);
  for (int tick = 0; tick < 60; ++tick) queues.update(idle, quiet);
  EXPECT_TRUE(queues.congested_switches().empty());
}

TEST(Queueing, IdleNetworkNeverCongests) {
  const auto t = small_fat_tree();
  net::Router router(t);
  std::vector<net::Flow> flows{
      make_flow(0, t.rack(0).hosts[0], t.rack(1).hosts[0], 0.1)};
  router.route_all(flows);
  const auto result = oracle::max_min_fair_share(t, flows);
  net::SwitchQueues queues(t);
  for (int tick = 0; tick < 20; ++tick) queues.update(result, flows);
  EXPECT_TRUE(queues.congested_switches().empty());
  for (const auto& node : t.nodes()) {
    if (topo::is_switch(node.kind)) {
      EXPECT_DOUBLE_EQ(queues.queue_length(node.id), 0.0);
    }
  }
}

TEST(Reroute, MovesFlowsOffHotSwitch) {
  const auto t = small_fat_tree();
  net::Router router(t);
  const topo::NodeId src = t.rack(0).hosts[0];
  const topo::NodeId dst = t.rack(t.rack_count() - 1).hosts[0];
  std::vector<net::Flow> flows;
  for (net::FlowId id = 0; id < 16; ++id) flows.push_back(make_flow(id, src, dst, 1.0));
  router.route_all(flows);

  // Pick a core switch some flow uses.
  topo::NodeId hot = topo::kInvalidNode;
  for (const auto& f : flows) {
    for (topo::NodeId n : f.path) {
      if (t.node(n).kind == topo::NodeKind::kCoreSwitch) hot = n;
    }
  }
  ASSERT_NE(hot, topo::kInvalidNode);

  const auto report = net::reroute_around(router, flows, hot, 1.0);
  EXPECT_GT(report.candidates, 0u);
  EXPECT_EQ(report.rerouted, report.candidates);  // alt paths exist in a fat tree
  for (const auto& f : flows) {
    EXPECT_FALSE(f.transits(hot));
    expect_links_follow_path(t, f, "flow " + std::to_string(f.id));
  }
}

TEST(Reroute, RespectsDelaySensitiveFlows) {
  const auto t = small_fat_tree();
  net::Router router(t);
  auto flow = make_flow(0, t.rack(0).hosts[0], t.rack(t.rack_count() - 1).hosts[0], 1.0);
  flow.delay_sensitive = true;
  std::vector<net::Flow> flows{flow};
  router.route_all(flows);
  topo::NodeId mid = flows[0].path[flows[0].path.size() / 2];
  const auto report = net::reroute_around(router, flows, mid, 1.0);
  EXPECT_EQ(report.candidates, 0u);
  EXPECT_EQ(report.rerouted, 0u);
}

// Every flow out of a single-homed host transits its ToR, so a probe
// blocking that ToR fails. Each candidate keeps its own old path and links:
// the larger cross-pod flow is probed first, the intra-rack one after it
// reuses the saved buffers.
TEST(Reroute, FailedProbeKeepsTheOldPathAndLinks) {
  const auto t = small_fat_tree();
  net::Router router(t);
  const auto& rack = t.rack(0);
  std::vector<net::Flow> flows{make_flow(0, rack.hosts[0], rack.hosts[1], 1.0),
                               make_flow(1, rack.hosts[0], t.rack(t.rack_count() - 1).hosts[0],
                                         2.0)};
  router.route_all(flows);
  const std::vector<net::Flow> before = flows;

  const auto report = net::reroute_around(router, flows, rack.tor, 1.0);
  EXPECT_EQ(report.candidates, 2u);
  EXPECT_EQ(report.rerouted, 0u);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_EQ(flows[f].path, before[f].path) << "flow " << f;
    EXPECT_EQ(flows[f].links, before[f].links) << "flow " << f;
    expect_links_follow_path(t, flows[f], "flow " + std::to_string(f));
  }
}

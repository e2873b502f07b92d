// Micro-benchmarks (google-benchmark) of the algorithmic kernels Sheriff
// leans on: Floyd–Warshall (a test oracle), Dijkstra, the router's blocked
// route (hop-level BFS plus ECMP walk), Hungarian matching, max–min fair
// share (the oracle reference and the per-round solver on engine flow
// tables), k-median local search (the oracle scan and the engine's fast
// solver), the knapsack, ARIMA/NARNET fitting, the Eq. (1)
// migration decision kernel (surface build / per-candidate eval /
// bound-pruned sweep), a cold distance-row build, an engine's checkpoint
// round trip, and the checkpoint CRC-32 (with its byte-at-a-time oracle).

#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <memory>

#include "bench_support.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/kmedian_planner.hpp"
#include "fault/fault_plan.hpp"
#include "graph/dijkstra.hpp"
#include "graph/kmedian.hpp"
#include "graph/kmedian_fast.hpp"
#include "graph/knapsack.hpp"
#include "graph/matching.hpp"
#include "migration/cost_model.hpp"
#include "net/fair_share.hpp"
#include "net/queueing.hpp"
#include "net/rate_control.hpp"
#include "net/routing.hpp"
#include "oracles/crc32.hpp"
#include "oracles/fair_share.hpp"
#include "oracles/kmedian.hpp"
#include "oracles/shortest_paths.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/checkpoint.hpp"
#include "timeseries/arima.hpp"
#include "timeseries/holt_winters.hpp"
#include "timeseries/narnet.hpp"
#include "timeseries/simulate.hpp"
#include "topology/distance_rows.hpp"
#include "topology/fat_tree.hpp"
#include "workload/deployment.hpp"
#include "workload/trace_generator.hpp"

namespace {

using namespace sheriff;

graph::Graph random_graph(std::size_t n, std::size_t extra, common::Pcg32& rng) {
  graph::Graph g(n);
  for (graph::Vertex v = 1; v < n; ++v) {
    g.add_edge(v, static_cast<graph::Vertex>(rng.next_below(v)), rng.uniform(0.1, 10.0));
  }
  for (std::size_t e = 0; e < extra; ++e) {
    const auto a = static_cast<graph::Vertex>(rng.next_below(static_cast<std::uint32_t>(n)));
    const auto b = static_cast<graph::Vertex>(rng.next_below(static_cast<std::uint32_t>(n)));
    if (a != b) g.add_edge(a, b, rng.uniform(0.1, 10.0));
  }
  return g;
}

void BM_FloydWarshall(benchmark::State& state) {
  common::Pcg32 rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = random_graph(n, 3 * n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::floyd_warshall(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FloydWarshall)->Arg(32)->Arg(64)->Arg(128)->Complexity(benchmark::oNCubed);

void BM_DijkstraFatTree(benchmark::State& state) {
  topo::FatTreeOptions options;
  options.pods = static_cast<int>(state.range(0));
  const auto t = topo::build_fat_tree(options);
  const auto g = t.wired_graph(topo::EdgeWeight::kHops);
  graph::ShortestPaths paths;
  for (auto _ : state) {
    graph::dijkstra_into(g, 0, paths);
    benchmark::DoNotOptimize(paths.distance.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DijkstraFatTree)->Arg(8)->Arg(16)->Arg(24);

// FLOWREROUTE's query: route a cross-pod flow around a switch its
// unblocked route transits. Second arg: 0 = cold (a fresh router per query,
// built with the timer paused, so every query runs the hop-level BFS, grows
// the router's repair scratch, repairs and walks), 1 = warm (the root's
// level array is cached and the scratch grown, so every query repairs and
// walks). Third arg: the blocked switch, 0 = the route's core (no vertex
// loses its level), 1 = the route's aggregation switch in the source's pod
// (its cores and every other pod's matching aggregation switch are
// re-leveled: the largest repair on a Fat-Tree).
void BM_RouterBlockedRoute(benchmark::State& state) {
  topo::FatTreeOptions options;
  options.pods = static_cast<int>(state.range(0));
  const auto t = topo::build_fat_tree(options);
  const bool warm = state.range(1) != 0;
  const bool block_agg = state.range(2) != 0;
  auto router = std::make_unique<net::Router>(t);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  struct Probe {
    net::Flow flow;
    topo::NodeId hot = topo::kInvalidNode;
  };
  std::vector<Probe> probes;
  for (std::uint32_t i = 0; i < 64; ++i) {
    Probe p;
    p.flow.id = i;
    p.flow.src_host = hosts[(i * 7) % (hosts.size() / 2)];
    p.flow.dst_host = hosts[hosts.size() - 1 - (i * 5) % (hosts.size() / 2)];
    router->route(p.flow);
    // host, ToR, agg, core, agg, ToR, host
    p.hot = p.flow.path[block_agg ? 2 : 3];
    probes.push_back(p);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      router = std::make_unique<net::Router>(t);
      state.ResumeTiming();
    }
    Probe& p = probes[next++ % probes.size()];
    const topo::NodeId blocked[] = {p.hot};
    benchmark::DoNotOptimize(router->route(p.flow, blocked));
    benchmark::DoNotOptimize(p.flow.path.data());
  }
  const auto& stats = router->cache_stats();
  state.counters["tree_hits"] = static_cast<double>(stats.tree_hits);
  state.counters["repairs"] = static_cast<double>(stats.repairs);
}
BENCHMARK(BM_RouterBlockedRoute)
    ->ArgNames({"k", "warm", "agg"})
    ->ArgsProduct({{16, 32}, {0, 1}, {0, 1}});

void BM_HungarianMatching(benchmark::State& state) {
  common::Pcg32 rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::AssignmentProblem problem(n, 2 * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 2 * n; ++c) problem.set_cost(r, c, rng.uniform(0.0, 100.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::solve_assignment(problem));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HungarianMatching)->Arg(16)->Arg(64)->Arg(128)->Complexity();

void BM_MaxMinFairShare(benchmark::State& state) {
  topo::FatTreeOptions options;
  options.pods = 8;
  const auto t = topo::build_fat_tree(options);
  net::Router router(t);
  common::Pcg32 rng(3);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  std::vector<net::Flow> flows;
  for (net::FlowId id = 0; id < static_cast<net::FlowId>(state.range(0)); ++id) {
    net::Flow f;
    f.id = id;
    f.src_host = rng.pick(hosts);
    f.dst_host = rng.pick(hosts);
    if (f.src_host == f.dst_host) continue;
    f.demand_gbps = rng.uniform(0.05, 1.5);
    flows.push_back(f);
  }
  router.route_all(flows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::max_min_fair_share(t, flows));
  }
}
BENCHMARK(BM_MaxMinFairShare)->Arg(128)->Arg(512)->Arg(2048);

// One per-round canonical solve on an engine's own flow table (demands,
// routes and QCN rate limits after its first round):
//   k=24 — ft24_regional's Sec. VI-B fabric and deployment: 4 hosts per
//          rack, 1 Gbps ToR–agg links, 3 VMs per host, ~1.7k flows;
//   k=32 — ft32_core_hotspot's table: 2 hosts per rack, 1 Gbps agg–core
//          links under 10 Gbps elsewhere, 2 dependency edges per VM.
// Compare BM_MaxMinFairShare for the from-scratch reference's cost.
struct SolveTable {
  topo::Topology topology;
  std::vector<net::Flow> flows;
};

const SolveTable& solve_table(int pods) {
  static std::map<int, SolveTable> tables;
  if (const auto it = tables.find(pods); it != tables.end()) return it->second;
  topo::FatTreeOptions fabric;
  fabric.pods = pods;
  wl::DeploymentOptions deploy = bench::bench_deployment_options(1);
  core::EngineConfig config;
  config.sheriff.cost.computing_cost = 100.0;
  if (pods == 32) {
    fabric.hosts_per_rack = 2;
    fabric.host_link_gbps = 10.0;
    fabric.agg_core_gbps = 1.0;
    deploy.placement = wl::PlacementPolicy::kUniform;
    deploy.hot_vm_fraction = 0.0;
    deploy.dependency_degree = 2.0;
    config.flow_demand_scale_gbps = 2.0;
    config.sheriff.reroute_fraction = 0.3;
    config.sheriff.max_matching_rounds = 4;
  } else {
    fabric.tor_agg_gbps = 1.0;
  }
  SolveTable& table = tables[pods];
  table.topology = topo::build_fat_tree(fabric);
  core::DistributedEngine engine(table.topology, deploy, config);
  (void)engine.run_round();
  table.flows.assign(engine.flows().begin(), engine.flows().end());
  return table;
}

void BM_FairShareSolve(benchmark::State& state) {
  const SolveTable& table = solve_table(static_cast<int>(state.range(0)));
  std::vector<net::Flow> flows = table.flows;
  net::FairShareSolver solver(table.topology);
  (void)solver.solve(flows);
  for (auto _ : state) benchmark::DoNotOptimize(solver.solve(flows));
  state.counters["flows"] = static_cast<double>(flows.size());
}
BENCHMARK(BM_FairShareSolve)->ArgName("k")->Arg(24)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_KMedianLocalSearch(benchmark::State& state) {
  common::Pcg32 rng(4);
  const std::size_t n = 48;
  std::vector<std::pair<double, double>> pts(n);
  for (auto& p : pts) p = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
  graph::DistanceMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = pts[i].first - pts[j].first;
      const double dy = pts[i].second - pts[j].second;
      m.set(i, j, std::sqrt(dx * dx + dy * dy));
    }
  }
  graph::KMedianInstance instance;
  instance.distance = &m;
  instance.k = 6;
  for (std::size_t i = 0; i < n; ++i) {
    instance.clients.push_back(i);
    instance.facilities.push_back(i);
  }
  const auto p = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::local_search_kmedian(instance, p));
  }
}
BENCHMARK(BM_KMedianLocalSearch)->Arg(1)->Arg(2);

// The engine's kKMedian solve: fast_kmedian on the 128-rack metric T' of a
// k=16 Fat-Tree, 4 medians, 40 seeded client racks. Arg = swap size p; at
// p = 2 its multi_swap_scan certificate prices C(4,2)·C(124,2) candidates.
void BM_FastKMedianRackGraph(benchmark::State& state) {
  topo::FatTreeOptions options;
  options.pods = 16;
  const auto t = topo::build_fat_tree(options);
  const core::KMedianPlanner planner(t);
  graph::KMedianInstance instance;
  instance.distance = &planner.rack_distances();
  instance.k = 4;
  for (std::size_t r = 0; r < t.rack_count(); ++r) instance.facilities.push_back(r);
  std::vector<std::size_t> racks = instance.facilities;
  common::Pcg32 rng(16);
  rng.shuffle(racks);
  instance.clients.assign(racks.begin(), racks.begin() + 40);
  graph::FastKMedianOptions fast;
  fast.p = static_cast<std::size_t>(state.range(0));
  std::size_t evaluations = 0;
  for (auto _ : state) {
    const auto solution = graph::fast_kmedian(instance, fast);
    evaluations = solution.evaluations;
    benchmark::DoNotOptimize(solution.cost);
  }
  state.counters["evaluations"] = static_cast<double>(evaluations);
}
BENCHMARK(BM_FastKMedianRackGraph)->ArgName("p")->Arg(1)->Arg(2);

void BM_Knapsack(benchmark::State& state) {
  common::Pcg32 rng(5);
  std::vector<graph::KnapsackItem> items;
  for (int i = 0; i < 64; ++i) items.push_back({1 + rng.next_below(20), rng.uniform(0.0, 10.0)});
  const auto budget = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::min_value_knapsack(items, budget));
  }
}
BENCHMARK(BM_Knapsack)->Arg(50)->Arg(200);

void BM_ArimaFit(benchmark::State& state) {
  common::Pcg32 rng(6);
  const auto series =
      ts::simulate_arma({0.6}, {0.3}, 1.0, 1.0, static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    ts::ArimaModel model(ts::ArimaOrder{1, 1, 1});
    model.fit(series);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_ArimaFit)->Arg(256)->Arg(1024);

void BM_NarnetFit(benchmark::State& state) {
  auto gen = wl::make_weekly_traffic_trace(7);
  const auto series = gen->generate(336);
  for (auto _ : state) {
    ts::NarNet::Options options;
    options.inputs = 8;
    options.hidden = static_cast<int>(state.range(0));
    options.max_epochs = 60;
    ts::NarNet net(options);
    net.fit(series);
    benchmark::DoNotOptimize(net);
  }
}
BENCHMARK(BM_NarnetFit)->Arg(10)->Arg(20);

void BM_HoltWintersFit(benchmark::State& state) {
  auto gen = wl::make_weekly_traffic_trace(8);
  const auto series = gen->generate(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ts::HoltWintersModel::Options options;
    options.period = 48;
    ts::HoltWintersModel model(options);
    model.fit(series);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_HoltWintersFit)->Arg(336)->Arg(1344);

void BM_QcnControllerUpdate(benchmark::State& state) {
  topo::FatTreeOptions options;
  options.pods = 8;
  options.tor_agg_gbps = 1.0;
  const auto t = topo::build_fat_tree(options);
  net::Router router(t);
  common::Pcg32 rng(9);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  std::vector<net::Flow> flows;
  for (net::FlowId id = 0; id < static_cast<net::FlowId>(state.range(0)); ++id) {
    net::Flow f;
    f.id = id;
    f.src_host = rng.pick(hosts);
    f.dst_host = rng.pick(hosts);
    if (f.src_host == f.dst_host) continue;
    f.demand_gbps = rng.uniform(0.5, 2.0);
    flows.push_back(f);
  }
  router.route_all(flows);
  net::SwitchQueues queues(t);
  net::QcnRateController controller;
  const auto shares = oracle::max_min_fair_share(t, flows);
  queues.update(shares, flows);
  for (auto _ : state) {
    controller.update(flows, queues);
    benchmark::DoNotOptimize(controller.tracked_flows());
  }
}
BENCHMARK(BM_QcnControllerUpdate)->Arg(256)->Arg(1024);

// Shared fixture for the Eq. (1) decision-kernel benches: a k=8 Fat-Tree
// with the Sec. VI-B oversubscribed ToR uplinks, a bench-standard VM
// population, routed flows, and one fair-share allocation installed as the
// cost model's bandwidth state — the exact inputs the manage phase hands
// the kernel each round.
struct CostKernelScenario {
  topo::Topology topo;
  wl::Deployment deployment;
  std::vector<topo::NodeId> hosts;
  std::vector<net::Flow> flows;
  net::FairShareResult shares;
  std::vector<wl::VmId> alerted;

  CostKernelScenario()
      : topo([] {
          topo::FatTreeOptions options;
          options.pods = 8;
          options.tor_agg_gbps = 1.0;
          return topo::build_fat_tree(options);
        }()),
        deployment(topo, bench::bench_deployment_options(2015)),
        hosts(topo.nodes_of_kind(topo::NodeKind::kHost)) {
    net::Router router(topo);
    common::Pcg32 rng(7);
    for (net::FlowId id = 0; id < net::FlowId{1024}; ++id) {
      net::Flow f;
      f.id = id;
      f.src_host = rng.pick(hosts);
      f.dst_host = rng.pick(hosts);
      if (f.src_host == f.dst_host) continue;
      f.demand_gbps = rng.uniform(0.05, 1.5);
      flows.push_back(f);
    }
    router.route_all(flows);
    shares = oracle::max_min_fair_share(topo, flows);
    // 5 % of the VMs alerted, as the Sec. VI-B experiments assume.
    for (std::size_t id = 0; id < deployment.vm_count(); id += 20) {
      alerted.push_back(static_cast<wl::VmId>(id));
    }
  }
};

const CostKernelScenario& cost_kernel_scenario() {
  static const CostKernelScenario scenario;
  return scenario;
}

mig::CostParams cost_kernel_params() {
  mig::CostParams params;
  params.computing_cost = 100.0;
  return params;
}

// Cost of the once-per-round SoA snapshot (set_bandwidth_state rebuilds
// it); the price every evaluation amortizes.
void BM_CostKernelSurfaceBuild(benchmark::State& state) {
  const CostKernelScenario& s = cost_kernel_scenario();
  mig::MigrationCostModel model(s.topo, s.deployment, cost_kernel_params());
  for (auto _ : state) {
    model.set_bandwidth_state(&s.shares);
    benchmark::DoNotOptimize(model.stats().surface_builds);
  }
}
BENCHMARK(BM_CostKernelSurfaceBuild);

// Per-candidate Eq. (1) evaluation on the round's CostSurface: 256
// random (alerted VM, host) pairs per iteration.
void BM_CostKernelEval(benchmark::State& state) {
  const CostKernelScenario& s = cost_kernel_scenario();
  mig::MigrationCostModel model(s.topo, s.deployment, cost_kernel_params());
  model.set_bandwidth_state(&s.shares);
  common::Pcg32 rng(11);
  std::vector<std::pair<wl::VmId, topo::NodeId>> pairs;
  for (int i = 0; i < 256; ++i) pairs.emplace_back(rng.pick(s.alerted), rng.pick(s.hosts));
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& [vm, dest] : pairs) sum += model.cost(vm, dest).total();
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CostKernelEval);

// The single-VM matching sweep the regional shims run: one alerted VM
// against every host. Arg(0) = exhaustive (evaluate all), Arg(1) = the
// admissible-bound scan propose_matching uses (same argmin, fewer full
// evaluations).
void BM_CostKernelPrunedSweep(benchmark::State& state) {
  const CostKernelScenario& s = cost_kernel_scenario();
  mig::MigrationCostModel model(s.topo, s.deployment, cost_kernel_params());
  model.set_bandwidth_state(&s.shares);
  const bool prune = state.range(0) != 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const wl::VmId vm = s.alerted[i++ % s.alerted.size()];
    double best = graph::AssignmentProblem::kForbidden;
    for (const topo::NodeId dest : s.hosts) {
      if (prune) {
        double base = 0.0;
        if (model.provably_infeasible(vm, dest) ||
            model.candidate_lower_bound(vm, dest, &base) >= best) {
          continue;
        }
        const double cost = model.total_cost_with_base(vm, dest, base);
        if (cost < best) best = cost;
        continue;
      }
      const double cost = model.total_cost(vm, dest);
      if (cost < best) best = cost;
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_CostKernelPrunedSweep)->Arg(0)->Arg(1);

// Cold build of a fabric's distance rows: a fresh row set and every
// ToR-rooted row, which the first engine on a Topology pays at
// construction. Arg = k; the shapes are perfbench's k=16 and k=32 fabrics.
void BM_DistanceRowsBuild(benchmark::State& state) {
  topo::FatTreeOptions options;
  options.pods = static_cast<int>(state.range(0));
  options.hosts_per_rack = options.pods == 32 ? 2 : 4;
  options.tor_agg_gbps = 1.0;
  const auto t = topo::build_fat_tree(options);
  for (auto _ : state) {
    const topo::DistanceRows rows(t);
    rows.build_tor_rows();
    benchmark::DoNotOptimize(rows.built_rows());
  }
  state.counters["rows"] = static_cast<double>(t.rack_count());
}
BENCHMARK(BM_DistanceRowsBuild)->ArgName("k")->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

// One checkpoint round trip of a k=16 drill-shaped engine (link flaps, a
// ToR outage, 10% message loss, observe + audit): serialize, construct a
// fresh engine on the same Topology — its distance rows are already built
// — and deserialize into it.
void BM_EngineRestore(benchmark::State& state) {
  topo::FatTreeOptions options;
  options.pods = 16;
  options.tor_agg_gbps = 1.0;
  const auto t = topo::build_fat_tree(options);
  fault::FaultOptions fault_options;
  fault_options.seed = 1;
  fault_options.message_drop_probability = 0.1;
  auto plan = fault::FaultPlan::random_link_flaps(t, fault_options, 8, 1, 60, 3);
  const auto outage = fault::FaultPlan::tor_outage(t, 3, 10, 20);
  for (const auto& e : outage.events()) plan.add(e);
  plan.set_options(fault_options);
  core::EngineConfig config;
  config.sheriff.cost.computing_cost = 100.0;
  config.fault_plan = &plan;
  config.observe = true;
  config.audit = true;
  const wl::DeploymentOptions deploy = bench::bench_deployment_options(1);
  core::DistributedEngine engine(t, deploy, config);
  (void)engine.run(25);
  for (auto _ : state) {
    std::vector<std::uint8_t> bytes = core::Checkpoint::serialize(engine);
    core::DistributedEngine restored(t, deploy, config);
    core::Checkpoint::deserialize(restored, std::move(bytes));
    benchmark::DoNotOptimize(restored.rounds_run());
  }
}
BENCHMARK(BM_EngineRestore)->Unit(benchmark::kMillisecond);

// CRC-32 over 1 MiB of random bytes, the checksum every checkpoint section,
// fleet manifest and perfbench results digest goes through: the archive's
// slicing-by-8 loop (bytewise = 0) and the byte-at-a-time reference
// (bytewise = 1).
void BM_Crc32(benchmark::State& state) {
  const bool bytewise = state.range(0) != 0;
  std::vector<std::uint8_t> bytes(std::size_t{1} << 20);
  common::Pcg32 rng(7, 1);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u32());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bytewise ? oracle::crc32_bytewise(bytes.data(), bytes.size())
                                      : snapshot::detail::crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->ArgName("bytewise")->Arg(0)->Arg(1);

void BM_FatTreeBuild(benchmark::State& state) {
  topo::FatTreeOptions options;
  options.pods = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::build_fat_tree(options));
  }
}
BENCHMARK(BM_FatTreeBuild)->Arg(8)->Arg(24)->Arg(48);

}  // namespace

BENCHMARK_MAIN();

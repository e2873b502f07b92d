// The flattened migration decision kernel (DESIGN.md §14): the cost
// model's surface kernel must price every move bit for bit like the
// reference per-link walk written out below, the candidate lower bound
// must be admissible (bound <= exact cost, always), and bound-guarded
// pruning must never change a selection — locked by a 50-seed pruned-vs-
// exhaustive differential on both reference fabrics plus engine-level
// CSV/checkpoint byte parity across the unread EngineConfig::pool,
// pristine and faulted.

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
#include "graph/matching.hpp"
#include "migration/cost_model.hpp"
#include "net/fair_share.hpp"
#include "net/routing.hpp"
#include "snapshot/checkpoint.hpp"
#include "topology/bcube.hpp"
#include "topology/distance_rows.hpp"
#include "topology/fat_tree.hpp"
#include "workload/deployment.hpp"

namespace core = sheriff::core;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;
namespace mig = sheriff::mig;
namespace net = sheriff::net;
namespace fault = sheriff::fault;
namespace graph = sheriff::graph;
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

/// Eq. (1) the slow way: the per-link walk the cost model ran before its
/// per-round surface. Distances and the priced path come from the
/// topology's rows, with a single-homed node's queries answered by its
/// peer's row plus the leaf link, and the dependency span read from each
/// partner's side; B(e) is recomputed from the fair-share result link by
/// link (`shares == nullptr`: idle links).
mig::CostBreakdown reference_cost(const topo::Topology& t, const wl::Deployment& d,
                                  const mig::CostParams& params,
                                  const net::FairShareResult* shares, wl::VmId vm_id,
                                  topo::NodeId dest) {
  const topo::DistanceRows& rows = t.distance_rows();
  const auto leaf_peer = [&](topo::NodeId v) {
    const auto links = t.links_of(v);
    return links.size() == 1 ? t.peer(links[0], v) : topo::kInvalidNode;
  };
  const auto distance = [&](topo::NodeId from, topo::NodeId to) {
    if (from == to) return 0.0;
    const topo::NodeId via = leaf_peer(from);
    if (via == topo::kInvalidNode) return rows.row(from).distance[to];
    const double leaf = t.link(t.links_of(from)[0]).distance_m;
    return to == via ? leaf : leaf + rows.row(via).distance[to];
  };
  const auto path = [&](topo::NodeId from, topo::NodeId to) {
    const topo::NodeId via = leaf_peer(from);
    if (via == topo::kInvalidNode) return rows.row(from).path_to(to);
    if (to == via) return std::vector<topo::NodeId>{from, to};
    auto p = rows.row(via).path_to(to);
    if (!p.empty()) p.insert(p.begin(), from);
    return p;
  };

  const wl::VirtualMachine& vm = d.vm(vm_id);
  mig::CostBreakdown out;
  out.computing = params.computing_cost;
  double span = 0.0;
  for (const wl::VmId other : d.dependencies().neighbors(vm_id)) {
    span += distance(d.vm(other).host, dest);
  }
  out.dependency = params.unit_distance_cost * span;
  if (vm.host == dest) return out;  // a one-node path is never feasible
  const auto hops = path(vm.host, dest);
  if (hops.size() < 2) return out;  // unreachable
  double transmission = 0.0;
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    const topo::LinkId link = t.link_between(hops[i], hops[i + 1]);
    const double capacity = t.link(link).capacity_gbps;
    double available = capacity;
    if (shares != nullptr) {
      available = std::max(shares->available_bandwidth(t, link),
                           params.management_reserve_fraction * capacity);
    }
    const double b = std::min(available, params.request_gbps);  // B(e)
    if (b <= params.bandwidth_threshold_gbps) return out;        // below B_t
    const double time = static_cast<double>(vm.capacity) / b;    // T(e)
    const double utilization = b / capacity;                     // P(e)
    transmission += params.delta * time + params.eta * utilization;
  }
  out.transmission = transmission;
  out.feasible = true;
  return out;
}

void expect_breakdown_bitwise_equal(const mig::CostBreakdown& a, const mig::CostBreakdown& b,
                                    wl::VmId vm, topo::NodeId dest) {
  // EXPECT_EQ on doubles is exact equality — the surface kernel replays
  // the reference FP ops in the reference order, so no tolerance is owed.
  EXPECT_EQ(a.feasible, b.feasible) << "vm=" << vm << " dest=" << dest;
  EXPECT_EQ(a.computing, b.computing) << "vm=" << vm << " dest=" << dest;
  EXPECT_EQ(a.dependency, b.dependency) << "vm=" << vm << " dest=" << dest;
  EXPECT_EQ(a.transmission, b.transmission) << "vm=" << vm << " dest=" << dest;
}

void expect_surface_transparent(const topo::Topology& topology) {
  const wl::Deployment deployment(topology, surface_deployment());
  std::vector<net::Flow> flows;
  const net::FairShareResult loaded = loaded_shares(topology, flows, 5);
  const auto hosts = topology.nodes_of_kind(topo::NodeKind::kHost);
  mig::MigrationCostModel model(topology, deployment);

  // Loaded links, then the idle fabric (no bandwidth state installed).
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  const std::vector<const net::FairShareResult*> states{&loaded, nullptr};
  for (const net::FairShareResult* shares : states) {
    model.set_bandwidth_state(shares);
    sc::Pcg32 rng(shares != nullptr ? 11 : 12);
    for (int i = 0; i < 500; ++i) {
      const auto vm = static_cast<wl::VmId>(rng.next_below(
          static_cast<std::uint32_t>(deployment.vm_count())));
      const topo::NodeId dest = rng.pick(hosts);
      const mig::CostBreakdown expected =
          reference_cost(topology, deployment, model.params(), shares, vm, dest);
      expect_breakdown_bitwise_equal(model.cost(vm, dest), expected, vm, dest);
      EXPECT_EQ(model.total_cost(vm, dest),
                expected.feasible ? expected.total() : std::numeric_limits<double>::infinity());
      ++(expected.feasible ? feasible : infeasible);
    }
  }
  // Both outcomes occur, so neither branch is compared vacuously.
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
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
    model.set_bandwidth_state(&shares);

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

namespace {

/// The exhaustive matching propose_matching must reproduce: every
/// placeable (candidate, open target) pair of the first min(|candidates|,
/// |open|) candidates priced by total_cost, then one assignment solve.
/// `evaluations` counts the pairs it priced.
std::vector<core::ProposedMove> exhaustive_matching(const wl::Deployment& deployment,
                                                    const mig::MigrationCostModel& model,
                                                    const std::vector<wl::VmId>& candidates,
                                                    const std::vector<topo::NodeId>& targets,
                                                    std::size_t& evaluations) {
  std::vector<core::ProposedMove> out;
  std::vector<topo::NodeId> open;
  for (const topo::NodeId h : targets) {
    if (deployment.host_free_capacity(h) > 0) open.push_back(h);
  }
  if (candidates.empty() || open.empty()) return out;
  const std::size_t batch = std::min(candidates.size(), open.size());
  graph::AssignmentProblem problem(batch, open.size());
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t c = 0; c < open.size(); ++c) {
      if (!deployment.can_place(candidates[r], open[c])) continue;
      ++evaluations;
      const double cost = model.total_cost(candidates[r], open[c]);
      if (std::isfinite(cost)) problem.set_cost(r, c, cost);
    }
  }
  const auto matching = graph::solve_assignment(problem);
  for (std::size_t r = 0; r < batch; ++r) {
    const std::size_t col = matching.assignment[r];
    if (col == graph::AssignmentResult::kUnassigned) continue;
    out.push_back({candidates[r], open[col], problem.cost(r, col)});
  }
  return out;
}

/// 50 random candidate/target sets on `topology` with `reserve` as the
/// management reserve: propose_matching must select exactly what the
/// exhaustive matching selects and account for every pair it skipped.
/// Returns the pairs skipped by the multi-row branch.
std::uint64_t expect_pruning_lossless(const topo::Topology& topology, double reserve) {
  const wl::Deployment deployment(topology, surface_deployment());
  std::vector<net::Flow> flows;
  const net::FairShareResult shares = loaded_shares(topology, flows, 3);
  mig::CostParams params;
  params.management_reserve_fraction = reserve;
  mig::MigrationCostModel model(topology, deployment, params);
  model.set_bandwidth_state(&shares);

  const auto hosts = topology.nodes_of_kind(topo::NodeKind::kHost);
  std::uint64_t total_pruned = 0;
  std::uint64_t matrix_pruned = 0;
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

    std::size_t exhaustive_evaluations = 0;
    const auto exhaustive =
        exhaustive_matching(deployment, model, candidates, targets, exhaustive_evaluations);
    const mig::CostModelStats before = model.stats();
    std::size_t space = 0;
    const auto pruned = core::propose_matching(deployment, model, candidates, targets, &space);
    const mig::CostModelStats after = model.stats();

    // Selection identity, bitwise: same pairs, same costs, same order.
    EXPECT_EQ(pruned.size(), exhaustive.size()) << "seed=" << seed;
    for (std::size_t i = 0; i < std::min(pruned.size(), exhaustive.size()); ++i) {
      EXPECT_EQ(pruned[i].vm, exhaustive[i].vm) << "seed=" << seed;
      EXPECT_EQ(pruned[i].dest, exhaustive[i].dest) << "seed=" << seed;
      EXPECT_EQ(pruned[i].cost, exhaustive[i].cost) << "seed=" << seed;
    }
    // Scanned search space is an accounting invariant of the sweep shape,
    // not of pruning: every (candidate, open target) pair of the batch.
    std::size_t open = 0;
    for (const topo::NodeId h : targets) open += deployment.host_free_capacity(h) > 0 ? 1 : 0;
    const std::size_t batch = std::min(candidates.size(), open);
    EXPECT_EQ(space, batch * open) << "seed=" << seed;
    // Losslessness identity: every pair the exhaustive sweep priced was
    // either evaluated or explicitly counted as pruned — pruning is never
    // a silent cap.
    const std::uint64_t evaluated = after.evaluated - before.evaluated;
    const std::uint64_t skipped = after.pruned - before.pruned;
    EXPECT_EQ(evaluated + skipped, exhaustive_evaluations) << "seed=" << seed;
    total_pruned += skipped;
    if (batch > 1) matrix_pruned += skipped;
  }
  EXPECT_GT(total_pruned, 0u) << "reserve " << reserve;  // the bound must prune something
  return matrix_pruned;
}

}  // namespace

TEST(CostSurface, PrunedMatchingSelectsIdenticallyAcross50Seeds) {
  std::uint64_t matrix_pruned = 0;
  for (const topo::Topology& topology : {small_fat_tree(), small_bcube()}) {
    // Without a management reserve, saturated links fall below B_t: some
    // destinations become provably infeasible, which the multi-row branch
    // skips.
    for (const double reserve : {0.1, 0.0}) {
      matrix_pruned += expect_pruning_lossless(topology, reserve);
    }
  }
  EXPECT_GT(matrix_pruned, 0u);
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


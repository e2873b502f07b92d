#include "core/kmedian_planner.hpp"

#include <algorithm>
#include <cassert>

#include "common/require.hpp"
#include "graph/dijkstra.hpp"
#include "graph/kmedian_fast.hpp"
#include "migration/cost_model.hpp"
#include "migration/request.hpp"
#include "obs/timing.hpp"
#include "topology/distance_rows.hpp"

namespace sheriff::core {

namespace {

/// Replaces every +inf entry of a masked rebuild with M.
void price_unreachable_pairs(graph::DistanceMatrix& distances) {
  // M = 1 + racks · (largest finite entry). Only racks in different live
  // components are M apart, so T' stays a metric: a path between two such
  // racks through a third crosses components too and costs at least M.
  // And a plan serving one more source rack is cheaper than every plan
  // serving fewer: the extra M it saves exceeds the at most
  // racks · (largest finite entry) the served racks can cost together.
  const std::size_t racks = distances.size();
  double largest = 0.0;
  for (std::size_t r = 0; r < racks; ++r) {
    for (std::size_t c = 0; c < racks; ++c) {
      const double d = distances.at(r, c);
      if (d != graph::kInfiniteDistance) largest = std::max(largest, d);
    }
  }
  const double unreachable = 1.0 + static_cast<double>(racks) * largest;
  for (std::size_t r = 0; r < racks; ++r) {
    for (std::size_t c = 0; c < racks; ++c) {
      if (distances.at(r, c) == graph::kInfiniteDistance) distances.set(r, c, unreachable);
    }
  }
}

}  // namespace

KMedianPlanner::KMedianPlanner(const topo::Topology& topo, KMedianPlannerOptions options)
    : topo_(&topo), options_(options), distances_(topo.rack_count()) {
  SHERIFF_REQUIRE(topo.rack_count() >= 1, "topology has no racks");
  rebuild();
}

void KMedianPlanner::rebuild() {
  // Rack-to-rack costs are wired shortest-path distances between the
  // racks' ToRs over the full network graph (hosts included — in BCube the
  // inter-rack paths run through server NICs). The paper builds the rack
  // multigraph T and collapses it with Floyd–Warshall; per-ToR Dijkstra on
  // the node graph restricted to ToR rows yields the same complete metric
  // T' (up to FP summation order).
  const topo::LivenessMask* mask = options_.liveness;
  const std::size_t racks = topo_->rack_count();
  if (mask == nullptr) {
    // The topology's shared ToR rows: the same Dijkstra on the same
    // unmasked distance graph, so ToR distances have one source of truth.
    for (topo::RackId r = 0; r < racks; ++r) {
      const auto& row = topo_->distance_rows().row(topo_->rack(r).tor);
      for (topo::RackId c = 0; c < racks; ++c) {
        distances_.set(r, c, row.distance[topo_->rack(c).tor]);
      }
    }
  } else {
    // Masked rebuilds sweep the masked graph (the shared rows are pristine
    // by construction): one Dijkstra per ToR row, all reusing one buffer.
    const graph::Graph g = topo_->wired_graph(topo::EdgeWeight::kDistance, *mask);
    graph::ShortestPaths paths;
    for (topo::RackId r = 0; r < racks; ++r) {
      graph::dijkstra_into(g, topo_->rack(r).tor, paths);
      for (topo::RackId c = 0; c < racks; ++c) {
        distances_.set(r, c, paths.distance[topo_->rack(c).tor]);
      }
    }
    price_unreachable_pairs(distances_);
  }

  facilities_.clear();
  facilities_.reserve(racks);
  for (topo::RackId r = 0; r < racks; ++r) {
    // A rack whose ToR is down cannot receive (or source) traffic; keep it
    // out of the facility set so the solvers never open it.
    if (mask == nullptr || mask->node_up(topo_->rack(r).tor)) facilities_.push_back(r);
  }
  SHERIFF_REQUIRE(!facilities_.empty(), "no live racks to plan over");
  SHERIFF_REQUIRE(distances_.all_finite(), "rack graph is disconnected");
  built_version_ = mask == nullptr ? 0 : mask->version();
  ++rebuilds_;
}

bool KMedianPlanner::refresh() {
  if (options_.liveness == nullptr) return false;
  if (options_.liveness->version() == built_version_) return false;
  rebuild();
  return true;
}

KMedianPlan KMedianPlanner::plan(const std::vector<topo::RackId>& source_racks,
                                 const PlanOptions& options) const {
  graph::KMedianInstance instance;
  instance.distance = &distances_;
  instance.k = options.k;
  instance.clients.assign(source_racks.begin(), source_racks.end());
  instance.facilities.assign(facilities_.begin(), facilities_.end());
  instance.max_evaluations = options.max_evaluations;
  graph::FastKMedianOptions fast;
  fast.p = options.p;
  const graph::KMedianSolution solution = graph::fast_kmedian(instance, fast);
  KMedianPlan out;
  out.destinations.assign(solution.medians.begin(), solution.medians.end());
  out.connection_cost = solution.cost;
  out.evaluations = solution.evaluations;
  out.hit_evaluation_cap = solution.hit_evaluation_cap;
  return out;
}

KMedianMigrationManager::KMedianMigrationManager(wl::Deployment& deployment,
                                                 mig::MigrationCostModel& cost_model,
                                                 const KMedianPlanner& planner)
    : KMedianMigrationManager(deployment, cost_model, planner, Options{}) {}

KMedianMigrationManager::KMedianMigrationManager(wl::Deployment& deployment,
                                                 mig::MigrationCostModel& cost_model,
                                                 const KMedianPlanner& planner,
                                                 Options options)
    : deployment_(&deployment), cost_model_(&cost_model), planner_(&planner),
      options_(options) {
  SHERIFF_REQUIRE(options.destination_racks >= 1, "need at least one destination rack");
  SHERIFF_REQUIRE(options.local_search_p >= 1, "swap size must be at least 1");
}

MigrationPlan KMedianMigrationManager::migrate(std::vector<wl::VmId> alerted) {
  MigrationPlan plan;
  last_destinations_.clear();
  if (alerted.empty()) return plan;
  const topo::Topology& topo = deployment_->topology();

  // Source ToRs: the racks the alerted VMs live in, deduplicated in first-
  // appearance order with O(racks) seen-flags.
  std::vector<topo::RackId> sources;
  std::vector<char> seen(topo.rack_count(), 0);
  for (wl::VmId id : alerted) {
    const topo::RackId r = topo.node(deployment_->vm(id).host).rack;
    if (!seen[r]) {
      seen[r] = 1;
      sources.push_back(r);
    }
  }
#ifndef NDEBUG
  // Determinism micro-assert: the flag-based dedup must keep exactly the
  // first-appearance order the original linear-scan dedup produced.
  {
    std::vector<topo::RackId> reference;
    for (wl::VmId id : alerted) {
      const topo::RackId r = topo.node(deployment_->vm(id).host).rack;
      if (std::find(reference.begin(), reference.end(), r) == reference.end()) {
        reference.push_back(r);
      }
    }
    assert(sources == reference && "source-rack dedup changed order");
  }
#endif

  KMedianPlanner::PlanOptions plan_options;
  plan_options.k = std::min(options_.destination_racks, planner_->facility_racks().size());
  plan_options.p = options_.local_search_p;
  plan_options.max_evaluations = options_.max_evaluations;
  KMedianPlan selection;
  {
    obs::ScopedTimer timer(stats_.kmedian_ns);
    selection = planner_->plan(sources, plan_options);
  }
  last_destinations_ = selection.destinations;
  plan.search_space += selection.evaluations;
  ++stats_.plans;
  stats_.evaluations += selection.evaluations;
  if (selection.hit_evaluation_cap) ++stats_.cap_hits;

  std::vector<topo::NodeId> targets;
  for (topo::RackId r : selection.destinations) {
    for (topo::NodeId h : topo.rack(r).hosts) {
      if (options_.liveness != nullptr && !options_.liveness->host_attached(topo, h)) continue;
      targets.push_back(h);
    }
  }

  mig::AdmissionBroker broker(*deployment_);
  VmMigrationScheduler scheduler(*deployment_, *cost_model_, broker);
  plan.merge(scheduler.migrate(std::move(alerted), targets));
  return plan;
}

}  // namespace sheriff::core

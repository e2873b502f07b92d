#include "core/vm_migration.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "graph/matching.hpp"

namespace sheriff::core {

void MigrationPlan::merge(const MigrationPlan& other) {
  moves.insert(moves.end(), other.moves.begin(), other.moves.end());
  total_cost += other.total_cost;
  search_space += other.search_space;
  requests += other.requests;
  rejects += other.rejects;
  total_duration_seconds += other.total_duration_seconds;
  total_downtime_seconds += other.total_downtime_seconds;
  unplaced.insert(unplaced.end(), other.unplaced.begin(), other.unplaced.end());
}

void MigrationPlan::add_move(wl::VmId vm, topo::NodeId from, topo::NodeId to, double cost,
                             const mig::LiveMigrationParams& timing) {
  const auto timeline = mig::simulate_live_migration(timing);
  moves.push_back({vm, from, to, cost, timeline.total_seconds(), timeline.t3_downtime_seconds});
  total_cost += cost;
  total_duration_seconds += timeline.total_seconds();
  total_downtime_seconds += timeline.t3_downtime_seconds;
}

mig::LiveMigrationParams live_migration_params(const wl::Deployment& deployment,
                                               const mig::MigrationCostModel& cost_model,
                                               wl::VmId vm, topo::NodeId dest) {
  mig::LiveMigrationParams timing;
  const auto& machine = deployment.vm(vm);
  timing.memory_gb = 0.25 * static_cast<double>(machine.capacity);
  timing.dirty_rate_gbps = 0.1 + 0.4 * machine.profile[wl::Feature::kCpu];
  timing.bandwidth_gbps = std::max(0.05, cost_model.path_bottleneck_bandwidth(vm, dest));
  return timing;
}

VmMigrationScheduler::VmMigrationScheduler(wl::Deployment& deployment,
                                           mig::MigrationCostModel& cost_model,
                                           mig::AdmissionBroker& broker, std::size_t max_rounds)
    : deployment_(&deployment), cost_model_(&cost_model), broker_(&broker),
      max_rounds_(max_rounds) {
  SHERIFF_REQUIRE(max_rounds >= 1, "need at least one matching round");
}

MigrationPlan VmMigrationScheduler::migrate(std::vector<wl::VmId> candidates,
                                            const std::vector<topo::NodeId>& target_hosts) {
  MigrationPlan plan;
  // Dedup while preserving order.
  {
    std::vector<wl::VmId> unique;
    for (wl::VmId id : candidates) {
      if (std::find(unique.begin(), unique.end(), id) == unique.end()) unique.push_back(id);
    }
    candidates = std::move(unique);
  }
  if (candidates.empty() || target_hosts.empty()) {
    plan.unplaced = std::move(candidates);
    return plan;
  }

  std::vector<wl::VmId> remaining = std::move(candidates);
  for (std::size_t round = 0; round < max_rounds_ && !remaining.empty(); ++round) {
    const auto proposals =
        propose_matching(*deployment_, *cost_model_, remaining, target_hosts,
                         &plan.search_space);
    if (proposals.empty()) break;

    bool progress = false;
    std::vector<wl::VmId> matched;
    for (const auto& proposal : proposals) {
      matched.push_back(proposal.vm);
      const topo::NodeId from = deployment_->vm(proposal.vm).host;
      // Sized before the ACK relocates the VM.
      const mig::LiveMigrationParams timing =
          live_migration_params(*deployment_, *cost_model_, proposal.vm, proposal.dest);
      ++plan.requests;
      const auto outcome = broker_->request(
          proposal.vm, proposal.dest, deployment_->topology().node(proposal.dest).rack);
      if (outcome == mig::RequestOutcome::kAck) {
        plan.add_move(proposal.vm, from, proposal.dest, proposal.cost, timing);
        progress = true;
        // Remove from remaining.
        remaining.erase(std::find(remaining.begin(), remaining.end(), proposal.vm));
      } else {
        ++plan.rejects;
      }
    }
    if (!progress) break;
  }

  plan.unplaced = std::move(remaining);
  return plan;
}

std::vector<ProposedMove> propose_matching(const wl::Deployment& deployment,
                                           const mig::MigrationCostModel& cost_model,
                                           const std::vector<wl::VmId>& candidates,
                                           const std::vector<topo::NodeId>& targets,
                                           std::size_t* search_space) {
  std::vector<ProposedMove> out;
  if (candidates.empty()) return out;
  // Only targets with any room participate.
  std::vector<topo::NodeId> open;
  for (topo::NodeId h : targets) {
    if (deployment.host_free_capacity(h) > 0) open.push_back(h);
  }
  if (open.empty()) return out;

  // Matching handles at most |open| VMs per pass (rows <= cols); the rest
  // waits for the next pass, like the paper's while-loop.
  const std::size_t batch = std::min(candidates.size(), open.size());

  if (batch == 1) {
    // Bound-guarded argmin scan. A 1-row assignment reduces to a strict-<
    // first-index argmin over the columns (both the Hungarian and the
    // brute-force branch of solve_assignment scan ascending with strict <,
    // and finalize() strips any kForbidden-level winner to kUnassigned —
    // the kForbidden incumbent below reproduces that). A candidate whose
    // admissible lower bound already reaches the incumbent can therefore
    // be skipped without ever changing the selection: bound <= cost
    // implies cost >= best, which the strict-< scan rejects anyway.
    const wl::VmId vm = candidates[0];
    double best = graph::AssignmentProblem::kForbidden;
    std::size_t best_col = graph::AssignmentResult::kUnassigned;
    for (std::size_t c = 0; c < open.size(); ++c) {
      if (search_space != nullptr) ++*search_space;
      if (!deployment.can_place(vm, open[c])) continue;
      double base = 0.0;
      if (cost_model.provably_infeasible(vm, open[c]) ||
          cost_model.candidate_lower_bound(vm, open[c], &base) >= best) {
        cost_model.note_pruned();
        continue;
      }
      // The bound already paid the dependency walk; reusing its base makes
      // the survivor's evaluation transmission-only (bitwise total_cost).
      const double cost = cost_model.total_cost_with_base(vm, open[c], base);
      if (cost < best) {
        best = cost;
        best_col = c;
      }
    }
    if (best_col != graph::AssignmentResult::kUnassigned) out.push_back({vm, open[best_col], best});
    return out;
  }

  graph::AssignmentProblem problem(batch, open.size());
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t c = 0; c < open.size(); ++c) {
      if (search_space != nullptr) ++*search_space;
      if (!deployment.can_place(candidates[r], open[c])) continue;
      // Dominance pruning is only selection-safe on the 1-row scan above
      // (a multi-row Hungarian may pick any equal-cost optimum), but an
      // entry that is *provably infinite* would never be set either way —
      // skipping its evaluation leaves the matrix bit-identical.
      if (cost_model.provably_infeasible(candidates[r], open[c])) {
        cost_model.note_pruned();
        continue;
      }
      const double cost = cost_model.total_cost(candidates[r], open[c]);
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

}  // namespace sheriff::core

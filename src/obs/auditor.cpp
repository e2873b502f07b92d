#include "obs/auditor.hpp"

#include <cmath>
#include <string>

#include "common/require.hpp"
#include "migration/live_migration.hpp"
#include "snapshot/archive.hpp"

namespace sheriff::obs {

InvariantAuditor::InvariantAuditor(AuditOptions options) : options_(options) {}

void InvariantAuditor::attach(EventTrace* trace, MetricRegistry* registry) {
  trace_ = trace;
  registry_ = registry;
}

void InvariantAuditor::report(int check_id, double magnitude, const std::string& message) {
  ++violations_;
  if (registry_ != nullptr) registry_->counter("auditor.violations").add();
  if (trace_ != nullptr) {
    trace_->emit(EventTrace::kEngine, EventType::kInvariantViolation,
                 static_cast<std::uint32_t>(check_id), 0, magnitude);
  }
  if (messages_.size() < options_.max_messages) {
    messages_.push_back("[check " + std::to_string(check_id) + "] " + message);
  }
  SHERIFF_REQUIRE(!options_.fail_fast, "invariant violation: " + message);
}

void InvariantAuditor::audit_network(const RoundInputs& in) {
  SHERIFF_REQUIRE(in.deployment != nullptr && in.shares != nullptr,
                  "audit_network needs the deployment and the fair-share result");
  ++rounds_audited_;
  check_flow_rates(in);
  if (in.solver != nullptr) check_solver_bookkeeping(in);
  if (registry_ != nullptr) {
    registry_->gauge("auditor.rounds").set(static_cast<double>(rounds_audited_));
  }
}

void InvariantAuditor::audit_management(const RoundInputs& in) {
  SHERIFF_REQUIRE(in.deployment != nullptr, "audit_management needs the deployment");
  check_placement(in);
  check_moves(in);
  check_shard_commit(in);
  check_migration_model();
}

void InvariantAuditor::audit_round(const RoundInputs& in) {
  audit_network(in);
  audit_management(in);
}

// Checks 1 + 2: per-flow rate bounds and link ids, and per-link
// conservation. One pass resolves every routed flow's links from its node
// path, checks them against the flow's link ids, bounds its rate, and
// accumulates the per-link load, which is then compared against capacity
// and against the solver's reported link loads.
void InvariantAuditor::check_flow_rates(const RoundInputs& in) {
  const topo::Topology& topo = in.deployment->topology();
  const double eps = options_.rate_epsilon;
  link_load_scratch_.assign(topo.link_count(), 0.0);

  if (in.shares->flow_rate.size() != in.flows.size() ||
      in.shares->link_load_gbps.size() != topo.link_count()) {
    report(2, 0.0, "fair-share result vectors do not match the flow table / topology");
    return;
  }

  for (std::size_t f = 0; f < in.flows.size(); ++f) {
    const net::Flow& flow = in.flows[f];
    const double rate = in.shares->flow_rate[f];
    if (!(rate >= 0.0) || !std::isfinite(rate)) {
      report(1, rate, "flow " + std::to_string(f) + " has negative or non-finite rate");
      continue;
    }
    if (rate > flow.effective_demand() + eps) {
      report(1, rate - flow.effective_demand(),
             "flow " + std::to_string(f) + " rate exceeds its effective demand");
    }
    if (!flow.routed()) {
      if (rate > eps) {
        report(1, rate, "unrouted flow " + std::to_string(f) + " carries a nonzero rate");
      }
      if (!flow.links.empty()) {
        report(1, static_cast<double>(flow.links.size()),
               "unrouted flow " + std::to_string(f) + " keeps link ids");
      }
      continue;
    }
    // Links are derived from the node path here, independently of the
    // link ids the router, rerouter or checkpoint load wrote, and the two
    // must agree.
    bool links_match = flow.links.size() + 1 == flow.path.size();
    for (std::size_t i = 0; i + 1 < flow.path.size(); ++i) {
      const topo::LinkId l = topo.link_between(flow.path[i], flow.path[i + 1]);
      links_match = links_match && flow.links[i] == l;
      const double cap = topo.link(l).capacity_gbps;
      if (rate > cap * (1.0 + 1e-9) + eps) {
        report(1, rate - cap, "flow " + std::to_string(f) + " rate exceeds capacity of link " +
                                  std::to_string(l));
      }
      link_load_scratch_[l] += rate;
    }
    if (!links_match) {
      report(1, static_cast<double>(flow.links.size()),
             "flow " + std::to_string(f) + " link ids differ from its node path");
    }
  }

  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    const double cap = topo.link(l).capacity_gbps;
    const double sum = link_load_scratch_[l];
    if (sum > cap * (1.0 + 1e-9) + eps) {
      report(2, sum - cap,
             "link " + std::to_string(l) + " fair-share load " + std::to_string(sum) +
                 " exceeds capacity " + std::to_string(cap));
    }
    const double reported = in.shares->link_load_gbps[l];
    if (std::abs(sum - reported) > eps + 1e-9 * cap) {
      report(2, std::abs(sum - reported),
             "link " + std::to_string(l) + " reported load " + std::to_string(reported) +
                 " disagrees with the sum of its flows' rates " + std::to_string(sum));
    }
  }
}

// Check 3: every VM sits on exactly one host, the host's VM list agrees,
// and the used-capacity bookkeeping is exact and within host capacity.
void InvariantAuditor::check_placement(const RoundInputs& in) {
  const wl::Deployment& d = *in.deployment;
  const topo::Topology& topo = d.topology();
  std::vector<std::uint8_t> seen(d.vm_count(), 0);
  std::size_t listed = 0;
  for (topo::NodeId host : topo.nodes_of_kind(topo::NodeKind::kHost)) {
    int used = 0;
    for (wl::VmId id : d.vms_on_host(host)) {
      if (id >= d.vm_count()) {
        report(3, static_cast<double>(id), "host list names an out-of-range VM");
        continue;
      }
      ++listed;
      if (++seen[id] > 1) {
        report(3, static_cast<double>(id),
               "VM " + std::to_string(id) + " appears on more than one host");
      }
      if (d.vm(id).host != host) {
        report(3, static_cast<double>(id),
               "VM " + std::to_string(id) + " host field disagrees with the host's VM list");
      }
      used += d.vm(id).capacity;
    }
    if (used != d.host_used_capacity(host)) {
      report(3, static_cast<double>(used),
             "host " + std::to_string(host) + " used-capacity bookkeeping is off");
    }
    if (used > d.host_capacity()) {
      report(3, static_cast<double>(used),
             "host " + std::to_string(host) + " is over its capacity");
    }
  }
  if (listed != d.vm_count()) {
    report(3, static_cast<double>(listed),
           "host lists cover " + std::to_string(listed) + " VM slots, expected " +
               std::to_string(d.vm_count()));
  }
}

// Check 4: applied migration moves are sane.
void InvariantAuditor::check_moves(const RoundInputs& in) {
  const topo::Topology& topo = in.deployment->topology();
  for (const AuditedMove& move : in.moves) {
    if (!(move.cost >= 0.0) || !std::isfinite(move.cost)) {
      report(4, move.cost, "migration of VM " + std::to_string(move.vm) +
                               " has a negative or non-finite cost");
    }
    if (!(move.downtime_seconds >= 0.0) ||
        move.duration_seconds < move.downtime_seconds - 1e-9) {
      report(4, move.duration_seconds,
             "migration of VM " + std::to_string(move.vm) +
                 " has an inconsistent six-stage timeline");
    }
    if (move.from == move.to) {
      report(4, static_cast<double>(move.vm),
             "migration of VM " + std::to_string(move.vm) + " is a self-move");
    }
    if (move.to >= topo.node_count() || topo.node(move.to).kind != topo::NodeKind::kHost) {
      report(4, static_cast<double>(move.to),
             "migration of VM " + std::to_string(move.vm) + " targets a non-host node");
    }
  }
}

// Check 8: the round's committed moves form a valid ordered commit of the
// propose/commit manage sweep. The commit must have (a) kept VM claims
// exclusive — a VM moved twice in one round means two shims' claims were
// both applied, (b) left each moved VM on its move's destination, and
// (c) respected destination headroom — the incoming capacity of a host
// cannot exceed what the host can hold even if it started the round
// empty. (c) is deliberately independent of the deployment's own
// used-capacity bookkeeping (check 3), so a broker that over-admits while
// keeping its books "consistent" still trips it.
void InvariantAuditor::check_shard_commit(const RoundInputs& in) {
  if (in.moves.empty()) return;
  const wl::Deployment& d = *in.deployment;
  const topo::Topology& topo = d.topology();
  std::vector<std::uint8_t> moved(d.vm_count(), 0);
  std::vector<int> incoming(topo.node_count(), 0);
  for (const AuditedMove& move : in.moves) {
    if (move.vm >= d.vm_count()) {
      report(8, static_cast<double>(move.vm), "committed move names an out-of-range VM");
      continue;
    }
    if (++moved[move.vm] > 1) {
      report(8, static_cast<double>(move.vm),
             "VM " + std::to_string(move.vm) +
                 " was committed by more than one shim in the same round");
      continue;
    }
    if (d.vm(move.vm).host != move.to) {
      report(8, static_cast<double>(move.vm),
             "VM " + std::to_string(move.vm) + " was committed to host " +
                 std::to_string(move.to) + " but ended the round on host " +
                 std::to_string(d.vm(move.vm).host));
    }
    if (move.to < topo.node_count()) {
      incoming[move.to] += d.vm(move.vm).capacity;
      if (incoming[move.to] > d.host_capacity()) {
        report(8, static_cast<double>(incoming[move.to]),
               "host " + std::to_string(move.to) + " received " +
                   std::to_string(incoming[move.to]) +
                   " capacity units of migrations in one round, more than it can hold");
      }
    }
  }
}

// Check 5 (one-time): the six-stage live-migration model yields
// non-negative stage times and a total that is monotone non-decreasing in
// the dirty-page rate — more re-dirtied pages can never make the move
// finish sooner.
void InvariantAuditor::check_migration_model() {
  if (model_probed_) return;
  model_probed_ = true;
  mig::LiveMigrationParams params;
  params.memory_gb = 4.0;
  params.bandwidth_gbps = 1.0;
  double previous_total = -1.0;
  for (double dirty = 0.0; dirty <= 1.25; dirty += 0.125) {
    params.dirty_rate_gbps = dirty;
    const auto timeline = mig::simulate_live_migration(params);
    const double total = timeline.total_seconds();
    if (!(total >= 0.0) || !(timeline.t3_downtime_seconds >= 0.0) ||
        !(timeline.t2_precopy_seconds >= 0.0) || !std::isfinite(total)) {
      report(5, total, "live-migration timeline has a negative or non-finite stage");
    }
    if (total < previous_total - 1e-9) {
      report(5, previous_total - total,
             "live-migration total time decreased as the dirty-page rate rose (dirty=" +
                 std::to_string(dirty) + ")");
    }
    previous_total = total;
  }
}

// Check 6: the solver's cumulative accounting closes over the audited
// interval: every solve partitions the flow table into affected (refilled)
// + reused flows, dirties are a subset of the affected flows, and full
// rebuilds are a subset of solves.
void InvariantAuditor::check_solver_bookkeeping(const RoundInputs& in) {
  const net::FairShareSolver::Stats& stats = in.solver->stats();
  if (have_solver_stats_) {
    const auto delta = [](std::size_t now, std::size_t then) { return now - then; };
    const std::size_t solves = delta(stats.solves, last_solver_stats_.solves);
    const std::size_t dirty = delta(stats.dirty_flows, last_solver_stats_.dirty_flows);
    const std::size_t affected = delta(stats.affected_flows, last_solver_stats_.affected_flows);
    const std::size_t reused = delta(stats.reused_flows, last_solver_stats_.reused_flows);
    const std::size_t rebuilds = delta(stats.full_rebuilds, last_solver_stats_.full_rebuilds);
    if (solves == 0) {
      report(6, 0.0, "fair-share solver was not invoked between audited rounds");
    }
    if (dirty > affected) {
      report(6, static_cast<double>(dirty - affected),
             "solver dirty-flow count exceeds the affected closure");
    }
    if (affected + reused != in.flows.size() * solves) {
      report(6, static_cast<double>(affected + reused),
             "solver affected+reused accounting does not cover the flow table");
    }
    if (rebuilds > solves) {
      report(6, static_cast<double>(rebuilds), "solver rebuilds exceed solves");
    }
  }
  if (in.solver->result().flow_rate.size() != in.flows.size()) {
    report(6, static_cast<double>(in.solver->result().flow_rate.size()),
           "solver result does not match the flow table size");
  }
  last_solver_stats_ = stats;
  have_solver_stats_ = true;
}

void InvariantAuditor::checkpoint(snapshot::Archive& ar) {
  ar.u64(violations_);
  ar.u64(rounds_audited_);
  std::uint64_t message_count = messages_.size();
  ar.count(message_count, 8);
  messages_.resize(message_count);
  for (std::string& m : messages_) ar.str(m);
  ar.boolean(model_probed_);
  ar.boolean(have_solver_stats_);
  last_solver_stats_.checkpoint(ar);
}

}  // namespace sheriff::obs

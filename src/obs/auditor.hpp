#pragma once
// Invariant auditor: validates the engine's conservation laws at round
// boundaries. When enabled, the engine hands it the round's full state
// (flows + fair-share result, deployment, solver bookkeeping, applied
// migration moves) and it checks the catalogue below; every violation is
// reported as a kInvariantViolation trace event, counted in the registry
// ("auditor.violations"), and retained as a human-readable message. With
// `fail_fast` (the CI-forced mode) the first violation throws
// common::RequirementError so any test running above it fails loudly.
//
// Invariant catalogue (check ids; see the matching check_* function in
// auditor.cpp):
//   1 flow-rate bounds      — 0 <= rate <= effective demand, and <= the
//                             capacity of every traversed link; a flow's
//                             link ids are the links of its node path
//   2 link conservation     — per link: sum of crossing flows' rates <=
//                             capacity, and == the reported link load
//   3 placement consistency — every VM on exactly one live host slot,
//                             host used-capacity bookkeeping exact and
//                             within host capacity
//   4 migration costs       — every applied move has non-negative finite
//                             cost, duration >= downtime >= 0, from != to
//   5 live-migration model  — six-stage total time is non-negative and
//                             monotone in the dirty-page rate (one-time
//                             property probe of simulate_live_migration)
//   6 solver bookkeeping    — the FairShareSolver's cumulative accounting
//                             closes: one solve per round, dirty <=
//                             affected, affected + reused == flow count,
//                             rebuilds <= solves, and the result covers
//                             the flow table
//   8 shard-commit exclusivity/headroom — the round's committed moves are
//                             a valid serial commit: no VM moves twice in
//                             one round (claims of different shims must
//                             have been resolved), each moved VM ends up
//                             on its move's destination, and no
//                             destination host receives more incoming
//                             capacity than it can hold outright
//
// Id 7, a from-scratch fair-share re-solve, is retired: the test
// FairShareDifferential.EngineFlowTablesMatchReference makes that
// comparison. The other ids keep their numbers, because trace events
// carry them.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/fair_share.hpp"
#include "net/flow.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "topology/liveness.hpp"
#include "topology/topology.hpp"
#include "workload/deployment.hpp"

namespace sheriff::obs {

struct AuditOptions {
  /// Absolute slack on rate/capacity comparisons (on top of a 1e-9
  /// relative term) — progressive filling accumulates ~1e-12 noise.
  double rate_epsilon = 1e-6;
  /// Throw common::RequirementError on the first violation instead of
  /// just recording it (used when SHERIFF_FORCE_AUDIT=1 drives CI).
  bool fail_fast = false;
  /// Violation messages retained for inspection (the count is unbounded).
  std::size_t max_messages = 64;
};

/// A migration move in auditor terms (mirrors core::MigrationMove without
/// depending on sheriff_core, which sits above this library).
struct AuditedMove {
  std::uint32_t vm = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  double cost = 0.0;
  double duration_seconds = 0.0;
  double downtime_seconds = 0.0;
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(AuditOptions options = {});

  /// Reporting sinks (both optional; must outlive the auditor).
  void attach(EventTrace* trace, MetricRegistry* registry);

  /// Everything the engine exposes at a round boundary.
  struct RoundInputs {
    std::uint32_t round = 0;
    const wl::Deployment* deployment = nullptr;      ///< required
    std::span<const net::Flow> flows;
    const net::FairShareResult* shares = nullptr;    ///< required
    const net::FairShareSolver* solver = nullptr;    ///< null = skip check 6
    const topo::LivenessMask* liveness = nullptr;    ///< null = pristine
    std::span<const AuditedMove> moves;              ///< this round's migrations
  };

  /// Network-state checks (1, 2, 6). The engine calls this right after
  /// the fair-share solve, while flows' paths and rate limits are exactly
  /// the ones the allocation saw — reroutes and QCN updates later in the
  /// round legitimately de-synchronize them. Counts the round as audited.
  void audit_network(const RoundInputs& in);

  /// Placement/migration checks (3, 4, 5), run at the round boundary after
  /// management actions committed. `in.moves` carries the round's moves.
  void audit_management(const RoundInputs& in);

  /// Both halves back to back (for tests auditing a consistent snapshot).
  void audit_round(const RoundInputs& in);

  [[nodiscard]] std::size_t violation_count() const noexcept { return violations_; }
  [[nodiscard]] std::size_t rounds_audited() const noexcept { return rounds_audited_; }
  [[nodiscard]] const std::vector<std::string>& messages() const noexcept { return messages_; }

  /// Checkpoint hook: tallies, retained messages, the one-time model
  /// probe flag, and the previous round's solver-stats snapshot (check 6
  /// audits per-round *deltas*, so the baseline must survive a resume).
  void checkpoint(snapshot::Archive& ar);

 private:
  void report(int check_id, double magnitude, const std::string& message);

  void check_flow_rates(const RoundInputs& in);        // 1 + 2
  void check_placement(const RoundInputs& in);         // 3
  void check_moves(const RoundInputs& in);             // 4
  void check_shard_commit(const RoundInputs& in);      // 8
  void check_migration_model();                        // 5 (one-time)
  void check_solver_bookkeeping(const RoundInputs& in);  // 6

  AuditOptions options_;
  EventTrace* trace_ = nullptr;
  MetricRegistry* registry_ = nullptr;
  std::size_t violations_ = 0;
  std::size_t rounds_audited_ = 0;
  std::vector<std::string> messages_;
  bool model_probed_ = false;
  net::FairShareSolver::Stats last_solver_stats_;
  bool have_solver_stats_ = false;
  std::vector<double> link_load_scratch_;  ///< per-link recomputed load
};

}  // namespace sheriff::obs

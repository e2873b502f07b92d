#pragma once
// The distributed REQUEST/ACK migration protocol (Alg. 3 + Alg. 4 as a
// *message-passing* round, the way the paper's shims actually interact):
//
//   1. PROPOSE — every shim with a migration set matches its VMs against
//      its own region (Hungarian on the Eq. (1) costs). This phase only
//      reads shared state.
//   2. DECIDE — proposals are delivered to the destination racks'
//      delegates; each delegate serves its mailbox FCFS against its local
//      reservation ledger (capacity + dependency conflicts) and answers
//      ACK or REJECT. Delegates are independent of each other.
//   3. APPLY — ACKed moves are committed. Two shims can win reservations
//      that turn out incompatible (a dependency partner ACKed onto the
//      same host in the same round); the commit re-checks and the loser
//      counts as a conflict and retries next iteration — exactly the
//      confliction handling Sec. V-B calls for.
//
// Iterates until every demand is placed or no progress is possible.
//
// Messaging may be unreliable: with a fault::LossyChannel attached, each
// REQUEST (propose→delegate) and ACK (delegate→proposer) is a Bernoulli
// delivery. A lost REQUEST never reaches the mailbox; a lost ACK leaves
// the proposer timing out, so the move is NOT committed (the delegate's
// reservation only lived in that iteration's ledger — no reservation can
// leak). Either loss puts the VM on a bounded backoff (1, 2, then capped
// at 3 iterations of silence) before it is re-proposed; re-proposals after
// a loss are counted as retries, and the iteration budget is extended by
// FaultOptions::max_protocol_retries so loss cannot starve convergence.
//
// Every phase runs on the calling thread, demands in shim-id order and
// delegates in rack order.

#include <vector>

#include "core/config.hpp"
#include "core/vm_migration.hpp"
#include "fault/lossy_channel.hpp"
#include "migration/cost_model.hpp"
#include "obs/trace.hpp"
#include "workload/deployment.hpp"

namespace sheriff::core {

/// One shim's migration demand for the round.
struct MigrationDemand {
  topo::RackId shim = topo::kInvalidRack;
  std::vector<wl::VmId> vms;                ///< PRIORITY-selected candidates
  std::vector<topo::NodeId> region_targets; ///< the shim's dominating region
};

struct ProtocolResult {
  MigrationPlan plan;
  std::size_t conflicts = 0;   ///< apply-time losses (re-queued)
  std::size_t iterations = 0;  ///< propose/decide/apply rounds executed
  std::size_t drops = 0;       ///< REQUEST/ACK messages lost in transit
  std::size_t retries = 0;     ///< re-proposals after a lost message
};

class DistributedMigrationProtocol {
 public:
  /// `channel` may be null (reliable messaging); when set it must outlive
  /// the protocol, and `loss_retry_budget` extra iterations are granted to
  /// wait out losses.
  /// `trace` may be null; when set, every REQUEST/ACK delivery, loss, and
  /// re-proposal becomes a trace event, emitted in the DELIVER/APPLY
  /// phases.
  DistributedMigrationProtocol(wl::Deployment& deployment,
                               mig::MigrationCostModel& cost_model, SheriffConfig config,
                               fault::LossyChannel* channel = nullptr,
                               std::size_t loss_retry_budget = 0,
                               obs::EventTrace* trace = nullptr);

  ProtocolResult run(std::vector<MigrationDemand> demands);

 private:
  wl::Deployment* deployment_;
  mig::MigrationCostModel* cost_model_;
  SheriffConfig config_;
  fault::LossyChannel* channel_;
  std::size_t loss_retry_budget_;
  obs::EventTrace* trace_;
};

}  // namespace sheriff::core

#include "core/protocol.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace sheriff::core {

namespace {

struct Request {
  topo::RackId proposer = topo::kInvalidRack;
  wl::VmId vm = wl::kInvalidVm;
  topo::NodeId dest = topo::kInvalidNode;
  double cost = 0.0;
};

struct Decision {
  Request request;
  bool ack = false;
};

}  // namespace

namespace {

/// Bounded backoff after a lost message: 1, 2, then 3 iterations of
/// silence, however many consecutive losses a VM suffers.
constexpr std::size_t kBackoffCap = 3;

}  // namespace

DistributedMigrationProtocol::DistributedMigrationProtocol(
    wl::Deployment& deployment, mig::MigrationCostModel& cost_model, SheriffConfig config,
    fault::LossyChannel* channel, std::size_t loss_retry_budget, obs::EventTrace* trace)
    : deployment_(&deployment),
      cost_model_(&cost_model),
      config_(config),
      channel_(channel != nullptr && !channel->lossless() ? channel : nullptr),
      loss_retry_budget_(loss_retry_budget),
      trace_(trace) {}

ProtocolResult DistributedMigrationProtocol::run(std::vector<MigrationDemand> demands) {
  ProtocolResult result;
  const topo::Topology& topo = deployment_->topology();

  // Drop empty demands and dedup VMs across all of them (first demand in
  // shim-id order wins): a VM can be selected twice by one shim — the
  // host-alert single-VM rule and the ToR budget pass may pick the same
  // tenant — and a duplicate would otherwise be proposed, ACKed, and moved
  // twice in one round (auditor check 8 exclusivity).
  {
    std::vector<bool> seen(deployment_->vm_count(), false);
    for (auto& d : demands) {
      std::erase_if(d.vms, [&](wl::VmId id) {
        const bool dup = seen[id];
        seen[id] = true;
        return dup;
      });
    }
  }
  std::erase_if(demands, [](const MigrationDemand& d) { return d.vms.empty(); });

  std::vector<std::size_t> search_space_by_demand(demands.size(), 0);

  // Per-VM loss state.
  std::vector<std::uint8_t> backoff(deployment_->vm_count(), 0);
  std::vector<std::uint8_t> loss_streak(deployment_->vm_count(), 0);
  std::vector<bool> retry_pending(deployment_->vm_count(), false);
  const auto register_loss = [&](wl::VmId vm) {
    ++result.drops;
    loss_streak[vm] = static_cast<std::uint8_t>(
        std::min<std::size_t>(loss_streak[vm] + 1, kBackoffCap));
    backoff[vm] = loss_streak[vm];
    retry_pending[vm] = true;
  };

  const std::size_t iteration_cap =
      config_.max_matching_rounds + (channel_ != nullptr ? loss_retry_budget_ : 0);

  for (std::size_t iteration = 0; iteration < iteration_cap; ++iteration) {
    bool any_pending = false;
    for (const auto& d : demands) any_pending |= !d.vms.empty();
    if (!any_pending) break;
    ++result.iterations;

    // VMs backing off after a lost message sit this iteration out.
    bool any_withheld = false;
    std::vector<std::vector<wl::VmId>> active(demands.size());
    for (std::size_t i = 0; i < demands.size(); ++i) {
      active[i].reserve(demands[i].vms.size());
      for (wl::VmId vm : demands[i].vms) {
        if (backoff[vm] > 0) {
          --backoff[vm];
          any_withheld = true;
        } else {
          active[i].push_back(vm);
        }
      }
    }

    // --- PROPOSE (read-only against shared state) ------------------------
    std::vector<std::vector<ProposedMove>> proposals(demands.size());
    for (std::size_t i = 0; i < demands.size(); ++i) {
      if (active[i].empty()) continue;
      proposals[i] = propose_matching(*deployment_, *cost_model_, active[i],
                                      demands[i].region_targets, &search_space_by_demand[i]);
    }

    // --- DELIVER: group requests by destination rack, drawing the lossy
    // channel in demand order ---------------------------------------------
    std::size_t losses_this_iteration = 0;
    std::vector<std::vector<Request>> mailbox(topo.rack_count());
    for (std::size_t i = 0; i < demands.size(); ++i) {
      for (const auto& p : proposals[i]) {
        if (channel_ != nullptr && !channel_->deliver()) {
          register_loss(p.vm);  // REQUEST lost: never reaches the delegate
          ++losses_this_iteration;
          if (trace_ != nullptr) {
            trace_->emit(demands[i].shim, obs::EventType::kProtocolMsgDropped, p.vm);
          }
          continue;
        }
        if (retry_pending[p.vm]) {
          ++result.retries;
          retry_pending[p.vm] = false;
          if (trace_ != nullptr) {
            trace_->emit(demands[i].shim, obs::EventType::kProtocolMsgRetried, p.vm);
          }
        }
        if (trace_ != nullptr) {
          trace_->emit(demands[i].shim, obs::EventType::kProtocolMsgSent, p.vm, p.dest);
          trace_->emit(demands[i].shim, obs::EventType::kMigrationPlanned, p.vm, p.dest,
                       p.cost);
        }
        mailbox[topo.node(p.dest).rack].push_back(
            {demands[i].shim, p.vm, p.dest, p.cost});
      }
    }

    // --- DECIDE (per destination delegate, FCFS) -------------------------
    std::vector<std::vector<Decision>> decisions(topo.rack_count());
    for (std::size_t rack = 0; rack < topo.rack_count(); ++rack) {
      auto& inbox = mailbox[rack];
      if (inbox.empty()) continue;
      // FCFS: deterministic arrival order (by proposer shim, then VM).
      std::sort(inbox.begin(), inbox.end(), [](const Request& a, const Request& b) {
        if (a.proposer != b.proposer) return a.proposer < b.proposer;
        return a.vm < b.vm;
      });
      // Local reservation ledger against the rack's current free capacity.
      std::vector<std::pair<topo::NodeId, int>> reserved_free;
      for (topo::NodeId h : topo.rack(static_cast<topo::RackId>(rack)).hosts) {
        reserved_free.emplace_back(h, deployment_->host_free_capacity(h));
      }
      const auto free_of = [&](topo::NodeId h) -> int& {
        for (auto& [host, free] : reserved_free) {
          if (host == h) return free;
        }
        SHERIFF_REQUIRE(false, "request addressed to a host outside the rack");
        return reserved_free.front().second;  // unreachable
      };
      for (const Request& request : inbox) {
        Decision decision{request, false};
        int& free = free_of(request.dest);
        const auto& vm = deployment_->vm(request.vm);
        if (free >= vm.capacity && deployment_->can_place(request.vm, request.dest)) {
          free -= vm.capacity;
          decision.ack = true;
        }
        decisions[rack].push_back(decision);
      }
    }

    // --- APPLY (deterministic order) -------------------------------------
    bool progress = false;
    std::vector<bool> placed(deployment_->vm_count(), false);
    for (std::size_t rack = 0; rack < topo.rack_count(); ++rack) {
      for (const Decision& decision : decisions[rack]) {
        ++result.plan.requests;
        if (!decision.ack) {
          ++result.plan.rejects;
          continue;
        }
        const Request& rq = decision.request;
        // The ACK itself can be lost: the proposer times out and the move
        // is not committed. The delegate's reservation only existed in
        // this iteration's ledger, so nothing leaks — the VM retries.
        if (channel_ != nullptr && !channel_->deliver()) {
          register_loss(rq.vm);
          ++losses_this_iteration;
          if (trace_ != nullptr) {
            trace_->emit(static_cast<std::uint32_t>(rack),
                         obs::EventType::kProtocolMsgDropped, rq.vm);
          }
          continue;
        }
        if (trace_ != nullptr) {
          // The ACK that reached the proposer (delegate rack -> proposer).
          trace_->emit(static_cast<std::uint32_t>(rack), obs::EventType::kProtocolMsgSent,
                       rq.vm, rq.dest);
        }
        // A same-round race (e.g. a dependency partner ACKed onto the same
        // host by another delegate) can invalidate the reservation: the
        // loser is a conflict and retries next iteration.
        if (!deployment_->can_place(rq.vm, rq.dest)) {
          ++result.conflicts;
          continue;
        }
        const mig::LiveMigrationParams timing =
            live_migration_params(*deployment_, *cost_model_, rq.vm, rq.dest);
        const topo::NodeId from = deployment_->vm(rq.vm).host;
        deployment_->move_vm(rq.vm, rq.dest);
        result.plan.add_move(rq.vm, from, rq.dest, rq.cost, timing);
        placed[rq.vm] = true;
        progress = true;
      }
    }

    // Remove placed VMs from their demands.
    for (auto& d : demands) {
      std::erase_if(d.vms, [&](wl::VmId id) { return placed[id]; });
    }
    // A lossy or backing-off iteration is a stall, not a dead end: keep
    // going while the retry budget lasts.
    if (!progress && losses_this_iteration == 0 && !any_withheld) break;
  }

  for (std::size_t i = 0; i < demands.size(); ++i) {
    result.plan.search_space += search_space_by_demand[i];
    result.plan.unplaced.insert(result.plan.unplaced.end(), demands[i].vms.begin(),
                                demands[i].vms.end());
  }
  return result;
}

}  // namespace sheriff::core

#pragma once
// VMMIGRATION (Alg. 3): pair the selected VMs with candidate destination
// hosts by minimal weighted matching on the Eq. (1) costs, then run the
// REQUEST/ACK handshake with each destination's delegate; rejected VMs are
// re-matched in the next round against the updated capacities.

#include <cstddef>
#include <vector>

#include "migration/cost_model.hpp"
#include "migration/live_migration.hpp"
#include "migration/request.hpp"
#include "topology/entities.hpp"
#include "workload/deployment.hpp"

namespace sheriff::core {

struct MigrationMove {
  wl::VmId vm = wl::kInvalidVm;
  topo::NodeId from = topo::kInvalidNode;
  topo::NodeId to = topo::kInvalidNode;
  double cost = 0.0;
  double duration_seconds = 0.0;  ///< six-stage live-migration wall time
  double downtime_seconds = 0.0;  ///< stop&copy suspension
};

struct MigrationPlan {
  std::vector<MigrationMove> moves;
  double total_cost = 0.0;
  std::size_t search_space = 0;  ///< candidate (VM, host) pairs whose cost was evaluated
  std::size_t requests = 0;
  std::size_t rejects = 0;
  double total_duration_seconds = 0.0;  ///< sum of per-move live-migration times
  double total_downtime_seconds = 0.0;
  std::vector<wl::VmId> unplaced;  ///< VMs that found no feasible destination

  void merge(const MigrationPlan& other);
  /// Appends an applied move whose live migration runs with `timing`, and
  /// adds its cost, duration and downtime to the totals.
  void add_move(wl::VmId vm, topo::NodeId from, topo::NodeId to, double cost,
                const mig::LiveMigrationParams& timing);
};

/// The six-stage live-migration inputs for moving `vm` to `dest`, sized
/// from the VM and the bandwidth its transfer path can actually get. The
/// path starts at the VM's host, so call this before the VM moves.
mig::LiveMigrationParams live_migration_params(const wl::Deployment& deployment,
                                               const mig::MigrationCostModel& cost_model,
                                               wl::VmId vm, topo::NodeId dest);

/// One (vm → destination) pairing produced by a matching pass.
struct ProposedMove {
  wl::VmId vm = wl::kInvalidVm;
  topo::NodeId dest = topo::kInvalidNode;
  double cost = 0.0;
};

/// One matching iteration of Alg. 3 *without* applying anything: pairs up
/// to |targets| candidates with feasible min-cost destinations via the
/// Hungarian algorithm. Examined pairs are added to *search_space. The
/// deployment is only read.
std::vector<ProposedMove> propose_matching(const wl::Deployment& deployment,
                                           const mig::MigrationCostModel& cost_model,
                                           const std::vector<wl::VmId>& candidates,
                                           const std::vector<topo::NodeId>& targets,
                                           std::size_t* search_space);

class VmMigrationScheduler {
 public:
  /// All references must outlive the scheduler. `max_rounds` bounds the
  /// match-request-retry loop.
  VmMigrationScheduler(wl::Deployment& deployment, mig::MigrationCostModel& cost_model,
                       mig::AdmissionBroker& broker, std::size_t max_rounds = 8);

  /// Migrates as many of `candidates` as possible into `target_hosts`.
  /// Moves are applied to the deployment through the broker as they ACK.
  MigrationPlan migrate(std::vector<wl::VmId> candidates,
                        const std::vector<topo::NodeId>& target_hosts);

 private:
  wl::Deployment* deployment_;
  mig::MigrationCostModel* cost_model_;
  mig::AdmissionBroker* broker_;
  std::size_t max_rounds_;
};

}  // namespace sheriff::core

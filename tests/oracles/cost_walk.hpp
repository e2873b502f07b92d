#pragma once
// Eq. (1) and the Alg. 3 matching the slow way, the yardsticks of the
// migration decision kernel (DESIGN.md §14): the per-link cost walk the
// cost model ran before its per-round CostSurface, and the exhaustive
// matching that bound-pruned core::propose_matching must reproduce.

#include <cstddef>
#include <vector>

#include "core/vm_migration.hpp"
#include "migration/cost_model.hpp"
#include "net/fair_share.hpp"
#include "topology/topology.hpp"
#include "workload/deployment.hpp"

namespace sheriff::oracle {

/// Eq. (1) by walking the priced path link by link. Distances and the
/// priced path come from the topology's rows, with a single-homed node's
/// queries answered by its peer's row plus the leaf link, and the
/// dependency span read from each partner's side; B(e) is recomputed from
/// the fair-share result link by link (`shares == nullptr`: idle links).
mig::CostBreakdown reference_cost(const topo::Topology& t, const wl::Deployment& d,
                                  const mig::CostParams& params,
                                  const net::FairShareResult* shares, wl::VmId vm_id,
                                  topo::NodeId dest);

/// Every placeable (candidate, open target) pair of the first
/// min(|candidates|, |open|) candidates priced by total_cost, then one
/// assignment solve. `evaluations` grows by the pairs it priced.
std::vector<core::ProposedMove> exhaustive_matching(const wl::Deployment& deployment,
                                                    mig::MigrationCostModel& model,
                                                    const std::vector<wl::VmId>& candidates,
                                                    const std::vector<topo::NodeId>& targets,
                                                    std::size_t& evaluations);

}  // namespace sheriff::oracle

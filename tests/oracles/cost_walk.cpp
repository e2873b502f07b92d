#include "oracles/cost_walk.hpp"

#include <algorithm>
#include <cmath>

#include "graph/matching.hpp"
#include "topology/distance_rows.hpp"

namespace sheriff::oracle {

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

std::vector<core::ProposedMove> exhaustive_matching(const wl::Deployment& deployment,
                                                    mig::MigrationCostModel& model,
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

}  // namespace sheriff::oracle

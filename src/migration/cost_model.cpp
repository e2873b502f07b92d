#include "migration/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/require.hpp"

namespace sheriff::mig {

namespace {

bool finite_non_negative(double v) { return std::isfinite(v) && v >= 0.0; }

}  // namespace

MigrationCostModel::MigrationCostModel(const topo::Topology& topo,
                                       const wl::Deployment& deployment, CostParams params)
    : topo_(&topo),
      deployment_(&deployment),
      params_(params),
      rows_(&topo.distance_rows()),
      surface_(topo) {
  SHERIFF_REQUIRE(finite_non_negative(params.computing_cost),
                  "C_r must be finite and non-negative");
  SHERIFF_REQUIRE(finite_non_negative(params.unit_distance_cost),
                  "C_d must be finite and non-negative");
  SHERIFF_REQUIRE(finite_non_negative(params.delta) && finite_non_negative(params.eta),
                  "delta and eta must be finite and non-negative");
  SHERIFF_REQUIRE(finite_non_negative(params.bandwidth_threshold_gbps),
                  "B_t must be finite and non-negative");
  SHERIFF_REQUIRE(params.request_gbps > 0.0, "requested bandwidth must be positive");
  SHERIFF_REQUIRE(params.management_reserve_fraction >= 0.0 &&
                      params.management_reserve_fraction <= 1.0,
                  "management reserve must be in [0, 1]");
  // Static leaf tables: a single-homed node reaches the fabric only
  // through its one wired link, so its distances and paths are its peer's
  // row plus that leaf edge.
  const std::size_t n = topo.node_count();
  single_homed_.assign(n, 0);
  rack_leaf_.assign(n, 0);
  leaf_link_.assign(n, 0);
  leaf_tor_.assign(n, topo::kInvalidNode);
  leaf_distance_.assign(n, 0.0);
  for (topo::NodeId v = 0; v < n; ++v) {
    const auto links = topo.links_of(v);
    if (links.size() != 1) continue;
    const topo::NodeId peer = topo.peer(links[0], v);
    single_homed_[v] = 1;
    leaf_tor_[v] = peer;
    leaf_link_[v] = links[0];
    leaf_distance_[v] = topo.link(links[0]).distance_m;
    const auto& node = topo.node(v);
    rack_leaf_[v] = node.kind == topo::NodeKind::kHost && node.rack != topo::kInvalidRack &&
                            topo.rack(node.rack).tor == peer
                        ? 1
                        : 0;
  }
  for (const auto& link : topo.links()) {
    if (topo.node(link.a).kind == topo::NodeKind::kHost &&
        topo.node(link.b).kind == topo::NodeKind::kHost) {
      hosts_adjacent_ = true;
      break;
    }
  }
  surface_.build(nullptr, params_.management_reserve_fraction, params_.request_gbps,
                 params_.bandwidth_threshold_gbps);
}

void MigrationCostModel::set_bandwidth_state(const net::FairShareResult* shares) {
  surface_.build(shares, params_.management_reserve_fraction, params_.request_gbps,
                 params_.bandwidth_threshold_gbps);
  ++surface_builds_;
}

CostModelStats MigrationCostModel::stats() const noexcept {
  return {evaluated_, pruned_, surface_builds_};
}

double MigrationCostModel::host_distance(topo::NodeId from, topo::NodeId to) const {
  if (from == to) return 0.0;
  if (single_homed_[from] != 0) {
    // Every path out of `from` crosses its one leaf edge, so the peer's
    // (shared) row answers the query.
    const topo::NodeId via = leaf_tor_[from];
    if (to == via) return leaf_distance_[from];
    return leaf_distance_[from] + rows_->row(via).distance[to];
  }
  return rows_->row(from).distance[to];
}

std::vector<topo::NodeId> MigrationCostModel::shortest_path(topo::NodeId from,
                                                            topo::NodeId to) const {
  if (from != to && single_homed_[from] != 0) {
    const topo::NodeId via = leaf_tor_[from];
    if (to == via) return {from, to};
    auto path = rows_->row(via).path_to(to);
    if (path.empty()) return path;  // unreachable
    path.insert(path.begin(), from);
    return path;
  }
  return rows_->row(from).path_to(to);
}

double MigrationCostModel::dependency_cost(wl::VmId vm_id, topo::NodeId destination) const {
  // Eq. (1)'s C_d·D(e)·χ term as the post-move span, read from each
  // partner's row (d(a, b) = d(b, a) on the undirected wired graph): one
  // row per partner instead of one per candidate destination.
  double span = 0.0;
  for (wl::VmId other : deployment_->dependencies().neighbors(vm_id)) {
    span += host_distance(deployment_->vm(other).host, destination);
  }
  return params_.unit_distance_cost * span;
}

void MigrationCostModel::transmission_cost(const wl::VirtualMachine& vm,
                                           topo::NodeId destination,
                                           CostBreakdown& breakdown) const {
  // The links of shortest_path(src, destination), in path order, each
  // priced off the surface. An unusable link makes the move infeasible
  // and discards the partial sum.
  const topo::NodeId src = vm.host;
  if (src == destination) return;  // a one-node path is never feasible
  const double cap = static_cast<double>(vm.capacity);
  const double delta = params_.delta;
  const double eta = params_.eta;
  double transmission = 0.0;
  if (single_homed_[src] != 0) {
    // Path shape [src] + tor_row.path_to(dst). The first link is the leaf
    // edge; the middle is the memoized root→ToR sequence when the
    // destination hangs single-homed off its rack's ToR (every Fat-Tree
    // host); otherwise walk the row's path live.
    const topo::NodeId root = leaf_tor_[src];
    if (!surface_.step(leaf_link_[src], cap, delta, eta, transmission)) return;
    if (destination != root) {
      const topo::DistanceRow& row = rows_->row(root);
      if (rack_leaf_[destination] != 0) {
        const topo::RackId rack = topo_->node(destination).rack;
        if (row.rack_reachable[rack] == 0) return;  // unreachable
        for (const topo::LinkId l : row.links_to_rack(rack)) {
          if (!surface_.step(l, cap, delta, eta, transmission)) return;
        }
        if (!surface_.step(leaf_link_[destination], cap, delta, eta, transmission)) return;
      } else {
        const auto path = row.path_to(destination);
        if (path.empty()) return;  // unreachable
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          const topo::LinkId l = topo_->link_between(path[i], path[i + 1]);
          if (!surface_.step(l, cap, delta, eta, transmission)) return;
        }
      }
    }
  } else {
    const auto path = rows_->row(src).path_to(destination);
    if (path.size() < 2) return;  // unreachable
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const topo::LinkId l = topo_->link_between(path[i], path[i + 1]);
      if (!surface_.step(l, cap, delta, eta, transmission)) return;
    }
  }
  breakdown.transmission = transmission;
  breakdown.feasible = true;
}

CostBreakdown MigrationCostModel::cost(wl::VmId vm_id, topo::NodeId destination) {
  ++evaluated_;
  const wl::VirtualMachine& vm = deployment_->vm(vm_id);
  SHERIFF_REQUIRE(topo_->node(destination).kind == topo::NodeKind::kHost,
                  "migration destination must be a host");
  CostBreakdown breakdown;
  breakdown.computing = params_.computing_cost;
  breakdown.dependency = dependency_cost(vm_id, destination);
  transmission_cost(vm, destination, breakdown);
  return breakdown;
}

double MigrationCostModel::total_cost_with_base(wl::VmId vm_id, topo::NodeId destination,
                                                double base) {
  ++evaluated_;
  CostBreakdown breakdown;
  transmission_cost(deployment_->vm(vm_id), destination, breakdown);
  // total() folds (computing + dependency) + transmission left-to-right
  // and `base` is that exact inner sum, so this is bitwise total_cost().
  return breakdown.feasible ? base + breakdown.transmission
                            : std::numeric_limits<double>::infinity();
}

double MigrationCostModel::candidate_lower_bound(wl::VmId vm_id, topo::NodeId destination,
                                                 double* base_out) const {
  const wl::VirtualMachine& vm = deployment_->vm(vm_id);
  if (destination == vm.host) return std::numeric_limits<double>::infinity();
  // The computing + dependency base is evaluated with the identical FP
  // expression cost()/total() use, so base == total − transmission exactly.
  const double base = params_.computing_cost + dependency_cost(vm_id, destination);
  if (base_out != nullptr) *base_out = base;
  if (!surface_.host_usable(vm.host) || !surface_.host_usable(destination)) {
    return std::numeric_limits<double>::infinity();
  }
  // With no host—host link, src != dst guarantees every path has >= 2
  // links, whose first (last) is incident to src (dst). Nonnegative
  // left-folded sums are monotone under rounding, so the accumulated
  // transmission S_n satisfies S_n >= fl(t_first + t_last) >=
  // fl(min_src + min_dst), hence fl(base + S_n) >= fl(base + fl(...)).
  if (hosts_adjacent_) return base;
  const double cap = static_cast<double>(vm.capacity);
  const double src_term = surface_.min_incident_term(vm.host, cap, params_.delta, params_.eta);
  const double dst_term =
      surface_.min_incident_term(destination, cap, params_.delta, params_.eta);
  return base + (src_term + dst_term);
}

bool MigrationCostModel::provably_infeasible(wl::VmId vm_id, topo::NodeId destination) const {
  const wl::VirtualMachine& vm = deployment_->vm(vm_id);
  if (destination == vm.host) return true;  // one-node path never feasible
  return !surface_.host_usable(vm.host) || !surface_.host_usable(destination);
}

double MigrationCostModel::path_bottleneck_bandwidth(wl::VmId vm,
                                                     topo::NodeId destination) const {
  const auto path = shortest_path(deployment_->vm(vm).host, destination);
  if (path.size() < 2) return 0.0;
  double bottleneck = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const topo::LinkId link = topo_->link_between(path[i], path[i + 1]);
    bottleneck = std::min(bottleneck, surface_.bandwidth(link));
  }
  return bottleneck;
}

double MigrationCostModel::total_cost(wl::VmId vm, topo::NodeId destination) {
  const CostBreakdown breakdown = cost(vm, destination);
  return breakdown.feasible ? breakdown.total() : std::numeric_limits<double>::infinity();
}

}  // namespace sheriff::mig

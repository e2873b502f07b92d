#include "topology/distance_rows.hpp"

#include <algorithm>
#include <memory>

#include "graph/dijkstra.hpp"
#include "topology/topology.hpp"

namespace sheriff::topo {

std::vector<NodeId> DistanceRow::path_to(NodeId target) const {
  std::vector<NodeId> out;
  if (target >= distance.size() || distance[target] == graph::kInfiniteDistance) return out;
  NodeId cur = target;
  out.push_back(cur);
  while (parent[cur] != kInvalidNode) {
    cur = parent[cur];
    out.push_back(cur);
    SHERIFF_REQUIRE(out.size() <= distance.size(), "parent cycle detected");
  }
  std::reverse(out.begin(), out.end());
  return out;
}

DistanceRows::DistanceRows(const Topology& topo)
    : topo_(&topo),
      graph_(topo.wired_graph(EdgeWeight::kDistance)),
      slots_(topo.node_count()) {}

DistanceRows::~DistanceRows() {
  for (auto& slot : slots_) delete slot.load(std::memory_order_acquire);
}

std::size_t DistanceRows::built_rows() const noexcept {
  return static_cast<std::size_t>(std::count_if(slots_.begin(), slots_.end(), [](const auto& s) {
    return s.load(std::memory_order_acquire) != nullptr;
  }));
}

void DistanceRows::build_tor_rows() const {
  for (const Rack& rack : topo_->racks()) {
    if (rack.tor == kInvalidNode) continue;
    if (slots_[rack.tor].load(std::memory_order_acquire) != nullptr) continue;
    (void)publish(rack.tor);
  }
}

const DistanceRow& DistanceRows::publish(NodeId root) const {
  // The distances and lowest-id parents move over from graph::dijkstra_into
  // as they are (its kNoParent is kInvalidNode).
  static_assert(graph::ShortestPaths::kNoParent == kInvalidNode);
  graph::ShortestPaths paths;
  graph::dijkstra_into(graph_, root, paths);
  auto row = std::make_unique<DistanceRow>();
  row->distance = std::move(paths.distance);
  row->parent = std::move(paths.parent);
  // Rack memo: the root→ToR link sequence along path_to, so the cost
  // surface runs link_between once per (root, rack) instead of once per
  // (candidate, hop).
  const std::size_t racks = topo_->rack_count();
  row->rack_link_offset.assign(racks + 1, 0);
  row->rack_reachable.assign(racks, 0);
  for (RackId r = 0; r < racks; ++r) {
    row->rack_link_offset[r] = static_cast<std::uint32_t>(row->rack_link.size());
    const NodeId tor = topo_->rack(r).tor;
    if (tor == kInvalidNode) continue;
    const auto path = row->path_to(tor);
    if (path.empty()) continue;  // unreachable
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      row->rack_link.push_back(topo_->link_between(path[i], path[i + 1]));
    }
    row->rack_reachable[r] = 1;
  }
  row->rack_link_offset[racks] = static_cast<std::uint32_t>(row->rack_link.size());
  row->rack_link.shrink_to_fit();

  DistanceRow* expected = nullptr;
  if (slots_[root].compare_exchange_strong(expected, row.get(), std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
    return *row.release();
  }
  return *expected;  // a concurrent build won; ours is discarded
}

}  // namespace sheriff::topo

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
      slots_(topo.node_count()),
      level_slots_(topo.node_count()) {
  std::vector<graph::HopEdge> ends;
  for (const Link& l : topo.links()) ends.push_back({l.a, l.b});
  hops_ = graph::HopGraph(topo.node_count(), ends);
}

DistanceRows::~DistanceRows() {
  for (auto& slot : slots_) delete slot.load(std::memory_order_acquire);
  for (auto& slot : level_slots_) delete slot.load(std::memory_order_acquire);
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
  // surface resolves links once per (root, rack) instead of once per
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
      row->rack_link.push_back(hops_.edge_between(path[i], path[i + 1]));
    }
    row->rack_reachable[r] = 1;
  }
  row->rack_link_offset[racks] = static_cast<std::uint32_t>(row->rack_link.size());
  row->rack_link.shrink_to_fit();

  return publish_once(slots_[root], std::move(row));
}

const DistanceRows::Levels& DistanceRows::publish_levels(NodeId root,
                                                         std::size_t* bfs_runs) const {
  auto levels = std::make_unique<Levels>();
  graph::hop_levels_into(hops_, root, *levels);
  if (bfs_runs != nullptr) ++*bfs_runs;
  return publish_once(level_slots_[root], std::move(levels));
}

}  // namespace sheriff::topo

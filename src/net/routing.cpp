#include "net/routing.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace sheriff::net {

namespace {

/// Cheap integer mix for deterministic ECMP choices.
std::uint32_t mix(std::uint32_t x) noexcept {
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

}  // namespace

bool Flow::transits(topo::NodeId node) const noexcept {
  const auto inside = interior();
  return std::ranges::find(inside, node) != inside.end();
}

Router::Router(const topo::Topology& topo) : topo_(&topo), tables_(&topo.distance_rows()) {}

void Router::apply_liveness(const topo::LivenessMask* liveness) {
  liveness_ = liveness;
  liveness_version_ = liveness_ != nullptr ? liveness_->version() : 0;
  removed_links_.clear();
  removed_ends_.clear();
  if (liveness_ == nullptr || liveness_->all_up()) return;
  removed_links_.assign(topo_->link_count(), 0);
  for (const topo::Link& l : topo_->links()) {
    if (liveness_->link_usable(*topo_, l.id)) continue;
    removed_links_[l.id] = 1;
    removed_ends_.push_back(l.a);
    removed_ends_.push_back(l.b);
  }
}

bool Router::refresh_liveness() {
  if (liveness_ == nullptr || liveness_->version() == liveness_version_) return false;
  apply_liveness(liveness_);
  return true;
}

std::span<const graph::HopLevel> Router::live_levels(topo::NodeId root,
                                                     std::span<const topo::NodeId> blocked) {
  const std::size_t bfs_runs = cache_stats_.tree_misses;
  const auto pristine = tables_->hop_levels(root, &cache_stats_.tree_misses);
  if (cache_stats_.tree_misses == bfs_runs) ++cache_stats_.tree_hits;
  if (removed_links_.empty() && blocked.empty()) return pristine;
  // The walk reads nothing but levels and the kept links, and BFS levels
  // are unique, so the path equals the one a fresh BFS of the cut graph
  // would give.
  graph::hop_levels_without(tables_->hop_graph(), pristine, {blocked, removed_links_, removed_ends_},
                            repaired_, repair_scratch_);
  ++cache_stats_.repairs;
  return repaired_;
}

// The ECMP walk goes back from the destination, hashing over the tight
// parents the levels imply; the hash depends on the flow id and the depth,
// so consecutive flows take different spines. Tight parents come in
// ascending order (HopGraph rows are sorted), the order the heap Dijkstra
// lists them in, so the salt picks the parent a walk over Dijkstra's
// parent lists would (tests/test_net.cpp pins the router to that oracle).
//
// A single-homed source walks its sole neighbor's levels instead of its
// own (route() picks the root). With unit hop weights every vertex v other
// than the source satisfies d_src(v) = 1 + d_root(v), so the tight-parent
// sets and the salt sequence along the shared segment equal those of the
// source-rooted walk, whose final root→source step draws a salt but has
// exactly one parent; appending the source reproduces it bit for bit.
bool Router::walk_ecmp(std::span<const graph::HopLevel> levels, topo::NodeId root,
                       Flow& flow) const {
  const graph::HopLevel dst_level = levels[flow.dst_host];
  if (dst_level == graph::kUnreachedLevel) return false;
  const graph::HopGraph& hops = tables_->hop_graph();
  // Root to destination is dst_level + 1 nodes; filled back to front, each
  // step's link with it.
  const std::size_t length = dst_level + 1U + (root != flow.src_host ? 1U : 0U);
  flow.path.resize(length);
  flow.links.resize(length - 1);
  flow.path[length - 1] = flow.dst_host;
  topo::NodeId cur = flow.dst_host;
  std::size_t walked = 1;  // nodes on the path so far, destination included
  std::uint32_t salt = mix(flow.id * 0x9e3779b9U + 1U);
  while (cur != root) {
    const std::size_t parents = graph::tight_parent_count(hops, levels, cur, removed_links_);
    SHERIFF_REQUIRE(parents > 0, "broken shortest path tree");
    salt = mix(salt + static_cast<std::uint32_t>(walked));
    const graph::HopStep parent =
        graph::tight_parent(hops, levels, cur, salt % parents, removed_links_);
    ++walked;
    SHERIFF_REQUIRE(walked <= dst_level + 1U, "routing loop detected");
    flow.path[length - walked] = parent.vertex;
    flow.links[length - walked] = parent.edge;
    cur = parent.vertex;
  }
  if (root != flow.src_host) {
    flow.path.front() = flow.src_host;
    flow.links.front() = hops.row(flow.src_host)[0].edge;
  }
  return true;
}

bool Router::route(Flow& flow, std::span<const topo::NodeId> blocked) {
  SHERIFF_REQUIRE(flow.src_host < topo_->node_count() && flow.dst_host < topo_->node_count(),
                  "flow endpoints out of range");
  flow.unroute();
  if (flow.src_host == flow.dst_host) return false;
  for (topo::NodeId b : blocked) {
    SHERIFF_REQUIRE(b != flow.src_host && b != flow.dst_host, "cannot block a flow endpoint");
  }
  ++cache_stats_.path_misses;

  // Single-homed sources (every fat-tree host) are rooted at their sole
  // neighbor, so the published levels hold one array per source rack
  // instead of one per querying host (see walk_ecmp).
  const auto leaf = tables_->hop_graph().row(flow.src_host);
  if (leaf.size() != 1) return walk_ecmp(live_levels(flow.src_host, blocked), flow.src_host, flow);
  const auto [root, uplink] = leaf[0];
  if ((!removed_links_.empty() && removed_links_[uplink] != 0) ||
      std::ranges::find(blocked, root) != blocked.end()) {
    return false;  // the source's only link is down or blocked: no path exists
  }
  if (flow.dst_host == root) {
    flow.path.assign({flow.src_host, root});
    flow.links.assign(1, uplink);
    return true;
  }
  return walk_ecmp(live_levels(root, blocked), root, flow);
}

std::size_t Router::route_all(std::span<Flow> flows) {
  std::size_t routed = 0;
  for (Flow& f : flows) {
    if (route(f)) ++routed;
  }
  return routed;
}

std::size_t Router::shortest_path_count(topo::NodeId src, topo::NodeId dst) {
  SHERIFF_REQUIRE(src < topo_->node_count() && dst < topo_->node_count(),
                  "endpoints out of range");
  return graph::hop_path_count(tables_->hop_graph(), live_levels(src, {}), dst, removed_links_);
}

}  // namespace sheriff::net

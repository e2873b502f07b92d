#include "net/routing.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "obs/registry.hpp"

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

Router::Router(const topo::Topology& topo)
    : topo_(&topo),
      hops_(topo.wired_graph(topo::EdgeWeight::kHops)),
      root_levels_(topo.node_count()) {}

void Router::apply_liveness(const topo::LivenessMask* liveness) {
  liveness_ = liveness;
  rebuild();
}

bool Router::refresh_liveness() {
  if (liveness_ == nullptr || liveness_->version() == liveness_version_) return false;
  rebuild();
  return true;
}

void Router::rebuild() {
  // The only place the level table drops entries: no route() runs
  // concurrently with a liveness change.
  const auto built = [](const std::vector<graph::HopLevel>& levels) { return !levels.empty(); };
  if (std::ranges::any_of(root_levels_, built)) ++cache_stats_.evictions;
  root_levels_.assign(topo_->node_count(), {});
  if (liveness_ == nullptr || liveness_->all_up()) {
    hops_ = graph::HopGraph(topo_->wired_graph(topo::EdgeWeight::kHops));
    component_.clear();
    liveness_version_ = liveness_ != nullptr ? liveness_->version() : 0;
    return;
  }
  hops_ = graph::HopGraph(topo_->wired_graph(topo::EdgeWeight::kHops, *liveness_));
  liveness_version_ = liveness_->version();
  // Label live components by BFS so reachable() is an O(1) compare.
  component_.assign(topo_->node_count(), 0);
  std::uint32_t next_label = 0;
  std::vector<topo::NodeId> frontier;
  for (topo::NodeId start = 0; start < topo_->node_count(); ++start) {
    if (component_[start] != 0 || !liveness_->node_up(start)) continue;
    ++next_label;
    component_[start] = next_label;
    frontier.assign(1, start);
    while (!frontier.empty()) {
      const topo::NodeId cur = frontier.back();
      frontier.pop_back();
      for (const topo::NodeId next : hops_.neighbors(cur)) {
        if (component_[next] == 0) {
          component_[next] = next_label;
          frontier.push_back(next);
        }
      }
    }
  }
}

bool Router::node_live(topo::NodeId node) const {
  return liveness_ == nullptr || liveness_->node_up(node);
}

bool Router::reachable(topo::NodeId a, topo::NodeId b) const {
  if (!node_live(a) || !node_live(b)) return false;
  if (component_.empty()) return true;  // pristine fabric: connected by validate()
  return component_[a] == component_[b];
}

std::span<const graph::HopLevel> Router::levels_for(topo::NodeId root) const {
  {
    std::scoped_lock lock(cache_mutex_);
    if (!root_levels_[root].empty()) {
      ++cache_stats_.tree_hits;
      return root_levels_[root];
    }
    ++cache_stats_.tree_misses;
  }
  // BFS outside the lock. Two threads may race on one root; both arrays are
  // identical, and the first one published is kept.
  std::vector<graph::HopLevel> fresh;
  graph::hop_levels_into(hops_, root, fresh);
  std::scoped_lock lock(cache_mutex_);
  std::vector<graph::HopLevel>& slot = root_levels_[root];
  if (slot.empty()) slot = std::move(fresh);
  return slot;
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
    const std::size_t parents = graph::tight_parent_count(hops_, levels, cur);
    SHERIFF_REQUIRE(parents > 0, "broken shortest path tree");
    salt = mix(salt + static_cast<std::uint32_t>(walked));
    const topo::NodeId parent = graph::tight_parent(hops_, levels, cur, salt % parents);
    ++walked;
    SHERIFF_REQUIRE(walked <= dst_level + 1U, "routing loop detected");
    flow.path[length - walked] = parent;
    flow.links[length - walked] = topo_->link_between(parent, cur);
    cur = parent;
  }
  if (root != flow.src_host) {
    flow.path.front() = flow.src_host;
    flow.links.front() = topo_->link_between(flow.src_host, root);
  }
  return true;
}

bool Router::route(Flow& flow, std::span<const topo::NodeId> blocked) const {
  SHERIFF_REQUIRE(flow.src_host < topo_->node_count() && flow.dst_host < topo_->node_count(),
                  "flow endpoints out of range");
  flow.unroute();
  if (flow.src_host == flow.dst_host) return false;
  if (!reachable(flow.src_host, flow.dst_host)) return false;
  for (topo::NodeId b : blocked) {
    SHERIFF_REQUIRE(b != flow.src_host && b != flow.dst_host, "cannot block a flow endpoint");
  }
  {
    std::scoped_lock lock(cache_mutex_);
    ++cache_stats_.path_misses;
  }

  // Single-homed sources (every fat-tree host) are rooted at their sole
  // neighbor, so the level table holds one array per source rack instead
  // of one per querying host (see walk_ecmp).
  const auto leaf = hops_.neighbors(flow.src_host);
  const topo::NodeId root = leaf.size() == 1 ? leaf[0] : flow.src_host;
  if (root != flow.src_host && std::ranges::find(blocked, root) != blocked.end()) {
    return false;  // the source's only egress is blocked: no path exists
  }
  if (flow.dst_host == root) {
    flow.path.assign({flow.src_host, root});
    flow.links.assign(1, topo_->link_between(flow.src_host, root));
    return true;
  }
  if (blocked.empty()) return walk_ecmp(levels_for(root), root, flow);
  // Blocked probe: repair the root's unblocked levels into a per-thread
  // array, reused so a probe does not allocate. The walk reads nothing but
  // levels, and BFS levels are unique, so the path equals the one a fresh
  // BFS under the blocks would give.
  thread_local std::vector<graph::HopLevel> repaired;
  graph::hop_levels_without(hops_, levels_for(root), blocked, repaired);
  {
    std::scoped_lock lock(cache_mutex_);
    ++cache_stats_.repairs;
  }
  return walk_ecmp(repaired, root, flow);
}

std::size_t Router::route_all(std::span<Flow> flows) const {
  std::size_t routed = 0;
  for (Flow& f : flows) {
    if (route(f)) ++routed;
  }
  return routed;
}

std::size_t Router::shortest_path_count(topo::NodeId src, topo::NodeId dst) const {
  return graph::hop_path_count(hops_, levels_for(src), dst);
}

void Router::publish_metrics(obs::MetricRegistry& registry) const {
  registry.gauge("router.tree_hits").set(static_cast<double>(cache_stats_.tree_hits));
  registry.gauge("router.tree_misses").set(static_cast<double>(cache_stats_.tree_misses));
  registry.gauge("router.repairs").set(static_cast<double>(cache_stats_.repairs));
  registry.gauge("router.path_hits").set(static_cast<double>(cache_stats_.path_hits));
  registry.gauge("router.path_misses").set(static_cast<double>(cache_stats_.path_misses));
  registry.gauge("router.evictions").set(static_cast<double>(cache_stats_.evictions));
}

}  // namespace sheriff::net

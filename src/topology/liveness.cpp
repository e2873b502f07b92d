#include "topology/liveness.hpp"

#include "common/require.hpp"
#include "topology/topology.hpp"

namespace sheriff::topo {

LivenessMask::LivenessMask(const Topology& topo)
    : node_up_(topo.node_count(), true), link_up_(topo.link_count(), true) {}

bool LivenessMask::link_usable(const Topology& topo, LinkId link) const {
  if (!link_up_[link]) return false;
  const Link& l = topo.link(link);
  return node_up_[l.a] && node_up_[l.b];
}

bool LivenessMask::host_attached(const Topology& topo, NodeId host) const {
  if (!node_up_[host]) return false;
  if (all_up()) return true;
  for (LinkId l : topo.links_of(host)) {
    if (link_usable(topo, l)) return true;
  }
  return false;
}

void LivenessMask::set_node(NodeId node, bool up) {
  SHERIFF_REQUIRE(node < node_up_.size(), "liveness: node out of range");
  if (node_up_[node] == up) return;
  node_up_[node] = up;
  failed_nodes_ += up ? -1 : 1;
  ++version_;
}

void LivenessMask::set_link(LinkId link, bool up) {
  SHERIFF_REQUIRE(link < link_up_.size(), "liveness: link out of range");
  if (link_up_[link] == up) return;
  link_up_[link] = up;
  failed_links_ += up ? -1 : 1;
  ++version_;
}

std::size_t LivenessMask::unusable_link_count(const Topology& topo) const {
  std::size_t count = 0;
  for (LinkId l = 0; l < link_up_.size(); ++l) {
    if (!link_usable(topo, l)) ++count;
  }
  return count;
}

}  // namespace sheriff::topo

#include "topology/topology.hpp"

#include <algorithm>
#include <memory>

#include "common/require.hpp"
#include "topology/distance_rows.hpp"
#include "topology/liveness.hpp"

namespace sheriff::topo {

const char* to_string(NodeKind kind) noexcept {
  switch (kind) {
    case NodeKind::kHost: return "host";
    case NodeKind::kTorSwitch: return "tor";
    case NodeKind::kAggSwitch: return "agg";
    case NodeKind::kCoreSwitch: return "core";
    case NodeKind::kBCubeSwitch: return "bcube-switch";
  }
  return "unknown";
}

Topology::RowSlot& Topology::RowSlot::operator=(const RowSlot&) noexcept {
  reset();
  return *this;
}

Topology::RowSlot& Topology::RowSlot::operator=(RowSlot&& other) noexcept {
  reset();
  other.reset();
  return *this;
}

Topology::RowSlot::~RowSlot() { reset(); }

void Topology::RowSlot::reset() noexcept {
  delete rows_.exchange(nullptr, std::memory_order_acq_rel);
}

const DistanceRows& Topology::RowSlot::get(const Topology& topo) const {
  if (const DistanceRows* rows = rows_.load(std::memory_order_acquire); rows != nullptr) {
    return *rows;
  }
  return publish_once(rows_, std::make_unique<DistanceRows>(topo));  // as the tables inside are
}

const DistanceRows& Topology::distance_rows() const { return distance_rows_.get(*this); }

void Topology::set_name(std::string name) {
  distance_rows_.reset();
  name_ = std::move(name);
}

NodeId Topology::add_node(NodeKind kind, RackId rack, std::int32_t pod, std::int32_t level) {
  distance_rows_.reset();
  Node node;
  node.id = static_cast<NodeId>(nodes_.size());
  node.kind = kind;
  node.rack = rack;
  node.pod = pod;
  node.level = level;
  nodes_.push_back(node);
  incident_.emplace_back();
  return node.id;
}

LinkId Topology::add_link(NodeId a, NodeId b, double capacity_gbps, double distance_m) {
  distance_rows_.reset();
  SHERIFF_REQUIRE(a < nodes_.size() && b < nodes_.size(), "link endpoint out of range");
  SHERIFF_REQUIRE(a != b, "link cannot be a self-loop");
  SHERIFF_REQUIRE(capacity_gbps > 0.0, "link capacity must be positive");
  SHERIFF_REQUIRE(distance_m >= 0.0, "link distance must be non-negative");
  const NodeId fewer = incident_[a].size() <= incident_[b].size() ? a : b;
  const NodeId other = fewer == a ? b : a;
  for (const LinkId id : incident_[fewer]) {
    SHERIFF_REQUIRE(peer(id, fewer) != other, "parallel link: a link already joins these nodes");
  }
  Link link;
  link.id = static_cast<LinkId>(links_.size());
  link.a = a;
  link.b = b;
  link.capacity_gbps = capacity_gbps;
  link.distance_m = distance_m;
  links_.push_back(link);
  incident_[a].push_back(link.id);
  incident_[b].push_back(link.id);
  return link.id;
}

RackId Topology::add_rack() {
  distance_rows_.reset();
  Rack rack;
  rack.id = static_cast<RackId>(racks_.size());
  racks_.push_back(rack);
  return rack.id;
}

void Topology::set_node_position(NodeId node, double x, double y) {
  distance_rows_.reset();
  SHERIFF_REQUIRE(node < nodes_.size(), "node out of range");
  nodes_[node].x = x;
  nodes_[node].y = y;
}

void Topology::assign_host_to_rack(NodeId host, RackId rack) {
  distance_rows_.reset();
  SHERIFF_REQUIRE(host < nodes_.size(), "host out of range");
  SHERIFF_REQUIRE(rack < racks_.size(), "rack out of range");
  SHERIFF_REQUIRE(nodes_[host].kind == NodeKind::kHost, "only hosts join rack host lists");
  nodes_[host].rack = rack;
  racks_[rack].hosts.push_back(host);
}

void Topology::assign_tor_to_rack(NodeId tor, RackId rack) {
  distance_rows_.reset();
  SHERIFF_REQUIRE(tor < nodes_.size(), "tor out of range");
  SHERIFF_REQUIRE(rack < racks_.size(), "rack out of range");
  SHERIFF_REQUIRE(is_switch(nodes_[tor].kind), "rack ToR must be a switch");
  SHERIFF_REQUIRE(racks_[rack].tor == kInvalidNode, "rack already has a ToR");
  nodes_[tor].rack = rack;
  racks_[rack].tor = tor;
}

void Topology::set_rack_position(RackId rack, double x, double y) {
  distance_rows_.reset();
  SHERIFF_REQUIRE(rack < racks_.size(), "rack out of range");
  racks_[rack].x = x;
  racks_[rack].y = y;
}

const Node& Topology::node(NodeId id) const {
  SHERIFF_REQUIRE(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

const Link& Topology::link(LinkId id) const {
  SHERIFF_REQUIRE(id < links_.size(), "link id out of range");
  return links_[id];
}

const Rack& Topology::rack(RackId id) const {
  SHERIFF_REQUIRE(id < racks_.size(), "rack id out of range");
  return racks_[id];
}

std::span<const LinkId> Topology::links_of(NodeId node) const {
  SHERIFF_REQUIRE(node < incident_.size(), "node id out of range");
  return incident_[node];
}

NodeId Topology::peer(LinkId link_id, NodeId node) const {
  const Link& l = link(link_id);
  SHERIFF_REQUIRE(l.a == node || l.b == node, "node is not an endpoint of link");
  return l.a == node ? l.b : l.a;
}

LinkId Topology::link_between(NodeId a, NodeId b) const {
  SHERIFF_REQUIRE(a < nodes_.size() && b < nodes_.size(), "node id out of range");
  const LinkId id = distance_rows().hop_graph().edge_between(a, b);
  SHERIFF_REQUIRE(id != graph::kNoEdge, "no link between the given nodes");
  return id;
}

bool Topology::adjacent(NodeId a, NodeId b) const {
  SHERIFF_REQUIRE(a < nodes_.size(), "node id out of range");
  return b < nodes_.size() && distance_rows().hop_graph().edge_between(a, b) != graph::kNoEdge;
}

std::vector<NodeId> Topology::nodes_of_kind(NodeKind kind) const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (n.kind == kind) out.push_back(n.id);
  }
  return out;
}

std::size_t Topology::count_kind(NodeKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [kind](const Node& n) { return n.kind == kind; }));
}

std::vector<RackId> Topology::neighbor_racks(RackId rack_id) const {
  const Rack& r = rack(rack_id);
  SHERIFF_REQUIRE(r.tor != kInvalidNode, "rack has no ToR");
  // Two-hop reach through one intermediate switch. We start from the ToR
  // *and* the rack's hosts: in switch-centric fabrics (Fat-Tree) racks meet
  // at aggregation switches above the ToRs, while in server-centric fabrics
  // (BCube) racks meet at higher-level switches the hosts attach to.
  std::vector<NodeId> sources = r.hosts;
  sources.push_back(r.tor);
  std::vector<bool> seen(racks_.size(), false);
  std::vector<RackId> out;
  for (NodeId src : sources) {
    for (LinkId up : links_of(src)) {
      const NodeId mid = peer(up, src);
      const Node& mid_node = nodes_[mid];
      if (!is_switch(mid_node.kind) || mid_node.rack == rack_id) continue;
      for (LinkId down : links_of(mid)) {
        const NodeId other = peer(down, mid);
        const Node& candidate = nodes_[other];
        if (candidate.rack == kInvalidRack || candidate.rack == rack_id) continue;
        if (!seen[candidate.rack]) {
          seen[candidate.rack] = true;
          out.push_back(candidate.rack);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

graph::Graph Topology::wired_graph(EdgeWeight weight) const {
  graph::Graph g(nodes_.size());
  for (const Link& l : links_) {
    double w = 1.0;
    switch (weight) {
      case EdgeWeight::kHops: w = 1.0; break;
      case EdgeWeight::kDistance: w = l.distance_m; break;
      case EdgeWeight::kInverseCapacity: w = 1.0 / l.capacity_gbps; break;
    }
    g.add_edge(l.a, l.b, w);
  }
  return g;
}

graph::Graph Topology::wired_graph(EdgeWeight weight, const LivenessMask& liveness) const {
  graph::Graph g(nodes_.size());
  for (const Link& l : links_) {
    if (!liveness.link_usable(*this, l.id)) continue;
    double w = 1.0;
    switch (weight) {
      case EdgeWeight::kHops: w = 1.0; break;
      case EdgeWeight::kDistance: w = l.distance_m; break;
      case EdgeWeight::kInverseCapacity: w = 1.0 / l.capacity_gbps; break;
    }
    g.add_edge(l.a, l.b, w);
  }
  return g;
}

void Topology::validate() const {
  SHERIFF_REQUIRE(!nodes_.empty(), "topology has no nodes");
  const graph::Graph g = wired_graph(EdgeWeight::kHops);
  SHERIFF_REQUIRE(g.component_count() == 1, "topology is disconnected");
  for (const Node& n : nodes_) {
    SHERIFF_REQUIRE(!incident_[n.id].empty(), "isolated node " + std::to_string(n.id));
    if (n.kind == NodeKind::kHost) {
      SHERIFF_REQUIRE(n.rack != kInvalidRack, "host outside any rack");
    }
  }
  for (const Rack& r : racks_) {
    SHERIFF_REQUIRE(r.tor != kInvalidNode, "rack without ToR");
    SHERIFF_REQUIRE(!r.hosts.empty(), "rack without hosts");
  }
}

}  // namespace sheriff::topo

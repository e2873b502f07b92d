#pragma once
// LivenessMask: which nodes and links of a Topology are currently alive.
// The topology itself stays immutable (it is shared across engines); a
// mask layered on top carries the fault state. A link carries traffic only
// when the link itself and both endpoints are up, so failing a node
// implicitly severs its links. The mask bumps a version counter on every
// change, letting consumers (the router's reachability cache) detect when
// a recompute is due.

#include <cstdint>
#include <vector>

#include "topology/entities.hpp"

namespace sheriff::topo {

class Topology;

class LivenessMask {
 public:
  LivenessMask() = default;
  /// Everything starts alive.
  explicit LivenessMask(const Topology& topo);

  [[nodiscard]] bool node_up(NodeId node) const { return node_up_[node]; }
  [[nodiscard]] bool link_up(LinkId link) const { return link_up_[link]; }
  /// True when the link and both of its endpoints are up.
  [[nodiscard]] bool link_usable(const Topology& topo, LinkId link) const;
  /// True when the node is up and at least one incident link is usable. A
  /// live host behind a dead ToR is cut off: it can neither send traffic
  /// nor receive migrations, so consumers treat it like a failed host.
  [[nodiscard]] bool host_attached(const Topology& topo, NodeId host) const;

  void set_node(NodeId node, bool up);
  void set_link(LinkId link, bool up);

  /// True when no node or link is failed (the pristine-fabric fast path).
  [[nodiscard]] bool all_up() const noexcept {
    return failed_nodes_ == 0 && failed_links_ == 0;
  }
  /// Links explicitly failed (excludes links severed by a dead endpoint).
  [[nodiscard]] std::size_t failed_link_count() const noexcept { return failed_links_; }
  /// Links unable to carry traffic: failed outright or severed by a dead
  /// endpoint.
  [[nodiscard]] std::size_t unusable_link_count(const Topology& topo) const;

  /// Monotonic change counter; bumped whenever any bit flips.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

 private:
  std::vector<bool> node_up_;
  std::vector<bool> link_up_;
  std::size_t failed_nodes_ = 0;
  std::size_t failed_links_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace sheriff::topo

#pragma once
// The wired network graph G_r = (V ∪ S, E_r) of Sec. II-C, with rack
// bookkeeping. Builders (fat_tree.hpp, bcube.hpp) populate an instance;
// the router, the migration cost model, and the shims all query it. G_r is
// a simple graph: at most one link joins two nodes. Its routing and
// distance tables (distance_rows()) belong to it, not to their readers.

#include <atomic>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "topology/entities.hpp"

namespace sheriff::topo {

class DistanceRows;
class LivenessMask;

/// Edge-weight convention when exporting to a graph::Graph.
enum class EdgeWeight : std::uint8_t {
  kHops,             ///< every link counts 1 (shortest-hop routing)
  kDistance,         ///< physical distance D(e), meters
  kInverseCapacity,  ///< 1 / C(e), prefers fat links
};

class Topology {
 public:
  Topology() = default;

  // --- construction (used by the builders) -------------------------------
  // Every mutator drops the table set (see distance_rows()).
  NodeId add_node(NodeKind kind, RackId rack = kInvalidRack, std::int32_t pod = -1,
                  std::int32_t level = -1);
  /// Fails (RequirementError) on a self-loop or when a link already joins
  /// a and b.
  LinkId add_link(NodeId a, NodeId b, double capacity_gbps, double distance_m);
  RackId add_rack();
  void set_node_position(NodeId node, double x, double y);
  void assign_host_to_rack(NodeId host, RackId rack);
  void assign_tor_to_rack(NodeId tor, RackId rack);
  void set_rack_position(RackId rack, double x, double y);
  void set_name(std::string name);

  // --- queries ------------------------------------------------------------
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }
  [[nodiscard]] std::size_t rack_count() const noexcept { return racks_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] const Link& link(LinkId id) const;
  [[nodiscard]] const Rack& rack(RackId id) const;
  [[nodiscard]] std::span<const Node> nodes() const noexcept { return nodes_; }
  [[nodiscard]] std::span<const Link> links() const noexcept { return links_; }
  [[nodiscard]] std::span<const Rack> racks() const noexcept { return racks_; }

  /// Links incident to a node.
  [[nodiscard]] std::span<const LinkId> links_of(NodeId node) const;
  /// The other endpoint of `link` relative to `node`.
  [[nodiscard]] NodeId peer(LinkId link, NodeId node) const;
  /// The link joining a and b, or fails if absent. Both this and adjacent()
  /// binary-search a's row of the shared hop CSR (distance_rows()).
  [[nodiscard]] LinkId link_between(NodeId a, NodeId b) const;
  [[nodiscard]] bool adjacent(NodeId a, NodeId b) const;

  /// All node ids of a given kind.
  [[nodiscard]] std::vector<NodeId> nodes_of_kind(NodeKind kind) const;
  [[nodiscard]] std::size_t count_kind(NodeKind kind) const;
  [[nodiscard]] std::size_t host_count() const { return count_kind(NodeKind::kHost); }

  /// Racks whose ToR is two hops away (ToR — switch — ToR'): the "one hop
  /// wired neighbors" forming a shim's dominating region for migration.
  [[nodiscard]] std::vector<RackId> neighbor_racks(RackId rack) const;

  /// Exports the wired graph with the chosen edge weights. Vertex ids
  /// coincide with NodeIds.
  [[nodiscard]] graph::Graph wired_graph(EdgeWeight weight) const;

  /// Same, restricted to the live fabric: links that are failed, or whose
  /// endpoint node is failed, are omitted (dead nodes stay as isolated
  /// vertices so NodeIds keep coinciding with vertex ids).
  [[nodiscard]] graph::Graph wired_graph(EdgeWeight weight, const LivenessMask& liveness) const;

  /// Structural sanity: connected, every host degree 1+ and in a rack,
  /// every rack has a ToR. Throws RequirementError with details if not.
  void validate() const;

  /// The fabric's routing and distance tables (topology/distance_rows.hpp):
  /// the hop CSR, each root's hop levels and wired-distance row, built
  /// lazily and shared by every engine, router, cost model and planner on
  /// this topology. Thread-safe. A mutator drops the set (invalidating
  /// every reference taken from it); a copy or a move starts without one.
  [[nodiscard]] const DistanceRows& distance_rows() const;

 private:
  /// Owner of the lazily published row set. Rows describe the graph (and
  /// the address) they were built from, so a copy or a move starts empty,
  /// and a moved-from topology drops its set too.
  class RowSlot {
   public:
    RowSlot() = default;
    RowSlot(const RowSlot&) noexcept {}
    RowSlot(RowSlot&& other) noexcept { other.reset(); }
    RowSlot& operator=(const RowSlot&) noexcept;
    RowSlot& operator=(RowSlot&& other) noexcept;
    ~RowSlot();

    [[nodiscard]] const DistanceRows& get(const Topology& topo) const;
    void reset() noexcept;

   private:
    mutable std::atomic<DistanceRows*> rows_{nullptr};
  };

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<Rack> racks_;
  std::vector<std::vector<LinkId>> incident_;
  RowSlot distance_rows_;
};

}  // namespace sheriff::topo

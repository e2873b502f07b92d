#pragma once
// The routing and distance tables of one fabric (DESIGN.md §7, §14), a pure
// function of the immutable pristine fabric, so one set per Topology
// (Topology::distance_rows()) serves every engine, router, cost model and
// k-median planner built over it: checkpoint restores, bisects, fleet runs
// and bench repeats find them built. Per root node it publishes lazily
// - a wired-distance row: the shortest distance-weighted path lengths D to
//   every node, the one path P(v_i, v_p) that Eq. (1) prices, and the
//   root→ToR link sequences the cost surface replays;
// - the BFS hop levels the routers walk over the set's hop CSR, which also
//   answers Topology::link_between.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/require.hpp"
#include "graph/graph.hpp"
#include "graph/hop_levels.hpp"
#include "topology/entities.hpp"

namespace sheriff::topo {

class Topology;

/// The one publish path of the fabric's tables: stores `built` in the empty
/// `slot` and returns it, or returns what a concurrent build stored first
/// (ours is then freed; tables are deterministic, so both are identical).
template <typename T>
const T& publish_once(std::atomic<T*>& slot, std::unique_ptr<T> built) {
  T* expected = nullptr;
  if (slot.compare_exchange_strong(expected, built.get(), std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *built.release();
  }
  return *expected;
}

/// One root's row, stored flat: a distance and one parent per node
/// (12 bytes), plus a CSR of root→ToR link ids indexed by rack.
struct DistanceRow {
  /// Wired distance from the root, meters; +inf when unreachable.
  std::vector<double> distance;
  /// The lowest-id tight predecessor of each node — the only parent
  /// path_to ever follows. kInvalidNode at the root and at unreachable
  /// nodes.
  std::vector<NodeId> parent;
  /// Rack r's root→ToR links along path_to(tor) are
  /// rack_link[rack_link_offset[r] .. rack_link_offset[r + 1]).
  std::vector<std::uint32_t> rack_link_offset;
  std::vector<LinkId> rack_link;
  /// Per rack: 1 when its ToR is reachable from the root.
  std::vector<std::uint8_t> rack_reachable;

  /// One shortest path root→target through the lowest-id parents (the
  /// path the ECMP oracle's path_to gives); empty if unreachable.
  [[nodiscard]] std::vector<NodeId> path_to(NodeId target) const;

  /// The root→ToR link ids of `rack` (empty when unreachable, or when the
  /// root is that ToR).
  [[nodiscard]] std::span<const LinkId> links_to_rack(RackId rack) const noexcept {
    return {rack_link.data() + rack_link_offset[rack],
            rack_link.data() + rack_link_offset[rack + 1]};
  }
};

/// The table set: per root node, one lazily built, immutable DistanceRow
/// and one hop-level array, each published once by publish_once, beside
/// the hop CSR built with the set. Every accessor is thread-safe.
class DistanceRows {
 public:
  /// Binds to `topo`, which must outlive the set and stay unchanged while
  /// it lives. Builds the distance graph and the hop CSR; the per-root
  /// tables come on demand.
  explicit DistanceRows(const Topology& topo);
  ~DistanceRows();

  DistanceRows(const DistanceRows&) = delete;
  DistanceRows& operator=(const DistanceRows&) = delete;

  /// The row rooted at `root`, built on first use with graph::dijkstra_into
  /// on the unmasked distance-weighted wired graph.
  [[nodiscard]] const DistanceRow& row(NodeId root) const {
    SHERIFF_REQUIRE(root < slots_.size(), "distance row root out of range");
    const DistanceRow* built = slots_[root].load(std::memory_order_acquire);
    return built != nullptr ? *built : publish(root);
  }

  /// The wired graph as a hop CSR: vertex ids are NodeIds and edge ids are
  /// LinkIds (Topology::add_link refuses parallel links, so each neighbor
  /// entry is the one link to that neighbor).
  [[nodiscard]] const graph::HopGraph& hop_graph() const noexcept { return hops_; }

  /// The BFS hop levels out of `root` on the pristine wired graph, built on
  /// first use. Adds 1 to `*bfs_runs` (when given) if this call ran the BFS.
  [[nodiscard]] std::span<const graph::HopLevel> hop_levels(NodeId root,
                                                            std::size_t* bfs_runs = nullptr) const {
    SHERIFF_REQUIRE(root < level_slots_.size(), "hop level root out of range");
    const Levels* built = level_slots_[root].load(std::memory_order_acquire);
    return built != nullptr ? *built : publish_levels(root, bfs_runs);
  }

  /// Builds every ToR-rooted row not yet built — what the first engine on
  /// a fabric does at construction.
  void build_tor_rows() const;

  /// Distance rows published so far.
  [[nodiscard]] std::size_t built_rows() const noexcept;

 private:
  using Levels = std::vector<graph::HopLevel>;
  /// Build `root`'s row or levels and publish them.
  [[nodiscard]] const DistanceRow& publish(NodeId root) const;
  [[nodiscard]] const Levels& publish_levels(NodeId root, std::size_t* bfs_runs) const;

  const Topology* topo_;
  graph::Graph graph_;
  graph::HopGraph hops_;
  mutable std::vector<std::atomic<DistanceRow*>> slots_;
  mutable std::vector<std::atomic<Levels*>> level_slots_;
};

}  // namespace sheriff::topo

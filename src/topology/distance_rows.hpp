#pragma once
// Wired-distance rows of one fabric (DESIGN.md §14): per root node, the
// shortest distance-weighted path lengths D to every node, the one path
// P(v_i, v_p) that Eq. (1) prices, and the root→ToR link sequences the
// cost surface replays. The rows are a pure function of the immutable
// pristine fabric, so one set per Topology (Topology::distance_rows())
// serves every engine, cost model and k-median planner built over it:
// checkpoint restores, bisects, fleet runs and bench repeats find them
// built.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/require.hpp"
#include "graph/graph.hpp"
#include "topology/entities.hpp"

namespace sheriff::topo {

class Topology;

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

/// The row set: one lazily built, immutable DistanceRow per root node.
/// row() is safe from any number of threads. Each slot is published once
/// by CAS; a losing concurrent build is discarded (rows are deterministic,
/// so the winner's copy is identical).
class DistanceRows {
 public:
  /// Binds to `topo`, which must outlive the set and stay unchanged while
  /// it lives. Builds the distance graph only; rows come on demand.
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

  /// Builds every ToR-rooted row not yet built — what the first engine on
  /// a fabric does at construction.
  void build_tor_rows() const;

  /// Rows published so far.
  [[nodiscard]] std::size_t built_rows() const noexcept;

 private:
  /// Builds `root`'s row and publishes it.
  [[nodiscard]] const DistanceRow& publish(NodeId root) const;

  const Topology* topo_;
  graph::Graph graph_;
  mutable std::vector<std::atomic<DistanceRow*>> slots_;
};

}  // namespace sheriff::topo

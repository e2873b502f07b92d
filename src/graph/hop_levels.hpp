#pragma once
// Unit-weight shortest paths as BFS hop levels. On a hop-count graph the
// tight predecessors of v (the ECMP parents every shortest path to v may
// step through) are exactly v's neighbors one level closer to the root, so
// one narrow level per vertex carries the whole shortest-path DAG: parents
// are derived on demand instead of stored as a list per vertex.
//
// Parent order matters to the router, whose ECMP walk indexes the parent
// list with a per-flow salt. HopGraph rows are sorted ascending, so the
// derived parents come out in ascending vertex order — the order in which
// the heap Dijkstra that keeps every parent (the test oracle in
// tests/oracles/shortest_paths.hpp) records them on a unit-weight graph (it
// pops (distance, vertex) pairs lexicographically, so one level's vertices
// are settled in ascending id order). tests/test_graph_properties.cpp pins
// levels and derived parent lists against that heap loop, cut and uncut.
//
// A cut (failed links and nodes, FLOWREROUTE's blocked switches) needs no
// search of its own: BFS levels are unique, so the levels of g minus some
// vertices and edges follow from g's own levels by re-leveling only the
// vertices whose every shortest path crossed a removed one
// (hop_levels_without), and a repaired array routes exactly as a BFS would.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace sheriff::graph {

/// Hop distance from the BFS root. One byte per vertex keeps a level array
/// 8× smaller than a double distance row; hop_levels_into and
/// hop_levels_without refuse graphs whose levels would not fit.
using HopLevel = std::uint8_t;
/// Level of a vertex the BFS never reached (unreachable or cut off).
inline constexpr HopLevel kUnreachedLevel = std::numeric_limits<HopLevel>::max();

/// An edge's id: its index in the edge list a HopGraph was built from.
using EdgeId = std::uint32_t;
inline constexpr EdgeId kNoEdge = std::numeric_limits<EdgeId>::max();

/// The endpoints of one undirected edge.
struct HopEdge {
  Vertex a = 0;
  Vertex b = 0;
};

/// One row entry: a neighbor and the id of the edge that leads to it.
struct HopStep {
  Vertex vertex = 0;
  EdgeId edge = kNoEdge;
};

/// Unweighted adjacency in compressed sparse row form, each neighbor's edge
/// id beside it. Rows are sorted by neighbor and free of duplicates:
/// parallel edges collapse into one entry, which keeps their lowest id.
class HopGraph {
 public:
  HopGraph() = default;
  /// Edge i of `edges` gets id i; both endpoints must be < vertex_count.
  HopGraph(std::size_t vertex_count, std::span<const HopEdge> edges);

  [[nodiscard]] std::size_t vertex_count() const noexcept { return offsets_.size() - 1; }
  /// Number of edge ids (parallel edges included).
  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }
  /// Row of `v` (unchecked: the BFS and the router's walk call this per
  /// step, always with v < vertex_count()).
  [[nodiscard]] std::span<const HopStep> row(Vertex v) const {
    return {steps_.data() + offsets_[v], steps_.data() + offsets_[v + 1]};
  }
  /// The edge joining `u` (< vertex_count) and `v`, or kNoEdge.
  [[nodiscard]] EdgeId edge_between(Vertex u, Vertex v) const;

 private:
  std::vector<std::uint32_t> offsets_ = {0};  ///< row v is [offsets_[v], offsets_[v + 1])
  std::vector<HopStep> steps_;
  std::size_t edge_count_ = 0;
};

/// BFS from `source`, writing each vertex's hop level into `levels`
/// (resized to the vertex count).
void hop_levels_into(const HopGraph& g, Vertex source, std::vector<HopLevel>& levels);

/// What hop_levels_without removes from a graph; any part may be empty.
struct HopCut {
  /// Removed vertices, in any order; duplicates and unreached ones are fine.
  std::span<const Vertex> blocked;
  /// Per edge id, nonzero when the edge is removed; empty when none is.
  std::span<const std::uint8_t> removed_edges;
  /// Both endpoints of every removed edge, in any order: the repair starts
  /// from them.
  std::span<const Vertex> removed_ends;
};

/// hop_levels_without's working buffers. Every call overwrites them before
/// reading them, so one scratch serves any sequence of repairs on any
/// graph, and once its buffers have grown a repair allocates nothing.
struct HopRepairScratch {
  /// A vertex queued at a hop level.
  struct LevelItem {
    HopLevel level;
    Vertex vertex;
  };
  std::vector<bool> queued;
  std::vector<LevelItem> seeds;
  std::vector<Vertex> affected;
  // The level-ordered sweep's sorted seeds and frontiers.
  std::vector<Vertex> sorted;
  std::vector<Vertex> frontier;
  std::vector<Vertex> next;
};

/// The hop levels of `g` minus `cut`, repaired from `base` =
/// hop_levels_into(g, root): `levels` (resized to the vertex count) equals
/// the BFS of g minus the cut from the same root. Blocked vertices get no
/// level; a blocked root leaves every vertex unreached.
///
/// Removing vertices and edges only lengthens paths, so a vertex keeps its
/// level unless every tight parent is blocked, joined to it by a removed
/// edge, or itself loses its level. The repair finds those *affected*
/// vertices by a sweep in ascending base level seeded at the blocked
/// vertices' tight children and at the removed edges' endpoints, then
/// re-levels only them with a bucket BFS over the kept edges, seeded at
/// each one's best unaffected, unblocked neighbor. Cost is the level copy
/// plus the degrees of the vertices it visits, O(n + m) at worst. Throws
/// (as the BFS would) when a repaired level would not fit a HopLevel.
void hop_levels_without(const HopGraph& g, std::span<const HopLevel> base, const HopCut& cut,
                        std::vector<HopLevel>& levels, HopRepairScratch& scratch);

/// Number of tight parents of `v`: its neighbors one level closer to the
/// root, over edges not in `removed_edges` (per edge id, nonzero = removed;
/// empty = none). Zero for the root and for unreached vertices.
[[nodiscard]] std::size_t tight_parent_count(const HopGraph& g, std::span<const HopLevel> levels,
                                             Vertex v,
                                             std::span<const std::uint8_t> removed_edges = {});

/// The `index`-th tight parent of `v` in ascending vertex order
/// (index < tight_parent_count), with the edge that joins them.
[[nodiscard]] HopStep tight_parent(const HopGraph& g, std::span<const HopLevel> levels, Vertex v,
                                   std::size_t index,
                                   std::span<const std::uint8_t> removed_edges = {});

/// Number of distinct shortest paths from the root to `target` over edges
/// not in `removed_edges`, capped at `cap` — the count the oracle tree's
/// path_count gives on the same graph. Zero when `target` is unreached.
[[nodiscard]] std::size_t hop_path_count(const HopGraph& g, std::span<const HopLevel> levels,
                                         Vertex target,
                                         std::span<const std::uint8_t> removed_edges = {},
                                         std::size_t cap = 1'000'000);

}  // namespace sheriff::graph

#pragma once
// Weighted graph with adjacency lists. This is the representation behind
// both of the paper's graphs: the wired network graph G_r (racks +
// switches) and the rack-level cost graph T that VMMIGRATION reduces to a
// k-median instance on (Sec. V-A).

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace sheriff::graph {

using Vertex = std::uint32_t;

inline constexpr double kInfiniteDistance = std::numeric_limits<double>::infinity();

struct Edge {
  Vertex to = 0;
  double weight = 0.0;
};

/// Undirected weighted multigraph (parallel edges allowed — the rack graph
/// T is explicitly a multigraph in the paper before Floyd–Warshall
/// collapses it to a complete simple graph T').
class Graph {
 public:
  explicit Graph(std::size_t vertex_count = 0);

  [[nodiscard]] std::size_t vertex_count() const noexcept { return adjacency_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

  /// Adds an undirected edge u—v with the given non-negative weight.
  void add_edge(Vertex u, Vertex v, double weight);

  [[nodiscard]] std::span<const Edge> neighbors(Vertex v) const;

  /// True if some edge u—v exists.
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;

  /// Smallest weight among parallel edges u—v; infinity if none.
  [[nodiscard]] double min_edge_weight(Vertex u, Vertex v) const;

  /// Sum of all edge weights (each undirected edge counted once).
  [[nodiscard]] double total_weight() const noexcept { return total_weight_; }

  /// Number of connected components (weights ignored).
  [[nodiscard]] std::size_t component_count() const;

 private:
  std::vector<std::vector<Edge>> adjacency_;
  std::size_t edge_count_ = 0;
  double total_weight_ = 0.0;
};

/// Dense symmetric distance matrix, the output shape of all-pairs shortest
/// paths and the input shape of the k-median solvers.
class DistanceMatrix {
 public:
  explicit DistanceMatrix(std::size_t n, double fill = kInfiniteDistance);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] double at(std::size_t i, std::size_t j) const { return data_[i * n_ + j]; }
  void set(std::size_t i, std::size_t j, double d) { data_[i * n_ + j] = d; }
  /// Sets both (i,j) and (j,i).
  void set_symmetric(std::size_t i, std::size_t j, double d);

  /// True when every off-diagonal entry is finite.
  [[nodiscard]] bool all_finite() const noexcept;

  /// Maximum violation of the triangle inequality (0 for a metric).
  [[nodiscard]] double max_triangle_violation() const noexcept;

 private:
  std::size_t n_;
  std::vector<double> data_;
};

}  // namespace sheriff::graph

#include "graph/graph.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace sheriff::graph {

Graph::Graph(std::size_t vertex_count) : adjacency_(vertex_count) {}

void Graph::add_edge(Vertex u, Vertex v, double weight) {
  SHERIFF_REQUIRE(u < adjacency_.size() && v < adjacency_.size(), "edge endpoint out of range");
  SHERIFF_REQUIRE(weight >= 0.0, "edge weight must be non-negative");
  SHERIFF_REQUIRE(u != v, "self loops are not allowed");
  adjacency_[u].push_back({v, weight});
  adjacency_[v].push_back({u, weight});
  ++edge_count_;
  total_weight_ += weight;
}

std::span<const Edge> Graph::neighbors(Vertex v) const {
  SHERIFF_REQUIRE(v < adjacency_.size(), "vertex out of range");
  return adjacency_[v];
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  SHERIFF_REQUIRE(u < adjacency_.size() && v < adjacency_.size(), "vertex out of range");
  const auto& edges = adjacency_[u];
  return std::any_of(edges.begin(), edges.end(), [v](const Edge& e) { return e.to == v; });
}

double Graph::min_edge_weight(Vertex u, Vertex v) const {
  SHERIFF_REQUIRE(u < adjacency_.size() && v < adjacency_.size(), "vertex out of range");
  double best = kInfiniteDistance;
  for (const Edge& e : adjacency_[u]) {
    if (e.to == v) best = std::min(best, e.weight);
  }
  return best;
}

std::size_t Graph::component_count() const {
  std::vector<bool> seen(adjacency_.size(), false);
  std::size_t components = 0;
  std::vector<Vertex> stack;
  for (Vertex start = 0; start < adjacency_.size(); ++start) {
    if (seen[start]) continue;
    ++components;
    stack.push_back(start);
    seen[start] = true;
    while (!stack.empty()) {
      const Vertex v = stack.back();
      stack.pop_back();
      for (const Edge& e : adjacency_[v]) {
        if (!seen[e.to]) {
          seen[e.to] = true;
          stack.push_back(e.to);
        }
      }
    }
  }
  return components;
}

DistanceMatrix::DistanceMatrix(std::size_t n, double fill) : n_(n), data_(n * n, fill) {
  for (std::size_t i = 0; i < n_; ++i) set(i, i, 0.0);
}

void DistanceMatrix::set_symmetric(std::size_t i, std::size_t j, double d) {
  set(i, j, d);
  set(j, i, d);
}

bool DistanceMatrix::all_finite() const noexcept {
  for (double d : data_) {
    if (d == kInfiniteDistance) return false;
  }
  return true;
}

double DistanceMatrix::max_triangle_violation() const noexcept {
  double worst = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      for (std::size_t k = 0; k < n_; ++k) {
        const double direct = at(i, j);
        const double via = at(i, k) + at(k, j);
        if (direct > via) worst = std::max(worst, direct - via);
      }
    }
  }
  return worst;
}

}  // namespace sheriff::graph

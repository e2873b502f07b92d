#pragma once
// Minimum-weight bipartite matching (Hungarian / Kuhn–Munkres with
// potentials, O(n^2 m)). Alg. 3 of the paper ("MinimalWeightedMatching")
// pairs candidate VMs with possible destination slots at minimum total
// migration cost; the centralized baseline solves one global instance.

#include <cstddef>
#include <vector>

namespace sheriff::graph {

/// Dense row-major cost matrix; rows = left side (VMs to migrate),
/// columns = right side (destination slots). An entry set to
/// `AssignmentProblem::kForbidden` means the pairing is not allowed.
class AssignmentProblem {
 public:
  static constexpr double kForbidden = 1e30;

  AssignmentProblem(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] double cost(std::size_t r, std::size_t c) const { return cost_[r * cols_ + c]; }
  void set_cost(std::size_t r, std::size_t c, double cost);
  void forbid(std::size_t r, std::size_t c) { set_cost(r, c, kForbidden); }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> cost_;
};

struct AssignmentResult {
  /// column assigned to each row; kUnassigned when a row has no feasible
  /// partner (every column forbidden or taken by cheaper rows).
  std::vector<std::size_t> assignment;
  double total_cost = 0.0;          ///< sum over matched rows only
  std::size_t matched_count = 0;

  static constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);
};

/// Solves min-cost assignment. Requires rows() <= cols(); callers with more
/// VMs than slots split the instance (the protocol retries next round).
AssignmentResult solve_assignment(const AssignmentProblem& problem);

}  // namespace sheriff::graph

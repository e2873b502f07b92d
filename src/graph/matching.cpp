#include "graph/matching.hpp"

#include <algorithm>
#include <limits>

#include "common/require.hpp"

namespace sheriff::graph {

AssignmentProblem::AssignmentProblem(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), cost_(rows * cols, kForbidden) {
  SHERIFF_REQUIRE(rows > 0 && cols > 0, "assignment problem must be non-empty");
}

void AssignmentProblem::set_cost(std::size_t r, std::size_t c, double cost) {
  SHERIFF_REQUIRE(r < rows_ && c < cols_, "assignment index out of range");
  SHERIFF_REQUIRE(cost >= 0.0, "assignment costs must be non-negative");
  cost_[r * cols_ + c] = std::min(cost, kForbidden);
}

namespace {

/// Strips matches that only exist through kForbidden padding entries.
void finalize(const AssignmentProblem& problem, AssignmentResult& result) {
  result.total_cost = 0.0;
  result.matched_count = 0;
  for (std::size_t r = 0; r < problem.rows(); ++r) {
    auto& col = result.assignment[r];
    if (col == AssignmentResult::kUnassigned) continue;
    if (problem.cost(r, col) >= AssignmentProblem::kForbidden) {
      col = AssignmentResult::kUnassigned;
      continue;
    }
    result.total_cost += problem.cost(r, col);
    ++result.matched_count;
  }
}

}  // namespace

AssignmentResult solve_assignment(const AssignmentProblem& problem) {
  const std::size_t n = problem.rows();
  const std::size_t m = problem.cols();
  SHERIFF_REQUIRE(n <= m, "solve_assignment requires rows <= cols");

  // Classic Hungarian with potentials, 1-indexed internal arrays.
  std::vector<double> u(n + 1, 0.0);
  std::vector<double> v(m + 1, 0.0);
  std::vector<std::size_t> match(m + 1, 0);  // match[col] = row occupying it
  std::vector<std::size_t> way(m + 1, 0);

  for (std::size_t i = 1; i <= n; ++i) {
    match[0] = i;
    std::size_t j0 = 0;
    std::vector<double> minv(m + 1, std::numeric_limits<double>::infinity());
    std::vector<bool> used(m + 1, false);
    do {
      used[j0] = true;
      const std::size_t i0 = match[j0];
      double delta = std::numeric_limits<double>::infinity();
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const double cur = problem.cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[match[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (match[j0] != 0);
    // Augment along the alternating path.
    do {
      const std::size_t j1 = way[j0];
      match[j0] = match[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult result;
  result.assignment.assign(n, AssignmentResult::kUnassigned);
  for (std::size_t j = 1; j <= m; ++j) {
    if (match[j] != 0) result.assignment[match[j] - 1] = j - 1;
  }
  finalize(problem, result);
  return result;
}

}  // namespace sheriff::graph

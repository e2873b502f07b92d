#include "oracles/matching.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/require.hpp"

namespace sheriff::oracle {

using graph::AssignmentProblem;
using graph::AssignmentResult;

AssignmentResult solve_assignment_brute_force(const AssignmentProblem& problem) {
  const std::size_t n = problem.rows();
  const std::size_t m = problem.cols();
  SHERIFF_REQUIRE(n <= m, "brute force requires rows <= cols");
  SHERIFF_REQUIRE(m <= 9, "brute force limited to tiny instances");

  std::vector<std::size_t> cols(m);
  std::iota(cols.begin(), cols.end(), 0);

  double best = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_assign;
  do {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) total += problem.cost(r, cols[r]);
    if (total < best) {
      best = total;
      best_assign.assign(cols.begin(), cols.begin() + static_cast<std::ptrdiff_t>(n));
    }
  } while (std::next_permutation(cols.begin(), cols.end()));

  AssignmentResult result;
  result.assignment = best_assign;
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t& col = result.assignment[r];
    if (problem.cost(r, col) >= AssignmentProblem::kForbidden) {
      col = AssignmentResult::kUnassigned;
      continue;
    }
    result.total_cost += problem.cost(r, col);
    ++result.matched_count;
  }
  return result;
}

}  // namespace sheriff::oracle

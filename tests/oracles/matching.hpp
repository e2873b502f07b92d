#pragma once
// Brute-force minimum-weight assignment: every permutation of the columns,
// the cross-check of graph::solve_assignment's Hungarian solver.

#include "graph/matching.hpp"

namespace sheriff::oracle {

/// Optimum by permutation enumeration (rows <= cols <= 9). Matches using a
/// kForbidden entry count as unassigned, as in solve_assignment.
graph::AssignmentResult solve_assignment_brute_force(const graph::AssignmentProblem& problem);

}  // namespace sheriff::oracle

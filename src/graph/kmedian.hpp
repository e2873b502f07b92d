#pragma once
// k-median instances and solutions. Sec. V-A reduces VMMIGRATION to
// k-median on the complete rack metric T'; Alg. 5 is the Arya et al.
// local search with swap size p, whose approximation ratio is 3 + 2/p.
// The engine runs it as the delta-evaluated graph::fast_kmedian
// (kmedian_fast.hpp). The reference combinational scan it replays and the
// exhaustive optimum the ratio experiments divide by are test oracles
// (tests/oracles/kmedian.hpp).

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace sheriff::graph {

struct KMedianInstance {
  const DistanceMatrix* distance = nullptr;  ///< metric over all points
  std::vector<std::size_t> clients;          ///< demand points (source ToRs)
  std::vector<std::size_t> facilities;       ///< allowed medians (all ToRs)
  std::size_t k = 1;                         ///< number of medians to open
  /// Safety bound on candidate evaluations (0 = unlimited). Local search on
  /// a pathological metric can take a long improvement chain; once the
  /// budget is spent the solver returns its current (still feasible, just
  /// not necessarily locally optimal) solution and flags the cap.
  std::size_t max_evaluations = 0;
};

struct KMedianSolution {
  std::vector<std::size_t> medians;   ///< chosen facility ids, size k
  double cost = 0.0;                  ///< sum over clients of distance to nearest median
  std::size_t evaluations = 0;        ///< candidate solutions examined (search-space metric)
  bool hit_evaluation_cap = false;    ///< stopped early on KMedianInstance::max_evaluations
};

namespace detail {

/// Rejects an instance without a matrix, with k outside [1, |facilities|]
/// or with a point outside the matrix. Shared by every solver.
void validate(const KMedianInstance& instance);

}  // namespace detail

}  // namespace sheriff::graph

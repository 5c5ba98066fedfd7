// Greedy weighted set-cover approximation: repeatedly picks the column with the
// best weight-per-newly-covered-row ratio. Classic ln(n)-approximation; used
// as the initial upper bound for the exact branch-and-bound and as the
// approximate baseline in the UCP benchmark.
#pragma once

#include "ucp/cover.hpp"

namespace cdcs::ucp {

/// Returns a feasible cover, or an empty solution with cost = +infinity when
/// the problem itself is infeasible. `optimal` is always false.
CoverSolution solve_greedy(const CoverProblem& problem);

}  // namespace cdcs::ucp

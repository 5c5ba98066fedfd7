// Exact dense dynamic program for weighted UCP with few rows.
//
// Covering instances produced by communication synthesis have one row per
// constraint arc -- typically well under 24 -- while the column count can
// reach the thousands (every surviving merging). Branch-and-bound degrades
// badly there (hundreds of near-equal columns per row explode the branching
// factor), but the row-subset state space is tiny: over masks m of still-
// uncovered rows,
//
//     dp[m] = min over columns c covering the lowest row of m of
//             dp[m \ rows(c)] + weight(c)
//
// is evaluated top-down from the full mask, so only the states the answer
// reads are filled: at most 2^R states times avg-columns-per-row work in
// O(2^R) space, and on synthesis covers usually a small fraction of them
// (the cheapest-first scan stops at the first column no cheaper than the
// best so far).
// solve_exact() dispatches here automatically below the row threshold (see
// BnbOptions::dense_dp_max_rows).
#pragma once

#include <cstddef>
#include <limits>

#include "support/deadline.hpp"
#include "ucp/cover.hpp"

namespace cdcs::support {
class FaultInjector;
}  // namespace cdcs::support

namespace cdcs::ucp {

/// Hard cap on rows (memory: a 2^R table of doubles plus one of 32-bit
/// column ids, 12 * 2^R bytes). solve_dp refuses above it.
inline constexpr std::size_t kDenseDpMaxRows = 24;

/// Exact minimum-weight cover via subset DP. Throws std::invalid_argument
/// when num_rows exceeds kDenseDpMaxRows. Infeasible -> cost = +infinity,
/// empty chosen, optimal = false. `nodes_explored` counts the states the DP
/// evaluated (at most 2^R - 1; the empty mask is the base case).
/// The deadline is polled every 4096 evaluated states; on expiry the DP
/// abandons the table and returns an empty solution flagged
/// `deadline_expired` (the caller falls back to the greedy incumbent).
/// `max_states` is the DP's share of the caller's node budget: a table
/// larger than it is refused up front (stop = kNodeBudget, zero work done)
/// rather than half-filled -- a partial DP table yields no incumbent, so
/// there is nothing useful to salvage mid-run. `injector` (borrowed, may be
/// null) is consulted at the "ucp.frontier" site once at the start and at
/// every in-table deadline poll; a firing abandons the table with
/// stop = kAborted.
CoverSolution solve_dp(
    const CoverProblem& problem, const support::Deadline& deadline = {},
    std::size_t max_states = std::numeric_limits<std::size_t>::max(),
    support::FaultInjector* injector = nullptr);

}  // namespace cdcs::ucp

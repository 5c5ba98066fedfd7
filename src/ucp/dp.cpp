#include "ucp/dp.hpp"

#include <algorithm>
#include <cmath>
#include <bit>
#include <limits>
#include <stdexcept>
#include <vector>

#include "support/fault.hpp"

namespace cdcs::ucp {

CoverSolution solve_dp(const CoverProblem& problem,
                       const support::Deadline& deadline,
                       std::size_t max_states,
                       support::FaultInjector* injector) {
  const std::size_t rows = problem.num_rows();
  if (rows > kDenseDpMaxRows) {
    throw std::invalid_argument("solve_dp: too many rows for the dense DP");
  }
  CoverSolution sol;
  if (rows == 0) {
    sol.optimal = true;
    return sol;
  }
  // The table is all-or-nothing: a half-filled DP yields no incumbent, so a
  // budget that cannot fit every state refuses up front with zero work.
  if ((std::size_t{1} << rows) > max_states) {
    sol.cost = std::numeric_limits<double>::infinity();
    sol.stop = CoverStop::kNodeBudget;
    return sol;
  }
  if (injector != nullptr && injector->should_fail(support::fault_sites::kUcpFrontier)) {
    sol.cost = std::numeric_limits<double>::infinity();
    sol.stop = CoverStop::kAborted;
    return sol;
  }

  // Column row-masks, one per column (columns with equal masks are kept;
  // the per-row lists below visit them cheapest-first).
  const std::size_t num_cols = problem.num_columns();
  std::vector<std::uint32_t> col_mask(num_cols, 0);
  for (std::size_t j = 0; j < num_cols; ++j) {
    problem.column(j).rows.for_each([&](std::size_t r) {
      col_mask[j] |= (std::uint32_t{1} << r);
    });
  }
  // Per-row: columns covering it, cheapest-first (better pruning locality).
  std::vector<std::vector<std::uint32_t>> cols_of_row(rows);
  {
    std::vector<std::uint32_t> order(num_cols);
    for (std::size_t j = 0; j < num_cols; ++j) order[j] = j;
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return problem.column(a).weight < problem.column(b).weight;
    });
    for (std::uint32_t j : order) {
      for (std::size_t r = 0; r < rows; ++r) {
        if (col_mask[j] & (std::uint32_t{1} << r)) {
          cols_of_row[r].push_back(j);
        }
      }
    }
  }

  // Top-down evaluation of the recurrence from the full mask: only states
  // the answer reads are filled. A state's value is a pure function of the
  // state, and each state reads its sub-states in the same order with the
  // same arithmetic as a bottom-up sweep would, so dp/choice are identical
  // to the sweep's at every evaluated state. NaN marks "not yet evaluated"
  // (feasible states hold finite values, infeasible ones +inf; this relies
  // on the library not being built with finite-only math).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
  const std::size_t full = (std::size_t{1} << rows) - 1;
  std::vector<double> dp(full + 1, kUnset);
  std::vector<std::uint32_t> choice(full + 1, UINT32_MAX);
  dp[0] = 0.0;

  // Explicit stack of suspended evaluations: each frame resumes its scan of
  // the lowest uncovered row's columns at `next` once the sub-state it is
  // waiting on is filled. A sub-state has strictly fewer rows, so the stack
  // never holds more than `rows` frames.
  struct Frame {
    std::size_t mask;
    std::size_t next;
    double best;
    std::uint32_t best_col;
  };
  std::vector<Frame> stack;
  stack.reserve(rows);
  stack.push_back({full, 0, kInf, UINT32_MAX});
  std::size_t evaluated = 0;
  while (!stack.empty()) {
    Frame& f = stack.back();
    // The lowest uncovered row must be covered.
    const std::vector<std::uint32_t>& cols =
        cols_of_row[static_cast<std::size_t>(std::countr_zero(f.mask))];
    std::size_t pending = 0;
    for (; f.next < cols.size(); ++f.next) {
      const std::uint32_t j = cols[f.next];
      const double w = problem.column(j).weight;
      if (w >= f.best) break;  // cheapest-first order: no improvement possible
      const std::size_t sub = f.mask & ~static_cast<std::size_t>(col_mask[j]);
      const double rest = dp[sub];
      if (std::isnan(rest)) {
        pending = sub;
        break;
      }
      if (rest + w < f.best) {
        f.best = rest + w;
        f.best_col = j;
      }
    }
    if (pending != 0) {
      stack.push_back({pending, 0, kInf, UINT32_MAX});
      continue;
    }
    dp[f.mask] = f.best;
    choice[f.mask] = f.best_col;
    stack.pop_back();
    if ((++evaluated & 0xFFF) == 0) {
      if (deadline.expired()) {
        sol.cost = kInf;
        sol.nodes_explored = evaluated;
        sol.deadline_expired = true;
        sol.stop = CoverStop::kDeadline;
        return sol;
      }
      if (injector != nullptr && injector->should_fail(support::fault_sites::kUcpFrontier)) {
        sol.cost = kInf;
        sol.nodes_explored = evaluated;
        sol.stop = CoverStop::kAborted;
        return sol;
      }
    }
  }

  sol.nodes_explored = evaluated;
  if (!std::isfinite(dp[full])) {
    sol.cost = kInf;
    return sol;
  }
  sol.cost = dp[full];
  sol.optimal = true;
  // Reconstruct along evaluated states; a column may appear once (its mask
  // strictly shrinks m).
  std::size_t m = full;
  while (m != 0) {
    const std::uint32_t j = choice[m];
    sol.chosen.push_back(j);
    m &= ~static_cast<std::size_t>(col_mask[j]);
  }
  std::sort(sol.chosen.begin(), sol.chosen.end());
  return sol;
}

}  // namespace cdcs::ucp

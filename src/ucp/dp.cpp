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

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t full = (std::size_t{1} << rows) - 1;
  std::vector<double> dp(full + 1, kInf);
  std::vector<std::uint32_t> choice(full + 1, UINT32_MAX);
  dp[0] = 0.0;

  for (std::size_t m = 1; m <= full; ++m) {
    if ((m & 0xFFF) == 0) {
      if (deadline.expired()) {
        sol.cost = kInf;
        sol.nodes_explored = m;
        sol.deadline_expired = true;
        sol.stop = CoverStop::kDeadline;
        return sol;
      }
      if (injector != nullptr && injector->should_fail(support::fault_sites::kUcpFrontier)) {
        sol.cost = kInf;
        sol.nodes_explored = m;
        sol.stop = CoverStop::kAborted;
        return sol;
      }
    }
    const int r = std::countr_zero(m);  // lowest uncovered row must be covered
    double best = kInf;
    std::uint32_t best_col = UINT32_MAX;
    for (std::uint32_t j : cols_of_row[static_cast<std::size_t>(r)]) {
      const double w = problem.column(j).weight;
      if (w >= best) break;  // cheapest-first order: no improvement possible
      const double rest = dp[m & ~static_cast<std::size_t>(col_mask[j])];
      if (rest + w < best) {
        best = rest + w;
        best_col = j;
      }
    }
    dp[m] = best;
    choice[m] = best_col;
  }

  sol.nodes_explored = full + 1;
  if (!std::isfinite(dp[full])) {
    sol.cost = kInf;
    return sol;
  }
  sol.cost = dp[full];
  sol.optimal = true;
  // Reconstruct; a column may appear once (its mask strictly shrinks m).
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

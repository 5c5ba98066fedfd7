// Named cover-solver backends.
//
// solve_exact (ucp/bnb.hpp) has one automatic dispatch -- the dense subset
// DP at or below the row cutoff, depth-first branch-and-bound with the
// configured bounds above it -- and four registered backends a caller can
// force by name (BnbOptions::backend):
//
//     dense_dp  bnb_v2  parallel_bnb  dfs_v1
//
//   dense_dp      the exact 2^rows subset DP (ucp/dp.hpp); <= kDenseDpMaxRows
//   bnb_v2        serial best-first branch-and-bound with the caller's bounds
//   parallel_bnb  round-synchronous parallel best-first (ucp/parallel_bnb.hpp),
//                 bit-identical at every thread count
//   dfs_v1        depth-first with the v2 bounds off: the pinned v1 tree
//
// Each backend fixes its own engine and node order; the other BnbOptions
// fields (budgets, bounds, warm starts, fault injector) apply as set.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ucp/bnb_options.hpp"
#include "ucp/cover.hpp"

namespace cdcs::ucp {

/// One registered backend. Stateless and immutable after registration: the
/// registry hands out const pointers that many threads may use at once.
class CoverSolver {
 public:
  virtual ~CoverSolver() = default;

  /// Registry key ("dense_dp", "bnb_v2", "parallel_bnb", "dfs_v1").
  virtual std::string_view name() const = 0;

  /// False when this backend structurally cannot solve the instance (the
  /// dense DP above kDenseDpMaxRows rows); selecting it then throws.
  virtual bool applicable(const CoverProblem& problem) const {
    (void)problem;
    return true;
  }

  /// Solves the instance. `options.backend` is ignored (the caller already
  /// routed); every other BnbOptions field is honoured where it applies
  /// (deadline, max_nodes, fault_injector, warm starts, frontier cap).
  /// The returned CoverSolution carries the shared contract: cost/chosen,
  /// `optimal`, `lower_bound`, `stop`, `nodes_explored`,
  /// `explored_fingerprint` where the engine hashes one.
  virtual CoverSolution solve(const CoverProblem& problem,
                              const BnbOptions& options) const = 0;
};

/// All registered backends, in fixed order. The roster is compiled in;
/// there is no dynamic registration.
const std::vector<const CoverSolver*>& registered_cover_solvers();

/// Registry lookup; null for unknown names.
const CoverSolver* find_cover_solver(std::string_view name);

/// Registered names in registry order, for CLI validation and --help.
std::vector<std::string> registered_cover_solver_names();

/// "dense_dp, bnb_v2, ..." -- the names joined for diagnostics.
std::string registered_cover_solver_list();

/// Matrix density: fraction of nonzero entries (0 for degenerate shapes).
double cover_density(const CoverProblem& problem);

}  // namespace cdcs::ucp

#include "ucp/cover_solver.hpp"

#include "ucp/bnb.hpp"
#include "ucp/dp.hpp"

namespace cdcs::ucp {
namespace {

using detail::SearchEngine;

/// Every backend runs one of the engines behind solve_exact's automatic
/// dispatch (detail::solve_with), so a backend and the dispatch share the
/// search code, the degraded-exit bound, and the stop reasons.

class DenseDpSolver final : public CoverSolver {
 public:
  std::string_view name() const override { return "dense_dp"; }
  bool applicable(const CoverProblem& problem) const override {
    return problem.num_rows() <= kDenseDpMaxRows;
  }
  CoverSolution solve(const CoverProblem& problem,
                      const BnbOptions& options) const override {
    return detail::solve_with(problem, options, SearchEngine::kDenseDp);
  }
};

class BnbV2Solver final : public CoverSolver {
 public:
  std::string_view name() const override { return "bnb_v2"; }
  CoverSolution solve(const CoverProblem& problem,
                      const BnbOptions& options) const override {
    // Serial best-first with whatever bound configuration the caller set
    // (Lagrangian + reduced-cost fixing on by default).
    return detail::solve_with(problem, options, SearchEngine::kBestFirst);
  }
};

class ParallelBnbSolver final : public CoverSolver {
 public:
  std::string_view name() const override { return "parallel_bnb"; }
  CoverSolution solve(const CoverProblem& problem,
                      const BnbOptions& options) const override {
    return detail::solve_with(problem, options, SearchEngine::kRounds);
  }
};

class DfsV1Solver final : public CoverSolver {
 public:
  std::string_view name() const override { return "dfs_v1"; }
  CoverSolution solve(const CoverProblem& problem,
                      const BnbOptions& options) const override {
    // The pinned v1 reference configuration (tests/test_ucp.cpp
    // legacy_options): DFS with the v2 bound machinery off.
    BnbOptions forced = options;
    forced.use_lagrangian_bound = false;
    forced.use_reduced_cost_fixing = false;
    return detail::solve_with(problem, forced, SearchEngine::kDepthFirst);
  }
};

}  // namespace

const std::vector<const CoverSolver*>& registered_cover_solvers() {
  // The dense DP first (unbeatable when the table fits), then serial
  // best-first, then the parallel engine, with the v1 reference tree last
  // (it exists for reproducibility, not speed).
  static const DenseDpSolver dense_dp;
  static const BnbV2Solver bnb_v2;
  static const ParallelBnbSolver parallel_bnb;
  static const DfsV1Solver dfs_v1;
  static const std::vector<const CoverSolver*> all = {&dense_dp, &bnb_v2,
                                                      &parallel_bnb, &dfs_v1};
  return all;
}

const CoverSolver* find_cover_solver(std::string_view name) {
  for (const CoverSolver* solver : registered_cover_solvers()) {
    if (solver->name() == name) return solver;
  }
  return nullptr;
}

std::vector<std::string> registered_cover_solver_names() {
  std::vector<std::string> names;
  for (const CoverSolver* solver : registered_cover_solvers()) {
    names.emplace_back(solver->name());
  }
  return names;
}

std::string registered_cover_solver_list() {
  std::string joined;
  for (const CoverSolver* solver : registered_cover_solvers()) {
    if (!joined.empty()) joined += ", ";
    joined += solver->name();
  }
  return joined;
}

double cover_density(const CoverProblem& problem) {
  const std::size_t rows = problem.num_rows();
  const std::size_t cols = problem.num_columns();
  if (rows == 0 || cols == 0) return 0.0;
  std::size_t ones = 0;
  for (const Column& c : problem.columns()) ones += c.rows.count();
  return static_cast<double>(ones) /
         (static_cast<double>(rows) * static_cast<double>(cols));
}

}  // namespace cdcs::ucp

// Named cover-solver backends (ucp/cover_solver.hpp): registry surface,
// per-backend cost equality and byte-identity with the automatic dispatch
// where they share an engine, and the CoverStop contract across every
// backend.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "support/deadline.hpp"
#include "support/fault.hpp"
#include "ucp/bnb.hpp"
#include "ucp/cover_solver.hpp"

namespace {

using namespace cdcs;
using ucp::BnbOptions;
using ucp::CoverProblem;
using ucp::CoverSolution;
using ucp::CoverStop;

/// Same generator as tests/test_ucp.cpp and bench_perf_summary.cpp: seeded
/// random matrix plus one weight-12 singleton per row (always feasible).
CoverProblem corpus_problem(int rows, int cols, double density,
                            unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> weight(0.5, 10.0);
  CoverProblem p(rows);
  for (int j = 0; j < cols; ++j) {
    std::vector<std::size_t> covered;
    for (int r = 0; r < rows; ++r) {
      if (unit(rng) < density) covered.push_back(r);
    }
    if (covered.empty()) covered.push_back(j % rows);
    p.add_column(covered, weight(rng));
  }
  for (int r = 0; r < rows; ++r) {
    p.add_column({static_cast<std::size_t>(r)}, 12.0);
  }
  return p;
}

/// The v1 reference configuration (tests/test_ucp.cpp legacy_options).
BnbOptions legacy_options() {
  BnbOptions o;
  o.dense_dp_max_rows = 0;
  o.use_lagrangian_bound = false;
  o.use_reduced_cost_fixing = false;
  return o;
}

BnbOptions backend_options(std::string_view name) {
  BnbOptions o;
  o.backend = std::string(name);
  return o;
}

TEST(CoverSolverRegistry, FixedPriorityOrder) {
  const std::vector<std::string> names = ucp::registered_cover_solver_names();
  const std::vector<std::string> expected = {"dense_dp", "bnb_v2",
                                             "parallel_bnb", "dfs_v1"};
  EXPECT_EQ(names, expected);
  for (const std::string& n : names) {
    const ucp::CoverSolver* s = ucp::find_cover_solver(n);
    ASSERT_NE(s, nullptr) << n;
    EXPECT_EQ(s->name(), n);
  }
  EXPECT_EQ(ucp::find_cover_solver("no_such_backend"), nullptr);
  EXPECT_EQ(ucp::registered_cover_solver_list(),
            "dense_dp, bnb_v2, parallel_bnb, dfs_v1");
}

TEST(CoverSolverRegistry, UnknownOrInapplicableBackendThrows) {
  const CoverProblem small = corpus_problem(10, 30, 0.30, 101);
  for (const char* name : {"no_such_backend", "portfolio", "heuristic",
                           "hitting_set"}) {
    EXPECT_THROW(ucp::solve_exact(small, backend_options(name)),
                 std::invalid_argument)
        << name;
  }
  // dense_dp is structurally limited to kDenseDpMaxRows rows.
  const CoverProblem wide = corpus_problem(30, 90, 0.20, 131);
  EXPECT_FALSE(ucp::find_cover_solver("dense_dp")->applicable(wide));
  EXPECT_THROW(ucp::solve_exact(wide, backend_options("dense_dp")),
               std::invalid_argument);
}

TEST(CoverSolverRegistry, SolutionCarriesInstanceFeatures) {
  const CoverProblem p = corpus_problem(10, 30, 0.30, 101);
  const CoverSolution s = ucp::solve_exact(p, backend_options("bnb_v2"));
  EXPECT_EQ(s.backend, "bnb_v2");
  EXPECT_EQ(s.rows, 10u);
  EXPECT_EQ(s.cols, 40u);  // 30 random columns + 10 singletons
  EXPECT_GT(s.density, 0.0);
  EXPECT_LE(s.density, 1.0);
  EXPECT_DOUBLE_EQ(s.density, ucp::cover_density(p));
}

// Every backend proves the same optimal cost on the corpus, and the dfs_v1
// backend reproduces the pinned v1 reference tree byte-for-byte.
TEST(CoverSolverMatrix, AllBackendsProveEqualCost) {
  const struct {
    int rows, cols;
    double density;
    std::size_t pinned_v1_nodes;
  } kCorpus[] = {
      {10, 30, 0.30, 7},
      {12, 200, 0.25, 33},
      {15, 60, 0.25, 98},
      {20, 100, 0.20, 123},
  };
  for (const auto& c : kCorpus) {
    const CoverProblem p =
        corpus_problem(c.rows, c.cols, c.density, 91 + c.rows);
    const CoverSolution reference = ucp::solve_exact(p, {});
    ASSERT_TRUE(reference.optimal);
    for (const ucp::CoverSolver* solver : ucp::registered_cover_solvers()) {
      if (!solver->applicable(p)) continue;
      const CoverSolution s =
          ucp::solve_exact(p, backend_options(solver->name()));
      EXPECT_TRUE(s.optimal) << solver->name();
      EXPECT_NEAR(s.cost, reference.cost, 1e-9)
          << solver->name() << " on " << c.rows << "x" << c.cols;
      EXPECT_DOUBLE_EQ(s.lower_bound, s.cost) << solver->name();
      EXPECT_TRUE(p.covers_all(s.chosen)) << solver->name();
      EXPECT_EQ(s.backend, solver->name());
    }
    // Pinned v1 reference tree, node-for-node through the registry.
    const CoverSolution v1 = ucp::solve_exact(p, backend_options("dfs_v1"));
    EXPECT_EQ(v1.nodes_explored, c.pinned_v1_nodes)
        << c.rows << "x" << c.cols;
  }
  // A row-less instance has the empty cover, identically through every
  // backend.
  const CoverProblem empty(0);
  for (const ucp::CoverSolver* solver : ucp::registered_cover_solvers()) {
    const CoverSolution s =
        ucp::solve_exact(empty, backend_options(solver->name()));
    EXPECT_TRUE(s.optimal) << solver->name();
    EXPECT_DOUBLE_EQ(s.cost, 0.0) << solver->name();
    EXPECT_TRUE(s.chosen.empty()) << solver->name();
    EXPECT_EQ(s.nodes_explored, 0u) << solver->name();
  }
}

// Where a backend runs the same engine as the automatic dispatch, naming it
// is byte-identical to not naming one: dfs_v1 for the v1 reference
// options, dense_dp at or below the row cutoff.
TEST(CoverSolverMatrix, BackendSelectionIsByteIdenticalToLegacyDispatch) {
  const CoverProblem p = corpus_problem(15, 60, 0.25, 106);

  const CoverSolution legacy = ucp::solve_exact(p, legacy_options());
  BnbOptions forced = legacy_options();
  forced.backend = "dfs_v1";
  const CoverSolution via_registry = ucp::solve_exact(p, forced);
  EXPECT_EQ(legacy.backend, "dfs_v1");  // auto dispatch labels after the fact
  EXPECT_EQ(via_registry.chosen, legacy.chosen);
  EXPECT_DOUBLE_EQ(via_registry.cost, legacy.cost);
  EXPECT_EQ(via_registry.nodes_explored, legacy.nodes_explored);

  const CoverSolution dp = ucp::solve_exact(p, {});
  const CoverSolution dp_named =
      ucp::solve_exact(p, backend_options("dense_dp"));
  EXPECT_EQ(dp.backend, "dense_dp");
  EXPECT_EQ(dp_named.chosen, dp.chosen);
  EXPECT_DOUBLE_EQ(dp_named.cost, dp.cost);
  EXPECT_EQ(dp_named.nodes_explored, dp.nodes_explored);
}

// Above the dense-DP cutoff the automatic dispatch runs DEPTH-FIRST with
// the v2 bounds and labels the solve "bnb_v2", while backend = "bnb_v2"
// runs BEST-FIRST: the same optimal cost through a different tree. Pins
// both trees, so the default path above the cutoff cannot move unnoticed.
TEST(CoverSolverMatrix, DefaultDispatchAboveTheCutoffIsDepthFirst) {
  const CoverProblem p = corpus_problem(24, 800, 0.15, 31);
  const CoverSolution automatic = ucp::solve_exact(p, {});
  const CoverSolution best_first =
      ucp::solve_exact(p, backend_options("bnb_v2"));
  ASSERT_TRUE(automatic.optimal);
  ASSERT_TRUE(best_first.optimal);
  EXPECT_EQ(automatic.backend, "bnb_v2");
  EXPECT_EQ(automatic.nodes_explored, 448u);
  EXPECT_EQ(best_first.nodes_explored, 639u);
  EXPECT_DOUBLE_EQ(automatic.cost, best_first.cost);
}

// The CoverStop contract across every backend: the same budget produces the
// same stop reason, a feasible incumbent, and an honest lower bound.
TEST(CoverStopContract, DeadlineStopsEveryBackend) {
  const CoverProblem p = corpus_problem(15, 60, 0.25, 106);
  const double optimum = ucp::solve_exact(p, {}).cost;
  for (const char* name : {"dense_dp", "bnb_v2", "parallel_bnb", "dfs_v1"}) {
    BnbOptions o = backend_options(name);
    o.deadline = support::Deadline::expire_after_checks(0);
    const CoverSolution s = ucp::solve_exact(p, o);
    EXPECT_FALSE(s.optimal) << name;
    EXPECT_EQ(s.stop, CoverStop::kDeadline) << name;
    EXPECT_TRUE(s.deadline_expired) << name;
    EXPECT_TRUE(p.covers_all(s.chosen)) << name;  // incumbent survives
    EXPECT_GT(s.lower_bound, 0.0) << name;
    EXPECT_LE(s.lower_bound, optimum + 1e-9) << name;
  }
}

TEST(CoverStopContract, NodeBudgetStopsEveryBackend) {
  const CoverProblem p = corpus_problem(15, 60, 0.25, 106);
  const double optimum = ucp::solve_exact(p, {}).cost;
  for (const char* name : {"dense_dp", "bnb_v2", "parallel_bnb", "dfs_v1"}) {
    BnbOptions o = backend_options(name);
    o.max_nodes = 1;
    const CoverSolution s = ucp::solve_exact(p, o);
    EXPECT_FALSE(s.optimal) << name;
    EXPECT_EQ(s.stop, CoverStop::kNodeBudget) << name;
    EXPECT_FALSE(s.deadline_expired) << name;
    EXPECT_TRUE(p.covers_all(s.chosen)) << name;
    EXPECT_GE(s.lower_bound, 0.0) << name;
    EXPECT_LE(s.lower_bound, optimum + 1e-9) << name;
  }
}

TEST(CoverStopContract, FrontierCapStopsFrontierBackends) {
  const CoverProblem p = corpus_problem(15, 60, 0.25, 106);
  const double optimum = ucp::solve_exact(p, {}).cost;
  // Only the frontier-carrying engines can hit the cap; dense_dp and the
  // recursive dfs_v1 have no frontier by construction.
  for (const char* name : {"bnb_v2", "parallel_bnb"}) {
    BnbOptions o = backend_options(name);
    o.best_first_max_frontier = 1;
    const CoverSolution s = ucp::solve_exact(p, o);
    EXPECT_FALSE(s.optimal) << name;
    EXPECT_EQ(s.stop, CoverStop::kFrontierCap) << name;
    EXPECT_TRUE(p.covers_all(s.chosen)) << name;
    EXPECT_LE(s.lower_bound, optimum + 1e-9) << name;
  }
}

TEST(CoverStopContract, InjectedFaultAbortsEveryBackend) {
  const CoverProblem p = corpus_problem(15, 60, 0.25, 106);
  for (const char* name : {"dense_dp", "bnb_v2", "parallel_bnb", "dfs_v1"}) {
    auto plan = support::FaultPlan::parse("ucp.frontier@1");
    ASSERT_TRUE(plan.ok());
    support::FaultInjector injector(*plan);
    BnbOptions o = backend_options(name);
    o.fault_injector = &injector;
    const CoverSolution s = ucp::solve_exact(p, o);
    EXPECT_FALSE(s.optimal) << name;
    EXPECT_EQ(s.stop, CoverStop::kAborted) << name;
  }
}

}  // namespace

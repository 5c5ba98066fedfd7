#include "ucp/bnb.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/fault.hpp"
#include "support/flight_recorder.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "ucp/bnb_core.hpp"
#include "ucp/cover_solver.hpp"
#include "ucp/dp.hpp"
#include "ucp/lagrangian.hpp"
#include "ucp/parallel_bnb.hpp"

namespace cdcs::ucp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using detail::FrontierNode;
using detail::NodeEvaluator;
using detail::SearchState;
using detail::frontier_after;

// The search itself is the classic include/exclude branch-and-bound; the
// reductions, bounds, and branching rules live in ucp/bnb_core.hpp
// (NodeEvaluator), shared verbatim with the parallel rounds engine
// (ucp/parallel_bnb.cpp) and running word-parallel over the
// CoverProblem::row_cover transpose bitsets:
//   * essential columns: popcount(row_cover(r) & available) with an early
//     cap at 2, instead of scanning every column per uncovered row;
//   * row dominance:  cols(r2) subseteq cols(r1) is one masked-subset pass;
//   * column dominance: masked-subset over column row-sets, no temporaries;
//   * MIS lower bound: blocked-column tracking is bitset union/intersection,
//     and each row's cheapest available column comes from a per-row
//     weight-sorted list probed until the first available hit (built once in
//     the evaluator), instead of rescanning the row's full column set.
// On top of the v1 machinery, v2 adds per-node subgradient Lagrangian bounds
// (warm-started from the parent's multipliers), reduced-cost column fixing
// against the incumbent, warm-start incumbent seeding, and a best-first
// frontier (the bnb_v2 backend). With those features disabled the
// predicates, their visit order, and all tie-breaks are EXACTLY the v1
// solver's, so nodes_explored is identical to the legacy implementation
// (pinned by Exact.SeedCorpusNodeCounts in tests/test_ucp.cpp).
// Search telemetry (all of it write-only: nothing below feeds back into the
// branching decisions, so traced and untraced runs explore the same tree):
//   * every kProgressPeriod nodes, counter events ucp.nodes / ucp.incumbent /
//     ucp.lower_bound chart the search's convergence over time in Perfetto;
//   * every incumbent improvement emits an instant event with the new cost;
//   * reduced-cost fixing victims and incumbent updates accumulate locally
//     and land in the metrics registry ONCE per run() (ucp.rc_fixed_columns,
//     ucp.incumbent_updates), keeping the per-node path free of shared
//     atomics. The sink is captured at construction so a solve emits to one
//     consistent sink even if the global pointer changes mid-search.
class Solver {
 public:
  static constexpr std::size_t kProgressPeriod = 1024;

  Solver(const CoverProblem& problem, const BnbOptions& options,
         bool best_first)
      : p_(problem), opt_(options), best_first_(best_first),
        eval_(problem, options), sink_(support::trace_sink()) {}

  CoverSolution run() {
    best_cost_ = detail::seed_incumbent(p_, opt_, best_);

    SearchState root{Bitset(p_.num_rows()), Bitset(p_.num_columns())};
    root.uncovered.set_all();
    root.available.set_all();

    // Caller-provided multipliers seed the ROOT subgradient ascent (a warm
    // re-solve of a near-identical instance converges in a few corrective
    // steps instead of the full cold ascent). Ignored unless sized to the
    // row count; empty reproduces the cold search tree node-for-node.
    std::vector<double> root_lambda;
    if (opt_.warm_multipliers.size() == p_.num_rows()) {
      root_lambda = opt_.warm_multipliers;
    }

    complete_ = true;
    if (best_first_) {
      run_best_first(std::move(root), std::move(root_lambda));
    } else {
      branch(std::move(root), 0.0, {}, 0, std::move(root_lambda));
    }
    report_progress();  // final sample, so short solves chart too

    auto& registry = support::MetricsRegistry::global();
    registry.counter("ucp.rc_fixed_columns").add(rc_fixed_);
    registry.counter("ucp.incumbent_updates").add(incumbent_updates_);

    CoverSolution sol;
    sol.chosen = best_;
    std::sort(sol.chosen.begin(), sol.chosen.end());
    sol.cost = best_cost_;
    sol.optimal = complete_ && best_cost_ < kInf;
    sol.nodes_explored = nodes_;
    sol.deadline_expired = deadline_hit_;
    sol.stop = stop_;
    sol.root_multipliers = std::move(root_multipliers_);
    return sol;
  }

  /// Lower bound established at the root node (max of the MIS and Lagrangian
  /// bounds plus any essential-column cost); 0 when the root was never
  /// evaluated (e.g. instant deadline).
  double root_bound() const { return root_bound_; }

 private:
  /// New incumbent found: record it plus its telemetry (counted locally;
  /// flushed to the registry once per run()).
  void accept_incumbent(double cost, const std::vector<std::size_t>& chosen) {
    best_cost_ = cost;
    best_ = chosen;
    ++incumbent_updates_;
    if (sink_ != nullptr) {
      support::trace_instant("ucp.incumbent_improved", "ucp",
                             "{\"cost\":" + std::to_string(cost) +
                                 ",\"nodes\":" + std::to_string(nodes_) + "}");
    }
    support::flight_record("incumbent",
                           "cost=" + std::to_string(cost) +
                               " nodes=" + std::to_string(nodes_));
  }

  /// Emits the periodic search-progress counter tracks (node rate,
  /// incumbent, strongest root bound). Inert without a sink.
  void report_progress() {
    if (sink_ == nullptr) return;
    last_progress_nodes_ = nodes_;
    support::trace_counter("ucp.nodes", static_cast<double>(nodes_), "ucp");
    if (best_cost_ < kInf) {
      support::trace_counter("ucp.incumbent", best_cost_, "ucp");
    }
    if (root_bound_ > 0.0) {
      support::trace_counter("ucp.lower_bound", root_bound_, "ucp");
    }
  }

  void maybe_report_progress() {
    if (sink_ != nullptr && nodes_ - last_progress_nodes_ >= kProgressPeriod) {
      report_progress();
    }
  }

  bool should_fix(int depth) {
    if (!opt_.use_reduced_cost_fixing) return false;
    if (depth == 0 ||
        nodes_ - last_fix_nodes_ >= opt_.reduced_cost_fixing_period) {
      last_fix_nodes_ = nodes_;
      return true;
    }
    return false;
  }

  void branch(SearchState s, double cost, std::vector<std::size_t> chosen,
              int depth, std::vector<double> lambda) {
    if (aborted_) return;  // a fired fault latches: no sibling continues
    if (nodes_ >= opt_.max_nodes) {
      complete_ = false;
      if (stop_ == CoverStop::kCompleted) stop_ = CoverStop::kNodeBudget;
      return;
    }
    if (opt_.deadline.expired()) {
      complete_ = false;
      deadline_hit_ = true;
      if (stop_ == CoverStop::kCompleted) stop_ = CoverStop::kDeadline;
      return;
    }
    // Same all-or-nothing kill site the parallel engine polls: a firing
    // abandons the search with the incumbent intact, never a torn cover.
    // Unarmed runs skip the consult entirely, so the pinned trees are
    // byte-identical with or without this check.
    if (opt_.fault_injector != nullptr &&
        opt_.fault_injector->should_fail(support::fault_sites::kUcpFrontier)) {
      complete_ = false;
      aborted_ = true;
      if (stop_ == CoverStop::kCompleted) stop_ = CoverStop::kAborted;
      return;
    }
    ++nodes_;
    maybe_report_progress();

    if (!eval_.reduce(s, cost, chosen, depth, best_cost_)) return;
    if (s.uncovered.none()) {
      if (cost < best_cost_) accept_incumbent(cost, chosen);
      if (depth == 0) root_bound_ = cost;
      return;
    }
    LagrangianBound lagr;
    bool lagr_ran = false;
    const double bound =
        eval_.node_bound(s, cost, depth, lambda, best_cost_, lagr, lagr_ran);
    if (depth == 0) {
      root_bound_ = cost + bound;
      if (lagr_ran) root_multipliers_ = lagr.multipliers;
    }
    if (cost + bound >= best_cost_) return;
    if (lagr_ran && should_fix(depth)) {
      rc_fixed_ += eval_.fix_columns(s, cost, best_cost_, lagr);
    }

    const std::vector<std::size_t> cols = eval_.branch_columns(s);
    if (cols.empty()) return;
    const std::vector<double>& child_lambda =
        lagr_ran ? lagr.multipliers : lambda;

    for (std::size_t j : cols) {
      SearchState child = s;
      child.uncovered.subtract(p_.column(j).rows);
      child.available.reset(j);
      std::vector<std::size_t> child_chosen = chosen;
      child_chosen.push_back(j);
      const double child_cost = cost + p_.column(j).weight;
      if (child_cost < best_cost_) {
        branch(std::move(child), child_cost, std::move(child_chosen),
               depth + 1, child_lambda);
      }
      // Sibling branches assume column j excluded: any cover using j was
      // just explored.
      s.available.reset(j);
    }
  }

  // ---- Best-first frontier ------------------------------------------------

  void run_best_first(SearchState root, std::vector<double> root_lambda) {
    std::vector<FrontierNode> heap;
    std::uint64_t next_seq = 0;
    heap.push_back(FrontierNode{std::move(root), 0.0, {},
                                std::move(root_lambda), 0.0, 0, next_seq++});

    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), frontier_after);
      FrontierNode node = std::move(heap.back());
      heap.pop_back();

      // Everything left on the frontier is at least as bad: the incumbent
      // is proven optimal and the search is complete.
      if (node.priority >= best_cost_) break;
      if (nodes_ >= opt_.max_nodes) {
        complete_ = false;
        if (stop_ == CoverStop::kCompleted) stop_ = CoverStop::kNodeBudget;
        break;
      }
      if (opt_.deadline.expired()) {
        complete_ = false;
        deadline_hit_ = true;
        if (stop_ == CoverStop::kCompleted) stop_ = CoverStop::kDeadline;
        break;
      }
      if (opt_.fault_injector != nullptr &&
          opt_.fault_injector->should_fail(
              support::fault_sites::kUcpFrontier)) {
        complete_ = false;
        if (stop_ == CoverStop::kCompleted) stop_ = CoverStop::kAborted;
        break;
      }
      ++nodes_;
      maybe_report_progress();

      if (!eval_.reduce(node.s, node.cost, node.chosen, node.depth,
                        best_cost_)) {
        continue;
      }
      if (node.s.uncovered.none()) {
        if (node.cost < best_cost_) accept_incumbent(node.cost, node.chosen);
        if (node.depth == 0) root_bound_ = node.cost;
        continue;
      }
      LagrangianBound lagr;
      bool lagr_ran = false;
      const double bound = eval_.node_bound(node.s, node.cost, node.depth,
                                            node.lambda, best_cost_, lagr,
                                            lagr_ran);
      if (node.depth == 0) {
        root_bound_ = node.cost + bound;
        if (lagr_ran) root_multipliers_ = lagr.multipliers;
      }
      if (node.cost + bound >= best_cost_) continue;
      if (lagr_ran && should_fix(node.depth)) {
        rc_fixed_ += eval_.fix_columns(node.s, node.cost, best_cost_, lagr);
      }

      const std::vector<std::size_t> cols = eval_.branch_columns(node.s);
      const std::vector<double>& child_lambda =
          lagr_ran ? lagr.multipliers : node.lambda;
      for (std::size_t j : cols) {
        const double child_cost = node.cost + p_.column(j).weight;
        if (child_cost >= best_cost_) {
          node.s.available.reset(j);
          continue;
        }
        FrontierNode child;
        child.s = node.s;
        child.s.uncovered.subtract(p_.column(j).rows);
        child.s.available.reset(j);
        child.cost = child_cost;
        child.chosen = node.chosen;
        child.chosen.push_back(j);
        child.lambda = child_lambda;
        child.priority = std::max(node.cost + bound, child_cost);
        child.depth = node.depth + 1;
        child.seq = next_seq++;
        heap.push_back(std::move(child));
        std::push_heap(heap.begin(), heap.end(), frontier_after);
        // Sibling branches assume column j excluded.
        node.s.available.reset(j);
      }
      if (heap.size() > opt_.best_first_max_frontier) {
        complete_ = false;
        if (stop_ == CoverStop::kCompleted) stop_ = CoverStop::kFrontierCap;
        break;
      }
    }
  }

  const CoverProblem& p_;
  const BnbOptions& opt_;
  const bool best_first_;  ///< frontier search instead of the reference DFS
  NodeEvaluator eval_;
  support::TraceSink* sink_;  ///< captured once; null = telemetry inert
  double best_cost_{kInf};
  std::vector<std::size_t> best_;
  std::size_t nodes_{0};
  std::size_t last_fix_nodes_{0};
  std::size_t last_progress_nodes_{0};
  std::size_t rc_fixed_{0};
  std::size_t incumbent_updates_{0};
  double root_bound_{0.0};
  std::vector<double> root_multipliers_;
  bool complete_{true};
  bool deadline_hit_{false};
  bool aborted_{false};
  CoverStop stop_{CoverStop::kCompleted};
};

/// Best incumbent available without branching: greedy, improved by the
/// caller's warm start when that is a valid, cheaper cover.
CoverSolution seeded_fallback(const CoverProblem& problem,
                              const BnbOptions& options) {
  CoverSolution sol;
  sol.cost = detail::seed_incumbent(problem, options, sol.chosen);
  return sol;
}

}  // namespace

namespace detail {

CoverSolution solve_with(const CoverProblem& problem,
                         const BnbOptions& options, SearchEngine engine) {
  CoverSolution sol;
  double bnb_root_bound = 0.0;
  // Every engine answers a row-less instance (the empty cover) through the
  // DP's trivial case, so its solution does not depend on the backend.
  if (engine == SearchEngine::kDenseDp || problem.num_rows() == 0) {
    support::Span dp_span("ucp.dense_dp", "ucp");
    support::MetricsRegistry::global().counter("ucp.dp_solves").add(1);
    if (!options.deadline.expired()) {
      sol = solve_dp(problem, options.deadline, options.max_nodes,
                     options.fault_injector);
    } else {
      sol.deadline_expired = true;
      sol.stop = CoverStop::kDeadline;
    }
    if (!sol.optimal && sol.stop != CoverStop::kCompleted) {
      // DP abandoned (or never started) under the deadline, node budget, or
      // an injected fault: hand back the seeded incumbent (greedy / warm
      // start) instead of nothing, keeping the stop reason.
      const std::size_t dp_states = sol.nodes_explored;
      const CoverStop stop = sol.stop;
      const bool deadline_hit = sol.deadline_expired;
      sol = seeded_fallback(problem, options);
      sol.optimal = false;
      sol.deadline_expired = deadline_hit;
      sol.stop = stop;
      sol.nodes_explored = dp_states;
    }
  } else if (engine == SearchEngine::kRounds) {
    sol = solve_parallel_bnb(problem, options, &bnb_root_bound);
  } else {
    Solver solver(problem, options, engine == SearchEngine::kBestFirst);
    sol = solver.run();
    bnb_root_bound = solver.root_bound();
  }
  if (sol.optimal) {
    sol.lower_bound = sol.cost;
  } else {
    // Degraded exit: report the strongest proven root bound so callers get
    // an honest optimality gap -- the Lagrangian root bound when enabled
    // (computed during the search, or here when the search never evaluated
    // its root), else the independent-rows bound.
    double lb = independent_rows_lower_bound(problem);
    lb = std::max(lb, bnb_root_bound);
    if (options.use_lagrangian_bound && bnb_root_bound == 0.0) {
      SubgradientOptions sopt;
      sopt.max_iterations = options.lagrangian_root_iterations;
      lb = std::max(lb, lagrangian_root_bound(problem, sopt));
    }
    sol.lower_bound = lb;
  }
  return sol;
}

}  // namespace detail

CoverSolution solve_exact(const CoverProblem& problem,
                          const BnbOptions& options) {
  support::Span span("ucp.solve", "ucp",
                     "{\"rows\":" + std::to_string(problem.num_rows()) +
                         ",\"cols\":" + std::to_string(problem.num_columns()) +
                         "}");
  CoverSolution sol;
  if (options.backend.empty()) {
    // The automatic dispatch: the dense DP at or below the row cutoff,
    // depth-first branch-and-bound above it, labelled by its bounds -- the
    // v1 reference configuration (Lagrangian machinery off) is the pinned
    // legacy tree; anything else runs the v2 bounds.
    if (problem.num_rows() <=
        std::min(options.dense_dp_max_rows, kDenseDpMaxRows)) {
      sol = detail::solve_with(problem, options,
                               detail::SearchEngine::kDenseDp);
      sol.backend = "dense_dp";
    } else {
      sol = detail::solve_with(problem, options,
                               detail::SearchEngine::kDepthFirst);
      sol.backend = !options.use_lagrangian_bound &&
                            !options.use_reduced_cost_fixing
                        ? "dfs_v1"
                        : "bnb_v2";
    }
  } else {
    const CoverSolver* solver = find_cover_solver(options.backend);
    if (solver == nullptr) {
      throw std::invalid_argument("unknown cover-solver backend '" +
                                  options.backend + "' (registered: " +
                                  registered_cover_solver_list() + ")");
    }
    if (!solver->applicable(problem)) {
      throw std::invalid_argument(
          "cover-solver backend '" + options.backend + "' cannot handle a " +
          std::to_string(problem.num_rows()) + "x" +
          std::to_string(problem.num_columns()) + " instance");
    }
    sol = solver->solve(problem, options);
    sol.backend = options.backend;
  }
  sol.rows = problem.num_rows();
  sol.cols = problem.num_columns();
  sol.density = cover_density(problem);
  auto& registry = support::MetricsRegistry::global();
  registry.counter("ucp.backend." + sol.backend + ".solves").add(1);
  registry.counter("ucp.backend." + sol.backend + ".nodes")
      .add(sol.nodes_explored);
  return sol;
}

}  // namespace cdcs::ucp

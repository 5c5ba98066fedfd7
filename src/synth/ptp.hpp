// Optimum point-to-point arc implementation (Sec. 2, steps (1)-(4), and
// Def 2.6 / Lemma 2.1).
//
// Given a span d and a required bandwidth b, the cheapest stand-alone
// implementation from the library is one of:
//   (1) arc matching       -- one link with d(l) >= d and b(l) >= b;
//   (2) K-way segmentation -- K links of the same type chained through K-1
//                             repeaters when no single link spans d;
//   (3) K-way duplication  -- M parallel links plus a mux/demux pair when no
//                             single link sustains b;
//   (4) both combined      -- M parallel chains of K segments each.
// For a fixed link type, the minimum feasible K and M minimize every cost
// term independently (segment count, repeater count, parallel count), so the
// optimizer evaluates exactly one plan per link type and takes the cheapest.
//
// The library is resolved once per (bandwidth, library, delay constraint):
// a PtpKernel fixes M and the node choices per link type when it is built,
// and each span then costs only the K-dependent arithmetic. The star and
// chain pricers build one kernel per leg before pricing it at many spans;
// one-off callers (tree edges, single-arc candidates) use the free functions
// below, which build one per call. Both run the same rule, so a plan's cost
// bits do not depend on which entry point priced it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "commlib/library.hpp"

namespace cdcs::sim {
struct DelayModel;  // sim/delay.hpp
}

namespace cdcs::synth {

/// Optional latency constraint for point-to-point planning: only plans
/// whose end-to-end delay (span * link_delay_per_length + repeaters *
/// node_delay) stays within `budget` qualify. A pricier low-hop link can
/// thereby beat a cheaper segmented one that busts the budget.
struct DelayConstraint {
  const sim::DelayModel* model{nullptr};
  double budget{0.0};
};

/// A recipe for the cheapest point-to-point realization of one (span,
/// bandwidth) requirement with a single link type.
struct PtpPlan {
  commlib::LinkIndex link{0};
  int segments{1};  ///< K: links chained in series per parallel branch
  int parallel{1};  ///< M: parallel branches
  std::optional<commlib::NodeIndex> repeater;  ///< set iff segments > 1
  std::optional<commlib::NodeIndex> mux;       ///< set iff parallel > 1
  std::optional<commlib::NodeIndex> demux;     ///< set iff parallel > 1
  double span{0.0};       ///< total geometric distance covered
  double bandwidth{0.0};  ///< requirement this plan was sized for
  double cost{0.0};       ///< links + repeaters + mux/demux

  bool is_matching() const { return segments == 1 && parallel == 1; }
};

/// The span-independent half of point-to-point planning for one bandwidth
/// requirement: per usable link type, M = max(1, ceil(b / b(l))), plus the
/// cheapest repeater, mux and demux and the delay budget. Links that can
/// never qualify (zero bandwidth, or M > 1 without a mux/demux pair) are
/// dropped here. Evaluating a span allocates nothing.
class PtpKernel {
 public:
  PtpKernel(double bandwidth, const commlib::Library& library,
            const DelayConstraint* delay = nullptr);

  /// Cheapest plan covering `span`, or nullopt when none qualifies.
  std::optional<PtpPlan> plan(double span) const;

  /// plan(span)->cost, or +infinity when no plan qualifies.
  double cost(double span) const;

 private:
  struct LinkTerms {
    commlib::LinkIndex link;
    int parallel;  ///< M
    double max_span;
    double cost_per_length;
    double fixed_cost;
    bool segmentable;  ///< finite positive max_span: K > 1 is possible
  };
  struct Choice {
    const LinkTerms* terms{nullptr};  ///< null: nothing qualifies
    int segments{0};
    double cost{0.0};
  };

  Choice choose(double span) const;

  double bandwidth_;
  std::vector<LinkTerms> links_;
  std::optional<commlib::NodeIndex> repeater_;
  std::optional<commlib::NodeIndex> mux_;
  std::optional<commlib::NodeIndex> demux_;
  double repeater_cost_{0.0};
  double mux_demux_cost_{0.0};
  bool delay_bound_{false};
  double delay_per_length_{0.0};
  double node_delay_{0.0};
  double delay_limit_{0.0};  ///< budget plus the 1e-12 tolerance
};

/// Cheapest plan implementing (span, bandwidth) with `library`, or nullopt
/// when the library cannot implement it at all (e.g. span exceeds every
/// link's reach and no repeater exists, or bandwidth exceeds every link and
/// no mux/demux exists). With a DelayConstraint, only delay-feasible plans
/// qualify (nullopt when none exists).
std::optional<PtpPlan> best_point_to_point(
    double span, double bandwidth, const commlib::Library& library,
    const DelayConstraint* delay = nullptr);

/// C(P(a)) of the optimum point-to-point implementation, +infinity when
/// infeasible. Loops pricing many spans at one bandwidth should build a
/// PtpKernel once instead.
double best_point_to_point_cost(double span, double bandwidth,
                                const commlib::Library& library);

/// Marginal cost per unit length of the cheapest realization carrying
/// bandwidth b: min over links of dup(b, l) * cost_per_length(l), where dup
/// is the duplication factor (only available when the library has mux- and
/// demux-capable nodes); 1 when that minimum is not a positive number. Under
/// a linear cost model this slope is EXACT -- a leg costs slope * length plus
/// span-independent node constants -- so placement is a weighted
/// Fermat-Weber instance; otherwise it is the Weiszfeld warm-start weight.
double length_slope(double bandwidth, const commlib::Library& library);

/// Checks Assumption 2.1 over a grid of (distance, bandwidth) pairs drawn
/// from `spans` x `bandwidths`: whenever d <= d' and b <= b', the optimal
/// point-to-point cost must not decrease, and every cost must be positive.
/// Returns human-readable violations (empty = assumption holds on the grid).
std::vector<std::string> check_assumption_2_1(
    const commlib::Library& library, const std::vector<double>& spans,
    const std::vector<double>& bandwidths);

}  // namespace cdcs::synth

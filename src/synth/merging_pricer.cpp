#include "synth/merging_pricer.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "geom/minimize.hpp"
#include "geom/weiszfeld.hpp"
#include "synth/canonical_order.hpp"

namespace cdcs::synth {
namespace {

constexpr double kCoincideEps = 1e-9;

bool all_coincide(const std::vector<geom::Point2D>& pts) {
  return std::all_of(pts.begin(), pts.end(), [&](geom::Point2D p) {
    return geom::almost_equal(p, pts.front(), kCoincideEps);
  });
}

}  // namespace

std::optional<MergingPlan> price_merging(const model::ConstraintGraph& cg,
                                         const commlib::Library& library,
                                         std::vector<model::ArcId> subset,
                                         model::CapacityPolicy policy,
                                         const support::Deadline* deadline) {
  if (deadline && deadline->expired()) return std::nullopt;
  if (subset.size() < 2) return std::nullopt;
  // Canonical geometry order, NOT ArcId order: the priced plan must be
  // a pure function of the subset's geometry (synth/canonical_order.hpp)
  // so renumbered or reordered arc ids price bit-identically.
  canonicalize_subset(cg, subset);

  const geom::Norm norm = cg.norm();
  std::vector<geom::Point2D> sources;
  std::vector<geom::Point2D> targets;
  std::vector<double> bandwidths;
  for (model::ArcId a : subset) {
    sources.push_back(cg.position(cg.source(a)));
    targets.push_back(cg.position(cg.target(a)));
    bandwidths.push_back(cg.bandwidth(a));
  }

  MergingPlan plan;
  plan.arcs = subset;
  plan.has_hub = !all_coincide(sources);
  plan.has_split = !all_coincide(targets);

  if (plan.has_hub) {
    plan.hub_node = library.cheapest_node(commlib::NodeKind::kMux);
    if (!plan.hub_node) return std::nullopt;
  }
  if (plan.has_split) {
    plan.split_node = library.cheapest_node(commlib::NodeKind::kDemux);
    if (!plan.split_node) return std::nullopt;
  }

  plan.trunk_bandwidth = 0.0;
  for (double b : bandwidths) {
    plan.trunk_bandwidth = policy == model::CapacityPolicy::kSharedSum
                               ? plan.trunk_bandwidth + b
                               : std::max(plan.trunk_bandwidth, b);
  }

  // The library is resolved here, once per leg bandwidth: the placement
  // search and the final plans below only evaluate spans. Leg i's kernel
  // prices both its ingress and its egress.
  const PtpKernel trunk_ptp(plan.trunk_bandwidth, library);
  std::vector<PtpKernel> leg_ptp;
  if (plan.has_hub || plan.has_split) {
    leg_ptp.reserve(bandwidths.size());
    for (double b : bandwidths) leg_ptp.emplace_back(b, library);
  }

  // Variable cost as a function of the two trunk endpoints. Node costs are
  // constants and added at the end.
  auto legs_cost = [&](geom::Point2D hub, geom::Point2D split) {
    double total = trunk_ptp.cost(geom::distance(hub, split, norm));
    for (std::size_t i = 0; i < subset.size(); ++i) {
      if (plan.has_hub) {
        total += leg_ptp[i].cost(geom::distance(sources[i], hub, norm));
      }
      if (plan.has_split) {
        total += leg_ptp[i].cost(geom::distance(split, targets[i], norm));
      }
    }
    return total;
  };

  // Fixed endpoints when a side is common; otherwise optimize.
  geom::Point2D hub = sources.front();
  geom::Point2D split = targets.front();

  if (plan.has_hub || plan.has_split) {
    const double trunk_w = length_slope(plan.trunk_bandwidth, library);
    std::vector<double> leg_w;
    leg_w.reserve(bandwidths.size());
    for (double b : bandwidths) leg_w.push_back(length_slope(b, library));

    // Weiszfeld placement: each free endpoint is pulled by its own legs
    // plus the trunk toward the opposite endpoint. Exact for linear cost
    // models; a warm start otherwise. A side's solve is a pure function of
    // the opposite endpoint, so it is skipped when that endpoint is bitwise
    // the one the side was last solved against (common: the optimum often
    // sits exactly on a terminal).
    std::vector<double> ws = leg_w;
    ws.push_back(trunk_w);
    std::vector<geom::Point2D> hub_pts = sources;
    hub_pts.push_back(split);
    std::vector<geom::Point2D> split_pts = targets;
    split_pts.push_back(hub);
    bool hub_solved = false;
    bool split_solved = false;
    const auto same_bits = [](geom::Point2D a, geom::Point2D b) {
      return std::bit_cast<std::uint64_t>(a.x) ==
                 std::bit_cast<std::uint64_t>(b.x) &&
             std::bit_cast<std::uint64_t>(a.y) ==
                 std::bit_cast<std::uint64_t>(b.y);
    };
    auto weiszfeld_hub = [&]() {
      if (hub_solved && same_bits(hub_pts.back(), split)) return;
      hub_pts.back() = split;
      hub = geom::weighted_geometric_median(hub_pts, ws, norm);
      hub_solved = true;
    };
    auto weiszfeld_split = [&]() {
      if (split_solved && same_bits(split_pts.back(), hub)) return;
      split_pts.back() = hub;
      split = geom::weighted_geometric_median(split_pts, ws, norm);
      split_solved = true;
    };
    if (plan.has_hub) weiszfeld_hub();
    if (plan.has_split) weiszfeld_split();

    const int rounds = (plan.has_hub && plan.has_split) ? 3 : 1;
    if (library.linear_cost_model()) {
      // Leg costs are exactly slope * length + constants: alternating
      // Weiszfeld solves each coordinate block to optimality.
      for (int r = 1; r < rounds; ++r) {
        if (plan.has_hub) weiszfeld_hub();
        if (plan.has_split) weiszfeld_split();
      }
    } else {
      // Segmented / fixed-cost libraries make the objective piecewise;
      // refine the Weiszfeld seed with a bounded derivative-free search.
      geom::BBox box;
      for (geom::Point2D p : sources) box.expand(p);
      for (geom::Point2D p : targets) box.expand(p);
      box.inflate(1e-6);
      geom::NelderMeadOptions nm;
      nm.max_iterations = 150;
      nm.restarts = 1;
      nm.tolerance = 1e-8;
      for (int r = 0; r < rounds; ++r) {
        if (plan.has_hub) {
          auto f = [&](geom::Point2D h) { return legs_cost(h, split); };
          const geom::MinimizeResult2D res =
              geom::minimize_in_box(f, box, 6, nm);
          if (res.value <= legs_cost(hub, split)) hub = res.x;
        }
        if (plan.has_split) {
          auto f = [&](geom::Point2D s) { return legs_cost(hub, s); };
          const geom::MinimizeResult2D res =
              geom::minimize_in_box(f, box, 6, nm);
          if (res.value <= legs_cost(hub, split)) split = res.x;
        }
      }
    }
  }

  plan.hub_pos = hub;
  plan.split_pos = split;

  // Materialize the leg plans at the chosen positions.
  double cost = 0.0;
  const double trunk_span = geom::distance(hub, split, norm);
  std::optional<PtpPlan> trunk = trunk_ptp.plan(trunk_span);
  if (!trunk) return std::nullopt;
  plan.trunk = trunk;
  cost += trunk->cost;

  plan.ingress.resize(subset.size());
  plan.egress.resize(subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    if (plan.has_hub) {
      auto leg = leg_ptp[i].plan(geom::distance(sources[i], hub, norm));
      if (!leg) return std::nullopt;
      cost += leg->cost;
      plan.ingress[i] = leg;
    }
    if (plan.has_split) {
      auto leg = leg_ptp[i].plan(geom::distance(split, targets[i], norm));
      if (!leg) return std::nullopt;
      cost += leg->cost;
      plan.egress[i] = leg;
    }
  }
  if (plan.hub_node) cost += library.node(*plan.hub_node).cost;
  if (plan.split_node) cost += library.node(*plan.split_node).cost;
  plan.cost = cost;
  return plan;
}

}  // namespace cdcs::synth

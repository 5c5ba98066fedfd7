#include "synth/ptp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "sim/delay.hpp"

namespace cdcs::synth {
namespace {

/// ceil(a / b) for positive doubles with protection against the classic
/// "exact multiple plus epsilon" off-by-one: values within 1e-9 relative of
/// an integer are treated as that integer.
int robust_ceil_div(double a, double b) {
  const double q = a / b;
  const double r = std::round(q);
  if (std::abs(q - r) < 1e-9 * std::max(1.0, std::abs(q))) {
    return static_cast<int>(r);
  }
  return static_cast<int>(std::ceil(q));
}

}  // namespace

PtpKernel::PtpKernel(double bandwidth, const commlib::Library& library,
                     const DelayConstraint* delay)
    : bandwidth_(bandwidth),
      repeater_(library.cheapest_node(commlib::NodeKind::kRepeater)),
      mux_(library.cheapest_node(commlib::NodeKind::kMux)),
      demux_(library.cheapest_node(commlib::NodeKind::kDemux)) {
  if (repeater_) repeater_cost_ = library.node(*repeater_).cost;
  if (mux_ && demux_) {
    mux_demux_cost_ = library.node(*mux_).cost + library.node(*demux_).cost;
  }
  if (delay != nullptr) {
    delay_bound_ = true;
    delay_per_length_ = delay->model->link_delay_per_length;
    node_delay_ = delay->model->node_delay;
    delay_limit_ = delay->budget + 1e-12;
  }
  const std::vector<commlib::Link>& links = library.links();
  links_.reserve(links.size());
  for (commlib::LinkIndex li = 0; li < links.size(); ++li) {
    const commlib::Link& l = links[li];
    if (l.bandwidth <= 0.0) continue;
    // M: parallel branches needed to cover the bandwidth.
    const int m = std::max(1, robust_ceil_div(bandwidth, l.bandwidth));
    if (m > 1 && (!mux_ || !demux_)) continue;  // no way to bundle links
    links_.push_back(LinkTerms{
        .link = li,
        .parallel = m,
        .max_span = l.max_span,
        .cost_per_length = l.cost_per_length,
        .fixed_cost = l.fixed_cost,
        .segmentable = std::isfinite(l.max_span) && l.max_span > 0.0});
  }
}

PtpKernel::Choice PtpKernel::choose(double span) const {
  Choice best;
  for (const LinkTerms& t : links_) {
    // K: segments needed to span the distance with this link type.
    int k = 1;
    if (!(span <= t.max_span)) {
      if (!t.segmentable) continue;
      k = robust_ceil_div(span, t.max_span);
    }
    if (k > 1 && !repeater_) continue;  // no way to chain links
    if (delay_bound_ &&
        delay_per_length_ * span + node_delay_ * (k - 1) > delay_limit_) {
      continue;  // busts the latency budget
    }
    const int m = t.parallel;

    // Per-branch link cost: the K pieces sum to `span` length, so the
    // per-length component is charged once per branch and the fixed
    // component once per piece.
    const double branch_links = t.cost_per_length * span + t.fixed_cost * k;
    double cost = m * branch_links;
    if (k > 1) cost += m * (k - 1) * repeater_cost_;
    if (m > 1) cost += mux_demux_cost_;

    // Ties (e.g. two bundled radios vs one optical at the same $/km) break
    // toward the structurally simplest plan: fewest parallel branches, then
    // fewest segments.
    const bool better =
        best.terms == nullptr || cost < best.cost - 1e-9 ||
        (cost <= best.cost + 1e-9 &&
         (m < best.terms->parallel ||
          (m == best.terms->parallel && k < best.segments)));
    if (better) best = Choice{.terms = &t, .segments = k, .cost = cost};
  }
  return best;
}

std::optional<PtpPlan> PtpKernel::plan(double span) const {
  const Choice c = choose(span);
  if (c.terms == nullptr) return std::nullopt;
  const int m = c.terms->parallel;
  return PtpPlan{.link = c.terms->link,
                 .segments = c.segments,
                 .parallel = m,
                 .repeater = c.segments > 1 ? repeater_ : std::nullopt,
                 .mux = m > 1 ? mux_ : std::nullopt,
                 .demux = m > 1 ? demux_ : std::nullopt,
                 .span = span,
                 .bandwidth = bandwidth_,
                 .cost = c.cost};
}

double PtpKernel::cost(double span) const {
  const Choice c = choose(span);
  return c.terms != nullptr ? c.cost : std::numeric_limits<double>::infinity();
}

std::optional<PtpPlan> best_point_to_point(double span, double bandwidth,
                                           const commlib::Library& library,
                                           const DelayConstraint* delay) {
  return PtpKernel(bandwidth, library, delay).plan(span);
}

double best_point_to_point_cost(double span, double bandwidth,
                                const commlib::Library& library) {
  return PtpKernel(bandwidth, library).cost(span);
}

double length_slope(double bandwidth, const commlib::Library& library) {
  const bool can_bundle =
      library.cheapest_node(commlib::NodeKind::kMux).has_value() &&
      library.cheapest_node(commlib::NodeKind::kDemux).has_value();
  double best = std::numeric_limits<double>::infinity();
  for (const commlib::Link& l : library.links()) {
    if (l.bandwidth <= 0.0) continue;
    const double dup = std::ceil(bandwidth / l.bandwidth - 1e-12);
    if (dup > 1.0 && !can_bundle) continue;
    best = std::min(best, std::max(dup, 1.0) * l.cost_per_length);
  }
  return std::isfinite(best) && best > 0.0 ? best : 1.0;
}

std::vector<std::string> check_assumption_2_1(
    const commlib::Library& library, const std::vector<double>& spans,
    const std::vector<double>& bandwidths) {
  std::vector<std::string> problems;
  struct Sample {
    double d, b, cost;
  };
  std::vector<Sample> samples;
  for (double d : spans) {
    for (double b : bandwidths) {
      const double c = best_point_to_point_cost(d, b, library);
      if (c <= 0.0) {
        problems.push_back("C(P(a)) is not positive at d=" + std::to_string(d) +
                           " b=" + std::to_string(b));
      }
      samples.push_back({d, b, c});
    }
  }
  for (const Sample& s : samples) {
    for (const Sample& t : samples) {
      if (s.d <= t.d && s.b <= t.b && s.cost > t.cost + 1e-9) {
        problems.push_back(
            "cost monotonicity violated: (d=" + std::to_string(s.d) +
            ", b=" + std::to_string(s.b) + ") costs " + std::to_string(s.cost) +
            " > (d=" + std::to_string(t.d) + ", b=" + std::to_string(t.b) +
            ") costing " + std::to_string(t.cost));
      }
    }
  }
  return problems;
}

}  // namespace cdcs::synth

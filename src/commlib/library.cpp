#include "commlib/library.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace cdcs::commlib {

std::string_view to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kRepeater:
      return "repeater";
    case NodeKind::kMux:
      return "mux";
    case NodeKind::kDemux:
      return "demux";
    case NodeKind::kSwitch:
      return "switch";
  }
  return "unknown";
}

LinkIndex Library::add_link(Link link) {
  links_.push_back(std::move(link));
  return links_.size() - 1;
}

NodeIndex Library::add_node(Node node) {
  nodes_.push_back(std::move(node));
  note_cheapest(nodes_.size() - 1);
  return nodes_.size() - 1;
}

void Library::note_cheapest(NodeIndex added) {
  // The incremental form of a strict-< scan in insertion order: a later
  // node replaces the incumbent only when strictly cheaper.
  const Node& n = nodes_[added];
  for (NodeKind kind : {NodeKind::kRepeater, NodeKind::kMux, NodeKind::kDemux,
                        NodeKind::kSwitch}) {
    if (!n.can_act_as(kind)) continue;
    std::optional<NodeIndex>& best = cheapest_[static_cast<std::size_t>(kind)];
    if (!best || n.cost < nodes_[*best].cost) best = added;
  }
}

support::Expected<LinkIndex> Library::try_add_link(Link link) {
  if (find_link(link.name)) {
    return support::Status::InvalidInput("duplicate link name '" + link.name +
                                         "'");
  }
  if (!std::isfinite(link.bandwidth) || link.bandwidth <= 0.0) {
    return support::Status::InvalidInput(
        "link '" + link.name + "' has invalid bandwidth " +
        std::to_string(link.bandwidth) + " (must be finite and positive)");
  }
  if (std::isnan(link.max_span) || link.max_span <= 0.0) {
    return support::Status::InvalidInput(
        "link '" + link.name + "' has invalid max span " +
        std::to_string(link.max_span) + " (must be positive or infinite)");
  }
  if (!std::isfinite(link.fixed_cost) || link.fixed_cost < 0.0 ||
      !std::isfinite(link.cost_per_length) || link.cost_per_length < 0.0) {
    return support::Status::InvalidInput(
        "link '" + link.name +
        "' has an invalid cost term (must be finite and nonnegative)");
  }
  links_.push_back(std::move(link));
  return links_.size() - 1;
}

support::Expected<NodeIndex> Library::try_add_node(Node node) {
  if (find_node(node.name)) {
    return support::Status::InvalidInput("duplicate node name '" + node.name +
                                         "'");
  }
  if (!std::isfinite(node.cost) || node.cost < 0.0) {
    return support::Status::InvalidInput(
        "node '" + node.name + "' has invalid cost " +
        std::to_string(node.cost) + " (must be finite and nonnegative)");
  }
  nodes_.push_back(std::move(node));
  note_cheapest(nodes_.size() - 1);
  return nodes_.size() - 1;
}

std::optional<LinkIndex> Library::find_link(std::string_view name) const {
  for (LinkIndex i = 0; i < links_.size(); ++i) {
    if (links_[i].name == name) return i;
  }
  return std::nullopt;
}

std::optional<NodeIndex> Library::find_node(std::string_view name) const {
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return i;
  }
  return std::nullopt;
}

namespace {

// FNV-1a; the fingerprint is an identity key, not a security boundary.
inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (v >> shift) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

inline void fnv_mix(std::uint64_t& h, double v) {
  // Normalize -0.0 so semantically equal libraries hash equal; NaN costs
  // are rejected by try_add_* and only matter for hand-built fixtures.
  fnv_mix(h, std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v));
}

inline void fnv_mix(std::uint64_t& h, std::string_view s) {
  fnv_mix(h, static_cast<std::uint64_t>(s.size()));
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
}

}  // namespace

std::uint64_t Library::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  fnv_mix(h, name_);
  fnv_mix(h, static_cast<std::uint64_t>(links_.size()));
  for (const Link& l : links_) {
    fnv_mix(h, l.name);
    fnv_mix(h, l.max_span);
    fnv_mix(h, l.bandwidth);
    fnv_mix(h, l.fixed_cost);
    fnv_mix(h, l.cost_per_length);
  }
  fnv_mix(h, static_cast<std::uint64_t>(nodes_.size()));
  for (const Node& n : nodes_) {
    fnv_mix(h, n.name);
    fnv_mix(h, static_cast<std::uint64_t>(n.kind));
    fnv_mix(h, n.cost);
  }
  return h;
}

double Library::max_link_bandwidth() const {
  double best = 0.0;
  for (const Link& l : links_) best = std::max(best, l.bandwidth);
  return best;
}

bool Library::linear_cost_model() const {
  for (const Link& l : links_) {
    if (!std::isinf(l.max_span) || l.fixed_cost != 0.0) return false;
  }
  return !links_.empty();
}

double Library::max_link_span() const {
  double best = 0.0;
  for (const Link& l : links_) best = std::max(best, l.max_span);
  return best;
}

std::vector<std::string> Library::validate() const {
  std::vector<std::string> problems;
  if (links_.empty()) {
    problems.push_back("library has no links; no channel can be implemented");
  }
  for (const Link& l : links_) {
    if (!std::isfinite(l.bandwidth) || l.bandwidth <= 0.0) {
      problems.push_back("link '" + l.name +
                         "' has non-positive or non-finite bandwidth");
    }
    if (std::isnan(l.max_span) || l.max_span <= 0.0) {
      problems.push_back("link '" + l.name + "' has non-positive max span");
    }
    if (!std::isfinite(l.fixed_cost) || l.fixed_cost < 0.0 ||
        !std::isfinite(l.cost_per_length) || l.cost_per_length < 0.0) {
      problems.push_back("link '" + l.name +
                         "' has a negative or non-finite cost term");
    }
    if (std::isinf(l.max_span) && l.cost_per_length == 0.0 &&
        l.fixed_cost == 0.0) {
      problems.push_back("link '" + l.name +
                         "' is unbounded and free; Assumption 2.1 requires "
                         "positive implementation costs");
    }
  }
  for (const Node& n : nodes_) {
    if (!std::isfinite(n.cost) || n.cost < 0.0) {
      problems.push_back("node '" + n.name +
                         "' has negative or non-finite cost");
    }
  }
  return problems;
}

}  // namespace cdcs::commlib

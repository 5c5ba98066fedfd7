// The communication library L = L (links) ∪ N (nodes) of Def 2.2.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "commlib/link.hpp"
#include "commlib/node.hpp"
#include "support/status.hpp"

namespace cdcs::commlib {

/// Index of a link within its library; stable because libraries are
/// append-only once synthesis starts.
using LinkIndex = std::size_t;
using NodeIndex = std::size_t;

class Library {
 public:
  Library() = default;
  explicit Library(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Validated element insertion: rejects (kInvalidInput) non-finite or
  /// non-positive bandwidths, non-positive spans, non-finite or negative
  /// costs, and duplicate names. The primary mutation API.
  support::Expected<LinkIndex> try_add_link(Link link);
  support::Expected<NodeIndex> try_add_node(Node node);

  /// Legacy unchecked append (kept for hand-built test fixtures that probe
  /// validate()); prefer try_add_link / try_add_node.
  LinkIndex add_link(Link link);
  NodeIndex add_node(Node node);

  const std::vector<Link>& links() const { return links_; }
  const std::vector<Node>& nodes() const { return nodes_; }

  const Link& link(LinkIndex i) const { return links_.at(i); }
  const Node& node(NodeIndex i) const { return nodes_.at(i); }

  std::optional<LinkIndex> find_link(std::string_view name) const;
  std::optional<NodeIndex> find_node(std::string_view name) const;

  /// Cheapest node able to act as `kind` (switches qualify for every kind;
  /// among equal costs the earliest added wins). Empty when the library
  /// offers no such node. O(1): add_node and try_add_node keep the answer
  /// for every kind, so pricing loops may call this per evaluation.
  std::optional<NodeIndex> cheapest_node(NodeKind kind) const {
    return cheapest_[static_cast<std::size_t>(kind)];
  }

  /// max_{l in L} b(l): the bandwidth bound used by Theorem 3.2. Zero for an
  /// empty link set.
  double max_link_bandwidth() const;

  /// Order-sensitive 64-bit digest of every element (names, spans,
  /// bandwidths, cost terms, node kinds). Two libraries pricing any plan
  /// differently have different fingerprints, so the synthesis pricing
  /// cache (synth/pricing_cache.hpp) keys entries on it: mutating or
  /// swapping the library invalidates every cached plan automatically.
  std::uint64_t fingerprint() const;

  /// Largest finite link span, or +infinity when any link is length-priced.
  double max_link_span() const;

  /// True when every link is a pure length-priced family (unbounded span,
  /// no fixed cost). Under such a library the cost of a point-to-point plan
  /// is LINEAR in its span (node costs are span-independent constants), so
  /// the merging pricer's placement problem is an exact weighted
  /// Fermat-Weber instance solvable in closed form / by Weiszfeld instead of
  /// by derivative-free search. The paper's WAN library qualifies.
  bool linear_cost_model() const;

  /// Structural sanity: nonempty link set, positive bandwidths, nonnegative
  /// costs and spans. Returns a human-readable list of violations (empty =
  /// valid). Assumption 2.1 (cost monotonicity of optimal point-to-point
  /// implementations) is checked separately by synth::check_assumption_2_1,
  /// since it depends on the point-to-point optimizer.
  std::vector<std::string> validate() const;

 private:
  std::string name_;
  std::vector<Link> links_;
  std::vector<Node> nodes_;
  /// cheapest_node(kind) per NodeKind, refreshed by note_cheapest.
  std::array<std::optional<NodeIndex>, 4> cheapest_;

  void note_cheapest(NodeIndex added);
};

}  // namespace cdcs::commlib

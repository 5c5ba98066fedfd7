#include <cmath>
#include <optional>

#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"

namespace cdcs::commlib {
namespace {

TEST(Link, SpanAndCost) {
  const Link l{.name = "wire",
               .max_span = 0.6,
               .bandwidth = 1.0,
               .fixed_cost = 2.0,
               .cost_per_length = 5.0};
  EXPECT_TRUE(l.spans(0.6));
  EXPECT_TRUE(l.spans(0.0));
  EXPECT_FALSE(l.spans(0.61));
  EXPECT_DOUBLE_EQ(l.cost(0.4), 2.0 + 5.0 * 0.4);
}

TEST(Node, SwitchActsAsAnything) {
  const Node sw{.name = "sw", .kind = NodeKind::kSwitch, .cost = 1.0};
  EXPECT_TRUE(sw.can_act_as(NodeKind::kRepeater));
  EXPECT_TRUE(sw.can_act_as(NodeKind::kMux));
  EXPECT_TRUE(sw.can_act_as(NodeKind::kDemux));
  EXPECT_TRUE(sw.can_act_as(NodeKind::kSwitch));
  const Node rep{.name = "rep", .kind = NodeKind::kRepeater, .cost = 1.0};
  EXPECT_TRUE(rep.can_act_as(NodeKind::kRepeater));
  EXPECT_FALSE(rep.can_act_as(NodeKind::kMux));
}

TEST(Library, LookupByName) {
  Library lib("test");
  lib.add_link(Link{.name = "a", .bandwidth = 1.0});
  lib.add_link(Link{.name = "b", .bandwidth = 2.0});
  lib.add_node(Node{.name = "r", .kind = NodeKind::kRepeater, .cost = 3.0});
  EXPECT_EQ(lib.find_link("b").value(), 1u);
  EXPECT_FALSE(lib.find_link("zzz").has_value());
  EXPECT_EQ(lib.find_node("r").value(), 0u);
  EXPECT_FALSE(lib.find_node("zzz").has_value());
}

TEST(Library, CheapestNodePrefersSpecificOverExpensiveSwitch) {
  Library lib("test");
  lib.add_node(Node{.name = "sw", .kind = NodeKind::kSwitch, .cost = 10.0});
  lib.add_node(Node{.name = "rep", .kind = NodeKind::kRepeater, .cost = 2.0});
  EXPECT_EQ(lib.node(*lib.cheapest_node(NodeKind::kRepeater)).name, "rep");
  // No mux exists, but the switch can stand in.
  EXPECT_EQ(lib.node(*lib.cheapest_node(NodeKind::kMux)).name, "sw");
}

TEST(Library, CheapestNodeEmptyWhenNothingFits) {
  Library lib("test");
  lib.add_node(Node{.name = "rep", .kind = NodeKind::kRepeater, .cost = 1.0});
  EXPECT_FALSE(lib.cheapest_node(NodeKind::kMux).has_value());
}

/// cheapest_node by a full scan in insertion order, strict < on cost.
std::optional<NodeIndex> scanned_cheapest(const Library& lib, NodeKind kind) {
  std::optional<NodeIndex> best;
  for (NodeIndex i = 0; i < lib.nodes().size(); ++i) {
    if (!lib.nodes()[i].can_act_as(kind)) continue;
    if (!best || lib.nodes()[i].cost < lib.nodes()[*best].cost) best = i;
  }
  return best;
}

void expect_cache_matches_scan(const Library& lib, const char* step) {
  for (NodeKind kind : {NodeKind::kRepeater, NodeKind::kMux, NodeKind::kDemux,
                        NodeKind::kSwitch}) {
    EXPECT_EQ(lib.cheapest_node(kind), scanned_cheapest(lib, kind))
        << step << ", kind " << to_string(kind);
  }
}

TEST(Library, CheapestNodeFollowsEveryInsertion) {
  Library lib("cache");
  expect_cache_matches_scan(lib, "empty");
  EXPECT_FALSE(lib.cheapest_node(NodeKind::kRepeater).has_value());

  lib.add_node(Node{.name = "rep5", .kind = NodeKind::kRepeater, .cost = 5.0});
  EXPECT_EQ(lib.cheapest_node(NodeKind::kRepeater), 0u);
  EXPECT_FALSE(lib.cheapest_node(NodeKind::kMux).has_value());
  expect_cache_matches_scan(lib, "rep5");

  // A switch qualifies for every kind, and here it is the cheaper repeater.
  lib.add_node(Node{.name = "sw3", .kind = NodeKind::kSwitch, .cost = 3.0});
  for (NodeKind kind : {NodeKind::kRepeater, NodeKind::kMux, NodeKind::kDemux,
                        NodeKind::kSwitch}) {
    EXPECT_EQ(lib.cheapest_node(kind), 1u) << to_string(kind);
  }
  expect_cache_matches_scan(lib, "sw3");

  // An equal cost keeps the earlier node.
  lib.add_node(Node{.name = "mux3", .kind = NodeKind::kMux, .cost = 3.0});
  EXPECT_EQ(lib.cheapest_node(NodeKind::kMux), 1u);
  expect_cache_matches_scan(lib, "mux3");

  // A cheaper node added later wins, for its own kind only.
  lib.add_node(Node{.name = "mux2", .kind = NodeKind::kMux, .cost = 2.0});
  EXPECT_EQ(lib.cheapest_node(NodeKind::kMux), 3u);
  EXPECT_EQ(lib.cheapest_node(NodeKind::kDemux), 1u);
  expect_cache_matches_scan(lib, "mux2");

  // Rejected insertions leave the cache alone.
  EXPECT_FALSE(lib.try_add_node(Node{
                      .name = "mux2", .kind = NodeKind::kDemux, .cost = 0.0})
                   .ok());
  EXPECT_FALSE(lib.try_add_node(Node{
                      .name = "neg", .kind = NodeKind::kDemux, .cost = -1.0})
                   .ok());
  EXPECT_EQ(lib.cheapest_node(NodeKind::kDemux), 1u);
  expect_cache_matches_scan(lib, "rejected");

  ASSERT_TRUE(lib.try_add_node(Node{
                     .name = "demux1", .kind = NodeKind::kDemux, .cost = 1.0})
                  .ok());
  EXPECT_EQ(lib.cheapest_node(NodeKind::kDemux), 4u);
  expect_cache_matches_scan(lib, "demux1");

  // A copy carries the cache and then evolves on its own.
  Library copy = lib;
  expect_cache_matches_scan(copy, "copy");
  copy.add_node(Node{.name = "rep0", .kind = NodeKind::kRepeater, .cost = 0.0});
  EXPECT_EQ(copy.cheapest_node(NodeKind::kRepeater), 5u);
  EXPECT_EQ(lib.cheapest_node(NodeKind::kRepeater), 1u);
  expect_cache_matches_scan(copy, "copy + rep0");
  expect_cache_matches_scan(lib, "original after copy grew");
}

TEST(Library, MaxBandwidthAndSpan) {
  const Library wan = wan_library();
  EXPECT_DOUBLE_EQ(wan.max_link_bandwidth(), 1000.0);
  EXPECT_TRUE(std::isinf(wan.max_link_span()));
  const Library soc = soc_library(0.6);
  EXPECT_DOUBLE_EQ(soc.max_link_span(), 0.6);
}

TEST(Library, ValidateFlagsProblems) {
  Library lib("bad");
  EXPECT_FALSE(lib.validate().empty());  // no links

  lib.add_link(Link{.name = "zero-bw", .bandwidth = 0.0});
  lib.add_link(Link{.name = "neg-cost", .bandwidth = 1.0, .fixed_cost = -1.0});
  lib.add_link(Link{.name = "free-unbounded", .bandwidth = 1.0});
  lib.add_node(Node{.name = "neg-node", .cost = -2.0});
  // zero-bw trips both the bandwidth check and (being unbounded and free)
  // the Assumption-2.1 positivity check: 2 + 1 + 1 + 1.
  const auto problems = lib.validate();
  EXPECT_EQ(problems.size(), 5u);
}

TEST(StandardLibraries, WanMatchesPaper) {
  const Library lib = wan_library();
  ASSERT_TRUE(lib.find_link("radio").has_value());
  ASSERT_TRUE(lib.find_link("optical").has_value());
  const Link& radio = lib.link(*lib.find_link("radio"));
  EXPECT_DOUBLE_EQ(radio.bandwidth, 11.0);        // 11 Mbps
  EXPECT_DOUBLE_EQ(radio.cost_per_length, 2000.0);  // $2/m in $/km
  const Link& optical = lib.link(*lib.find_link("optical"));
  EXPECT_DOUBLE_EQ(optical.bandwidth, 1000.0);  // 1 Gbps
  EXPECT_DOUBLE_EQ(optical.cost_per_length, 4000.0);
  EXPECT_TRUE(lib.validate().empty());
}

TEST(StandardLibraries, SocWireLengthIsCritical) {
  const Library lib = soc_library(0.6);
  const Link& wire = lib.link(*lib.find_link("metal-wire"));
  EXPECT_DOUBLE_EQ(wire.max_span, 0.6);
  EXPECT_DOUBLE_EQ(wire.cost(0.6), 0.0);  // repeaters carry the cost
  EXPECT_DOUBLE_EQ(lib.node(*lib.cheapest_node(NodeKind::kRepeater)).cost, 1.0);
  EXPECT_TRUE(lib.cheapest_node(NodeKind::kMux).has_value());
  EXPECT_TRUE(lib.cheapest_node(NodeKind::kDemux).has_value());
}

TEST(StandardLibraries, LanIsValid) {
  EXPECT_TRUE(lan_library().validate().empty());
}

TEST(NodeKind, Names) {
  EXPECT_EQ(to_string(NodeKind::kRepeater), "repeater");
  EXPECT_EQ(to_string(NodeKind::kMux), "mux");
  EXPECT_EQ(to_string(NodeKind::kDemux), "demux");
  EXPECT_EQ(to_string(NodeKind::kSwitch), "switch");
}

}  // namespace
}  // namespace cdcs::commlib

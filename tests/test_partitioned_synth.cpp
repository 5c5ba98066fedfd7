// Synthesis-level contracts of hierarchical partitioned synthesis
// (synth/partitioned_synthesizer.hpp):
//
//   * exact fallback -- with partitioning enabled, instances at or below
//     the arc threshold take the unmodified exact pipeline, bit-identical
//     to a run with partitioning off (the whole pinned seed corpus);
//   * forced partitioned runs produce valid implementations, an honest
//     summed lower bound, and stay within the 10% optimality-gap
//     acceptance bound of the true exact optimum on small instances;
//   * PartitionedDeterminism -- the stitched result is bit-identical at
//     1, 2, and 8 worker threads (this suite also runs under TSan in CI);
//   * PricingCoverPin -- cover cost, chosen columns and a hash of every
//     candidate's cost bits are pinned, so any drift in pricing (Weiszfeld)
//     or covering (dense DP, B&B) fails here first.
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/baselines.hpp"
#include "commlib/standard_libraries.hpp"
#include "synth/partitioned_synthesizer.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/lan.hpp"
#include "workloads/mcm.hpp"
#include "workloads/mpeg4_soc.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/scale_gen.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::synth {
namespace {

void expect_bit_identical(const SynthesisResult& a, const SynthesisResult& b,
                          const char* what) {
  EXPECT_EQ(a.total_cost, b.total_cost) << what;
  EXPECT_EQ(a.cover.cost, b.cover.cost) << what;
  EXPECT_EQ(a.cover.chosen, b.cover.chosen) << what;
  EXPECT_EQ(a.cover.nodes_explored, b.cover.nodes_explored) << what;
  ASSERT_EQ(a.candidates().size(), b.candidates().size()) << what;
  for (std::size_t i = 0; i < a.candidates().size(); ++i) {
    EXPECT_EQ(a.candidates()[i].cost, b.candidates()[i].cost)
        << what << " candidate " << i;
  }
}

TEST(PartitionedSynth, BelowThresholdIsExactPath) {
  // Every pinned seed-corpus instance sits far below the default 64-arc
  // threshold: enabling partitioning must not change one bit of the
  // result (cost, chosen columns, node counts, candidate costs).
  const struct {
    const char* name;
    model::ConstraintGraph cg;
    commlib::Library lib;
  } corpus[] = {
      {"wan2002", workloads::wan2002(), commlib::wan_library()},
      {"mpeg4_soc", workloads::mpeg4_soc(), commlib::soc_library()},
      {"campus_lan", workloads::campus_lan(), commlib::lan_library()},
      {"mcm_board", workloads::mcm_board(), commlib::mcm_library()},
  };
  for (const auto& entry : corpus) {
    ASSERT_FALSE(
        partitioning_applies(entry.cg, [] {
          SynthesisOptions o;
          o.partitioning.enabled = true;
          return o;
        }()))
        << entry.name;
    SynthesisOptions off;
    SynthesisOptions on;
    on.partitioning.enabled = true;
    const SynthesisResult exact =
        synthesize(entry.cg, entry.lib, off).value();
    const SynthesisResult fallback =
        synthesize(entry.cg, entry.lib, on).value();
    expect_bit_identical(exact, fallback, entry.name);
    EXPECT_EQ(fallback.degradation.stage, exact.degradation.stage)
        << entry.name;
  }
}

TEST(PartitionedSynth, ForcedPartitionBracketedByExactAndPointToPoint) {
  // Force the partitioned path on wan2002 (threshold 1, 3-arc clusters).
  // wan2002 is deliberately merge-heavy -- its optimal mergings span most
  // of the instance -- so tiny forced clusters DO lose real cost (which is
  // exactly why the arc_threshold fallback exists; the scaling acceptance
  // bound lives on the large geo-WAN instances where clusters align with
  // the merge structure). What must hold unconditionally: the stitch is
  // bracketed by the exact optimum below and the all-point-to-point
  // baseline above, and the summed cluster lower bound stays honest.
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  const SynthesisResult exact = synthesize(cg, lib).value();
  const baseline::BaselineResult ptp =
      baseline::point_to_point_baseline(cg, lib);

  SynthesisOptions opts;
  opts.partitioning.enabled = true;
  opts.partitioning.arc_threshold = 1;
  opts.partitioning.max_cluster_arcs = 3;
  ASSERT_TRUE(partitioning_applies(cg, opts));
  const SynthesisResult part = synthesize(cg, lib, opts).value();

  EXPECT_TRUE(part.validation.ok());
  EXPECT_GE(part.total_cost, exact.total_cost - 1e-9);
  EXPECT_LE(part.total_cost, ptp.cost + 1e-9);
  EXPECT_GT(part.degradation.lower_bound, 0.0);
  EXPECT_LE(part.degradation.lower_bound, part.cover.cost + 1e-9);
  EXPECT_LE(part.degradation.optimality_gap, 0.10);
  EXPECT_GE(part.degradation.stage, SynthesisStage::kIncumbent);
  EXPECT_NE(part.degradation.reason.find("partitioned synthesis"),
            std::string::npos);
  EXPECT_FALSE(part.cover.optimal);  // global optimality is not proven
}

TEST(PartitionedSynth, LargeInstanceEndToEnd) {
  // A real multi-cluster instance through the public synthesize() entry:
  // valid implementation, every arc covered, honest gap.
  const model::ConstraintGraph cg =
      workloads::geo_wan(workloads::GeoWanParams::sized(150, 5));
  SynthesisOptions opts;
  opts.partitioning.enabled = true;
  const SynthesisResult r =
      synthesize(cg, commlib::wan_library(), opts).value();
  EXPECT_TRUE(r.validation.ok());
  EXPECT_GT(r.degradation.lower_bound, 0.0);
  EXPECT_LE(r.degradation.optimality_gap, 0.10);
  EXPECT_NE(r.degradation.reason.find("clusters"), std::string::npos);
}

// The acceptance contract for the parallel fan-out: the stitched result is
// a deterministic function of the instance alone, for ANY worker count.
// CI runs this suite under ThreadSanitizer as well (ci.yml tsan job).
TEST(PartitionedDeterminism, SameResultAtOneTwoEightThreads) {
  const model::ConstraintGraph cg =
      workloads::geo_wan(workloads::GeoWanParams::sized(150, 5));
  const commlib::Library lib = commlib::wan_library();
  SynthesisOptions opts;
  opts.partitioning.enabled = true;
  opts.threads = 1;
  const SynthesisResult serial = synthesize(cg, lib, opts).value();
  for (const int threads : {2, 8}) {
    opts.threads = threads;
    const SynthesisResult parallel = synthesize(cg, lib, opts).value();
    expect_bit_identical(serial, parallel, "threads");
    EXPECT_EQ(parallel.degradation.lower_bound,
              serial.degradation.lower_bound);
    EXPECT_EQ(parallel.degradation.reason, serial.degradation.reason);
  }
}

TEST(PartitionedDeterminism, FatTreeAcrossThreads) {
  const model::ConstraintGraph cg =
      workloads::fat_tree_traffic(workloads::FatTreeParams::sized(120, 3));
  const commlib::Library lib = commlib::wan_library();
  SynthesisOptions opts;
  opts.partitioning.enabled = true;
  opts.partitioning.arc_threshold = 32;
  opts.threads = 1;
  const SynthesisResult serial = synthesize(cg, lib, opts).value();
  EXPECT_TRUE(serial.validation.ok());
  opts.threads = 8;
  const SynthesisResult parallel = synthesize(cg, lib, opts).value();
  expect_bit_identical(serial, parallel, "fat_tree");
}

// FNV-1a over the IEEE-754 bits of every candidate cost, in candidate
// order: one number that moves when any priced merging moves by one ulp.
std::uint64_t candidate_cost_hash(const SynthesisResult& r) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const Candidate& c : r.candidates()) {
    const auto bits = std::bit_cast<std::uint64_t>(c.cost);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct Pin {
  double cover_cost;
  std::vector<std::size_t> chosen;
  std::size_t candidates;
  std::uint64_t cost_hash;
};

void expect_pinned(const SynthesisResult& r, const Pin& pin, const char* what) {
  EXPECT_EQ(r.cover.cost, pin.cover_cost) << what;
  EXPECT_EQ(r.cover.chosen, pin.chosen) << what;
  EXPECT_EQ(r.candidates().size(), pin.candidates) << what;
  EXPECT_EQ(candidate_cost_hash(r), pin.cost_hash) << what;
}

TEST(PricingCoverPin, PaperWan) {
  const SynthesisResult r =
      synthesize(workloads::wan2002(), commlib::wan_library()).value();
  expect_pinned(r,
                {464579.34718242241, {0, 1, 2, 6, 7, 38}, 65,
                 0xf312fab3eaf9e2a9ULL},
                "wan2002");
}

// The three segmented / fixed-cost libraries take the Nelder-Mead branch
// of price_merging and the chain and tree pricers, which the linear-cost
// WAN pins above never reach.
TEST(PricingCoverPin, NocMesh) {
  const SynthesisResult r =
      synthesize(workloads::noc_mesh({}), commlib::noc_library()).value();
  expect_pinned(r,
                {44.5, {10, 11, 14, 491, 1431, 1701}, 1724,
                 0x4552b5de4d8fc174ULL},
                "noc_mesh");
}

TEST(PricingCoverPin, McmBoard) {
  const SynthesisResult r =
      synthesize(workloads::mcm_board(), commlib::mcm_library()).value();
  expect_pinned(r,
                {65.14900812522076, {0, 1, 2, 3, 4, 5, 6, 9, 28}, 60,
                 0x108a8991fdb6ea64ULL},
                "mcm_board");
}

TEST(PricingCoverPin, CampusLan) {
  const SynthesisResult r =
      synthesize(workloads::campus_lan(), commlib::lan_library()).value();
  expect_pinned(r,
                {4555.6184713286057, {0, 1, 2, 3, 6, 9, 128}, 179,
                 0x2e6944d403542e0fULL},
                "campus_lan");
}

TEST(PricingCoverPin, PartitionedGeoWanAtOneAndFourThreads) {
  const model::ConstraintGraph cg =
      workloads::geo_wan(workloads::GeoWanParams::sized(320, 7));
  const commlib::Library lib = commlib::wan_library();
  // A kernel speed-up in pricing or covering must leave every bit in place.
  const std::vector<std::size_t> chosen = {
      0, 1, 5, 10, 13, 16, 20, 26, 71, 72, 75, 112, 184, 195, 209, 225, 230,
      381, 398, 403, 416, 428, 431, 472, 543, 600, 775, 781, 782, 784, 785,
      786, 787, 820, 889, 949, 950, 951, 952, 960, 961, 986, 987, 1011, 1060,
      1094, 1095, 1099, 1100, 1103, 1105, 1108, 1109, 1119, 1140, 1167, 1196,
      1197, 1203, 1213, 1221, 1232, 1239, 1253, 1284, 1317, 1478, 1479, 1480,
      1483, 1486, 1490, 1492, 1494, 1501, 1504, 1507, 1612, 1613, 1618, 1627,
      1641, 1645, 1652, 1666, 1776, 1777, 1778, 1779, 1780, 1782, 1785, 1786,
      1788, 1793, 1801, 1851, 1912, 1913, 1916, 1919, 1920, 1923, 1924, 1948,
      1955, 1987, 2079, 2082, 2085, 2092, 2162, 2163, 2164, 2165, 2166, 2169,
      2170, 2221, 2223, 2255, 2256, 2257, 2263, 2266, 2334, 2336, 2339, 2340,
      2341, 2342, 2343, 2363, 2377, 2383, 2386, 2391, 2420, 2587, 2603, 2604,
      2605, 2606, 2607, 2610, 2620, 2684, 2686, 2688, 2690, 2693, 2694, 2695,
      2812, 3043, 3177, 3730, 4135, 4136, 4137, 4138, 4141, 4757, 5261, 5564,
      6149, 6711, 6712, 6714, 6727, 6730, 6949, 7070, 7642, 8082, 8600, 8604,
      8611, 8653, 8660, 8691, 8837, 8955, 9367};
  const Pin pin{35518732.878199115, chosen, 9393, 0x3e5e0f0664374b66ULL};
  for (const int threads : {1, 4}) {
    SynthesisOptions opts;
    opts.partitioning.enabled = true;
    opts.threads = threads;
    const SynthesisResult r = synthesize(cg, lib, opts).value();
    expect_pinned(r, pin, threads == 1 ? "geo_wan t1" : "geo_wan t4");
  }
}

}  // namespace
}  // namespace cdcs::synth

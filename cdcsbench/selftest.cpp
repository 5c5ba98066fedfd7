// Self-tests of the benchmark's own arithmetic and inputs: percentiles and
// self time on hand-built cases, the edit stream's determinism and
// validity, the stability of the geo-WAN seed list, and the partitioned
// replay against the library on geo_wan(1000, seed 7).
//
//   cdcsbench_selftest          # exits 0 when every check passes
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "commlib/standard_libraries.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/scale_gen.hpp"
#include "workloads/wan2002.hpp"

namespace {

using namespace cdcsbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

void test_percentile() {
  expect(near(percentile({4, 1, 3, 2}, 50), 2.5), "p50 of 1..4 interpolates to 2.5");
  expect(near(percentile({4, 1, 3, 2}, 0), 1.0), "p0 is the minimum");
  expect(near(percentile({4, 1, 3, 2}, 100), 4.0), "p100 is the maximum");
  expect(near(percentile({7}, 99), 7.0), "a single sample is every percentile");
  std::vector<double> hundred_one;
  for (int i = 1; i <= 101; ++i) hundred_one.push_back(i);
  expect(near(percentile(hundred_one, 99), 100.0), "p99 of 1..101 is 100");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  expect(near(percentile(thousand, 99), 990.01), "p99 of 1..1000 is 990.01");
  expect(samples_beyond(thousand, 99) == 10, "1000 samples leave ten beyond p99");
  expect(near(mean({1, 2, 3, 6}), 3.0), "mean");
  // Cycles of two: means 2, 10, 2; the tail (7) is not a whole cycle.
  expect(near(median_cycle_mean({1, 3, 10, 10, 2, 2, 7}, 2), 2.0),
         "median of cycle means sets aside a slow cycle");
  expect(near(median_cycle_mean({5, 1, 3}, 1), 3.0), "one-sample cycles give the plain median");
}

SpanRecord span(const char* name, double a, double b, int parent) {
  return SpanRecord{name, a, b, parent, 0};
}

void test_self_time() {
  // op [0,10] with children [1,3] and [2,5] (overlapping), [8,12] (runs
  // past the parent), and a grandchild [3,4] under [2,5].
  const std::vector<SpanRecord> spans = {
      span("op", 0, 10, -1), span("a", 1, 3, 0), span("b", 2, 5, 0),
      span("c", 8, 12, 0),   span("d", 3, 4, 2),
  };
  const std::vector<double> self = self_times(spans);
  expect(near(self[0], 4.0), "self time subtracts the union of clipped children");
  expect(near(self[1], 2.0), "leaf self time is its duration");
  expect(near(self[2], 2.0), "grandchild time is charged to its own parent only");
  expect(near(self[3], 4.0), "a child's own self time is not clipped");
  expect(near(self[4], 1.0), "nested leaf");

  // Serial, properly nested spans: self times add up to the root's wall.
  const std::vector<SpanRecord> serial = {
      span("op", 0, 20, -1), span("g", 1, 6, 0), span("c", 6, 9, 0), span("v", 12, 19, 0),
  };
  const std::vector<double> s = self_times(serial);
  expect(near(s[0] + s[1] + s[2] + s[3], 20.0), "serial self times sum to the op wall");

  SpanRecorder rec;
  {
    SpanRecorder::Scope outer(rec, "outer");
    SpanRecorder::Scope inner(rec, "inner");
  }
  expect(rec.spans().size() == 2 && rec.spans()[1].parent == 0 && rec.spans()[0].parent == -1,
         "recorder nests spans by open order");
  expect(rec.spans()[0].end_ms >= rec.spans()[1].end_ms, "outer span closes last");
}

std::vector<std::string> stream(std::uint64_t seed, int n) {
  EditStream s(cdcs::workloads::wan2002(), seed);
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(cdcs::io::write_edit_script({{s.next()}}));
  return out;
}

void test_edit_stream() {
  const std::vector<std::string> a = stream(42, 500);
  expect(a == stream(42, 500), "edit stream is deterministic per seed");
  expect(a != stream(43, 500), "different seeds give different streams");

  // Replaying the stream on an independent graph accepts every batch.
  cdcs::model::ConstraintGraph g = cdcs::workloads::wan2002();
  EditStream s(cdcs::workloads::wan2002(), 42);
  bool all_valid = true;
  std::set<std::string> kinds;
  for (int i = 0; i < 500; ++i) {
    const cdcs::model::Delta d = s.next();
    all_valid &= d.ops.size() == 1 && cdcs::model::apply_delta(g, d).ok();
    kinds.insert(std::string(cdcs::model::op_kind(d.ops.front())));
  }
  expect(all_valid, "every batch is one op that apply_delta accepts");
  expect(kinds == std::set<std::string>{"add-arc", "move-port", "remove-arc", "set-bandwidth"},
         "the stream mixes all four edit kinds");
  expect(g.num_channels() == s.shadow().num_channels(), "shadow graph tracks the replay");
}

void test_seed_list() {
  const std::vector<std::uint64_t> list = geo_seed_list(1, 4);
  // Pinned: a changed list silently changes the geo_wan_1k inputs.
  const std::vector<std::uint64_t> pinned = {
      0x6514162999fcaeefull, 0xf1d24cc8d99439a8ull, 0x612d1eb27aebee52ull, 0x766175c7940a411dull,
  };
  expect(list == pinned, "geo seed list for workload seed 1 is pinned");
  const std::vector<std::uint64_t> two = geo_seed_list(1, 2);
  expect(std::equal(two.begin(), two.end(), list.begin()), "a shorter list is a prefix");
  expect(geo_seed_list(2, 4) != list, "another workload seed gives another list");
}

void test_partitioned_replay() {
  using namespace cdcs;
  const model::ConstraintGraph cg = workloads::geo_wan(workloads::GeoWanParams::sized(1000, 7));
  const commlib::Library lib = commlib::wan_library();
  synth::SynthesisOptions opts;
  opts.partitioning.enabled = true;
  const support::Expected<synth::SynthesisResult> lib_result = synth::synthesize(cg, lib, opts);
  SpanRecorder rec;
  Values v;
  const Replay replay = replay_partitioned(rec, cg, lib, opts, v, false);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", replay.stitched.cover.cost);
  expect(std::string(buf) == "113720021.019790",
         std::string("replay stitched cover cost on geo_wan(1000, 7) is 113720021.019790, got ") +
             buf);
  expect(lib_result.ok() && lib_result->cover.cost == replay.stitched.cover.cost &&
             lib_result->total_cost == replay.stitched.total_cost &&
             lib_result->cover.chosen == replay.stitched.cover.chosen,
         "replay matches the partitioned synthesize() bit for bit");
  expect(replay.stitched.validation.ok(), "stitched replay validates");
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_edit_stream();
  test_seed_list();
  test_partitioned_replay();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

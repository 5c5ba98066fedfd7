// Measurement helpers for the cdcs benchmark: a seeded generator, order
// statistics, an in-memory span recorder with self-time accounting, and the
// seeded inputs (the WAN edit stream and the geo-WAN seed list).
//
// Everything here is deterministic and independent of wall-clock timing, so
// selftest.cpp can check it on hand-built cases.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/edit_script.hpp"
#include "model/constraint_graph.hpp"
#include "model/delta.hpp"

namespace cdcsbench {

/// SplitMix64: the benchmark's only source of randomness, so a workload
/// seed fixes every generated input on every platform.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform-enough index in [0, n); n must be positive.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

// --- Order statistics ------------------------------------------------------

/// The p-th percentile (0..100) by linear interpolation between closest
/// ranks (numpy's default): rank = p/100 * (n-1). Throws on empty input.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no values");
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Median over the whole cycles of `cycle` samples of each cycle's mean; the
/// plain median when a cycle is one sample. A cycle holds each of a
/// workload's inputs once, so its mean weighs every input the same, and the
/// median over cycles sets aside cycles that neighbours on the host slowed.
/// A tail shorter than a cycle is left out.
inline double median_cycle_mean(const std::vector<double>& samples, std::size_t cycle) {
  cycle = std::max<std::size_t>(cycle, 1);
  if (samples.size() < cycle) throw std::invalid_argument("median_cycle_mean of no whole cycle");
  std::vector<double> means;
  for (std::size_t lo = 0; lo + cycle <= samples.size(); lo += cycle) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(lo);
    means.push_back(mean(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(cycle))));
  }
  return percentile(means, 50.0);
}

/// Samples strictly above the p-th percentile. A tail percentile means
/// something only when at least ten samples lie beyond it.
inline std::size_t samples_beyond(const std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  const double cut = percentile(values, p);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(), [&](double v) { return v > cut; }));
}

// --- Spans -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct SpanRecord {
  std::string name;
  double start_ms{0.0};  ///< relative to the recorder's epoch
  double end_ms{0.0};
  int parent{-1};        ///< index into the recorder's spans, -1 = root
  std::uint64_t op{0};   ///< spans of one traced op share this id
};

/// Keeps spans in memory (written out once, when the run ends). Spans nest
/// by open/close order on the calling thread; the benchmark calls every
/// layer from one thread, so the nesting is the call tree.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name) : rec_(rec), index_(rec.open(std::move(name))) {}
    ~Scope() { rec_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int index_;
  };

  void set_op(std::uint64_t op) { op_ = op; }

  int open(std::string name) {
    SpanRecord s;
    s.name = std::move(name);
    s.start_ms = now_ms();
    s.parent = current_;
    s.op = op_;
    spans_.push_back(std::move(s));
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ms = now_ms();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  double now_ms() const { return ms_between(epoch_, Clock::now()); }

  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  int current_{-1};
  std::uint64_t op_{0};
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent, overlaps
/// counted once).
inline std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms, s.end_ms);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = 0.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
      } else {
        if (open) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
        open = true;
      }
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

// --- Seeded inputs -----------------------------------------------------------

/// The geo_wan_1k instance seeds: `count` values drawn from the workload
/// seed. Every run with the same workload seed synthesizes the same list.
inline std::vector<std::uint64_t> geo_seed_list(std::uint64_t workload_seed,
                                                std::size_t count) {
  SplitMix64 rng(workload_seed ^ 0x67656f5f77616eULL);  // "geo_wan"
  std::vector<std::uint64_t> seeds(count);
  for (std::uint64_t& s : seeds) s = rng.next();
  return seeds;
}

/// The wan_edits designer session: an endless stream of one-op batches over
/// a base graph. Five in eight are set-bandwidth edits to 5, 10 or 20, one
/// in eight moves a port to its base position or one unit up and/or right
/// of it, and a quarter are structural: remove an arc, and on the next
/// structural draw add it back under its old name. The small value sets
/// make graph states recur, which is what a session's pricing cache feeds
/// on. Every batch is applied to a shadow graph before it is returned, so
/// the stream holds only batches model::apply_delta accepts.
class EditStream {
 public:
  EditStream(cdcs::model::ConstraintGraph base, std::uint64_t seed)
      : rng_(seed ^ 0x77616e5f65646974ULL),  // "wan_edit"
        shadow_(std::move(base)) {
    for (cdcs::model::VertexId v : shadow_.ports()) {
      base_ports_.push_back({shadow_.port(v).name, shadow_.position(v)});
    }
  }

  cdcs::model::Delta next() {
    cdcs::model::Delta delta;
    delta.ops.push_back(draw());
    cdcs::support::Expected<cdcs::model::DeltaEffect> applied =
        cdcs::model::apply_delta(shadow_, delta);
    if (!applied.ok()) {
      throw std::logic_error("edit stream produced an invalid batch: " +
                             cdcs::io::write_edit_script({{delta}}) + applied.status().to_string());
    }
    return delta;
  }

  /// The graph after every batch returned so far.
  const cdcs::model::ConstraintGraph& shadow() const { return shadow_; }

 private:
  struct BasePort {
    std::string name;
    cdcs::geom::Point2D position;
  };
  struct RemovedArc {
    std::string channel, source, target;
    double bandwidth{0.0};
  };

  cdcs::model::EditOp draw() {
    using namespace cdcs::model;
    static constexpr double kBandwidths[] = {5.0, 10.0, 20.0};
    static constexpr double kOffsets[] = {0.0, 1.0};
    const std::size_t kind = rng_.below(8);
    if (kind <= 4) {
      const std::vector<ArcId> arcs = shadow_.arcs();
      const ArcId a = arcs[rng_.below(arcs.size())];
      return SetBandwidthOp{shadow_.channel(a).name, kBandwidths[rng_.below(3)]};
    }
    if (kind == 5) {
      const BasePort& p = base_ports_[rng_.below(base_ports_.size())];
      const double dx = kOffsets[rng_.below(2)];
      const double dy = kOffsets[rng_.below(2)];
      return MovePortOp{p.name, {p.position.x + dx, p.position.y + dy}};
    }
    if (removed_) {
      RemovedArc r = std::move(*removed_);
      removed_.reset();
      return AddArcOp{r.channel, r.source, r.target, r.bandwidth};
    }
    const std::vector<ArcId> arcs = shadow_.arcs();
    const ArcId a = arcs[rng_.below(arcs.size())];
    removed_ = RemovedArc{shadow_.channel(a).name, shadow_.port(shadow_.source(a)).name,
                          shadow_.port(shadow_.target(a)).name, shadow_.bandwidth(a)};
    return RemoveArcOp{removed_->channel};
  }

  SplitMix64 rng_;
  cdcs::model::ConstraintGraph shadow_;
  std::vector<BasePort> base_ports_;
  std::optional<RemovedArc> removed_;
};

}  // namespace cdcsbench

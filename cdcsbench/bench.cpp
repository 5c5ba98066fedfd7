// cdcs benchmark: four closed-loop workloads driven through the library's
// public entry points, with end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced run. See README.md for the
// workloads, the metrics, and which layer metric should move which
// end-to-end metric.
//
//   cdcsbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// Everything before it is a human-readable report.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "commlib/standard_libraries.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "model/sanitize.hpp"
#include "model/validator.hpp"
#include "sim/flow.hpp"
#include "support/thread_pool.hpp"
#include "synth/assemble.hpp"
#include "synth/candidate_generator.hpp"
#include "synth/engine.hpp"
#include "synth/partition.hpp"
#include "synth/pipeline.hpp"
#include "synth/synthesizer.hpp"
#include "ucp/bnb.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/scale_gen.hpp"
#include "workloads/wan2002.hpp"

#ifndef CDCSBENCH_BUILD_TYPE
#define CDCSBENCH_BUILD_TYPE "unknown"
#endif

namespace cdcsbench {
namespace {

using namespace cdcs;
using Scope = SpanRecorder::Scope;

/// Fig. 4: the paper's minimum-cost WAN implementation.
constexpr double kWanPaperCost = 464579.347182;
/// Set-up runs at least kSetupMinReps times, and up to kSetupMaxReps while
/// the set-ups so far took under kSetupBudgetS of wall time; setup_s is
/// the median of their process CPU times.
constexpr std::size_t kSetupMinReps = 3;
constexpr std::size_t kSetupMaxReps = 25;
constexpr double kSetupBudgetS = 1.0;
/// geo_wan_1k instances per run, all derived from the workload seed.
constexpr std::size_t kGeoInstances = 8;
constexpr std::size_t kGeoArcs = 1000;
/// wan_edits: a cycle is kSessions sessions of kSessionEdits edits, each
/// from a fresh Engine with its own seeded stream; every cycle replays the
/// same sessions, so the op population, the cache's growth and the peak
/// memory do not depend on how many ops a run fits, and one run averages
/// over several streams.
constexpr std::size_t kSessions = 4;
constexpr std::size_t kSessionEdits = 200;

double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

/// Times one call.
template <typename F>
double timed_ms(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return ms_since(t0);
}

/// CPU time of the whole process: every thread, including pool workers
/// that have already exited.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Wall and process CPU time of one timed op.
struct OpTime {
  double wall_ms{0.0};
  double cpu_ms{0.0};
};

template <typename F>
OpTime timed_op(F&& f) {
  const double cpu0 = process_cpu_ms();
  const Clock::time_point t0 = Clock::now();
  f();
  const double wall = ms_since(t0);
  return OpTime{wall, process_cpu_ms() - cpu0};
}

// --- Correctness checks (never inside a timed region) -----------------------

/// Empty when `r` passes the independent Def 2.4 validation and the sim
/// flow capacity check; otherwise the first problem found.
std::string check_valid(const synth::SynthesisResult& r, model::CapacityPolicy policy) {
  if (!r.implementation) return "no implementation graph";
  const model::ValidationReport report = model::validate(*r.implementation, policy);
  if (!report.ok()) return "validate: " + report.problems.front();
  const sim::FlowAssignment flows = sim::assign_flows(*r.implementation);
  if (!flows.feasible()) return "flow: demand left unrouted";
  const std::vector<std::string> over = sim::capacity_violations(*r.implementation, flows);
  if (!over.empty()) return "flow: " + over.front();
  return {};
}

/// Empty when two results are the same synthesis outcome bit for bit.
std::string check_same(const synth::SynthesisResult& a, const synth::SynthesisResult& b,
                       const char* what) {
  if (a.total_cost != b.total_cost || a.cover.cost != b.cover.cost) {
    char buf[200];
    std::snprintf(buf, sizeof buf, "%s: cost %.6f vs %.6f, cover %.6f vs %.6f", what,
                  a.total_cost, b.total_cost, a.cover.cost, b.cover.cost);
    return buf;
  }
  if (a.cover.chosen != b.cover.chosen) return std::string(what) + ": different cover";
  if (a.candidates().size() != b.candidates().size()) {
    return std::string(what) + ": different candidate count";
  }
  if (a.degradation.stage != b.degradation.stage) return std::string(what) + ": different stage";
  return {};
}

/// FNV-1a over every candidate's rows and cost bits: equal fingerprints
/// mean the same cover problem.
std::uint64_t fingerprint(const synth::CandidateSet& set) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const synth::Candidate& c : set.candidates) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &c.cost, sizeof bits);
    mix(bits);
    mix(c.arcs.size());
    for (model::ArcId a : c.arcs) mix(a.index());
  }
  return h;
}

// --- Accounting ---------------------------------------------------------------

/// Ops attempted and failed, plus faults of the run itself (such as trace
/// accounting that does not add up), which also make the run incorrect.
struct Tally {
  std::size_t attempted{0};
  std::size_t failed{0};
  bool run_ok{true};
  std::vector<std::string> problems;  ///< first few, for the report

  /// One op; `problem` is empty when every check passed.
  void op(const std::string& problem) {
    ++attempted;
    if (!problem.empty()) {
      ++failed;
      note(problem);
    }
  }
  void run_fault(const std::string& problem) {
    run_ok = false;
    note(problem);
  }
  bool correct() const { return failed == 0 && run_ok; }

 private:
  void note(const std::string& problem) {
    if (problems.size() < 8) problems.push_back(problem);
  }
};

// --- Traced pipeline pieces -----------------------------------------------------

/// Re-prices every merging candidate of `set` through each structure
/// pricer (star, chain, tree), timing each pricer separately.
void reprice_probe(SpanRecorder& rec, const model::ConstraintGraph& cg,
                   const commlib::Library& lib, const synth::SynthesisOptions& opts,
                   const synth::CandidateSet& set, Values& v) {
  std::vector<std::vector<model::ArcId>> subsets;
  for (const synth::Candidate& c : set.candidates) {
    if (c.arcs.size() >= 2) subsets.push_back(c.arcs);
  }
  std::size_t priced = 0;
  const double star = span_ms(rec, "probe.price.star", [&] {
    for (const auto& s : subsets) priced += synth::price_merging(cg, lib, s, opts.policy).has_value();
  });
  const double chain = span_ms(rec, "probe.price.chain", [&] {
    for (const auto& s : subsets) {
      priced += synth::price_chain_merging(cg, lib, s, opts.policy).has_value();
    }
  });
  const double tree = span_ms(rec, "probe.price.tree", [&] {
    for (const auto& s : subsets) priced += synth::price_tree_merging(cg, lib, s, opts.policy).has_value();
  });
  if (priced == 0 && !subsets.empty()) throw std::runtime_error("re-pricing priced nothing");
  v["synth.price.star.ms"] = star;
  v["synth.price.chain.ms"] = chain;
  v["synth.price.tree.ms"] = tree;
  v["synth.price.subsets"] = static_cast<double>(subsets.size());
  v["price_us_total"] = (star + chain + tree) * 1000.0;
}

/// Construct + join a default-size ThreadPool, averaged over a few rounds.
void pool_spawn_probe(SpanRecorder& rec, Values& v) {
  constexpr int kRounds = 16;
  const double ms = span_ms(rec, "probe.pool.spawn", [&] {
    for (int i = 0; i < kRounds; ++i) {
      support::ThreadPool pool(support::resolve_thread_count(0));
    }
  });
  v["support.pool.spawn_us"] = ms * 1000.0 / kRounds;
}

/// generate_candidates at threads=1 and at the default, no cache.
void pricing_speedup_probe(SpanRecorder& rec, const model::ConstraintGraph& cg,
                           const commlib::Library& lib, synth::SynthesisOptions opts, Values& v) {
  opts.pricing_cache = nullptr;
  opts.pool = nullptr;
  opts.threads = 1;
  const double serial = span_ms(rec, "probe.generate.threads1", [&] {
    take(synth::generate_candidates(cg, lib, opts), "generate@1");
  });
  opts.threads = 0;
  const double parallel = span_ms(rec, "probe.generate.default", [&] {
    take(synth::generate_candidates(cg, lib, opts), "generate@default");
  });
  v["pool_serial_ms"] = serial;
  v["pool_default_ms"] = parallel;
}

/// How partition_graph splits an instance the workload does not partition.
void partition_probe(SpanRecorder& rec, const model::ConstraintGraph& cg, Values& v) {
  constexpr int kRounds = 10;
  synth::Partition part;
  const double ms = span_ms(rec, "probe.partition", [&] {
    for (int i = 0; i < kRounds; ++i) part = synth::partition_graph(cg, synth::PartitioningOptions{});
  });
  v["synth.partition.ms"] = ms / kRounds;
  v["synth.partition.clusters"] = static_cast<double>(part.clusters.size());
  v["synth.partition.repair_clusters"] = static_cast<double>(part.num_repair());
  v["synth.partition.boundary_arcs"] = static_cast<double>(part.boundary_arcs.size());
}

// --- Workloads ----------------------------------------------------------------

/// One workload: a set-up (repeated; the last one's state is kept), a timed
/// op with its checks, and a traced iteration.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  /// Untimed work the checks need before the first op (after set-up).
  virtual void prepare_checks() {}
  /// Ops in one cycle of the workload's inputs. Runs stop only at cycle
  /// boundaries, so every input weighs the same; cost_mean and the
  /// per-layer counts are taken over the first cycle, so they repeat
  /// exactly for a seed.
  virtual std::size_t cycle_ops() const = 0;
  /// One timed op; returns its wall and CPU time. Checks run after the
  /// clock stops.
  virtual OpTime op(std::size_t i, Tally& tally) = 0;
  /// Cost of op i's result (Def 2.5).
  virtual double last_cost() const = 0;
  /// One traced iteration: the op decomposed into layer spans (one "op"
  /// span holding them), plus probes outside it. Returns the wall time of
  /// the same op through its public entry point, for the overhead ratio.
  virtual double traced(std::size_t i, SpanRecorder& rec, Values& v, Tally& tally) = 0;
};

/// Paper WAN or 4x4 NoC: repeated cold synthesize() on one instance.
class ColdWorkload : public Workload {
 public:
  enum class Kind { kWan, kNoc };
  explicit ColdWorkload(Kind kind) : kind_(kind) {}

  void setup() override {
    cg_.reset();
    lib_.reset();
    if (kind_ == Kind::kWan) {
      cg_ = std::make_unique<model::ConstraintGraph>(workloads::wan2002());
      lib_ = std::make_unique<commlib::Library>(commlib::wan_library());
    } else {
      workloads::NocMeshParams p;  // 4x4 hotspot-memory traffic
      cg_ = std::make_unique<model::ConstraintGraph>(workloads::noc_mesh(p));
      lib_ = std::make_unique<commlib::Library>(commlib::noc_library());
    }
    const int warmups = kind_ == Kind::kWan ? 4 : 2;
    for (int i = 0; i < warmups; ++i) take(synth::synthesize(*cg_, *lib_, opts_), "warm-up");
  }

  /// NoC: solve the op's cover once more with a second exact backend
  /// (bnb_v2, seconds on this instance); every op must then produce the
  /// same candidate set and the same cover cost.
  void prepare_checks() override {
    if (kind_ != Kind::kNoc) return;
    const synth::SynthesisResult r = take(synth::synthesize(*cg_, *lib_, opts_), "reference");
    ucp::BnbOptions second;
    second.backend = "bnb_v2";
    const ucp::CoverSolution ref =
        ucp::solve_exact(synth::build_cover_problem(cg_->num_channels(), r.candidate_set), second);
    if (!ref.optimal || std::fabs(ref.cost - r.cover.cost) > 1e-9 * std::max(1.0, ref.cost)) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "NoC cover %.9f, bnb_v2 %.9f (optimal %d)", r.cover.cost,
                    ref.cost, ref.optimal ? 1 : 0);
      throw std::runtime_error(buf);
    }
    reference_ = ReferenceCover{fingerprint(r.candidate_set), r.cover.cost};
    take(synth::synthesize(*cg_, *lib_, opts_), "warm-up");  // re-warm after the re-solve
  }

  std::size_t cycle_ops() const override { return 1; }

  OpTime op(std::size_t, Tally& tally) override {
    support::Expected<synth::SynthesisResult> r{support::Status::Internal("unset")};
    const OpTime t = timed_op([&] { r = synth::synthesize(*cg_, *lib_, opts_); });
    tally.op(check(r));
    return t;
  }

  double last_cost() const override { return cost_; }

  double traced(std::size_t, SpanRecorder& rec, Values& v, Tally& tally) override {
    support::Expected<synth::SynthesisResult> box{support::Status::Internal("unset")};
    const double blackbox_ms = timed_ms([&] { box = synth::synthesize(*cg_, *lib_, opts_); });
    std::string problem = check(box);

    synth::SynthesisResult traced;
    {
      Scope op(rec, "op");
      require_inputs(*cg_, *lib_);
      traced_pipeline(rec, *cg_, *lib_, opts_, nullptr, traced);
    }
    if (problem.empty()) problem = check_same(traced, *box, "traced op vs synthesize()");
    tally.op(problem);
    generation_counts(traced.candidate_set, v);
    cover_counts(traced.cover, v);
    reprice_probe(rec, *cg_, *lib_, opts_, traced.candidate_set, v);
    pool_spawn_probe(rec, v);
    pricing_speedup_probe(rec, *cg_, *lib_, opts_, v);
    partition_probe(rec, *cg_, v);
    return blackbox_ms;
  }

 private:
  std::string check(const support::Expected<synth::SynthesisResult>& r) {
    if (!r.ok()) return "synthesize: " + r.status().to_string();
    if (r->degradation.stage != synth::SynthesisStage::kExact) return "stage is not exact";
    std::string problem = check_valid(*r, opts_.policy);
    if (!problem.empty()) return problem;
    if (kind_ == Kind::kWan) {
      if (std::fabs(r->total_cost - kWanPaperCost) > 5e-7) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "WAN cost %.6f, paper %.6f", r->total_cost, kWanPaperCost);
        return buf;
      }
    } else if (!reference_ || fingerprint(r->candidate_set) != reference_->candidates ||
               r->cover.cost != reference_->cost) {
      return "NoC cover differs from the bnb_v2-checked reference";
    }
    cost_ = r->total_cost;
    return {};
  }

  Kind kind_;
  synth::SynthesisOptions opts_;
  std::unique_ptr<model::ConstraintGraph> cg_;
  std::unique_ptr<commlib::Library> lib_;
  struct ReferenceCover {
    std::uint64_t candidates{0};
    double cost{0.0};
  };
  std::optional<ReferenceCover> reference_;
  double cost_{0.0};
};

/// A designer session on the paper WAN: one Engine, seeded one-op edits.
class EditsWorkload : public Workload {
 public:
  /// `traced` also keeps the outside replica of each session that the
  /// traced run decomposes.
  EditsWorkload(std::uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}

  void setup() override {
    lib_ = std::make_unique<commlib::Library>(commlib::wan_library());
    start_session(0);
  }

  std::size_t cycle_ops() const override { return kSessions * kSessionEdits; }

  OpTime op(std::size_t i, Tally& tally) override {
    if (i > 0 && i % kSessionEdits == 0) start_session(i / kSessionEdits % kSessions);
    const model::Delta batch = stream_->next();
    support::Expected<synth::SynthesisResult> r{support::Status::Internal("unset")};
    const OpTime t = timed_op([&] { r = engine_->apply(batch); });
    tally.op(check(r, nullptr));
    return t;
  }

  double last_cost() const override { return cost_; }

  double traced(std::size_t i, SpanRecorder& rec, Values& v, Tally& tally) override {
    if (i > 0 && i % kSessionEdits == 0) start_session(i / kSessionEdits % kSessions);
    const model::Delta batch = stream_->next();
    const synth::Engine::SessionStats before = engine_->stats();
    support::Expected<synth::SynthesisResult> box{support::Status::Internal("unset")};
    const double blackbox_ms = timed_ms([&] { box = engine_->apply(batch); });
    const synth::Engine::SessionStats after = engine_->stats();
    double fresh_ms = 0.0;
    std::string problem = check(box, &fresh_ms);

    synth::SynthesisResult traced;
    {
      Scope op(rec, "op");
      take(model::apply_delta(*mirror_, batch), "mirror delta");
      require_inputs(*mirror_, *lib_);
      synth::SynthesisOptions o = opts_;
      o.pricing_cache = mirror_cache_.get();
      traced_pipeline(rec, *mirror_, *lib_, o, &mirror_session_, traced);
    }
    if (problem.empty()) problem = check_same(traced, *box, "outside replica vs Engine::apply");
    tally.op(problem);
    v["synth.engine.pricing_hits"] = static_cast<double>(after.pricing_hits - before.pricing_hits);
    v["synth.engine.pricing_misses"] =
        static_cast<double>(after.pricing_misses - before.pricing_misses);
    v["synth.engine.cover_reuses"] = static_cast<double>(after.cover_reuses - before.cover_reuses);
    v["synth.engine.cover_solves"] = static_cast<double>(after.cover_solves - before.cover_solves);
    v["synth.engine.dirty_arcs"] = static_cast<double>(after.last_dirty_arcs);
    v["engine_apply_ms"] = blackbox_ms;
    v["engine_fresh_ms"] = fresh_ms;
    generation_counts(traced.candidate_set, v);
    cover_counts(traced.cover, v);
    reprice_probe(rec, engine_->graph(), *lib_, opts_, traced.candidate_set, v);
    pool_spawn_probe(rec, v);
    pricing_speedup_probe(rec, engine_->graph(), *lib_, opts_, v);
    partition_probe(rec, engine_->graph(), v);
    return blackbox_ms;
  }

 private:
  /// Session k of the cycle: a fresh Engine, its first resynthesize(), and
  /// edit stream k from its start. In a traced run the outside replica of
  /// the session (its own graph, pricing cache and cover-reuse state)
  /// restarts with it.
  void start_session(std::size_t k) {
    engine_ = std::make_unique<synth::Engine>(workloads::wan2002(), *lib_);
    take(engine_->resynthesize(), "first resynthesize");
    stream_ = std::make_unique<EditStream>(workloads::wan2002(), seed_ * kSessions + k);
    if (!traced_) return;
    mirror_ = std::make_unique<model::ConstraintGraph>(workloads::wan2002());
    mirror_cache_ = std::make_unique<synth::PricingCache>();
    mirror_session_ = synth::SessionState{};
    synth::SynthesisOptions o = opts_;
    o.pricing_cache = mirror_cache_.get();
    SpanRecorder untimed;
    synth::SynthesisResult base;
    traced_pipeline(untimed, *mirror_, *lib_, o, &mirror_session_, base);
  }

  /// The result must equal a fresh synthesize() on engine.graph().
  std::string check(const support::Expected<synth::SynthesisResult>& r, double* fresh_ms) {
    if (!r.ok()) return "apply: " + r.status().to_string();
    std::string problem = check_valid(*r, opts_.policy);
    if (!problem.empty()) return problem;
    support::Expected<synth::SynthesisResult> fresh{support::Status::Internal("unset")};
    const double ms = timed_ms([&] { fresh = synth::synthesize(engine_->graph(), *lib_, opts_); });
    if (fresh_ms != nullptr) *fresh_ms = ms;
    if (!fresh.ok()) return "fresh synthesize: " + fresh.status().to_string();
    problem = check_same(*r, *fresh, "Engine::apply vs synthesize()");
    if (!problem.empty()) return problem;
    cost_ = r->total_cost;
    return {};
  }

  std::uint64_t seed_;
  bool traced_;
  synth::SynthesisOptions opts_;
  std::unique_ptr<commlib::Library> lib_;
  std::unique_ptr<synth::Engine> engine_;
  std::unique_ptr<EditStream> stream_;
  std::unique_ptr<model::ConstraintGraph> mirror_;
  std::unique_ptr<synth::PricingCache> mirror_cache_;
  synth::SessionState mirror_session_;
  double cost_{0.0};
};

/// Repeated partitioned synthesize() on 1,000-arc geo-WAN instances.
class GeoWorkload : public Workload {
 public:
  explicit GeoWorkload(std::uint64_t seed) : seeds_(geo_seed_list(seed, kGeoInstances)) {
    opts_.partitioning.enabled = true;
  }

  void setup() override {
    graphs_.clear();
    lib_ = std::make_unique<commlib::Library>(commlib::wan_library());
    for (std::uint64_t s : seeds_) {
      graphs_.push_back(workloads::geo_wan(workloads::GeoWanParams::sized(kGeoArcs, s)));
    }
    take(synth::synthesize(graphs_.front(), *lib_, opts_), "warm-up");
    costs_.assign(graphs_.size(), std::nullopt);
  }

  std::size_t cycle_ops() const override { return seeds_.size(); }

  OpTime op(std::size_t i, Tally& tally) override {
    const std::size_t g = i % graphs_.size();
    support::Expected<synth::SynthesisResult> r{support::Status::Internal("unset")};
    const OpTime t = timed_op([&] { r = synth::synthesize(graphs_[g], *lib_, opts_); });
    tally.op(check(g, r));
    return t;
  }

  double last_cost() const override { return cost_; }

  double traced(std::size_t i, SpanRecorder& rec, Values& v, Tally& tally) override {
    const std::size_t g = i % graphs_.size();
    const model::ConstraintGraph& cg = graphs_[g];

    // Black boxes: the default (parallel) partitioned op, and the same op
    // at threads=1, which runs clusters serially like the replay below.
    support::Expected<synth::SynthesisResult> box{support::Status::Internal("unset")};
    const double parallel_ms = timed_ms([&] { box = synth::synthesize(cg, *lib_, opts_); });
    std::string problem = check(g, box);
    synth::SynthesisOptions serial = opts_;
    serial.threads = 1;
    support::Expected<synth::SynthesisResult> box1{support::Status::Internal("unset")};
    const double blackbox_ms = timed_ms([&] { box1 = synth::synthesize(cg, *lib_, serial); });
    if (problem.empty()) problem = check(g, box1);

    // Serial replay from outside, the traced op.
    Replay replay;
    {
      Scope op(rec, "op");
      require_inputs(cg, *lib_);
      replay = replay_partitioned(rec, cg, *lib_, opts_, v, i == 0);
    }
    const synth::SynthesisResult& stitched = replay.stitched;
    if (problem.empty()) problem = check_same(stitched, *box, "cluster replay vs synthesize()");
    if (problem.empty()) problem = check_same(stitched, *box1, "cluster replay vs threads=1");
    if (problem.empty() && !stitched.validation.ok()) problem = "replay: invalid stitched result";
    tally.op(problem);
    const synth::Partition& part = replay.partition;
    v["synth.partition.clusters"] = static_cast<double>(part.clusters.size());
    v["synth.partition.repair_clusters"] = static_cast<double>(part.num_repair());
    v["synth.partition.boundary_arcs"] = static_cast<double>(part.boundary_arcs.size());
    v["fanout_work_ms"] = replay.cluster_work_ms;
    v["fanout_wall_ms"] = parallel_ms;
    pool_spawn_probe(rec, v);
    if (i == 0) {
      // The costly probes run on the first instance only.
      reprice_probe(rec, cg, *lib_, opts_, stitched.candidate_set, v);
      double serial_gen = 0.0;
      double parallel_gen = 0.0;
      const synth::SynthesisOptions narrow = cluster_options(opts_);
      synth::SynthesisOptions wide = narrow;
      wide.threads = 0;
      for (const model::ConstraintGraph& sub : replay.subgraphs) {
        serial_gen += span_ms(rec, "probe.generate.threads1", [&] {
          take(synth::generate_candidates(sub, *lib_, narrow), "generate@1");
        });
        parallel_gen += span_ms(rec, "probe.generate.default", [&] {
          take(synth::generate_candidates(sub, *lib_, wide), "generate@default");
        });
      }
      v["pool_serial_ms"] = serial_gen;
      v["pool_default_ms"] = parallel_gen;
    }
    return blackbox_ms;
  }

 private:
  std::string check(std::size_t g, const support::Expected<synth::SynthesisResult>& r) {
    if (!r.ok()) return "synthesize: " + r.status().to_string();
    if (r->degradation.stage > synth::SynthesisStage::kIncumbent) {
      return "stage worse than incumbent: " + std::string(synth::to_string(r->degradation.stage));
    }
    const std::string problem = check_valid(*r, opts_.policy);
    if (!problem.empty()) return problem;
    if (costs_[g] && *costs_[g] != r->total_cost) return "cost changed between repeats";
    costs_[g] = r->total_cost;
    cost_ = r->total_cost;
    return {};
  }

  std::vector<std::uint64_t> seeds_;
  synth::SynthesisOptions opts_;
  std::unique_ptr<commlib::Library> lib_;
  std::vector<model::ConstraintGraph> graphs_;
  std::vector<std::optional<double>> costs_;
  double cost_{0.0};
};

// --- Reporting -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Host and build facts that decide whether two result files compare.
std::string host_json() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string s = "{\"nproc\":" + std::to_string(nproc) +
                  ",\"hardware_threads\":" + std::to_string(std::thread::hardware_concurrency()) +
                  ",\"library_threads\":" + std::to_string(support::resolve_thread_count(0)) +
                  ",\"compiler\":\"" + json_escape(compiler_id()) + "\"" +
                  ",\"build_type\":\"" + CDCSBENCH_BUILD_TYPE + "\"" +
#ifdef NDEBUG
                  ",\"ndebug\":true" +
#else
                  ",\"ndebug\":false" +
#endif
                  "}";
  return s;
}

/// Peak resident set of this process image (VmHWM). Not getrusage's
/// ru_maxrss: Linux keeps that across exec, so the peak of whatever
/// launched the benchmark (the Python runner, about 14 MB) would floor it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string out_dir = ".bench_build/traces";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "wan_cold") return std::make_unique<ColdWorkload>(ColdWorkload::Kind::kWan);
  if (a.workload == "noc_cold") return std::make_unique<ColdWorkload>(ColdWorkload::Kind::kNoc);
  if (a.workload == "wan_edits") return std::make_unique<EditsWorkload>(a.seed, a.trace);
  if (a.workload == "geo_wan_1k") return std::make_unique<GeoWorkload>(a.seed);
  throw std::invalid_argument("unknown workload '" + a.workload +
                              "' (wan_cold, noc_cold, wan_edits, geo_wan_1k)");
}

void print_result(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// Untraced run: set-up (repeated) and the timed closed loop.
int run_untraced(const Args& a, Workload& wl) {
  std::vector<double> setups;  // CPU seconds per set-up
  double setup_wall_s = 0.0;
  while (setups.size() < kSetupMinReps ||
         (setups.size() < kSetupMaxReps && setup_wall_s < kSetupBudgetS)) {
    const OpTime t = timed_op([&] { wl.setup(); });
    setups.push_back(t.cpu_ms / 1000.0);
    setup_wall_s += t.wall_ms / 1000.0;
  }
  wl.prepare_checks();

  Tally tally;
  std::vector<double> lat;
  std::vector<double> cpu;
  std::vector<double> prefix_costs;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i > 0 && i % wl.cycle_ops() == 0 && ms_since(start) >= a.seconds * 1000.0) break;
    const std::size_t failed_before = tally.failed;
    const OpTime t = wl.op(i, tally);
    lat.push_back(t.wall_ms);
    cpu.push_back(t.cpu_ms);
    if (i < wl.cycle_ops()) {
      prefix_costs.push_back(tally.failed == failed_before ? wl.last_cost() : 0.0);
    }
  }
  const double busy_s = [&] {
    double s = 0.0;
    for (double l : lat) s += l;
    return s / 1000.0;
  }();
  const double error_rate = static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  const std::vector<Metric> metrics = {
      {"setup_s", percentile(setups, 50.0), "s"},
      {"cpu_ms_per_op", median_cycle_mean(cpu, wl.cycle_ops()), "ms/op"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"cost_mean", mean(prefix_costs), "cost/op"},
      {"success_rate", 1.0 - error_rate, "ok/op"},
  };
  std::printf("# workload %s seed %llu: %zu timed ops over %.3f s busy\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), lat.size(), busy_s);
  std::printf("# setup runs (CPU s):");
  for (double s : setups) std::printf(" %.6f", s);
  std::printf("\n# end-to-end metrics:\n");
  print_table(metrics);
  std::printf("  %-36s %16.6f %s\n", "error_rate", error_rate, "failed/attempted");
  // Wall-clock figures, reported but not tracked: on a shared host whose
  // CPUs other guests steal in bursts, a stolen CPU stalls the whole
  // multi-threaded op, so these follow the host more than the program
  // (throughput is the inverse of the mean latency for one closed-loop
  // client).
  std::printf("  %-36s %16.6f %s\n", "throughput_ops_s",
              static_cast<double>(lat.size()) / busy_s, "ops/s");
  for (const double p : {50.0, 90.0, 99.0}) {
    std::printf("  latency_ms_p%-24.0f %16.6f ms/op (%zu ops beyond)\n", p, percentile(lat, p),
                samples_beyond(lat, p));
  }
  for (const std::string& p : tally.problems) std::printf("# FAILED: %s\n", p.c_str());
  const bool correct = tally.correct();
  print_result(correct, tally, metrics);
  return correct ? 0 : 1;
}

/// Traced run: the op decomposed into layer spans, plus probes.
int run_traced(const Args& a, Workload& wl) {
  for (std::size_t r = 0; r < kSetupMinReps; ++r) wl.setup();
  wl.prepare_checks();
  Tally tally;
  SpanRecorder rec;
  std::vector<double> box_wall;  // per traced op: the black-box wall time
  std::vector<Values> iters;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i > 0 && i % wl.cycle_ops() == 0 && ms_since(start) >= a.seconds * 1000.0) break;
    rec.set_op(i);
    Values v;
    box_wall.push_back(wl.traced(i, rec, v, tally));
    iters.push_back(std::move(v));
  }

  // Per-op layer times from the spans: each "op" span's self time is the
  // unattributed remainder, and each layer is the sum of its spans' self
  // times inside that op.
  const std::vector<SpanRecord>& spans = rec.spans();
  const std::vector<double> self = self_times(spans);
  std::vector<Values> layers(box_wall.size());
  std::vector<double> op_wall(box_wall.size(), 0.0);
  std::vector<double> cover_repair_max(box_wall.size(), 0.0);
  std::vector<int> op_span(spans.size(), -1);  // enclosing op span per span
  for (std::size_t s = 0; s < spans.size(); ++s) {
    if (spans[s].name == "op") {
      op_span[s] = static_cast<int>(s);
    } else if (spans[s].parent >= 0) {
      op_span[s] = op_span[static_cast<std::size_t>(spans[s].parent)];
    }
  }
  for (std::size_t s = 0; s < spans.size(); ++s) {
    if (op_span[s] < 0) continue;  // a probe, outside every op
    const std::size_t k = spans[s].op;
    const double dur = spans[s].end_ms - spans[s].start_ms;
    if (spans[s].name == "op") {
      op_wall[k] = dur;
      layers[k]["synth.pipeline.unattributed_ms"] += self[s];
      continue;
    }
    const std::string& n = spans[s].name;
    const std::string layer = n.substr(0, n.find('/'));
    const std::string kind = n.find('/') == std::string::npos ? "" : n.substr(n.find('/') + 1);
    layers[k][layer + ".ms"] += self[s];
    if (!kind.empty()) {
      const std::string stage = layer == "synth.generate" ? "generate_ms" : "cover_ms";
      layers[k]["synth.cluster." + kind + "." + stage] += self[s];
      if (kind == "repair" && stage == "cover_ms") {
        cover_repair_max[k] = std::max(cover_repair_max[k], dur);
      }
    }
  }
  // Identity check: the layer spans plus the unattributed remainder add up
  // to the op's wall time.
  for (std::size_t k = 0; k < box_wall.size(); ++k) {
    double sum = 0.0;
    for (const auto& [name, ms] : layers[k]) {
      if (name.rfind("synth.cluster.", 0) != 0) sum += ms;
    }
    if (std::fabs(sum - op_wall[k]) > 1e-6 * std::max(1.0, op_wall[k])) {
      tally.run_fault("trace accounting: layers do not add up to the op wall");
      break;
    }
  }

  const std::size_t n = box_wall.size();
  const std::size_t prefix = std::min(n, wl.cycle_ops());
  auto mean_of = [&](const std::vector<Values>& rows, const std::string& key, std::size_t upto) {
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t k = 0; k < upto; ++k) {
      const auto it = rows[k].find(key);
      if (it == rows[k].end()) continue;
      sum += it->second;
      ++count;
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  };
  auto sum_of = [&](const std::string& key, std::size_t upto) {
    double sum = 0.0;
    for (std::size_t k = 0; k < upto; ++k) {
      const auto it = iters[k].find(key);
      if (it != iters[k].end()) sum += it->second;
    }
    return sum;
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto layer_ms = [&](const std::string& key) { return mean_of(layers, key, n); };
  auto count = [&](const std::string& key) { return mean_of(iters, key, prefix); };

  std::vector<double> traced_wall(op_wall.begin(), op_wall.end());
  const double hits = sum_of("synth.engine.pricing_hits", prefix);
  const double misses = sum_of("synth.engine.pricing_misses", prefix);
  const double reuses = sum_of("synth.engine.cover_reuses", prefix);
  const double solves = sum_of("synth.engine.cover_solves", prefix);

  std::vector<Metric> metrics = {
      {"synth.generate.ms", layer_ms("synth.generate.ms"), "ms/op"},
      {"synth.generate.subsets_examined", count("synth.generate.subsets_examined"), "count/op"},
      {"synth.generate.candidates", count("synth.generate.candidates"), "count/op"},
      {"synth.price.star.ms", mean_of(iters, "synth.price.star.ms", n), "ms/op"},
      {"synth.price.chain.ms", mean_of(iters, "synth.price.chain.ms", n), "ms/op"},
      {"synth.price.tree.ms", mean_of(iters, "synth.price.tree.ms", n), "ms/op"},
      {"synth.price.subsets", count("synth.price.subsets"), "count/op"},
      {"synth.price.us_per_subset",
       ratio(sum_of("price_us_total", n), sum_of("synth.price.subsets", n)), "us"},
      {"synth.engine.pricing_hit_rate", ratio(hits, hits + misses), "hits/lookup"},
      {"synth.engine.pricing_misses", misses, "count"},
      {"synth.engine.cover_reuse_rate", ratio(reuses, reuses + solves), "reuses/cover"},
      {"synth.engine.dirty_arcs", count("synth.engine.dirty_arcs"), "count/op"},
      {"synth.engine.speedup_vs_scratch",
       ratio(sum_of("engine_fresh_ms", n), sum_of("engine_apply_ms", n)), "x"},
      {"ucp.cover.ms", layer_ms("ucp.cover.ms"), "ms/op"},
      {"ucp.cover.nodes", count("ucp.cover.nodes"), "count/op"},
      {"ucp.cover.rows", count("ucp.cover.rows"), "count/op"},
      {"ucp.cover.cols", count("ucp.cover.cols"), "count/op"},
      {"ucp.cover.dense_dp_share",
       ratio(sum_of("cover_dense_dp", prefix), sum_of("cover_solves", prefix)), "solves/solve"},
      {"synth.assemble.ms", layer_ms("synth.assemble.ms"), "ms/op"},
      {"model.validate.ms", layer_ms("model.validate.ms"), "ms/op"},
      {"synth.partition.ms",
       layer_ms("synth.partition.ms") > 0.0 ? layer_ms("synth.partition.ms")
                                            : mean_of(iters, "synth.partition.ms", n),
       "ms/op"},
      {"synth.partition.clusters", count("synth.partition.clusters"), "count/op"},
      {"synth.partition.repair_clusters", count("synth.partition.repair_clusters"), "count/op"},
      {"synth.partition.boundary_arcs", count("synth.partition.boundary_arcs"), "count/op"},
      {"synth.partition.fanout_speedup",
       ratio(sum_of("fanout_work_ms", n), sum_of("fanout_wall_ms", n)), "x"},
      {"support.pool.spawn_us", mean_of(iters, "support.pool.spawn_us", n), "us"},
      {"support.pool.pricing_speedup",
       ratio(sum_of("pool_serial_ms", n), sum_of("pool_default_ms", n)), "x"},
      {"synth.pipeline.unattributed_ms", layer_ms("synth.pipeline.unattributed_ms"), "ms/op"},
      {"synth.pipeline.traced_op_ms", mean(traced_wall), "ms/op"},
      {"trace.overhead_ratio", ratio(percentile(traced_wall, 50.0), percentile(box_wall, 50.0)),
       "x"},
  };
  // Per-cluster breakdown: only geo_wan_1k partitions, so these are not in
  // the per-layer list every workload reports; printed and written here.
  std::vector<Metric> cluster_metrics = {
      {"synth.cluster.interior.generate_ms", layer_ms("synth.cluster.interior.generate_ms"),
       "ms/op"},
      {"synth.cluster.interior.cover_ms", layer_ms("synth.cluster.interior.cover_ms"), "ms/op"},
      {"synth.cluster.repair.generate_ms", layer_ms("synth.cluster.repair.generate_ms"), "ms/op"},
      {"synth.cluster.repair.cover_ms", layer_ms("synth.cluster.repair.cover_ms"), "ms/op"},
      {"synth.cluster.repair.cover_ms_max", mean(cover_repair_max), "ms/op"},
  };

  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) tally.run_fault(m.name + " is not a finite number");
  }
  std::printf("# workload %s seed %llu (traced): %zu traced ops, %zu spans\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), n, spans.size());
  std::printf("# per-layer metrics:\n");
  print_table(metrics);
  const bool partitions = layer_ms("synth.partition.ms") > 0.0;
  std::printf("# per-cluster breakdown%s:\n",
              partitions ? "" : " (absent: this workload does not partition)");
  if (partitions) print_table(cluster_metrics);
  for (const std::string& p : tally.problems) std::printf("# FAILED: %s\n", p.c_str());

  // Spans and metrics go to disk once, at the end of the run.
  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  const std::string path = a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) +
                           ".spans.json";
  std::ofstream out(path);
  if (out) {
    out << "{\"host\": " << host_json() << ",\n \"workload\": \"" << a.workload
        << "\", \"seed\": " << a.seed << ",\n \"metrics\": {";
    bool first = true;
    for (const std::vector<Metric>* list : {&metrics, &cluster_metrics}) {
      for (const Metric& m : *list) {
        out << (first ? "" : ", ") << "\"" << m.name << "\": " << json_number(m.value);
        first = false;
      }
    }
    out << "},\n \"spans\": [\n";
    for (std::size_t s = 0; s < spans.size(); ++s) {
      out << "  {\"name\": \"" << spans[s].name << "\", \"op\": " << spans[s].op
          << ", \"parent\": " << spans[s].parent << ", \"start_ms\": "
          << json_number(spans[s].start_ms) << ", \"end_ms\": " << json_number(spans[s].end_ms)
          << ", \"self_ms\": " << json_number(self[s]) << "}"
          << (s + 1 < spans.size() ? ",\n" : "\n");
    }
    out << " ]}\n";
    std::printf("# spans written to %s\n", path.c_str());
  }

  const bool correct = tally.correct();
  print_result(correct, tally, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cdcsbench

int main(int argc, char** argv) {
  using namespace cdcsbench;
  try {
    const Args args = parse_args(argc, argv);
    std::unique_ptr<Workload> wl = make_workload(args);
    std::printf("# host %s\n", host_json().c_str());
    std::fflush(stdout);
    return args.trace ? run_traced(args, *wl) : run_untraced(args, *wl);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cdcsbench: %s\n", e.what());
    return 2;
  }
}

// The synthesis op called layer by layer through the library's public
// entry points, each call inside a span: the plain pipeline (generate,
// cover, assemble, validate) and the partitioned path replayed from outside
// (partition_graph, then generate + cover per cluster, stitch, assemble,
// validate).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "model/sanitize.hpp"
#include "model/validator.hpp"
#include "synth/assemble.hpp"
#include "synth/candidate_generator.hpp"
#include "synth/partition.hpp"
#include "synth/pipeline.hpp"
#include "synth/result.hpp"

namespace cdcsbench {

/// One traced iteration's values, keyed by metric name.
using Values = std::map<std::string, double>;

template <typename T>
T take(cdcs::support::Expected<T>&& e, const char* what) {
  if (!e.ok()) throw std::runtime_error(std::string(what) + ": " + e.status().to_string());
  return *std::move(e);
}

inline void require_inputs(const cdcs::model::ConstraintGraph& cg,
                           const cdcs::commlib::Library& lib) {
  const cdcs::support::Status gate = cdcs::model::check_inputs(cg, lib);
  if (!gate.ok()) throw std::runtime_error("inputs: " + gate.to_string());
}

/// Runs `f` inside a span and returns the span's duration.
template <typename F>
double span_ms(SpanRecorder& rec, const std::string& name, F&& f) {
  const int idx = rec.open(name);
  f();
  rec.close(idx);
  const SpanRecord& s = rec.spans()[static_cast<std::size_t>(idx)];
  return s.end_ms - s.start_ms;
}

inline void generation_counts(const cdcs::synth::CandidateSet& set, Values& v) {
  v["synth.generate.subsets_examined"] += static_cast<double>(set.stats.subsets_examined);
  v["synth.generate.candidates"] += static_cast<double>(set.candidates.size());
}

inline void cover_counts(const cdcs::ucp::CoverSolution& c, Values& v) {
  v["ucp.cover.nodes"] += static_cast<double>(c.nodes_explored);
  v["ucp.cover.rows"] += static_cast<double>(c.rows);
  v["ucp.cover.cols"] += static_cast<double>(c.cols);
  v["cover_solves"] += 1.0;
  v["cover_dense_dp"] += c.backend == "dense_dp" ? 1.0 : 0.0;
}

/// Stages 2-5 of synthesize() called from outside, each in its own span:
/// synth.generate, ucp.cover (build_cover_problem + solve_exact, behind
/// cover_and_ladder), synth.assemble, model.validate.
inline void traced_pipeline(SpanRecorder& rec, const cdcs::model::ConstraintGraph& cg,
                            const cdcs::commlib::Library& lib,
                            const cdcs::synth::SynthesisOptions& opts,
                            cdcs::synth::SessionState* session, cdcs::synth::SynthesisResult& out) {
  using namespace cdcs;
  span_ms(rec, "synth.generate", [&] {
    out.candidate_set = take(synth::generate_candidates(cg, lib, opts), "generate");
  });
  span_ms(rec, "ucp.cover", [&] {
    synth::CoverOutcome c = take(
        synth::cover_and_ladder(cg.num_channels(), out.candidate_set, opts, opts.solver, session),
        "cover");
    out.cover = std::move(c.cover);
    out.degradation = std::move(c.degradation);
  });
  span_ms(rec, "synth.assemble", [&] {
    out.implementation = synth::assemble(cg, lib, out.candidate_set.candidates, out.cover.chosen);
    out.total_cost = out.implementation->cost();
  });
  span_ms(rec, "model.validate",
          [&] { out.validation = model::validate(*out.implementation, opts.policy); });
}

/// A cluster's arcs as an independent constraint graph, built the way the
/// partitioned synthesizer builds it: ports and channels keep their global
/// names, positions and bandwidths, in ascending global order.
inline cdcs::model::ConstraintGraph cluster_subgraph(const cdcs::model::ConstraintGraph& cg,
                                                     const cdcs::synth::Cluster& cluster) {
  using namespace cdcs;
  std::vector<std::uint32_t> verts;
  for (model::ArcId a : cluster.arcs) {
    verts.push_back(static_cast<std::uint32_t>(cg.source(a).index()));
    verts.push_back(static_cast<std::uint32_t>(cg.target(a).index()));
  }
  std::sort(verts.begin(), verts.end());
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
  model::ConstraintGraph sub(cg.norm());
  std::vector<model::VertexId> local;
  for (std::uint32_t v : verts) {
    const model::VertexId gv{v};
    local.push_back(sub.add_port(cg.port(gv).name, cg.position(gv)));
  }
  auto local_of = [&](model::VertexId gv) {
    const auto it =
        std::lower_bound(verts.begin(), verts.end(), static_cast<std::uint32_t>(gv.index()));
    return local[static_cast<std::size_t>(it - verts.begin())];
  };
  for (model::ArcId a : cluster.arcs) {
    sub.add_channel(local_of(cg.source(a)), local_of(cg.target(a)), cg.bandwidth(a),
                    cg.channel(a).name);
  }
  return sub;
}

/// What a serial replay of the partitioned path produced.
struct Replay {
  cdcs::synth::SynthesisResult stitched;
  cdcs::synth::Partition partition;
  std::vector<cdcs::model::ConstraintGraph> subgraphs;  ///< kept on request
  double cluster_work_ms{0.0};  ///< sum of the cluster generate + cover spans
};

/// The per-cluster options the partitioned synthesizer uses when clusters
/// outnumber threads (a budget of one thread per cluster).
inline cdcs::synth::SynthesisOptions cluster_options(const cdcs::synth::SynthesisOptions& opts) {
  cdcs::synth::SynthesisOptions c = opts;
  c.partitioning.enabled = false;
  c.threads = 1;
  c.pool = nullptr;
  if (const int cap = opts.partitioning.cluster_max_merge_k; cap > 0) {
    c.max_merge_k = opts.max_merge_k > 0 ? std::min(opts.max_merge_k, cap) : cap;
  }
  c.solver.warm_start.clear();
  c.solver.warm_multipliers.clear();
  c.solver.threads = 1;
  c.solver.pool = nullptr;
  return c;
}

/// Replays synthesize() with partitioning from outside, serially, inside
/// the caller's open span: synth.partition, then per cluster
/// synth.generate/<kind> and ucp.cover/<kind> (kind = interior | repair),
/// then the stitch (unattributed), synth.assemble and model.validate.
/// The stitched cover cost sums the cluster costs in cluster order, as the
/// library does, so it must match the library's bit for bit.
inline Replay replay_partitioned(SpanRecorder& rec, const cdcs::model::ConstraintGraph& cg,
                                 const cdcs::commlib::Library& lib,
                                 const cdcs::synth::SynthesisOptions& opts, Values& v,
                                 bool keep_subgraphs) {
  using namespace cdcs;
  Replay out;
  const synth::SynthesisOptions copts = cluster_options(opts);
  span_ms(rec, "synth.partition",
          [&] { out.partition = synth::partition_graph(cg, opts.partitioning); });
  if (out.partition.clusters.size() <= 1) throw std::runtime_error("instance did not partition");
  synth::SynthesisResult& st = out.stitched;
  std::size_t base = 0;
  for (const synth::Cluster& cl : out.partition.clusters) {
    const std::string kind = cl.repair ? "/repair" : "/interior";
    model::ConstraintGraph sub = cluster_subgraph(cg, cl);
    synth::CandidateSet set;
    out.cluster_work_ms += span_ms(rec, "synth.generate" + kind, [&] {
      set = take(synth::generate_candidates(sub, lib, copts), "cluster generate");
    });
    synth::CoverOutcome cover;
    out.cluster_work_ms += span_ms(rec, "ucp.cover" + kind, [&] {
      cover = take(synth::cover_and_ladder(sub.num_channels(), set, copts, copts.solver, nullptr),
                   "cluster cover");
    });
    generation_counts(set, v);
    cover_counts(cover.cover, v);
    auto to_global = [&](std::vector<model::ArcId>& arcs) {
      for (model::ArcId& a : arcs) a = cl.arcs[a.index()];
    };
    for (synth::Candidate& c : set.candidates) {
      to_global(c.arcs);
      if (c.merging) to_global(c.merging->arcs);
      if (c.chain) to_global(c.chain->arcs);
      if (c.tree) to_global(c.tree->arcs);
      st.candidate_set.candidates.push_back(std::move(c));
    }
    for (std::size_t j : cover.cover.chosen) st.cover.chosen.push_back(base + j);
    base += set.candidates.size();
    st.cover.cost += cover.cover.cost;
    st.degradation.stage = std::max(st.degradation.stage, cover.degradation.stage);
    if (keep_subgraphs) out.subgraphs.push_back(std::move(sub));
  }
  st.degradation.stage = std::max(st.degradation.stage, synth::SynthesisStage::kIncumbent);
  span_ms(rec, "synth.assemble", [&] {
    st.implementation = synth::assemble(cg, lib, st.candidate_set.candidates, st.cover.chosen);
    st.total_cost = st.implementation->cost();
  });
  span_ms(rec, "model.validate",
          [&] { st.validation = model::validate(*st.implementation, opts.policy); });
  return out;
}

}  // namespace cdcsbench

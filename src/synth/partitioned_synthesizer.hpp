// Hierarchical partitioned synthesis: the scale path for instances far
// beyond the paper's 20-arc corpus (docs/performance.md).
//
// partition_graph (synth/partition.hpp) clusters the instance; each cluster
// becomes an independent subgraph synthesized by the UNMODIFIED pipeline
// (generate -> cover -> ladder), the boundary-repair groups re-price and
// re-cover exactly the border-crossing arcs, and the per-cluster covers are
// stitched into one SynthesisResult:
//   * candidate arcs and plan arc lists are remapped from cluster-local to
//     global ArcIds (the remap is monotone, so sortedness is preserved);
//   * chosen column indices are offset into the concatenated candidate set;
//   * cover cost / nodes / generation stats are summed, and lower_bound is
//     the SUM of the cluster Lagrangian root bounds -- a true bound for the
//     decomposed problem (each cluster's bound is proven over its own
//     candidate set), so the reported optimality gap is measured, not
//     guessed. Cross-cluster merges the decomposition forgoes are exactly
//     the pairs the partitioner's geometric test kept only when provably
//     Lemma 3.1-pruned, plus the capped boundary tail.
//   * assembly and Def 2.4 validation run ONCE over the whole graph.
//
// Clusters fan out across the process pool via parallel_map_ordered: each
// cluster is priced and covered serially (threads=1) and the stitch folds
// results in cluster order, so the output is BIT-IDENTICAL for every thread
// count.
// The stitched result reports stage kIncumbent (global optimality across
// clusters is not proven even when every cluster solved exactly) with the
// aggregate lower bound and gap in the degradation report.
#pragma once

#include "commlib/library.hpp"
#include "model/constraint_graph.hpp"
#include "support/status.hpp"
#include "synth/options.hpp"
#include "synth/result.hpp"
#include "ucp/bnb_options.hpp"

namespace cdcs::synth {

/// True when synthesize() should take the partitioned path: partitioning is
/// enabled AND the instance is at least arc_threshold arcs (the exact
/// fallback below the threshold keeps every pinned corpus result
/// bit-identical).
bool partitioning_applies(const model::ConstraintGraph& cg,
                          const SynthesisOptions& options);

/// Partitioned synthesis end to end (see file comment). Called by
/// synthesize() behind its input gate and catch-all; callers outside the
/// synthesizer must apply their own. Delegates to the plain pipeline when
/// the partition degenerates to at most one cluster. Caller-provided
/// solver warm starts are instance-specific and therefore dropped for the
/// per-cluster solves.
support::Expected<SynthesisResult> synthesize_partitioned(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    const SynthesisOptions& options, const ucp::BnbOptions& solver_options);

}  // namespace cdcs::synth

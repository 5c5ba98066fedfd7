// Comparison baselines for the synthesis algorithm.
//
//  * point_to_point_baseline: the optimum point-to-point implementation
//    graph of Def 2.6 -- every arc implemented independently, no sharing.
//    This is the architecture the paper's algorithm must never lose to
//    (Lemma 2.1 guarantees it exists whenever any solution does).
//  * greedy_merge_baseline: an agglomerative method in the style of
//    classic network-design local search: start from singleton groups,
//    repeatedly apply the pairwise group merge with the largest cost saving
//    until no merge saves. Polynomial, but can miss optima that require
//    going "uphill" through an unprofitable intermediate merge.
//  * exhaustive_partition_optimum: prices every set partition of the arcs
//    (blocks of size 1 = point-to-point, larger blocks = mergings) and
//    returns the cheapest. Exponential (Bell numbers); used on small
//    instances to certify that candidate generation + exact UCP finds the
//    true optimum.
#pragma once

#include <optional>

#include "synth/merging_pricer.hpp"

namespace cdcs::baseline {

struct BaselineResult {
  /// Groups of arcs implemented together (singletons = point-to-point).
  std::vector<std::vector<model::ArcId>> groups;
  double cost{0.0};
};

/// Def 2.6 baseline. Throws std::runtime_error when any arc is infeasible.
BaselineResult point_to_point_baseline(const model::ConstraintGraph& cg,
                                       const commlib::Library& library);

BaselineResult greedy_merge_baseline(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    model::CapacityPolicy policy = model::CapacityPolicy::kSharedSum);

/// Exact partition optimum; refuses instances with more than `max_arcs`
/// arcs (Bell(12) is already ~4.2M partitions).
BaselineResult exhaustive_partition_optimum(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    model::CapacityPolicy policy = model::CapacityPolicy::kSharedSum,
    std::size_t max_arcs = 10);

}  // namespace cdcs::baseline

// Minimum Steiner trees for small terminal sets.
//
// Two layers:
//
//  * steiner_in_graph -- the exact Dreyfus-Wagner dynamic program over an
//    arbitrary weighted undirected graph: dp[S][v] = cheapest tree spanning
//    terminal subset S plus vertex v, built by subset splitting and
//    shortest-path relaxation. O(3^t n + 2^t n^2) with t terminals and n
//    graph vertices -- exact and fast for the t <= 8 mergings synthesis
//    prices.
//
//  * steiner_tree_on_hanan_grid -- builds the Hanan grid of the terminals
//    (all intersections of their x- and y-coordinates; by Hanan's theorem
//    it contains a rectilinear Steiner minimal tree) with edges weighted
//    under a caller-chosen norm, then runs Dreyfus-Wagner. Exact RSMT for
//    the Manhattan norm; a high-quality topology for other norms
//    (junction positions can be refined downstream).
#pragma once

#include <cstdint>
#include <vector>

#include "geom/norm.hpp"
#include "geom/point.hpp"

namespace cdcs::geom {

/// Undirected weighted graph for Steiner queries.
struct SteinerGraph {
  struct Edge {
    std::size_t a{0};
    std::size_t b{0};
    double weight{0.0};
  };
  std::size_t num_vertices{0};
  std::vector<Edge> edges;
};

struct SteinerTree {
  double cost{0.0};
  /// Tree edges as indices into the input graph's edge list.
  std::vector<std::size_t> edges;
};

/// Exact minimum Steiner tree connecting `terminals` in `graph`.
/// Requirements: 1 <= terminals.size() <= 16, all terminals distinct and in
/// range, nonnegative edge weights, terminals mutually reachable (throws
/// std::invalid_argument / std::runtime_error otherwise).
SteinerTree steiner_in_graph(const SteinerGraph& graph,
                             const std::vector<std::size_t>& terminals);

/// A Steiner tree over points in the plane, via the Hanan grid.
struct PlanarSteinerTree {
  double cost{0.0};
  std::vector<Point2D> vertices;  ///< tree vertices (terminals + junctions)
  /// terminal_vertex[i] = index into `vertices` of the i-th input terminal
  /// (duplicate terminal positions map to the same vertex).
  std::vector<std::size_t> terminal_vertex;
  struct Edge {
    std::size_t a{0};
    std::size_t b{0};
    double length{0.0};
  };
  std::vector<Edge> edges;
};

/// Builds the Hanan grid of `terminals`, weights edges by `norm`, and
/// returns the Dreyfus-Wagner optimum. Exact for Norm::kManhattan.
/// terminals.size() must be in [1, 10] (the Hanan grid has up to 100
/// vertices).
PlanarSteinerTree steiner_tree_on_hanan_grid(
    const std::vector<Point2D>& terminals, Norm norm);

}  // namespace cdcs::geom

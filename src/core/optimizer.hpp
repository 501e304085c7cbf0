// optimizer.hpp — instance-level budgeted design (the paper's Discussion).
//
// The universal ε construction is worst-case optimal but "might be far
// from optimal in some instances" (paper §Discussion, which poses two
// optimization problems: minimize b(n) under a reinforcement budget, and
// minimize r(n) under a backup budget). This module answers both with a
// greedy frontier built from the engine's exact per-edge requirements:
//
//   needed(e) = { LastE(P_{v,e}) : ⟨v,e⟩ uncovered }      for e ∈ T0.
//
// Reinforcing a set S ⊆ T0 permits the structure
//   H(S) = T0 ∪ ⋃_{e ∉ S} needed(e),
// which is correct by Observation 2.2, with
//   r = |S|,   b = (|T0| − |S|) + |⋃_{e∉S} needed(e)|.
//
// The greedy repeatedly reinforces the tree edge with the largest marginal
// saving (1 backup slot for the edge itself + every needed last edge whose
// *only* remaining user it is), producing a monotone frontier of designs
// from (r=0, b=baseline) to (r=n−1, b=0). This is the classic lazy-greedy
// for coverage-style objectives — a heuristic, not an optimum, but it
// exposes exactly the instance-vs-universal gap the paper points at
// (bench E11).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/replacement.hpp"
#include "src/core/structure.hpp"

namespace ftb {

/// One design on the greedy frontier.
struct FrontierPoint {
  std::int64_t reinforced = 0;  // r — prefix length of the greedy order
  std::int64_t backup = 0;      // b of the induced structure H(S_r)
};

/// The greedy reinforcement frontier of one (graph, source) instance.
class GreedyFrontier {
 public:
  struct Config {
    std::uint64_t weight_seed = kDefaultWeightSeed;
    ThreadPool* pool = nullptr;
  };

  GreedyFrontier(const Graph& g, Vertex source)
      : GreedyFrontier(g, source, Config()) {}
  GreedyFrontier(const Graph& g, Vertex source, Config cfg);

  /// The frontier: points[r] is the design that reinforces the first r
  /// greedy picks; b is non-increasing in r. points.size() == |T0| + 1.
  const std::vector<FrontierPoint>& points() const { return points_; }

  /// The greedy reinforcement order (tree edges, strongest saving first).
  const std::vector<EdgeId>& order() const { return order_; }

  /// Problem A (paper Discussion): minimize b subject to r ≤ max_reinforced.
  /// Materializes the structure at the frontier prefix min(max_reinforced,
  /// first r where further reinforcement stops helping).
  FtBfsStructure design_max_reinforced(std::int64_t max_reinforced) const;

  /// Problem B: minimize r subject to b ≤ max_backup. Throws CheckError if
  /// even full reinforcement (b = 0) cannot meet a negative budget.
  FtBfsStructure design_max_backup(std::int64_t max_backup) const;

  /// b at a given r (frontier lookup).
  std::int64_t backup_at(std::int64_t r) const {
    FTB_CHECK(r >= 0 && r < static_cast<std::int64_t>(points_.size()));
    return points_[static_cast<std::size_t>(r)].backup;
  }

 private:
  FtBfsStructure materialize(std::int64_t r) const;

  const Graph* g_;
  Vertex source_;
  std::vector<EdgeId> tree_edges_;
  std::vector<EdgeId> order_;              // greedy reinforcement order
  std::vector<FrontierPoint> points_;      // |T0|+1 designs
  // Pair bookkeeping for materialization: per tree edge, its needed last
  // edges (deduplicated).
  std::vector<std::vector<EdgeId>> needed_;   // aligned with tree_edges_
  std::vector<std::int32_t> tree_index_;      // EdgeId -> index or -1
};

}  // namespace ftb

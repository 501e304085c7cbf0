// ftbfs.hpp — the ESA'13 baseline: a full FT-BFS structure with no
// reinforcement (ref. [14] of the paper; the ε = 1 end of the tradeoff).
//
// Construction: H = T0 ∪ { LastE(P_{v,e}) : ⟨v,e⟩ uncovered }. Every
// vertex-edge pair then has a replacement path whose last edge is in H, so
// by Observation 2.2 every edge is protected — r(n) = 0. The paper's
// analysis of the canonical replacement paths (vertex-disjoint detours per
// terminal, Claim 4.6) bounds |E(H)| = O(n^{3/2}), tight by the ESA'13
// lower bound (reproduced here as lb::build_single_source with ε = 1/2).
#pragma once

#include "src/core/replacement.hpp"
#include "src/core/structure.hpp"

namespace ftb {

namespace detail {
/// The baseline pipeline on an already-built canonical tree (its source
/// and weights); `pool` = nullptr runs on the global pool. The ftb::api
/// facade reaches the ESA'13 baseline through the ε pipeline (ε ≥ 1/2);
/// the either union builds its edge half with this.
FtBfsStructure build_ftbfs_impl(const BfsTree& tree, ThreadPool* pool);
}  // namespace detail

/// The O(n^{3/2})-edge FT-BFS structure H = T0 ∪ {last edges}, reusing an
/// already-built replacement-path engine: the S0-reuse composition point
/// internal pipelines build on. (A graph-level build is
/// ftb::api::build(graph, BuildSpec) with fault_model = kEdge, eps = 1.)
FtBfsStructure build_ftbfs(const ReplacementPathEngine& engine);

}  // namespace ftb

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
#include "src/util/check.hpp"

namespace ftb {

struct FtBfsOptions {
  /// Seed of the tie-breaking weight assignment W.
  std::uint64_t weight_seed = 0x5EED0001ULL;
  ThreadPool* pool = nullptr;  // nullptr = global pool
  /// Run the engine on the naive reference kernels (bench baseline /
  /// differential testing; output is bit-identical either way).
  bool reference_kernel = false;
};

namespace detail {
/// Pipeline implementations the ftb::api facade dispatches to. The ESA'13
/// baseline is the ε ≥ 1/2 branch of the tradeoff, so the facade reaches it
/// through the ε pipeline; these impls also back the legacy wrappers below.
FtBfsStructure build_ftbfs_impl(const Graph& g, Vertex source,
                                const FtBfsOptions& opts);
/// Same, on an already-built canonical tree (its source and weights;
/// opts.weight_seed is not read).
FtBfsStructure build_ftbfs_impl(const BfsTree& tree, const FtBfsOptions& opts);
FtBfsStructure build_reinforced_tree_impl(const Graph& g, Vertex source,
                                          const FtBfsOptions& opts);
}  // namespace detail

/// Builds the O(n^{3/2})-edge FT-BFS structure for (g, source).
/// Deprecated: use ftb::api::build(graph, BuildSpec) with fault_model =
/// kEdge and eps = 1 (Theorem 3.1's baseline branch is byte-identical).
FTB_DEPRECATED("use ftb::api::build(graph, BuildSpec) with eps = 1")
FtBfsStructure build_ftbfs(const Graph& g, Vertex source,
                           const FtBfsOptions& opts = {});

/// Same, reusing an already-built replacement-path engine. Not deprecated:
/// this is the S0-reuse composition point internal pipelines build on.
FtBfsStructure build_ftbfs(const ReplacementPathEngine& engine);

/// The trivial ε = 0 end of the tradeoff: H = T0 with every tree edge
/// reinforced (b = 0, r = n−1). Useful as a comparison point in benches.
/// Deprecated: use ftb::api::build(graph, BuildSpec) with eps = 0.
FTB_DEPRECATED("use ftb::api::build(graph, BuildSpec) with eps = 0")
FtBfsStructure build_reinforced_tree(const Graph& g, Vertex source,
                                     const FtBfsOptions& opts = {});

}  // namespace ftb

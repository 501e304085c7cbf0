// epsilon_ftbfs.hpp — the paper's primary contribution: the ε FT-BFS
// construction of Section 3 (Theorem 3.1).
//
// Given ε ∈ [0,1], builds a (b,r) FT-BFS structure with
//   b(n) = O(min{ 1/ε · n^{1+ε} · log n , n^{3/2} })   backup edges and
//   r(n) = O(1/ε · n^{1-ε} · log n)                    reinforced edges.
//
// Pipeline (mirrors the paper's phases; see DESIGN.md for the mapping):
//   S0  replacement-path engine: covered/uncovered pairs, canonical
//       detours, last edges (core/replacement.hpp);
//   S1  (≁)-interference rounds: K = ⌈1/ε⌉+2 iterations of type-A/B/C
//       classification; per vertex and type the last edges of the pairs
//       protecting the deepest failing edges are added until ⌈n^ε⌉
//       distinct last edges; type-C pairs accumulate into (∼)-sets;
//   S2  (∼)-sets: heavy-path decomposition TD (S2.0); glue-edge last
//       edges (S2.1); per (∼)-set and terminal, the exponential-halving
//       segment decomposition of π(s,v) with light-segment flushes and
//       per-segment first-edge pairs (S2.2); per decomposition path ψ
//       crossing π(s,v), upmost-edge and boundary-segment additions under
//       the ⌈n^ε⌉ threshold (S2.3);
//   F   reinforcement: every tree edge that is still last-unprotected
//       becomes reinforced. Observation 2.2 then *guarantees* that every
//       non-reinforced edge is protected — the structure is correct by
//       construction; the paper's analysis is what bounds its size.
//
// Dispatch at the ends of the tradeoff: ε = 0 reinforces T0 outright;
// ε ≥ 1/2 falls back to the ESA'13 baseline (r = 0, b = O(n^{3/2})), as
// in the proof of Theorem 3.1.
#pragma once

#include <cstdint>

#include "src/core/replacement.hpp"
#include "src/core/structure.hpp"
#include "src/util/thread_pool.hpp"

namespace ftb {

struct EpsilonOptions {
  /// The tradeoff exponent ε ∈ [0, 1].
  double eps = 0.25;
  /// Seed of the tie-breaking weight assignment W (read by the graph-level
  /// entry points of cost_model.hpp; the per-tree builds below ignore it).
  std::uint64_t weight_seed = kDefaultWeightSeed;
  ThreadPool* pool = nullptr;  // nullptr = global pool

  /// Theorem 3.1 dispatch: with ε ≥ 1/2 run the ESA'13 baseline instead of
  /// S1/S2 (the n^{3/2} branch of the min). Disable to force S1/S2 at any ε
  /// (ablation E9).
  bool baseline_for_large_eps = true;

  /// 0 → the paper's K = ⌈1/ε⌉ + 2 (capped at 64). Ablation knob.
  std::int32_t k_rounds_override = 0;
  /// Scales the ⌈n^ε⌉ threshold. Ablation knob.
  double threshold_scale = 1.0;
  /// Skip the light-segment flush of Sub-Phase S2.2. Ablation knob.
  bool disable_s2_light_flush = false;
  /// Skip the tree-decomposition crossings of Sub-Phase S2.3. Ablation knob.
  bool disable_s2_crossings = false;
};

/// Construction telemetry — one row of every benchmark table.
struct EpsilonStats {
  std::int64_t n = 0, m = 0;
  double eps = 0;
  std::int32_t k_rounds = 0;
  std::int64_t threshold = 0;          // ⌈n^ε⌉ after scaling
  bool used_baseline = false;          // ε ≥ 1/2 dispatch taken

  std::int64_t pairs_total = 0;        // all ⟨v,e⟩ with e ∈ π(s,v)
  std::int64_t pairs_covered = 0;
  std::int64_t pairs_uncovered = 0;
  std::int64_t i1_size = 0, i2_size = 0;

  std::int64_t s1_added_edges = 0;     // distinct last edges added in S1
  std::int64_t s1_leftover_pairs = 0;  // pairs surviving K rounds (Lemma
                                       // 4.10 predicts 0)
  std::int64_t num_csets = 0;          // (∼)-sets handed to S2
  std::int64_t s2_glue_added = 0;      // S2.1 additions
  std::int64_t s2_added_edges = 0;     // S2.2+S2.3 additions

  std::int64_t structure_edges = 0;    // |E(H)|
  std::int64_t backup = 0;             // b(n)
  std::int64_t reinforced = 0;         // r(n)

  std::int64_t interference_truncated_buckets = 0;  // max_bucket valve hits

  // Phase S0's detour work (FaultReplacementEngine::Stats).
  std::int64_t detour_traversal_arcs = 0;
  std::int64_t detour_boundary_arcs = 0;
  std::int64_t detour_source_probes = 0;

  double seconds_engine = 0;
  // The engine's two halves, from its own stats: the replacement-distance
  // tables, then classification and detours (seconds_engine also holds
  // the engine's setup around them).
  double seconds_dist_tables = 0;
  double seconds_detours = 0;
  double seconds_interference = 0;
  double seconds_s1 = 0;
  double seconds_s2 = 0;
  /// This source's pipeline on its canonical tree, at every σ; the tree
  /// build is not in it (api::BuildResult::seconds_total is the wall clock).
  double seconds_total = 0;
};

struct EpsilonResult {
  FtBfsStructure structure;
  EpsilonStats stats;
};

namespace detail {
/// The ε pipeline on one source's canonical tree (its source and weights;
/// opts.weight_seed is not read; ε must already be validated through
/// validate.hpp): builds Phase S0's engine on the production kernels, then
/// composes build_epsilon_ftbfs on it. ftb::api::build runs it once per
/// source tree.
EpsilonResult build_epsilon_ftbfs_impl(const BfsTree& tree,
                                       const EpsilonOptions& opts);
}  // namespace detail

/// Phases S1/S2/F (or the ε = 0 / ε ≥ 1/2 dispatch) on an already-built
/// Phase-S0 engine: the S0-reuse composition point, beside build_ftbfs and
/// build_vertex_ftbfs. The engine must have collected detours unless the
/// ε ≥ 1/2 baseline is taken; stats.seconds_engine is left 0 (the caller
/// built the engine). A differential referee hands it an engine on the
/// naive reference kernels.
EpsilonResult build_epsilon_ftbfs(const ReplacementPathEngine& engine,
                                  const EpsilonOptions& opts);

/// Theorem 3.1's backup bound min{1/ε·n^{1+ε}·log n, n^{3/2}} (the Õ
/// envelope benches normalize against).
double theorem_backup_bound(std::int64_t n, double eps);

/// Theorem 3.1's reinforcement bound 1/ε·n^{1-ε}·log n (0 at ε ≥ 1/2 where
/// the baseline takes over, n at ε = 0).
double theorem_reinforce_bound(std::int64_t n, double eps);

}  // namespace ftb

// verifier.hpp — the one referee of the FT contract, for every fault model
// and every source set.
//
// Checks Definition 2.1 and its vertex, either, dual and multi-source
// versions directly:
//   dist(s, v, H \ F) = dist(s, v, G \ F)
//       ∀ s ∈ S, ∀ v, ∀ F allowed by the structure's fault class.
//
// Two parts, shared with the failure drills (sim/failure_sim.hpp):
//   * failure_universe() — every single failure the model allows against
//     one source: fault-prone edges (E(G) \ E'), then routers other than
//     that source, filtered by fault class.
//   * the comparison kernel — dual_bruteforce_bfs (G \ F) against
//     structure_bfs (H \ F) from one source. A single failure is a pair
//     whose second element is absent (DualSite{}); the failure-free check
//     is a pair of two absent elements.
//
// Verification plan (see DESIGN.md §5), per source s:
//   0. H ⊆ G and T0 ⊆ H by construction (FtBfsStructure enforces both).
//   1. failure-free check: dist(s,·,H) == dist(s,·,G) (H spans a BFS tree).
//   2. single failures (edge, vertex, either): every router x ≠ s, and
//      every fault-prone tree edge — the only edges whose failure can
//      change distances once step 1 passed and T0 ⊆ H; the non-tree
//      mode nevertheless re-checks every fault-prone edge of G.
//      Dual: failure pairs over the whole universe, every unordered pair
//      or a seeded sample.
//
// Cost: O(σ·F·(n+m)) with F = #checked failures per source, parallel over
// (source, failure).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/dual_fault.hpp"
#include "src/core/structure.hpp"
#include "src/util/thread_pool.hpp"

namespace ftb {

struct VerifyOptions {
  /// The sources the contract must hold from (an FT-MBFS artifact's whole
  /// set); empty = {h.source()}.
  std::vector<Vertex> sources = {};
  /// Also check every non-tree fault-prone edge (provably redundant once
  /// the failure-free check passes; kept for paranoid test modes). Single
  /// failures only — dual pairs always range over every edge.
  bool check_nontree_failures = false;
  /// Cap on the single failures checked per source (-1 = no cap). They are
  /// checked in universe order, so a cap keeps runs deterministic.
  std::int64_t max_failures = -1;
  /// Dual model: failure pairs per source. -1 checks every unordered pair
  /// (i ≤ j, doubled elements included) — O(n²·m), fine for test sizes;
  /// otherwise `max_pairs` pairs are sampled deterministically from `seed`.
  std::int64_t max_pairs = -1;
  std::uint64_t seed = 1;
  ThreadPool* pool = nullptr;  // nullptr = global pool
};

/// One observed contract violation.
struct VerifyViolation {
  Vertex source = kInvalidVertex;
  DualSite f1;  // both absent (DualSite{}) = the failure-free check
  DualSite f2;  // absent for single failures
  Vertex vertex = kInvalidVertex;
  std::int32_t dist_structure = 0;
  std::int32_t dist_graph = 0;
};

struct VerifyReport {
  bool ok = true;
  std::int64_t failures_checked = 0;
  std::int64_t violations = 0;
  /// The share of both counts whose failure names a router: the vertex
  /// half of an either report (the edge half is the rest).
  std::int64_t vertex_failures_checked = 0;
  std::int64_t vertex_violations = 0;
  /// Up to 16 concrete counterexamples, the first in (source, failure,
  /// vertex) check order.
  std::vector<VerifyViolation> examples;

  std::string to_string() const;
};

/// Every single failure `model` allows against `source`: the edges of `g`
/// outside `reinforced` (sorted, as FtBfsStructure::reinforced()) by id,
/// then every router other than `source` by id — edges for kEdge, routers
/// for kVertex, both for kEither and kDual.
std::vector<DualSite> failure_universe(const Graph& g, Vertex source,
                                       FaultClass model,
                                       std::span<const EdgeId> reinforced = {});

/// BFS from `s` in the surviving structure H \ {f1, f2} into `scratch` —
/// the H side of the comparison kernel (dual_bruteforce_bfs is the G
/// side). Absent elements (DualSite{}) fail nothing.
void structure_bfs(const FtBfsStructure& h, Vertex s, DualSite f1,
                   DualSite f2, BfsScratch& scratch);

/// Verifies the FT contract of `h` under h.fault_class() from every
/// source of `opts`. Deterministic.
VerifyReport verify_structure(const FtBfsStructure& h,
                              const VerifyOptions& opts = {});

}  // namespace ftb

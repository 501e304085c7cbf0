// canonical_bfs.hpp — unique ("canonical") shortest paths via the paper's
// weight assignment W, plus plain hop BFS.
//
// Section 2 of the paper fixes a positive weight assignment W : E → R>0 used
// only to break shortest-path ties *consistently in every subgraph* G' ⊆ G:
// SP(s,v,G',W) denotes the unique s−v shortest path under (hops, W)-
// lexicographic order. We realize W with independent uniform 64-bit integer
// perturbations: with ~2^40-range weights and graphs of < 2^22 edges the
// minimal path is unique with overwhelming probability, and a deterministic
// (parent id, edge id) fallback makes the construction fully deterministic
// even on collisions.
//
// Why this implements the paper's W faithfully:
//  * uniqueness        — isolation-lemma style argument, w.h.p.;
//  * subgraph-consistency — the same W is used in every G' ⊆ G;
//  * subpath closure   — lexicographic (hops, Σw) is an additive total
//                        order, so prefixes of canonical paths are
//                        canonical. All three are exactly what Claims 4.4–4.6
//                        consume.
//
// Complexity: canonical_sp runs in O(n + m) — a layered BFS followed by a
// single relaxation sweep. (A vertex at hop k always has its canonical
// predecessor at hop k-1, so within-layer order is irrelevant and no
// priority queue is needed.)
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/util/rng.hpp"

namespace ftb {

/// The default seed of W for every build and every session. A session
/// rebuilds its canonical trees from its seed and refuses a structure
/// whose tree edges they do not match, so build and serving defaults must
/// never drift: this is their one spelling.
inline constexpr std::uint64_t kDefaultWeightSeed = 0x5EED0001ULL;

/// The paper's tie-breaking weight assignment W : E → [1, 2^40).
struct EdgeWeights {
  std::vector<std::uint64_t> w;  // indexed by EdgeId

  std::uint64_t operator[](EdgeId e) const {
    FTB_DCHECK(e >= 0 && static_cast<std::size_t>(e) < w.size());
    return w[static_cast<std::size_t>(e)];
  }

  /// Independent uniform weights in [1, 2^40), seeded deterministically.
  static EdgeWeights uniform_random(const Graph& g, std::uint64_t seed);
};

/// Restrictions applied to a traversal: a set of banned vertices, a set of
/// banned edges (masks may be null = none), up to two extra banned edges
/// and up to one extra banned vertex. This is how "G \ {e}", "G \ V(π)",
/// "H \ {e}", and the dual-failure "G \ {f1, f2}" are expressed without
/// copying the graph.
struct BfsBans {
  const std::vector<std::uint8_t>* banned_vertex = nullptr;  // size n, 1=ban
  const std::vector<std::uint8_t>* banned_edge_mask = nullptr;  // size m, 1=ban
  EdgeId banned_edge = kInvalidEdge;
  /// Second scalar edge ban: lets a caller express a two-edge failure (or
  /// an ambient first failure under a second banned edge) with no mask.
  EdgeId banned_edge2 = kInvalidEdge;
  /// Scalar vertex ban, composable with the mask — one destroyed router on
  /// top of whatever set the mask already expresses.
  Vertex banned_vertex_one = kInvalidVertex;

  bool vertex_banned(Vertex v) const {
    return v == banned_vertex_one ||
           (banned_vertex != nullptr &&
            (*banned_vertex)[static_cast<std::size_t>(v)] != 0);
  }
  bool edge_banned(EdgeId e) const {
    return e == banned_edge || e == banned_edge2 ||
           (banned_edge_mask != nullptr &&
            (*banned_edge_mask)[static_cast<std::size_t>(e)] != 0);
  }
};

/// Result of a plain hop-count BFS. Deterministic contract (shared with the
/// direction-optimizing kernel in bfs_kernel.hpp): `order` lists the source,
/// then each level's vertices ascending by id; `parent[v]` is the
/// minimum-id admissible neighbor of v in the previous level.
struct BfsResult {
  std::vector<std::int32_t> dist;     // kInfHops if unreachable
  std::vector<Vertex> parent;         // kInvalidVertex at source/unreached
  std::vector<EdgeId> parent_edge;    // kInvalidEdge at source/unreached
  /// Vertices level by level (source first); unreachable ones excluded.
  std::vector<Vertex> order;

  bool reachable(Vertex v) const {
    return dist[static_cast<std::size_t>(v)] < kInfHops;
  }
};

/// Plain BFS from `src` honoring `bans`. O(n + m). Compatibility wrapper
/// over the direction-optimizing kernel (bfs_kernel.hpp): runs on a
/// per-thread scratch arena and materializes a BfsResult. Hot loops should
/// use bfs_run + BfsScratch directly and skip the materialization.
BfsResult plain_bfs(const Graph& g, Vertex src, const BfsBans& bans = {});

/// The naive queue-based implementation of the same contract. Kept as the
/// independent differential-testing baseline for the kernel and as the
/// "naive kernel" leg of the perf benches.
BfsResult plain_bfs_reference(const Graph& g, Vertex src,
                              const BfsBans& bans = {});

/// Canonical ((hops, Σw)-lexicographic) single-source shortest paths.
struct CanonicalSp {
  std::vector<std::int32_t> hops;     // kInfHops if unreachable
  std::vector<std::uint64_t> wsum;    // valid only where reachable
  std::vector<Vertex> parent;
  std::vector<EdgeId> parent_edge;
  /// first_hop[v]: the first vertex after the source on the canonical
  /// src→v path (== v when parent[v] == src). The detour engine reads the
  /// last edge of a reversed path from this in O(1).
  std::vector<Vertex> first_hop;
  /// Vertices in finalization order (by layer), source first.
  std::vector<Vertex> order;

  bool reachable(Vertex v) const {
    return hops[static_cast<std::size_t>(v)] < kInfHops;
  }

  /// The canonical path [src, ..., v]. Precondition: reachable(v).
  std::vector<Vertex> path_from_source(Vertex v) const;
};

/// Computes the canonical shortest-path tree from `src` in G minus bans.
/// This is the two-pass reference implementation (layered BFS + relaxation
/// sweep), kept independent of the fused kernel (canonical_sp_run in
/// bfs_kernel.hpp) as the referee: tests, the engines' reference-kernel
/// path (selected through ReplacementTable::Config) and replacement_path
/// call it. Production trees never go through it — BfsTree builds on
/// canonical_sp_fused.
CanonicalSp canonical_sp(const Graph& g, const EdgeWeights& weights,
                         Vertex src, const BfsBans& bans = {});

/// THE canonical parent rule, in one place: among v's admissible neighbors
/// exactly one hop level up, the (wsum(u) + w(e))-minimal one, ties broken
/// by (parent id, edge id). `canonical_sp` pass 2 and the incremental
/// punctured-tree rebase (rebase_punctured_tree) both call this — the
/// bit-identity contract between them hangs on there being ONE copy of
/// the rule. `admissible(arc)` filters banned arcs; `hops(u)` must return
/// the FINAL hop distance of u in the graph being answered for.
struct CanonicalParentChoice {
  std::uint64_t wsum = 0;
  Vertex parent = kInvalidVertex;
  EdgeId edge = kInvalidEdge;
};
template <class Admissible, class HopsAt, class WsumAt>
CanonicalParentChoice pick_canonical_parent(const Graph& g,
                                            const EdgeWeights& weights,
                                            Vertex v, std::int32_t hv,
                                            Admissible&& admissible,
                                            HopsAt&& hops, WsumAt&& wsum) {
  CanonicalParentChoice best;
  for (const Arc& a : g.neighbors(v)) {
    if (!admissible(a)) continue;
    const Vertex u = a.to;
    if (hops(u) != hv - 1) continue;
    const std::uint64_t cand = wsum(u) + weights[a.edge];
    if (best.parent == kInvalidVertex || cand < best.wsum ||
        (cand == best.wsum &&
         (u < best.parent || (u == best.parent && a.edge < best.edge)))) {
      best.wsum = cand;
      best.parent = u;
      best.edge = a.edge;
    }
  }
  return best;
}

}  // namespace ftb

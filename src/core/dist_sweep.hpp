// dist_sweep.hpp — the subtree-seeded replacement-distance sweep.
//
// Both replacement engines need dist(s, v, G \ {fault}) for every vertex v
// whose tree path π(s,v) uses the fault — i.e. the subtree hanging below a
// failing tree edge, or below a failing internal tree vertex. The naive
// realization is one full BFS of G per fault: Θ(n) traversals, the O(n·m)
// bottleneck of the whole construction.
//
// The sweep exploits the standard observation that every *other* vertex u
// keeps its tree distance: π(s,u) avoids the fault, and G\{fault} ⊆ G, so
// dist(s, u, G\{fault}) = depth(u). For the affected set A this turns the
// BFS into a bounded multi-source relaxation:
//
//   dist'(v) = min( c_out(v),  min_{(v,w) ∈ E(A)} dist'(w) + 1 )
//   c_out(v) = 1 + min{ depth(u) : (v,u) admissible, u ∉ A }
//
// (the final entry point of any replacement path into A is seeded by
// c_out; everything after it stays inside A). Processing keys ascending
// with a bucket queue gives exact distances in
// O( Σ_{v∈A} deg(v) + |A| ) per fault — summed over all faults that is
// O( Σ_v deg(v)·depth(v) ), typically orders of magnitude below O(n·m).
//
// Only distances are produced (no parents), which is exactly what the
// engines' tables store — so the output is trivially independent of
// processing order and bit-identical to the full-BFS rows.
//
// The same seeding drives the dual build's punctured trees: T_f, the
// canonical tree of G \ {f}, equals T0 outside the subtree below f, so
// only that subtree is relabeled. PuncturedTree serves the result as an
// overlay on T0 (the production path, per-site cost subtree-local);
// rebase_punctured_tree materializes it as a full BfsTree (the referee).
//
// And it serves what-if queries: T0 ⊆ H for every structure H, so the
// same argument holds in H \ {f1[, f2]} — a Session sweeps the union of
// the failures' T0 slices over H's edges (the EdgesOfH policy) and reads
// T0 depths everywhere else.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/graph/bfs_tree.hpp"

namespace ftb {

/// Work accounting for the punctured-tree seam: how many per-vertex label
/// assignments (canonical relabels of the affected slice, plus the referee
/// rebase's full label copy) and how many Dial-sweep vertex visits a
/// punctured-tree production performed. The dual build's schedule referee
/// compares these totals — the production overlay must come in strictly
/// below the independent rebase's full per-site label copies.
struct SweepWorkStats {
  std::int64_t label_writes = 0;
  std::int64_t sweep_visits = 0;
  std::int64_t total() const { return label_writes + sweep_visits; }
};

class ReplacementSweepScratch;

/// Admissibility policy of a sweep step: every graph edge may carry one.
/// The engines' and the punctured trees' sweeps run on G with it, so their
/// instantiation carries no per-arc mask test.
struct AnyEdge {
  bool operator()(EdgeId) const { return true; }
};

/// Admissibility policy of a what-if sweep: only edges of a structure H
/// may carry a step. `out_of_h` is the structure's complement_mask()
/// (1 = outside H), indexed by EdgeId.
struct EdgesOfH {
  const std::uint8_t* out_of_h;
  bool operator()(EdgeId e) const {
    return out_of_h[static_cast<std::size_t>(e)] == 0;
  }
};

/// Computes dist(s, v, G \ {fault}) for every v ∈ `affected`, where
/// `affected` is the preorder subtree slice below the fault
/// (tree.subtree(lower_endpoint(banned_edge)) or tree.subtree(banned_vertex))
/// and exactly one of banned_edge / banned_vertex identifies the fault (pass
/// kInvalidEdge / kInvalidVertex for the other). A banned vertex inside the
/// span is skipped. Results are read back through scratch.dist(). The span
/// must start at its subtree's root; the order of the rest is free.
///
/// `ambient_edge` / `ambient_vertex` exclude one more graph element from
/// every step of the sweep: this is how the dual-failure pipeline reuses the
/// sweep over a punctured graph G \ {first failure} (the `tree` must then be
/// the canonical tree of that punctured graph, so depth() seeding stays
/// exact). Both default to "none", which is the single-fault sweep verbatim.
/// `work`, when given, accumulates the sweep's vertex visits (marking,
/// seeding and non-stale bucket pops).
///
/// `affected2`, when non-empty, is a second slice disjoint from the first
/// whose root is no shallower than the first's (the first vertex of
/// `affected` carries the minimum depth, the bucket queue's base); the
/// sweep then covers their union. That is the affected set of a failure
/// pair whose T0 slices do not nest — the second failure rides in the
/// ambient slots. `admit` restricts every step to the edges it accepts
/// (EdgesOfH: the sweep runs on a structure H ⊇ T0 instead of G).
///
/// `Tree` is BfsTree or PuncturedTree (the sweep reads only graph() and
/// depth()); dist_sweep.cpp instantiates both with AnyEdge, and BfsTree
/// with EdgesOfH.
template <class Tree, class Admit = AnyEdge>
void replacement_dist_sweep(const Tree& tree, EdgeId banned_edge,
                            Vertex banned_vertex,
                            std::span<const Vertex> affected,
                            ReplacementSweepScratch& scratch,
                            EdgeId ambient_edge = kInvalidEdge,
                            Vertex ambient_vertex = kInvalidVertex,
                            SweepWorkStats* work = nullptr,
                            std::span<const Vertex> affected2 = {},
                            Admit admit = {});

/// Reusable per-thread arena for replacement_dist_sweep. Zero steady-state
/// allocations: affected marking is epoch-stamped, buckets retain capacity.
class ReplacementSweepScratch {
 public:
  /// dist(s, v, G \ {fault}) after a sweep; valid only for vertices of the
  /// `affected` span handed to that sweep (kInfHops when disconnected).
  std::int32_t dist(Vertex v) const {
    const std::size_t i = static_cast<std::size_t>(v);
    return stamp_[i] == epoch_ ? dist_[i] : kInfHops;
  }

 private:
  template <class Tree, class Admit>
  friend void replacement_dist_sweep(const Tree&, EdgeId, Vertex,
                                     std::span<const Vertex>,
                                     ReplacementSweepScratch&, EdgeId, Vertex,
                                     SweepWorkStats*, std::span<const Vertex>,
                                     Admit);

  void prepare(std::size_t n);
  bool in_set(Vertex v) const {
    return stamp_[static_cast<std::size_t>(v)] == epoch_;
  }

  std::vector<std::uint32_t> stamp_;  // in affected set iff == epoch_
  std::uint32_t epoch_ = 0;
  std::vector<std::int32_t> dist_;                 // tentative keys
  std::vector<std::vector<Vertex>> buckets_;       // Dial queue, relative keys
};

/// The punctured-tree REFEREE: the canonical tree of G \ {fault} as a full
/// BfsTree, built from `base` (the canonical tree of G) by recomputing
/// labels ONLY for the subtree hanging below the fault. Exactly one of
/// banned_edge (a tree edge of `base`) / banned_vertex (a reachable
/// non-source vertex) identifies the fault.
///
/// Why this is exact: a vertex u outside the affected subtree keeps its
/// tree path π(s,u), which avoids the fault; the canonical path of G is
/// still present in G \ {fault} and stays (hops, Σw)-minimal among a
/// subset of its old competitors, so every label of u — hops, wsum,
/// parent, parent_edge, first_hop — is unchanged verbatim. Affected
/// vertices get their punctured hop distances from replacement_dist_sweep
/// (seeded by the unaffected boundary) and then the same canonical parent
/// rule as canonical_sp pass 2, processed in ascending level order. The
/// result is bit-identical to BfsTree(g, W, source, bans). The relabel
/// costs the affected subtree's volume; materializing the result as a
/// full tree adds O(n + m) for the label copy, the finalization-order
/// merge and the derived tree arrays. The production dual build pays none
/// of that (it serves the same labels through PuncturedTree); this full
/// tree is what the independent-schedule referee and the tests compare it
/// against.
BfsTree rebase_punctured_tree(const BfsTree& base, EdgeId banned_edge,
                              Vertex banned_vertex,
                              SweepWorkStats* work = nullptr);

namespace detail {

/// The punctured canonical labels of an affected slice A_f, indexed by
/// tin0(v) − tin0(top): what the overlay patches onto T0 and what the
/// referee rebase writes into its full label copy.
struct SliceLabels {
  std::vector<std::int32_t> hops;
  std::vector<std::uint64_t> wsum;
  std::vector<Vertex> parent;
  std::vector<EdgeId> parent_edge;
  std::vector<Vertex> first_hop;
};

}  // namespace detail

/// The canonical tree T_f of G \ {f} as an OVERLAY on T0 — the punctured
/// tree the production dual build hands its restricted engines.
///
/// Outside the affected slice A_f = T0-subtree(top) (top = the failed
/// edge's lower endpoint, or the failed vertex) every label of T_f equals
/// T0 verbatim (see rebase_punctured_tree), so the overlay reads T0 there
/// and keeps a per-site patch sized |A_f| for the slice, indexed by
/// tin0(v) − tin0(top). Membership is the interval test on T0's preorder.
/// A puncture therefore costs O(vol(A_f)) plus one walk over the outer
/// ancestors' subtrees (see subtree()), with no pass over n or m.
///
/// The accessor set is exactly what the restricted engines
/// (FaultReplacementEngine<·, PuncturedTree> with restrict_terminals =
/// A_f), replacement_dist_sweep and the dual build's per-site body call:
///  * labels — depth, parent, parent_edge, reachable: any vertex;
///  * children(v) — v ∈ A_f only. A vertex outside A_f keeps its T0
///    parent, which lies outside A_f too, so every T_f child of an
///    affected vertex is affected: a local CSR;
///  * is_ancestor_or_equal / on_source_path — any pair: local tin/tout
///    over the T_f forest on A_f, plus each affected vertex's EXIT (its
///    first T_f ancestor outside A_f), against which an outer ancestor is
///    tested in T0 (outer vertices keep their T0 paths);
///  * is_tree_edge / lower_endpoint / edge_depth — from the endpoints'
///    parent_edge, so no per-edge table exists;
///  * subtree / subtree_size — for v ∈ A_f (a slice of the forest
///    preorder) and for the T_f ancestors of A_f outside it other than the
///    source (the restricted engines' outer sweep sites), whose subtree is
///    (T0-slice(u) minus the A_f interval) ∪ {affected vertices whose exit
///    is under u}. The puncture materializes those once, as one T_f
///    preorder of the outer ancestors' top-level subtrees — the engines'
///    sweeps over them cost that volume anyway. No other vertex's subtree
///    is available.
/// Every const accessor is a pure read, safe to call concurrently (the
/// engines call them from parallel_for). Valid until the owning
/// workspace's next puncture() or bind().
class PuncturedTree {
 public:
  const Graph& graph() const { return base_->graph(); }
  const EdgeWeights& weights() const { return base_->weights(); }
  Vertex source() const { return base_->source(); }

  // ---- per-vertex labels ------------------------------------------------
  std::int32_t depth(Vertex v) const {
    const std::int32_t i = slot(v);
    return i >= 0 ? labels_.hops[static_cast<std::size_t>(i)] : base_->depth(v);
  }
  bool reachable(Vertex v) const { return depth(v) < kInfHops; }
  Vertex parent(Vertex v) const {
    const std::int32_t i = slot(v);
    return i >= 0 ? labels_.parent[static_cast<std::size_t>(i)]
                  : base_->parent(v);
  }
  EdgeId parent_edge(Vertex v) const {
    const std::int32_t i = slot(v);
    return i >= 0 ? labels_.parent_edge[static_cast<std::size_t>(i)]
                  : base_->parent_edge(v);
  }
  /// T_f children of an affected vertex, sorted by id.
  std::span<const Vertex> children(Vertex v) const;
  std::int32_t subtree_size(Vertex v) const {
    const std::span<const Vertex> s = subtree_or_empty(v);
    return static_cast<std::int32_t>(s.size());
  }
  /// Vertices of v's T_f subtree, v first (see the class comment for
  /// which v are available).
  std::span<const Vertex> subtree(Vertex v) const {
    FTB_DCHECK(reachable(v));
    return subtree_or_empty(v);
  }

  // ---- tree edges -------------------------------------------------------
  bool is_tree_edge(EdgeId e) const {
    const auto [u, w] = graph().edge(e);
    return parent_edge(u) == e || parent_edge(w) == e;
  }
  Vertex lower_endpoint(EdgeId e) const {
    FTB_DCHECK(is_tree_edge(e));
    const auto [u, w] = graph().edge(e);
    return parent_edge(u) == e ? u : w;
  }
  std::int32_t edge_depth(EdgeId e) const { return depth(lower_endpoint(e)); }

  // ---- ancestry ---------------------------------------------------------
  /// True iff `a` is a T_f ancestor of `d` or a == d (both reachable).
  bool is_ancestor_or_equal(Vertex a, Vertex d) const;
  bool on_source_path(EdgeId e, Vertex v) const {
    return is_tree_edge(e) && is_ancestor_or_equal(lower_endpoint(e), v);
  }
  /// The T_f path [s, ..., v]. Precondition: reachable(v).
  std::vector<Vertex> path_from_source(Vertex v) const;

 private:
  friend class PuncturedWorkspace;

  /// Patch index of v (tin0(v) − tin0(top)), or −1 outside A_f — the
  /// two-comparison interval test, folded into one unsigned compare
  /// (unreachable vertices have tin0 == −1).
  std::int32_t slot(Vertex v) const {
    const std::int32_t i = base_->tin(v) - lo_;
    return static_cast<std::uint32_t>(i) < static_cast<std::uint32_t>(size_)
               ? i
               : -1;
  }
  std::span<const Vertex> subtree_or_empty(Vertex v) const;

  /// Builds the derived slice structures from labels_: exits, children
  /// CSR, forest preorder and the outer ancestors' subtrees. `by_level`
  /// is A_f in (T_f hops, id) order; the rest is caller scratch.
  void derive(std::span<const Vertex> by_level, std::vector<Vertex>& roots,
              std::vector<std::pair<std::int32_t, std::int32_t>>& stack);

  const BfsTree* base_ = nullptr;
  std::int32_t lo_ = 0;    // tin0(top)
  std::int32_t size_ = 0;  // |A_f|

  // Indexed by slot.
  detail::SliceLabels labels_;
  std::vector<Vertex> exit_;                 // first T_f ancestor ∉ A_f
  std::vector<std::int32_t> child_offsets_;  // size_ + 1
  std::vector<Vertex> child_list_;
  std::vector<std::int32_t> tin_, tout_;     // into preorder_, −1 unreachable

  std::vector<Vertex> preorder_;        // T_f forest on A_f, reachable only
  std::vector<Vertex> outer_preorder_;  // T_f preorder of the outer blocks
  // Per T0 preorder position t: offset into outer_preorder_ where the T0
  // vertex at t (or the A_f gap at t == lo_) starts. Written only over
  // the current puncture's outer blocks; sized once per bind.
  std::vector<std::int32_t> outer_at_;
};

/// Per-thread punctured-tree workspace of the dual build: owns one
/// PuncturedTree overlay and the scratch that produces it.
///
/// bind() only records the base tree (and grows the one T0-position
/// array the overlay indexes on first use), so it is cheap enough to
/// reset on every call — there is no state a rebind to another tree could
/// inherit. Each puncture() runs the Dial sweep and the canonical relabel
/// over A_f (the one relabel implementation rebase_punctured_tree runs
/// too, so the two agree bit for bit) and derives the overlay's slice
/// structures; nothing it does is sized by n or m.
///
/// Exclusive ownership while in use: the dual build leases one per worker
/// from a FreeListPool. The tree returned by puncture() is valid until the
/// next puncture()/bind() on the same workspace.
class PuncturedWorkspace {
 public:
  /// Binds to `base`, dropping every earlier puncture.
  void bind(const BfsTree& base);

  /// The canonical tree of G \ {fault} over the bound base, label-for-
  /// label equal to rebase_punctured_tree(base, banned_edge,
  /// banned_vertex). Same precondition: exactly one failed element, a
  /// tree edge or a reachable non-source vertex.
  const PuncturedTree& puncture(EdgeId banned_edge, Vertex banned_vertex);

  /// Cumulative puncture work this workspace performed (never reset).
  const SweepWorkStats& stats() const { return stats_; }

 private:
  PuncturedTree tree_;
  ReplacementSweepScratch sweep_;
  std::vector<Vertex> by_level_;  // relabel processing order
  std::vector<Vertex> roots_;     // forest roots, by exit position
  std::vector<std::pair<std::int32_t, std::int32_t>> stack_;  // forest DFS
  SweepWorkStats stats_;
};

}  // namespace ftb

// bfs_tree.hpp — the BFS tree T0 = ⋃_v π(s,v) rooted at the source, with
// the ancestry machinery the paper's constructions lean on.
//
// T0 is the canonical shortest-path tree under the weight assignment W
// (see canonical_bfs.hpp): π(s,v) = SP(s,v,G,W) is exactly the tree path
// to v. On top of the tree we precompute:
//   * preorder intervals (tin/tout) — O(1) ancestor tests, O(1) "is e on
//     π(s,v)" tests, O(1) e ∼ e' tests (Sec. 3.1's relation);
//   * children lists and subtree sizes — heavy-path decomposition input;
//   * contiguous preorder ranges — "all vertices below edge e" iteration
//     used when storing per-failure distance rows.
#pragma once

#include <span>
#include <vector>

#include "src/graph/canonical_bfs.hpp"
#include "src/graph/graph.hpp"

namespace ftb {

/// Canonical BFS tree rooted at a source vertex. Immutable.
class BfsTree {
 public:
  /// Builds T0 for (g, weights, source) on the fused canonical kernel
  /// (canonical_sp_fused in bfs_kernel.hpp). Unreachable vertices get
  /// depth == kInfHops and take part in no tree structure.
  BfsTree(const Graph& g, const EdgeWeights& weights, Vertex source);

  /// Builds the canonical tree of the PUNCTURED graph G minus `bans` —
  /// the replacement tree T_{f} the dual-failure recursion roots its
  /// per-first-failure engines at. Every accessor then answers for the
  /// punctured graph (banned vertices are simply unreachable); `bans` is
  /// only read during construction.
  BfsTree(const Graph& g, const EdgeWeights& weights, Vertex source,
          const BfsBans& bans);

  /// Adopts an already-computed canonical label set and builds the derived
  /// tree machinery (children CSR, preorder intervals, tree-edge table) on
  /// top of it. `sp` must be exactly canonical_sp(g, weights, source, ·) of
  /// the graph the caller answers for. Two callers plug in here: the
  /// referee punctured-tree rebase (rebase_punctured_tree in
  /// dist_sweep.hpp), which skips a full O(m) canonical BFS per tree, and
  /// the differential referees, which build trees on the two-pass
  /// canonical_sp so they never share the production kernel.
  BfsTree(const Graph& g, const EdgeWeights& weights, Vertex source,
          CanonicalSp sp);

  const Graph& graph() const { return *g_; }
  const EdgeWeights& weights() const { return *weights_; }
  Vertex source() const { return source_; }
  const CanonicalSp& sp() const { return sp_; }

  // ---- per-vertex -------------------------------------------------------
  std::int32_t depth(Vertex v) const { return sp_.hops[idx(v)]; }
  bool reachable(Vertex v) const { return sp_.reachable(v); }
  Vertex parent(Vertex v) const { return sp_.parent[idx(v)]; }
  EdgeId parent_edge(Vertex v) const { return sp_.parent_edge[idx(v)]; }
  std::span<const Vertex> children(Vertex v) const;
  std::int32_t subtree_size(Vertex v) const { return subtree_size_[idx(v)]; }
  /// Number of reachable vertices (== size of the tree incl. source).
  std::int32_t num_reachable() const { return num_reachable_; }

  // ---- tree edges -------------------------------------------------------
  bool is_tree_edge(EdgeId e) const { return lower_[eidx(e)] != kInvalidVertex; }
  /// All tree edges, ordered by the preorder index of their lower endpoint.
  const std::vector<EdgeId>& tree_edges() const { return tree_edges_; }
  /// Deeper (child-side) endpoint of a tree edge.
  Vertex lower_endpoint(EdgeId e) const {
    FTB_DCHECK(is_tree_edge(e));
    return lower_[eidx(e)];
  }
  Vertex upper_endpoint(EdgeId e) const {
    return parent(lower_endpoint(e));
  }
  /// Per EdgeId: the lower endpoint of a tree edge, kInvalidVertex for
  /// every other edge (the array behind is_tree_edge / lower_endpoint).
  std::span<const Vertex> lower_endpoints() const { return lower_; }
  /// The paper's dist(s,e): depth of the lower endpoint; the edge
  /// (u_{i}, u_{i+1}) of π(s,v) has edge_depth i+1.
  std::int32_t edge_depth(EdgeId e) const { return depth(lower_endpoint(e)); }

  // ---- ancestry ---------------------------------------------------------
  /// True iff `a` is an ancestor of `d` or a == d (both reachable).
  bool is_ancestor_or_equal(Vertex a, Vertex d) const {
    return tin_[idx(a)] <= tin_[idx(d)] && tout_[idx(d)] <= tout_[idx(a)];
  }
  /// True iff tree edge `e` lies on π(s,v)  (⇔ lower endpoint ≼ v).
  bool on_source_path(EdgeId e, Vertex v) const {
    return is_tree_edge(e) && is_ancestor_or_equal(lower_endpoint(e), v);
  }
  /// The paper's e ∼ e' relation: both edges lie on a common π(s,·), i.e.
  /// one lower endpoint is an ancestor-or-equal of the other.
  bool edges_related(EdgeId e1, EdgeId e2) const {
    const Vertex b = lower_endpoint(e1), d = lower_endpoint(e2);
    return is_ancestor_or_equal(b, d) || is_ancestor_or_equal(d, b);
  }

  /// Preorder interval [tin, tout) of v's subtree; both -1 for an
  /// unreachable vertex.
  std::int32_t tin(Vertex v) const { return tin_[idx(v)]; }
  std::int32_t tout(Vertex v) const { return tout_[idx(v)]; }

  /// Vertices of the subtree rooted at v — a contiguous preorder slice.
  std::span<const Vertex> subtree(Vertex v) const;

  /// The tree path [s, ..., v]. Precondition: reachable(v).
  std::vector<Vertex> path_from_source(Vertex v) const {
    return sp_.path_from_source(v);
  }

  /// Preorder sequence of reachable vertices (source first).
  std::span<const Vertex> preorder() const { return {preorder_}; }

 private:
  static std::size_t idx(Vertex v) { return static_cast<std::size_t>(v); }
  static std::size_t eidx(EdgeId e) { return static_cast<std::size_t>(e); }

  /// Builds everything derived from sp_ (children CSR, preorder, tin/tout,
  /// subtree sizes, tree-edge table). Runs once, from the constructors.
  void build_derived();

  const Graph* g_;
  const EdgeWeights* weights_;
  Vertex source_;
  CanonicalSp sp_;

  // children in CSR form, sorted by id per parent
  std::vector<std::int64_t> child_offsets_;
  std::vector<Vertex> child_list_;

  std::vector<Vertex> preorder_;        // reachable vertices, preorder
  std::vector<std::int32_t> tin_, tout_;
  std::vector<std::int32_t> subtree_size_;
  std::vector<Vertex> lower_;           // per EdgeId: lower endpoint or invalid
  std::vector<EdgeId> tree_edges_;
  std::int32_t num_reachable_ = 0;
};

}  // namespace ftb

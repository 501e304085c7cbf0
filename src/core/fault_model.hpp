// fault_model.hpp — the fault-model policy layer behind Phase S0.
//
// The paper's companion setting (Parter–Peleg ESA'13) treats edge and
// vertex faults with the same machinery, and every construction in this
// library consumes the same S0 artifacts either way: per-failure distance
// tables, the covered/uncovered classification, and the canonical
// divergence/detour metadata of the uncovered pairs. The two historical
// engines (ReplacementPathEngine for edge faults, VertexReplacementEngine
// for vertex faults) were hand-copied forks of one pipeline differing only
// in a handful of policy decisions. This header makes those decisions an
// explicit, compile-time policy:
//
//   * FaultId            — what fails (EdgeId vs Vertex);
//   * fault enumeration  — which tree sites seed a distance table (every
//                          tree edge, keyed by its lower endpoint, vs every
//                          internal tree vertex);
//   * table seeding      — how dist_sweep / the BFS kernel exclude the
//                          fault (banned edge vs banned-vertex mask);
//   * position range     — which path positions i of π(s,v) = u_0..u_k can
//                          fail (edges: i ∈ [0,k) for (u_i,u_{i+1});
//                          vertices: i ∈ [1,k) for u_i, excluding s and v);
//   * divergence range   — how close to the fault a canonical replacement
//                          path may diverge (edges: j ≤ i; vertices:
//                          j ≤ i−1, strictly above the failed vertex).
//
// Two types carry it, both defined once in fault_model.cpp:
//
//   * ReplacementTable<Model> — the per-failure distance rows and the
//                          subtree-seeded sweep that fills them: all a
//                          post-failure query reads, and all the serving
//                          plane (api::Session, DualFaultOracle) builds;
//   * FaultReplacementEngine<Model> — a table plus the covered/uncovered
//                          pair classification and canonical detours the
//                          constructions consume (build side only);
//                          replacement.hpp and vertex_ftbfs.hpp alias it
//                          for the two models.
//
// A future fault model — e.g. the dual-failure setting of the PAPERS.md
// follow-ups — is a new policy struct, not a fork. docs/architecture.md walks through the
// layering.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/dist_sweep.hpp"
#include "src/core/structure.hpp"
#include "src/graph/bfs_tree.hpp"
#include "src/util/thread_pool.hpp"

namespace ftb {

/// An uncovered (new-ending) vertex-edge pair ⟨v,e⟩ ∈ UP with the canonical
/// replacement-path metadata the constructions consume.
struct UncoveredPair {
  Vertex v = kInvalidVertex;   // terminal
  EdgeId e = kInvalidEdge;     // failing edge, e ∈ π(s,v)
  std::int32_t edge_pos = 0;   // e = (u_i, u_{i+1}) with i = edge_pos
  std::int32_t rep_dist = 0;   // dist(s, v, G \ {e})
  Vertex diverge = kInvalidVertex;  // d(P) = u_{j*}
  std::int32_t diverge_depth = 0;   // j*
  EdgeId last_edge = kInvalidEdge;  // LastE(P_{v,e}) ∉ T0, an edge into v
  std::int32_t detour_len = 0;      // |D(P)| in edges
  // Detour vertex list [diverge, ..., v]: slice of the engine's arena.
  std::int64_t detour_begin = 0;
  std::int64_t detour_end = 0;
};

/// An uncovered vertex-fault pair ⟨v, x⟩: terminal v, failing vertex
/// x = u_i internal to π(s,v), whose canonical replacement path ends with
/// a new (non-tree) edge.
struct VertexFaultPair {
  Vertex v = kInvalidVertex;        // terminal
  Vertex x = kInvalidVertex;        // failing vertex, internal to π(s,v)
  std::int32_t x_pos = 0;           // x = u_i with i = x_pos (1 ≤ i ≤ k−1)
  std::int32_t rep_dist = 0;        // dist(s, v, G \ {x})
  Vertex diverge = kInvalidVertex;  // u_{j*}, j* ≤ i−1
  std::int32_t diverge_depth = 0;
  EdgeId last_edge = kInvalidEdge;  // new-ending last edge into v
  std::int32_t detour_len = 0;      // |D(P)| in edges
  // Detour vertex list [diverge, ..., v] (when collected).
  std::int64_t detour_begin = 0;
  std::int64_t detour_end = 0;
};

namespace detail {

/// The per-vertex scratch of a restricted table (fault_model.cpp): row and
/// pair offsets plus epoch-stamped membership, leased from a process-wide
/// pool for the table's lifetime and handed back by the deleter.
struct RestrictedIndex;
struct RestrictedIndexRelease {
  void operator()(RestrictedIndex* index) const;
};

}  // namespace detail

/// Policy for single EDGE failures (the paper's primary model).
struct EdgeFault {
  using FaultId = EdgeId;
  using Pair = UncoveredPair;
  static constexpr FaultClass kClass = FaultClass::kEdge;
  static constexpr FaultId kNoFault = kInvalidEdge;
  /// First path position that can fail: edge (u_0, u_1) has position 0.
  static constexpr std::int32_t kFirstPos = 0;
  /// A replacement path for the failure at position i diverges at
  /// j ≤ i − kDivergeGap.
  static constexpr std::int32_t kDivergeGap = 0;
  /// Whether the failed site vertex itself must be skipped when filling
  /// distance-table rows over the affected subtree.
  static constexpr bool kSkipFailedSite = false;

  // ---- fault enumeration over the tree ---------------------------------
  // Sites are keyed by non-source preorder vertices u; the edge model's
  // fault at site u is u's parent edge (a bijection onto the tree edges).
  template <class Tree>
  static bool site_active(const Tree& t, Vertex u) {
    (void)t;
    (void)u;
    return true;
  }
  template <class Tree>
  static FaultId site_fault(const Tree& t, Vertex u) {
    return t.parent_edge(u);
  }

  // ---- pair plumbing ----------------------------------------------------
  template <class Tree>
  static FaultId fault_at(const Tree& t, std::span<const Vertex> path,
                          std::int32_t i) {
    return t.parent_edge(path[static_cast<std::size_t>(i) + 1]);
  }
  static FaultId fault_of(const Pair& p) { return p.e; }
  static std::int32_t pos_of(const Pair& p) { return p.edge_pos; }
  static void set_fault(Pair& p, FaultId f, std::int32_t pos) {
    p.e = f;
    p.edge_pos = pos;
  }

  // ---- query-side geometry ----------------------------------------------
  template <class Tree>
  static void validate_query(const Tree& t, FaultId f) {
    (void)t;
    (void)f;
  }
  /// The fault destroys the terminal itself (only possible for vertices).
  static bool hits_terminal(Vertex v, FaultId f) {
    (void)v;
    (void)f;
    return false;
  }
  /// True iff the fault lies on π(s,v) — i.e. v has a stored table row.
  template <class Tree>
  static bool on_path(const Tree& t, FaultId f, Vertex v) {
    return t.is_tree_edge(f) && t.on_source_path(f, v);
  }
  /// Path position of the fault (valid when on_path).
  template <class Tree>
  static std::int32_t fault_pos(const Tree& t, FaultId f) {
    return t.edge_depth(f) - 1;
  }

  // ---- traversal bans ----------------------------------------------------
  static void ban(FaultId f, BfsBans& bans, std::vector<std::uint8_t>& mask,
                  std::size_t n) {
    (void)mask;
    (void)n;
    bans.banned_edge = f;
  }
  static void unban(FaultId f, std::vector<std::uint8_t>& mask) {
    (void)f;
    (void)mask;
  }
  static EdgeId sweep_banned_edge(FaultId f) { return f; }
  static Vertex sweep_banned_vertex(FaultId f) {
    (void)f;
    return kInvalidVertex;
  }
};

/// Policy for single VERTEX failures (the companion ESA'13 setting).
struct VertexFault {
  using FaultId = Vertex;
  using Pair = VertexFaultPair;
  static constexpr FaultClass kClass = FaultClass::kVertex;
  static constexpr FaultId kNoFault = kInvalidVertex;
  /// Failing vertices are internal to π(s,v): positions i ∈ [1, k).
  static constexpr std::int32_t kFirstPos = 1;
  /// Divergence sits strictly above the failed vertex: j ≤ i − 1.
  static constexpr std::int32_t kDivergeGap = 1;
  /// subtree(x) contains x itself, whose own row does not exist.
  static constexpr bool kSkipFailedSite = true;

  // ---- fault enumeration over the tree ---------------------------------
  // Site u fails as itself; only internal vertices (with strict
  // descendants) seed a table.
  template <class Tree>
  static bool site_active(const Tree& t, Vertex u) {
    return t.subtree_size(u) > 1;
  }
  template <class Tree>
  static FaultId site_fault(const Tree& t, Vertex u) {
    (void)t;
    return u;
  }

  // ---- pair plumbing ----------------------------------------------------
  template <class Tree>
  static FaultId fault_at(const Tree& t, std::span<const Vertex> path,
                          std::int32_t i) {
    (void)t;
    return path[static_cast<std::size_t>(i)];
  }
  static FaultId fault_of(const Pair& p) { return p.x; }
  static std::int32_t pos_of(const Pair& p) { return p.x_pos; }
  static void set_fault(Pair& p, FaultId f, std::int32_t pos) {
    p.x = f;
    p.x_pos = pos;
  }

  // ---- query-side geometry ----------------------------------------------
  template <class Tree>
  static void validate_query(const Tree& t, FaultId f) {
    FTB_CHECK_MSG(f != t.source(), "the source never fails");
  }
  static bool hits_terminal(Vertex v, FaultId f) { return v == f; }
  template <class Tree>
  static bool on_path(const Tree& t, FaultId f, Vertex v) {
    return t.reachable(f) && t.is_ancestor_or_equal(f, v);
  }
  template <class Tree>
  static std::int32_t fault_pos(const Tree& t, FaultId f) {
    return t.depth(f);
  }

  // ---- traversal bans ----------------------------------------------------
  static void ban(FaultId f, BfsBans& bans, std::vector<std::uint8_t>& mask,
                  std::size_t n) {
    if (mask.size() < n) mask.assign(n, 0);
    mask[static_cast<std::size_t>(f)] = 1;
    bans.banned_vertex = &mask;
  }
  static void unban(FaultId f, std::vector<std::uint8_t>& mask) {
    mask[static_cast<std::size_t>(f)] = 0;
  }
  static EdgeId sweep_banned_edge(FaultId f) {
    (void)f;
    return kInvalidEdge;
  }
  static Vertex sweep_banned_vertex(FaultId f) { return f; }
};

/// The replacement-distance rows of one source, generic over the fault
/// model: dist(s, v, G \ {fault}) for every vertex v below every fault
/// site, filled by one subtree-seeded sweep per site (dist_sweep.hpp).
/// This is everything a query needs — the serving plane (api::Session,
/// DualFaultOracle) holds tables and never classifies a pair; the build
/// pipelines get the same rows inside a FaultReplacementEngine.
///
/// Rows are stored only for vertices below the fault (pairs with the fault
/// on π(s,v)): row v holds the failures of the positions [kFirstPos,
/// depth(v)) of π(s,v) — depth(v) rows for edge faults, depth(v) − 1 for
/// vertex faults (the source and the terminal itself never seed a row). A
/// full table lays them out in vertex-id order (rows() is then the span
/// audit_replacement_rows checks); a restricted one only for its
/// terminals and their parents.
///
/// `Tree` is the tree the table answers for: a BfsTree (every full table,
/// and restricted ones on a materialized tree), or the dual build's
/// PuncturedTree overlay, which serves restricted tables only.
template <class Model, class Tree = BfsTree>
class ReplacementTable {
 public:
  using FaultId = typename Model::FaultId;

  struct Config {
    /// Worker pool; nullptr = ThreadPool::global().
    ThreadPool* pool = nullptr;
    /// Run the naive reference kernel (one full queue BFS per fault site)
    /// instead of the subtree-seeded sweep. Differential-testing / bench
    /// baseline; the rows are bit-identical either way (and so is the
    /// engine's pair plane, whose reference canonical SP this also picks).
    bool reference_kernel = false;
    /// Ambient first failure: the table then computes over the PUNCTURED
    /// graph G \ {ambient} — every row (and every covered test and
    /// canonical detour of an engine on top) excludes the ambient element
    /// on top of the model's own fault. At most one of the two may be set,
    /// and the `tree` handed to the constructor must be the canonical tree
    /// of the same punctured graph (BfsTree's bans overload). This is how
    /// the dual-failure pipeline (dual_fault.hpp) reuses the single-fault
    /// engine once per first failure. Defaults reproduce the single-fault
    /// tables bit-identically.
    EdgeId ambient_banned_edge = kInvalidEdge;
    Vertex ambient_banned_vertex = kInvalidVertex;
    /// Restrict the table (and an engine's pair plane) to these terminals
    /// (empty = every vertex, the full table). The set must be closed
    /// under `tree`'s children relation, since the covered test reads the
    /// tree-neighbor rows of every terminal. Two tree types qualify:
    ///   * a BfsTree, with any children-closed set — a subtree slice, or a
    ///     T0-subtree handed to the materialized punctured tree
    ///     (rebase_punctured_tree: re-parented vertices stay below the
    ///     fault);
    ///   * a PuncturedTree overlay, with exactly its affected slice A_f
    ///     (the T0 preorder slice below the fault) — the only terminals
    ///     whose children, subtrees and ancestors the overlay answers for.
    /// With a restriction the table allocates rows only for the terminals
    /// and their parents and runs sweeps only for fault sites with a
    /// restricted terminal in their subtree (their ancestors-or-selves);
    /// an engine enumerates/classifies pairs only for the listed
    /// terminals. The per-vertex row and pair indexes live in a pooled,
    /// epoch-stamped scratch written only at the restricted vertices, so a
    /// build costs the restricted set's tree volume (ancestor sweeps
    /// included) and no O(n) fill. replacement_dist() is then valid only
    /// for listed terminals. This is the entry point of the dual-failure
    /// pipeline: per first-failure site it hands the engine the punctured
    /// tree plus the affected subtree as the terminal set. The span is
    /// read during construction only.
    std::span<const Vertex> restrict_terminals = {};
  };

  explicit ReplacementTable(const Tree& tree)
      : ReplacementTable(tree, Config()) {}
  ReplacementTable(const Tree& tree, const Config& cfg);

  const Tree& tree() const { return *tree_; }

  /// dist(s, v, G \ {fault}) for any vertex v and any fault. O(1):
  ///  * fault not on π(s,v)  → dist(s,v,G) (π survives);
  ///  * fault ∈ π(s,v)       → stored table row;
  ///  * disconnected / fault destroys v itself → kInfHops.
  /// Vertex model only: the source never fails (CheckError).
  std::int32_t replacement_dist(Vertex v, FaultId fault) const;

  /// Every stored row (Σ_v max(0, depth(v) − kFirstPos) for a full
  /// table, in vertex-id order).
  std::span<const std::int32_t> rows() const { return rows_; }
  /// All ⟨v,fault⟩ with fault ∈ π(s,v) — one per stored row.
  std::int64_t pairs_total() const {
    return static_cast<std::int64_t>(rows_.size());
  }
  /// Wall time of the sweeps that filled the rows.
  double seconds() const { return seconds_; }

 private:
  template <class, class>
  friend class FaultReplacementEngine;

  void build_dist_tables(const Config& cfg, ThreadPool& pool);

  /// Stored row index: the fault at path position i of π(s,v) lives at
  /// rows_[row_off_[v] + i − Model::kFirstPos].
  std::int32_t table_dist(Vertex v, std::int32_t pos) const {
    return rows_[static_cast<std::size_t>(
        row_off_[static_cast<std::size_t>(v)] + (pos - Model::kFirstPos))];
  }

  const Tree* tree_;
  // Per-vertex row index: owned by a full table, leased (written only at
  // the restricted vertices) by a restricted one. row_off_ points at
  // whichever holds it; a restricted engine keeps its pair offsets in the
  // same lease.
  std::vector<std::int64_t> row_offset_;  // full: per vertex, n + 1
  std::unique_ptr<detail::RestrictedIndex, detail::RestrictedIndexRelease>
      index_;                             // restricted
  const std::int64_t* row_off_ = nullptr;
  std::vector<std::int32_t> rows_;
  double seconds_ = 0;
};

/// Checks a full table's rows against its tree: `count_ok` iff there are
/// exactly Σ_v max(0, depth(v) − kFirstPos) of them, `bounds_ok` iff every
/// row of v is kInfHops or lies in [depth(v), n − 1] (a failure never
/// shortens a distance, and a simple path has at most n − 1 edges). The
/// bounds are read only when the count matches. Session::fsck runs it per
/// source and model.
struct RowAudit {
  bool count_ok = true;
  bool bounds_ok = true;
};
template <class Model>
RowAudit audit_replacement_rows(const BfsTree& tree,
                                std::span<const std::int32_t> rows);

/// The source-arc index of `s`: n entries, entry x the edge (s, x), or
/// kInvalidEdge where x is not a neighbour of s. Ambient (punctured) edges
/// stay in; the engines skip them.
std::vector<EdgeId> source_arc_index(const Graph& g, Vertex s);

/// The S0 engine, generic over the fault model: a ReplacementTable plus
/// the covered/uncovered classification of every ⟨v, fault⟩ pair and the
/// canonical detours of the uncovered ones — the build-time input of
/// S1/S2, the vertex/dual pipelines and the optimizer. Construct once per
/// (graph, source, weights); everything else reads from it.
///
/// Engine realization (see replacement.hpp's file comment and DESIGN.md for
/// the equivalence proofs; everything below holds verbatim for both models
/// with the policy hooks substituted):
///   * one replacement-distance computation per fault site gives
///     dist(s,·,G\{fault}) — the table;
///   * the covered test for ⟨v,fault⟩ reduces to: some T0-neighbor u of v,
///     not destroyed by the fault, with dist_f(u) + 1 = dist_f(v);
///   * one canonical BFS from v in the off-path graph
///     H_v = G \ (V(π(s,v)) \ {v}) yields, for every divergence candidate
///     u_j, the best detour length detlen(j) and its canonical last edge
///     (u_j's candidate edges are the arcs that BFS drops at the path,
///     u_0's are read from the source-arc index); the divergence point
///     of the pair at position i is u_{j*} with
///     j* = min{ j ≤ i − kDivergeGap : j + detlen(j) = dist_f(v) }.
/// Both sweeps are O(n·m) total and run on the thread pool.
template <class Model, class Tree = BfsTree>
class FaultReplacementEngine {
 public:
  using FaultId = typename Model::FaultId;
  using Pair = typename Model::Pair;
  using Table = ReplacementTable<Model, Tree>;

  /// The table's knobs (pool, reference kernel, ambient failure, terminal
  /// restriction — see ReplacementTable::Config) plus the pair plane's.
  struct Config : Table::Config {
    /// Record detour vertex lists (needed by the interference machinery of
    /// the ε algorithm and by replacement_path(); the ESA'13 baselines can
    /// skip them).
    bool collect_detours = true;
    /// source_arc_index(graph, source) of the tree's graph and source,
    /// where the engine reads u_0's divergence candidates. A full engine
    /// builds its own when this is empty; a restricted one must be handed
    /// one (CheckError otherwise), so that no restricted engine fills O(n):
    /// the dual build makes one per source for all of its site engines.
    /// Read during construction only.
    std::span<const EdgeId> source_arcs = {};
  };

  explicit FaultReplacementEngine(const Tree& tree)
      : FaultReplacementEngine(tree, Config()) {}
  FaultReplacementEngine(const Tree& tree, Config cfg);

  const Tree& tree() const { return table_.tree(); }
  const Graph& graph() const { return tree().graph(); }
  const Table& table() const { return table_; }

  /// dist(s, v, G \ {fault}); see ReplacementTable::replacement_dist.
  std::int32_t replacement_dist(Vertex v, FaultId fault) const {
    return table_.replacement_dist(v, fault);
  }

  /// All uncovered pairs, grouped by terminal v and ordered by increasing
  /// fault position within each terminal.
  const std::vector<Pair>& uncovered_pairs() const { return pairs_; }

  /// Indices (into uncovered_pairs()) of v's pairs.
  std::span<const std::int32_t> uncovered_of(Vertex v) const;

  /// The detour D(P) = [diverge, ..., v] of an uncovered pair.
  /// Requires Config::collect_detours.
  std::span<const Vertex> detour(const Pair& p) const;

  /// True iff pair ⟨v,fault⟩ has a replacement path whose last edge is in
  /// T0 (the paper's G'(v) test). Preconditions: fault ∈ π(s,v), finite
  /// replacement distance.
  bool covered(Vertex v, FaultId fault) const;

  /// Reconstructs a full canonical replacement path [s, ..., v] for any
  /// pair with finite replacement distance. For uncovered pairs this is
  /// π(s, u_{j*}) ∘ D(P) from stored metadata (requires collect_detours);
  /// for covered pairs it runs a fresh canonical BFS in G'(v) minus the
  /// fault (O(m); intended for tests/queries).
  std::vector<Vertex> replacement_path(Vertex v, FaultId fault) const;

  struct Stats {
    std::int64_t pairs_total = 0;      // all ⟨v,fault⟩ with fault ∈ π(s,v)
    std::int64_t pairs_infinite = 0;   // disconnecting failures
    std::int64_t pairs_covered = 0;
    std::int64_t pairs_uncovered = 0;
    std::int64_t detour_vertices = 0;  // arena size
    // S0 detour work (deterministic): arcs the capped off-path traversals
    // read (the degree sum of their expanded vertices), arcs from those
    // balls back into the path (the traversals' boundary), and source-arc
    // index loads, one per ball vertex, for u_0 = s. All stay 0 under the
    // reference kernel, which scans every u_j's adjacency.
    std::int64_t detour_traversal_arcs = 0;
    std::int64_t detour_boundary_arcs = 0;
    std::int64_t detour_source_probes = 0;
    double seconds_dist_tables = 0;
    double seconds_detours = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void build_pairs(ThreadPool& pool);

  Config cfg_;
  Table table_;

  // Per-vertex pair index: owned by a full engine (n + 1), or the table's
  // lease (written only at the restricted terminals) for a restricted one.
  std::vector<std::int64_t> pairs_offset_;
  const std::int64_t* pair_off_ = nullptr;

  std::vector<Pair> pairs_;
  std::vector<std::int32_t> pair_ids_;      // pair indices grouped by v
  std::vector<Vertex> detour_arena_;

  Stats stats_;
};

// The instantiations live in fault_model.cpp.
extern template class ReplacementTable<EdgeFault>;
extern template class ReplacementTable<VertexFault>;
extern template class ReplacementTable<EdgeFault, PuncturedTree>;
extern template class ReplacementTable<VertexFault, PuncturedTree>;
extern template class FaultReplacementEngine<EdgeFault>;
extern template class FaultReplacementEngine<VertexFault>;
extern template class FaultReplacementEngine<EdgeFault, PuncturedTree>;
extern template class FaultReplacementEngine<VertexFault, PuncturedTree>;

}  // namespace ftb

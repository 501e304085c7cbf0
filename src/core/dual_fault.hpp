// dual_fault.hpp — FT-BFS structures against TWO simultaneous failures.
//
// The dual-failure setting (Parter, "Dual Failure Resilient BFS Structure",
// arXiv:1505.00692; multi-source bounds in Gupta–Khan, arXiv:1704.06907)
// extends the single-fault contract to unordered pairs: a subgraph H ⊆ G
// such that for every pair of failures {f1, f2} — each an edge, or a vertex
// other than the source —
//
//   dist(s, v, H \ {f1, f2}) = dist(s, v, G \ {f1, f2})    for every v ∈ V.
//
// Construction — the PRUNED reinforcement-backup recursion. Let T0 be the
// canonical tree of G and call an element a *first-failure site* when it is
// a tree edge of T0 or an internal tree vertex. For a site f let
// A_f := the T0-subtree hanging below f (the vertices whose π(s,·) uses f).
// Per site we keep only the SEGMENT of the punctured single-fault structure
// that terminals in A_f can actually consume (Parter's segment pruning,
// arXiv:1505.00692 §4 — replacement paths of unaffected terminals ride
// their T0 prefix, so only the last, subtree-local segment needs backup):
//
//   C_f = { T_f parent edges of the vertices of A_f }
//       ∪ { last edges of the uncovered pairs ⟨v, f'⟩ of the edge- and
//           vertex-fault S0 engines run over G \ {f}, v ∈ A_f },
//
// where T_f is the canonical tree of G \ {f} under the SAME weight
// assignment W (subgraph-consistency of W is exactly why the punctured
// engines stay canonical), built incrementally from T0 by
// rebase_punctured_tree — outside A_f the two trees coincide edge for
// edge, so only A_f is relabeled (the sibling-prefix reuse of Gupta–Khan,
// arXiv:1704.06907), and the engines run with
// Config::{ambient_banned_*, restrict_terminals = A_f}, costing the
// subtree's volume instead of the whole graph. Then
//
//   H = T0 ∪ ⋃_f C_f
//
// is dual-failure resilient. Fix a pair {f, f'} and induct on
// d_v = dist(s, v, G \ {f, f'}) over ALL terminals v simultaneously:
//   * v below no sited element of the pair: π(s,v) ⊆ T0 avoids both (a
//     non-tree edge lies on no π(s,·); a non-site vertex is a leaf, on no
//     path but its own), so d_v = depth(v) realized inside T0.
//   * v ∈ A_f (symmetrically A_{f'}): work in G' = G \ {f} with tree T_f.
//     If f' ∉ π_{T_f}(s,v), that tree path survives and lies in
//     T0 ∪ C_f — its A_f suffix is C_f parent edges, its prefix is T0.
//     Otherwise ⟨v, f'⟩ is a pair of the punctured engines: if covered,
//     some surviving T_f-neighbor u has d_u = d_v − 1 and the connecting
//     tree edge is in T0 ∪ C_f (T_f-children of A_f vertices stay in A_f);
//     if uncovered, its last edge (u, v) ∈ C_f by construction and
//     d_u = d_v − 1. Either way the induction recurses on u — WHEREVER u
//     lives, its own bullet applies (u may leave A_f; then T0 or C_{f'}
//     takes over). Every edge consumed is in T0 ∪ C_f ∪ C_{f'}, which is
//     also why the oracle can serve the pair from that union alone.
// Taking f' = f degenerates the argument to single failures, so
// T0 ∪ C_f already realizes dist(s, ·, G\{f}) — the fast-path sandwich
// below. The PR 4 construction (C_f replaced by the FULL punctured
// structure T_f ∪ all last edges) is preserved behind the `unpruned`
// parameter of detail::build_dual_site_table as the differential referee
// (tests/referee.hpp builds it for tests and benches); the pruned
// H is a strict subset of it and the served answers are pinned
// bit-identical to both the referee and brute-force two-failure BFS.
//
// Serving — DualFaultOracle. dist(s, v | {f1, f2}) classifies the pair:
//   * f1 == f2, or no sited element            → O(1) off the single-fault
//     tables / tree depths (this is the "reuse of the single-fault tables"
//     plane — no traversal at all);
//   * sited f, other a non-tree edge ∉ C_f     → O(1): (T0 ∪ C_f) \ {other}
//     = T0 ∪ C_f realizes the single-fault distances of G\{f} without
//     `other`, so dist(s,v,G\{f}) is already the two-failure answer;
//   * otherwise                                → one BFS over
//     (T0 ∪ C_{f1} ∪ C_{f2}) \ {f1, f2}, cached per pair in a
//     DualQueryArena (the api::Session batched plane groups queries by
//     distinct pair, so a storm pays one traversal per pair).
// The per-site edge subsets C_f are the *pair tables* serialized by
// structure_io (v4 and later), so a reloaded Session serves pairs without
// re-running the recursion. (Artifacts written by the unpruned referee
// carry the full H_f subsets — supersets of C_f — and serve identically.)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/dist_sweep.hpp"
#include "src/core/fault_model.hpp"
#include "src/core/structure.hpp"
#include "src/graph/bfs_kernel.hpp"
#include "src/util/thread_pool.hpp"

namespace ftb {

/// One element of a failure pair: a failing edge or a failing vertex.
struct DualSite {
  FaultClass kind = FaultClass::kEdge;  // kEdge or kVertex only
  std::int32_t id = -1;                 // EdgeId or Vertex

  friend bool operator==(const DualSite& a, const DualSite& b) {
    return a.kind == b.kind && a.id == b.id;
  }
  /// Normalization order for unordered pairs: edges before vertices, then
  /// by id. (Deterministic grouping and cache keys depend on this.)
  friend bool operator<(const DualSite& a, const DualSite& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.id < b.id;
  }
};

/// The first-failure tables of ONE source: the sites of its tree T0 in
/// deterministic order (every tree edge by tree_edges() order, then every
/// internal vertex by preorder) and, per site f, the sorted edge set of the
/// punctured single-fault structure H_f. This is what structure_io v4
/// serializes as the artifact's pair tables.
struct DualSiteTable {
  std::vector<DualSite> sites;
  std::vector<std::int64_t> offsets;  // sites.size() + 1, into edge_pool
  std::vector<EdgeId> edge_pool;      // per-site edge ids, sorted ascending

  std::size_t num_sites() const { return sites.size(); }
  /// Edge set of H_{sites[i]}, sorted ascending.
  std::span<const EdgeId> subset(std::size_t i) const {
    return {edge_pool.data() + offsets[i], edge_pool.data() + offsets[i + 1]};
  }
  /// O(log) membership test of e in subset(i).
  bool subset_contains(std::size_t i, EdgeId e) const;
};

/// The site-local distance oracle over C_f — the dual analog of the
/// single-fault replacement tables, so non-reducible pairs answer without
/// any traversal. Per first-failure site f (same order as
/// DualSiteTable::sites) and per terminal v of A_f (slots are the subtree's
/// contiguous preorder slice: slot(v) = tin(v) − tin(top_f)) it stores the
/// punctured canonical tree T_f's parent edge and depth of v, plus one row
/// per element of the tree path π_{T_f}(s, v): the TRUE two-failure
/// distance dist(s, v, G \ {f, x}) for x = each path edge (bottom-up,
/// `depth` rows) then each strict intermediate path vertex (bottom-up,
/// `depth − 1` rows). Serving walks π_{T_f}(s, v) once — stored parent
/// edges inside A_f, T0 parent edges outside (the trees coincide there) —
/// and reads the row of the second failure, or returns `depth` when the
/// second failure is off the path. Memory is Σ_f Σ_{v ∈ A_f} 2·depth_f(v)
/// rows — the same volume the restricted punctured engines already
/// materialize transiently during the build.
struct DualSiteDistTable {
  /// num_sites + 1 offsets into the per-slot arrays below.
  std::vector<std::int64_t> site_offsets;
  /// Per slot: T_f parent edge of the terminal (kInvalidEdge when the
  /// terminal is unreachable in G \ {f}).
  std::vector<EdgeId> parent_edge;
  /// Per slot: depth_{T_f}(v) (kInfHops when unreachable).
  std::vector<std::int32_t> tf_depth;
  /// num_slots + 1 offsets into `rows` (an unreachable slot has 0 rows, a
  /// reachable one 2·depth − 1).
  std::vector<std::int64_t> row_offsets;
  /// Per slot: depth edge rows, then depth − 1 vertex rows (kInfHops =
  /// disconnected under that second failure).
  std::vector<std::int32_t> rows;

  bool empty() const { return site_offsets.empty(); }
  std::size_t num_slots() const { return parent_edge.size(); }
};

struct DualFtBfsOptions {
  ThreadPool* pool = nullptr;  // nullptr = global pool
  /// Also harvest the site-local distance tables (DualSiteDistTable) while
  /// the punctured engines are alive, so the oracle serves EVERY pair
  /// traversal-free. Off by default: it costs extra memory proportional to
  /// the tree volume.
  bool site_dist_oracle = false;
};

/// What the dual-failure pipeline emits: the structure (tagged kDual) plus
/// the pair tables the serving stack and structure_io v4 consume.
struct DualBuildResult {
  FtBfsStructure structure;
  DualSiteTable tables;
  /// Site-local distance tables (empty unless
  /// DualFtBfsOptions::site_dist_oracle).
  DualSiteDistTable site_dist;
  /// Rebase-seam work the pruned build performed (label writes + sweep
  /// visits, summed over all sites). A bench gate pins the DFS schedule's
  /// total strictly below the independent-rebase referee's.
  SweepWorkStats sweep_work;
};

namespace detail {
/// The dual-failure pipeline for one source, on an already-built canonical
/// tree (its source and weights). ftb::api::build runs it once per source
/// tree and keeps each source's pair tables (the Gupta–Khan multi-source
/// setting for σ > 1).
DualBuildResult build_dual_failure_ftbfs_impl(const BfsTree& tree,
                                              const DualFtBfsOptions& opts);

/// Builds one source's pair tables for an already-built canonical tree.
/// The production build and Session::load's table rebuild both call it
/// with the defaults below; it is the one place the dual referees are
/// selected (tests/referee.hpp). Also returns, through `edges_out`, the
/// union T0 ∪ ⋃_f C_f it implies (with `unpruned`, the referee's
/// T0 ∪ ⋃_f H_f: full punctured structure per site, no segment pruning). When `site_dist_out` is non-null the site-local distance
/// tables are harvested from the punctured engines in the same pass (valid
/// for the pruned and the unpruned construction alike — the harvested rows
/// are identical). `reference_kernel` runs the engines on the naive
/// reference kernels. The seventh parameter is ignored: every punctured
/// tree is built on the one canonical kernel, so there is no rebuild
/// strategy left to pick, and it stays so callers of the nine-parameter
/// signature (the end-to-end benchmark's layer probe) keep compiling.
/// `dfs_schedule` walks the pruned branch's sites in T0 DFS order on
/// per-thread PuncturedWorkspace arenas (dist_sweep.hpp), serving each
/// site's punctured tree as a PuncturedTree overlay on T0 sized to the
/// site's subtree; false is the independent-rebase referee, which
/// materializes a full BfsTree from T0 per site (rebase_punctured_tree).
/// `sweep_work`,
/// when given, receives the summed rebase-seam work. Output is
/// bit-identical under every parameter combination.
DualSiteTable build_dual_site_table(const BfsTree& tree, ThreadPool* pool,
                                    bool reference_kernel,
                                    std::vector<EdgeId>* edges_out,
                                    bool unpruned = false,
                                    DualSiteDistTable* site_dist_out = nullptr,
                                    bool /*ignored*/ = true,
                                    bool dfs_schedule = true,
                                    SweepWorkStats* sweep_work = nullptr);
}  // namespace detail

/// Reusable scratch for DualFaultOracle::dist: the BFS arena plus the
/// lazily maintained serving-set edge mask (T0 ∪ the admitted site
/// subsets), with the key of the traversal currently held so repeats of
/// one pair cost nothing — a one-slot cache, evicted whenever a different
/// non-reducible pair arrives. Exclusive ownership while in use (the
/// api::Session leases one per worker).
class DualQueryArena {
 public:
  DualQueryArena() = default;

  /// Traversal-cache accounting across every dist() call this arena
  /// served: a non-reducible pair answered from the held traversal is a
  /// hit; one that had to (re)run the site-restricted BFS is a miss.
  /// Reducible pairs are O(1) table reads and touch neither counter —
  /// tests assert exactly that.
  std::int64_t cache_hits() const { return hits_; }
  std::int64_t cache_misses() const { return misses_; }

 private:
  friend class DualFaultOracle;

  BfsScratch bfs_;
  std::vector<std::uint8_t> site_ban_;  // size m; 1 = not in serving set
  std::vector<std::uint8_t> vertex_ban_;  // pair's vertex elements (RAII'd)
  const DualSiteTable* mask_table_ = nullptr;  // whose sites the mask admits
  std::int32_t mask_site_a_ = -1;  // admitted site subsets (-1 = none)
  std::int32_t mask_site_b_ = -1;
  bool traversal_valid_ = false;  // bfs_ holds exactly (held_f1_, held_f2_)
  DualSite held_f1_, held_f2_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

/// Serves dist(s, v | {f1, f2}) for one source of a dual-failure
/// deployment. Immutable after construction; all mutable state lives in
/// the caller-provided DualQueryArena, so any number of threads may query
/// one oracle concurrently on distinct arenas.
class DualFaultOracle {
 public:
  /// `tree`, the single-fault replacement tables and `tables` must all
  /// come from the same source and weight seed; the site list is checked
  /// against the tree (CheckError on mismatch — the classic cause is
  /// loading an artifact with the wrong weight_seed).
  DualFaultOracle(const BfsTree& tree,
                  const ReplacementTable<EdgeFault>& edge_table,
                  const ReplacementTable<VertexFault>& vertex_table,
                  const DualSiteTable& tables);

  /// dist(s, v, G \ {f1, f2}), order-free in (f1, f2). Preconditions:
  /// valid ids and neither element is the source vertex (the caller — the
  /// Session classification — refuses those). O(1) for reducible pairs;
  /// otherwise one BFS over the primary site's subset, cached in `arena`
  /// (`traversals`, when given, is incremented iff a BFS actually ran).
  std::int32_t dist(Vertex v, DualSite f1, DualSite f2, DualQueryArena& arena,
                    std::int64_t* traversals = nullptr) const;

  /// True iff the pair is answered O(1) — equal elements, no sited
  /// element, or exactly one sited element with the other a non-tree edge
  /// outside that site's subset (the single-fault-table reuse plane).
  /// Exposed for tests and batch accounting.
  bool reducible(DualSite f1, DualSite f2) const;

  /// Attaches (nullptr detaches) a site-local distance table, making EVERY
  /// pair answerable traversal-free through dist_fast / dist. The table's
  /// shape is validated against the tree and the pair tables (CheckError
  /// "malformed dual site-dist table" on any mismatch). The table must
  /// outlive the oracle (or the next attach).
  void attach_site_dist(const DualSiteDistTable* site_dist);
  bool has_site_dist() const { return site_dist_ != nullptr; }

  /// Traversal-free serving: returns true and writes `*out` when the pair
  /// is answerable without a BFS — reducible pairs off the single-fault
  /// tables, and with a site-dist table attached ANY pair, by one
  /// O(depth) walk of the primary site's punctured tree path. Returns
  /// false (leaving `*out` untouched) when only a traversal can answer.
  /// `used_site_dist`, when given, is set iff the site-dist rows supplied
  /// the answer (reducible pairs do not count).
  bool dist_fast(Vertex v, DualSite f1, DualSite f2, std::int32_t* out,
                 bool* used_site_dist = nullptr) const;

  const DualSiteTable& tables() const { return *tables_; }

 private:
  std::int32_t site_of(DualSite f) const;
  std::int32_t single_dist(Vertex v, DualSite f) const;
  /// The T0 root of site i's affected subtree A_{sites[i]}.
  Vertex site_top(std::size_t site) const;

  const BfsTree* tree_;
  const ReplacementTable<EdgeFault>* edge_table_;
  const ReplacementTable<VertexFault>* vertex_table_;
  const DualSiteTable* tables_;
  const DualSiteDistTable* site_dist_ = nullptr;  // optional accelerator
  std::vector<std::int32_t> edge_site_;    // EdgeId → site index or -1
  std::vector<std::int32_t> vertex_site_;  // Vertex → site index or -1
};

/// RAII application of a failure pair to a BfsBans: edges go into the two
/// scalar slots, vertices set bits in `mask` (sized on demand) that the
/// destructor clears again. The ONE ban-assembly every two-failure
/// traversal — brute-force referee, structure sweep, session what-if —
/// shares, so the protocol cannot silently diverge between them.
class PairBans {
 public:
  PairBans(DualSite f1, DualSite f2, std::vector<std::uint8_t>& mask,
           std::size_t n, BfsBans& bans);
  ~PairBans();
  PairBans(const PairBans&) = delete;
  PairBans& operator=(const PairBans&) = delete;

 private:
  std::vector<std::uint8_t>* mask_;
  Vertex masked_[2] = {kInvalidVertex, kInvalidVertex};
  int num_masked_ = 0;
};

/// Literal two-failure BFS — the referee every dual answer is measured
/// against: runs BFS from `s` in G \ {f1, f2} into `scratch` (a destroyed
/// vertex reads back kInfHops like any unreachable one).
void dual_bruteforce_bfs(const Graph& g, Vertex s, DualSite f1, DualSite f2,
                         BfsScratch& scratch);

/// Same two-failure BFS restricted to the surviving STRUCTURE
/// (H \ {f1, f2} from h.source()): the H side of every dual comparison —
/// verifier, drills, differential tests all share this one ban assembly.
void dual_structure_bfs(const FtBfsStructure& h, DualSite f1, DualSite f2,
                        BfsScratch& scratch);

/// Dual-failure verification: BFS of G \ {f1,f2} vs H \ {f1,f2} over
/// failure pairs drawn from the full universe (every edge, every non-source
/// vertex). `max_pairs < 0` checks every unordered pair exhaustively —
/// O(n²·m), fine for test sizes; otherwise `max_pairs` pairs are sampled
/// deterministically from `seed`. `edges_budget >= 0` additionally refuses
/// an over-sized structure: |E(H)| > edges_budget counts as one violation
/// (the size-regression referee — bench_construction_time passes the
/// unpruned per-seed size so a pruning regression trips CI). Returns the
/// number of violations (0 = the structure honors the dual contract and
/// the budget on everything checked).
std::int64_t verify_dual_structure(const FtBfsStructure& h,
                                   std::int64_t max_pairs = -1,
                                   std::uint64_t seed = 1,
                                   ThreadPool* pool = nullptr,
                                   std::int64_t edges_budget = -1);

}  // namespace ftb

// ftbfs_api.hpp — the one public facade of the library: ftb::api.
//
// The paper gives ONE family of structures parameterized by (fault model,
// ε, source set); historically the repo exposed it as six unrelated entry
// points with three option structs, and the serving side was a per-model
// template documented as "NOT thread-safe". This header replaces all of
// that with two nouns:
//
//   * BuildSpec — the full parameterization (fault model × ε × sources),
//     validated up front with one CheckError message shape ("invalid
//     BuildSpec: …") shared by the API and the CLI. It says WHAT to
//     build, never how: no field picks between bit-identical
//     implementations (the differential referees live in
//     tests/referee.hpp and behind detail::build_dual_site_table).
//     `build(graph, spec)` runs one pipeline per fault model, for every
//     source count σ ≥ 1 — the §5 union of per-source structures, of
//     which a single source is the σ = 1 case (returned as built):
//
//         fault_model   per-source pipeline
//         kEdge         ε FT-BFS (S0→S1/S2→F; ε = 0 reinforced tree,
//                       ε ≥ 1/2 the ESA'13 baseline)
//         kVertex       vertex-fault ESA'13 baseline
//         kEither       edge ∪ vertex union (one failure of either kind;
//                       pre-dual "dual")
//         kDual         dual-failure recursion (two simultaneous failures;
//                       dual_fault.hpp) + pair tables (Gupta–Khan
//                       multi-source setting for σ > 1)
//
//     Every build (and every Session deploy or load) builds each source's
//     canonical tree on its own, on the one fused canonical kernel
//     (canonical_sp_run in src/graph/bfs_kernel.hpp).
//
//   * Session — a type-erased deployment of the result (structure + tree +
//     replacement tables per source, no templates in sight) serving a
//     batched, THREAD-SAFE query plane. `query(QueryBatch)` classifies
//     every query as an in-model O(1) contract hit, an out-of-model
//     what-if (dist in H \ {fault}, swept over the fault's T0 subtree
//     only), or refused. A batch is served on its calling thread: in-model
//     lookups are answered as they are classified, and what-if queries
//     group by fault so each distinct failure costs ONE traversal per
//     batch. Each batch leases its scratch from lock-free pools, so any
//     number of threads can call query() on one Session concurrently
//     (enforced by the TSan CI job over the concurrency-tagged tests) —
//     that is how serving scales across cores.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/dual_fault.hpp"
#include "src/core/epsilon_ftbfs.hpp"
#include "src/core/structure.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/util/thread_pool.hpp"

namespace ftb::api {

/// The full parameterization of one build: which failures the structure
/// must survive, for which sources, and at which point of the
/// reinforcement-backup tradeoff. ε alone sets the tradeoff: S1's round
/// count and the ⌈n^ε⌉ threshold follow from it (Theorem 3.1). Defaults
/// build a single-source edge-fault ε = 0.25 structure.
struct BuildSpec {
  /// Failure model the structure insures against.
  FaultClass fault_model = FaultClass::kEdge;
  /// BFS sources; one structure serves all of them (FT-MBFS union for
  /// k > 1). Must be non-empty, in range and duplicate-free.
  std::vector<Vertex> sources = {0};
  /// The tradeoff exponent ε ∈ [0, 1]. Edge model only: the vertex /
  /// either / dual pipelines have no reinforcement tradeoff and ignore it.
  double eps = 0.25;
  /// Seed of the tie-breaking weight assignment W (also what a Session
  /// needs to rebuild the same canonical trees when loading from disk).
  std::uint64_t weight_seed = kDefaultWeightSeed;
  ThreadPool* pool = nullptr;  // nullptr = global pool
  /// Dual model only: also harvest the site-local distance oracle
  /// (per-site replacement-distance rows over C_f) while the punctured
  /// engines are alive, so a deployed Session answers EVERY in-model pair
  /// O(1) — zero traversals, even for non-reducible pairs. Costs memory
  /// proportional to the tree volume; persisted by save_v5 as the
  /// optional site-dist section.
  bool site_dist_oracle = false;

  /// Throws CheckError ("invalid BuildSpec: …") on NaN / out-of-range ε
  /// or an empty / out-of-range / duplicated source set. build() and
  /// Session::open() call this first.
  void validate(const Graph& g) const;
};

/// What one build() returns: the structure plus construction telemetry.
struct BuildResult {
  /// The validated spec the build ran under (Session::deploy reads the
  /// weight seed and pool from here).
  BuildSpec spec;
  /// The sources actually served, aligned with per_source.
  std::vector<Vertex> sources;
  /// The (b, r) FT-BFS / FT-MBFS structure, fault-class tagged.
  FtBfsStructure structure;
  /// Per-source ε pipeline stats (empty for the vertex/either/dual
  /// pipelines, which have no ε telemetry).
  std::vector<EpsilonStats> per_source;
  /// Dual-failure pair tables, one per source (empty for every other
  /// model). Session::deploy serves pairs from these; structure_io v4
  /// persists them alongside the structure.
  std::vector<DualSiteTable> dual_tables;
  /// Site-local distance oracle, one table per source (empty unless
  /// BuildSpec::site_dist_oracle on a dual build). Session::deploy
  /// attaches these so pair queries never traverse; save_v5 persists them
  /// as the optional site-dist section.
  std::vector<DualSiteDistTable> dual_site_dist;
  double seconds_total = 0;
};

/// THE build entry point: validates `spec` and runs the fault model's
/// pipeline over the source set — see the table in the file comment.
/// seconds_total is the wall clock of the whole call.
BuildResult build(const Graph& g, const BuildSpec& spec);

// ---------------------------------------------------------------------------
// The batched query plane.

/// How a query was answered.
enum class QueryOutcome : std::uint8_t {
  /// In-model O(1) contract hit: dist(s, v, H \ {fault}) read straight
  /// from the source's replacement-distance table.
  kInModel = 0,
  /// Out-of-model what-if (reinforced edge, or a fault kind the session's
  /// model does not cover): dist(s, v, H \ {fault}), from one sweep of the
  /// fault's T0 subtree over H (every other vertex keeps its tree depth),
  /// shared by every query of the batch that names the same fault.
  kWhatIf = 1,
  /// Outside the model and allow_what_if was not set — or the fault is
  /// the query's own source vertex, which never fails under any model.
  /// (Other sources of a multi-source session may fail in-model.)
  kRefused = 2,
  /// Answered correctly, but by a DEGRADED session: the artifact's pair
  /// tables were corrupt or missing, so the answer came from tables
  /// recomputed from the graph instead of the shipped ones. The distance
  /// is bit-identical to a clean rebuild (pinned by the degraded-session
  /// property test); the outcome tag exists so operators can see they are
  /// serving off a damaged artifact. Only in-model dual-pair answers carry
  /// it — single-fault replacement tables are always rebuilt from the
  /// graph and never depend on artifact tables.
  kDegraded = 3,
  /// Not answered: the batch's traversal budget (BatchOptions::
  /// max_traversals) or deadline ran out before this query's traversal
  /// group got its turn. dist is kInfHops; re-issue the query in a new
  /// batch to get an answer. O(1) in-model lookups never exhaust.
  kBudgetExhausted = 4,
};

/// One post-failure distance question: "how far is v from source
/// sources()[source_index] once `fault` (and optionally `fault2`)
/// fails?".
struct Query {
  Vertex v = kInvalidVertex;
  /// What fails: kEdge → `fault` is an EdgeId, kVertex → a Vertex.
  /// (kDual/kEither are not fault kinds — they are SESSION models; a dual
  /// session answers pairs, an either session both single kinds.)
  FaultClass kind = FaultClass::kEdge;
  std::int32_t fault = -1;
  /// Optional SECOND simultaneous failure: `fault2 >= 0` makes this a
  /// dual-failure query for dist(s, v | {fault, fault2}), unordered. A
  /// dual-model session answers pairs in-model (one traversal per distinct
  /// pair per batch, site-restricted); other sessions treat a pair as a
  /// what-if (one sweep of both failures' T0 subtrees over H) or refuse
  /// it.
  FaultClass kind2 = FaultClass::kEdge;
  std::int32_t fault2 = -1;
  /// Which source asks (index into Session::sources()).
  std::int32_t source_index = 0;
  /// Permit an out-of-model answer: dist in H \ {fault(s)}.
  bool allow_what_if = false;
};

struct QueryResult {
  /// Hop distance, kInfHops when disconnected / destroyed / refused.
  std::int32_t dist = kInfHops;
  QueryOutcome outcome = QueryOutcome::kRefused;
};

using QueryBatch = std::span<const Query>;

struct QueryResponse {
  /// One result per query, same order as the batch.
  std::vector<QueryResult> results;
  // Batch accounting.
  std::int64_t in_model = 0;
  std::int64_t what_if = 0;
  std::int64_t refused = 0;
  /// What-if subtree sweeps actually run (≤ distinct what-if faults in
  /// the batch; arena caching can drop repeats across batches).
  std::int64_t what_if_traversals = 0;
  /// Site-restricted traversals paid for in-model dual-failure queries
  /// (≤ distinct non-reducible pairs in the batch — reducible pairs are
  /// O(1) off the single-fault tables and cost none).
  std::int64_t pair_traversals = 0;
  /// Queries answered correctly but off recomputed (not artifact) tables.
  std::int64_t degraded = 0;
  /// Queries dropped because the batch budget/deadline ran out.
  std::int64_t budget_exhausted = 0;
  /// Dual-pair arena cache hits this batch: traversal groups whose answer
  /// was still warm in a leased arena from an earlier group or batch.
  std::int64_t pair_cache_hits = 0;
  /// Dual-pair arena cache misses this batch (each paid one
  /// site-restricted traversal).
  std::int64_t pair_cache_misses = 0;
  /// In-model pair queries answered straight from the site-local distance
  /// oracle (zero traversals; see BuildSpec::site_dist_oracle). A session
  /// with the oracle attached serves every in-model pair this way or via
  /// the O(1) reducible ladder — pair_traversals stays 0.
  std::int64_t site_oracle_hits = 0;
};

/// Per-batch service limits, so a what-if storm degrades to partial
/// results instead of holding the caller hostage. Both limits bound the
/// TRAVERSAL plane only (literal what-if BFS runs and site-restricted
/// pair traversals); O(1) in-model lookups are always served.
struct BatchOptions {
  /// Max traversal groups this batch may pay for; < 0 = unlimited. Groups
  /// are served in order of their first query in the batch, and a group
  /// that runs no traversal (a cached or reducible answer) is refunded, so
  /// the outcome is deterministic: the groups served are always a prefix
  /// of that order and the rest return kBudgetExhausted (with 0, every
  /// group that would need a traversal).
  std::int64_t max_traversals = -1;
  /// Wall-clock deadline in seconds from the start of query(); <= 0 = no
  /// deadline. Groups starting after the deadline return kBudgetExhausted
  /// (a group already traversing is finished, not aborted).
  double deadline_seconds = 0;
  /// Ignored: every batch is served on the calling thread. Kept only
  /// because the end-to-end benchmark's two sharded-lookup probes
  /// (perfbench/src/layers.cpp) still set it; it goes together with them.
  std::int32_t inline_threshold = -1;
};

/// Knobs for serving a structure built elsewhere (Session::load).
struct SessionConfig {
  /// Must match the weight seed the structure was built with, or the
  /// rebuilt canonical trees will not match the deployed tree edges
  /// (checked; CheckError on mismatch).
  std::uint64_t weight_seed = kDefaultWeightSeed;
  /// Builds the replacement tables at load; query() never uses it.
  ThreadPool* pool = nullptr;  // nullptr = global pool
  /// Degrade instead of refuse: when the artifact's pair-table section is
  /// corrupt or truncated, drop it, rebuild the tables from the graph, and
  /// serve (answers bit-identical, outcomes tagged kDegraded). Set false
  /// to make any corruption a hard CheckError at load time. Corruption in
  /// the structure sections themselves (meta/edges) always throws — there
  /// is nothing safe to rebuild from. A corrupt site-dist section is also
  /// dropped under this knob, but only costs the accelerator (an fsck
  /// note), never degraded status — the pair tables still answer, by
  /// traversal. An intact site-dist section is always attached; a missing
  /// or dropped one is never rebuilt at load.
  bool tolerate_corruption = true;
};

/// What Session::fsck() found. `ok` means every audited invariant held;
/// `degraded` reports whether the session is serving recomputed (not
/// artifact) pair tables. docs/robustness.md documents the audit matrix.
struct FsckReport {
  bool ok = true;
  bool degraded = false;
  /// Invariants audited (monotonically grows with session complexity).
  std::int64_t checks = 0;
  /// One human-readable line per violated invariant (empty when ok).
  std::vector<std::string> errors;
  /// Why the session is degraded or lost its accelerator (load-time
  /// drops, table rebuilds); empty for a clean session.
  std::vector<std::string> notes;
  /// The artifact sections the load dropped ("pair-tables", "site-dist"),
  /// in file order; empty for a clean load and for deployed sessions.
  std::vector<std::string> dropped_sections;
  /// "fsck: ok, 123 checks" / "fsck: DEGRADED …" / "fsck: FAILED …".
  std::string to_string() const;
};

/// A deployed structure plus everything needed to serve it: the canonical
/// trees and replacement-distance tables per source (edge and/or vertex
/// flavor, per the fault class — rows only, no pair classification)
/// behind a non-template face.
///
/// Thread safety: all members are immutable after construction and query()
/// works exclusively on pooled scratch arenas, so concurrent query() /
/// query_one() calls from any number of threads are safe — and, since each
/// batch is served on its calling thread, concurrent callers are how a
/// Session uses several cores. Session is the library's only serving path. Copying a Session is a cheap shared handle.
class Session {
 public:
  using Config = SessionConfig;

  /// build(g, spec) + deploy, in one call.
  static Session open(const Graph& g, const BuildSpec& spec);
  /// Wraps an already-built result (takes ownership of the structure).
  static Session deploy(const Graph& g, BuildResult result);
  /// Reloads a saved artifact (structure_io format, any version — the
  /// generation is auto-detected by magic, so text v1–v5 and binary v6
  /// load through the same call; v3 keeps the multi-source set, v4+ the
  /// dual pair tables — an artifact saved without tables gets them rebuilt
  /// here), then rebuilds the canonical trees and one replacement-distance
  /// table per source and covered model: one subtree-seeded sweep per
  /// fault site, and none of the build's pair classification. A v6
  /// artifact's persisted tables attach off a read-only mmap (zero-copy
  /// validation against the page cache); the graph-recompute path remains
  /// the fallback when they are absent or dropped. An intact site-dist
  /// section attaches the pair accelerator; without one, non-reducible
  /// pairs are served by traversal. With cfg.tolerate_corruption (the
  /// default) a corrupt pair-table section downgrades the session to
  /// degraded service instead of refusing the load; see fsck().
  static Session load(const Graph& g, const std::string& path,
                      const Config& cfg = {});
  /// Saves the artifact (structure, source set, pair tables and site-dist
  /// tables) in the checksummed structure_io v5 text framing (per-section
  /// lengths + CRC-32C, so storage corruption is caught at load time).
  /// Throws CheckError when the write fails.
  void save_v5(const std::string& path) const;
  /// Saves the binary, mmap-able structure_io v6 container of the same
  /// artifact (binary_io.hpp: sectioned directory + per-section CRC-32C,
  /// 64-byte-aligned fixed-width payloads) — the build-once, serve-
  /// everywhere form whose load is a directory walk + checksum sweep over
  /// an mmap. load() auto-detects it by magic.
  void save_v6(const std::string& path) const;

  /// Answers a batch on the calling thread: in-model single-fault lookups
  /// are O(1) table reads; what-if queries and in-model dual-failure pairs
  /// are grouped by (source, fault[, fault2]) — unordered in the pair — so
  /// each distinct failure (or failure pair) costs at most one traversal,
  /// and the groups are served in order of first appearance. The session's
  /// thread pool is never used here; to serve on several cores, call
  /// query() from several threads.
  /// Throws CheckError on malformed queries (out-of-range vertex / fault /
  /// fault2 / source_index); model-level refusals are reported per query
  /// as kRefused, never thrown.
  QueryResponse query(QueryBatch batch) const;
  /// Budgeted variant: `opts` caps the traversal plane (see BatchOptions);
  /// queries whose group falls past the budget or the deadline come back
  /// kBudgetExhausted instead of blocking the batch. query(batch) == query(batch, {}).
  QueryResponse query(QueryBatch batch, const BatchOptions& opts) const;

  /// Single-query convenience (serial; same classification rules).
  QueryResult query_one(const Query& q) const;

  /// Audits the loaded structure and serving state: structure edge-set
  /// relations, per-source tree parent/depth invariants, every
  /// replacement table's row count, row bounds and lookup slots against
  /// its tree, dual pair-table shape and coverage. Read-only and cheap (no traversals, no table
  /// rebuilds); safe to call concurrently with query(). A session that
  /// loaded clean and passes fsck serves kInModel; a degraded one serves
  /// correct answers tagged kDegraded.
  FsckReport fsck() const;
  /// True when this session serves recomputed pair tables because the
  /// artifact's were corrupt or absent (see SessionConfig::
  /// tolerate_corruption).
  bool degraded() const;

  const Graph& graph() const;
  const FtBfsStructure& structure() const;
  FaultClass fault_model() const;
  std::span<const Vertex> sources() const;
  /// Failure-free dist(sources()[source_index], v) — tree depth. O(1).
  std::int32_t distance(std::int32_t source_index, Vertex v) const;

 private:
  struct Impl;
  explicit Session(std::shared_ptr<const Impl> impl);
  std::shared_ptr<const Impl> impl_;
};

}  // namespace ftb::api

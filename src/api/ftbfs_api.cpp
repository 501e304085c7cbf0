// ftbfs_api.cpp — BuildSpec dispatch and the Session query plane.
#include "src/api/ftbfs_api.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "src/core/dist_sweep.hpp"
#include "src/core/dual_fault.hpp"
#include "src/core/fault_model.hpp"
#include "src/core/validate.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/graph/bfs_tree.hpp"
#include "src/io/binary_io.hpp"
#include "src/io/structure_io.hpp"
#include "src/util/free_list_pool.hpp"
#include "src/util/timer.hpp"

namespace ftb::api {

// ---------------------------------------------------------------------------
// BuildSpec

void BuildSpec::validate(const Graph& g) const {
  FTB_CHECK_MSG(fault_model == FaultClass::kEdge ||
                    fault_model == FaultClass::kVertex ||
                    fault_model == FaultClass::kEither ||
                    fault_model == FaultClass::kDual,
                "invalid BuildSpec: unknown fault model (got "
                    << static_cast<int>(fault_model) << ")");
  detail::check_sources(g, sources);
  if (fault_model == FaultClass::kEdge) {
    detail::check_epsilon(eps);
  }
}

BuildResult build(const Graph& g, const BuildSpec& spec) {
  spec.validate(g);
  Timer total;
  const EpsilonOptions eps_opts{.eps = spec.eps, .pool = spec.pool};
  const DualFtBfsOptions dual_opts{spec.pool, spec.site_dist_oracle};
  std::vector<EpsilonStats> per_source;
  std::vector<DualSiteTable> dual_tables;
  std::vector<DualSiteDistTable> dual_site_dist;
  // The §5 union over the sources: each source's canonical tree is built
  // just before its structure and dropped right after, so the peak holds
  // one tree. A single source's structure is returned as built (σ = 1
  // pays no merge copy).
  std::optional<FtBfsStructure> structure;
  std::vector<EdgeId> edges;
  std::vector<EdgeId> reinforced;
  std::vector<EdgeId> tree_edges;  // union of the per-source trees
  if (spec.sources.size() > 1) {
    // Each per-source tree holds up to n−1 edges; reserving up front keeps
    // the tree-edge union from reallocating once per source. (The backup
    // edge union is Õ(n^{1+ε})-sized and grows amortized instead.)
    tree_edges.reserve(spec.sources.size() *
                       static_cast<std::size_t>(g.num_vertices()));
  }
  const EdgeWeights weights = EdgeWeights::uniform_random(g, spec.weight_seed);
  for (const Vertex s : spec.sources) {
    const BfsTree tree(g, weights, s);
    FtBfsStructure h = [&] {
      switch (spec.fault_model) {
        case FaultClass::kEdge: {
          EpsilonResult r = detail::build_epsilon_ftbfs_impl(tree, eps_opts);
          per_source.push_back(r.stats);
          return std::move(r.structure);
        }
        case FaultClass::kVertex:
          return detail::build_vertex_ftbfs_impl(tree, spec.pool);
        case FaultClass::kEither:
          return detail::build_either_ftbfs_impl(tree, spec.pool);
        default: {  // FaultClass::kDual (validate() admits nothing else)
          DualBuildResult r =
              detail::build_dual_failure_ftbfs_impl(tree, dual_opts);
          dual_tables.push_back(std::move(r.tables));
          if (spec.site_dist_oracle) {
            dual_site_dist.push_back(std::move(r.site_dist));
          }
          return std::move(r.structure);
        }
      }
    }();
    if (spec.sources.size() == 1) {
      structure.emplace(std::move(h));
      break;
    }
    edges.insert(edges.end(), h.edges().begin(), h.edges().end());
    reinforced.insert(reinforced.end(), h.reinforced().begin(),
                      h.reinforced().end());
    tree_edges.insert(tree_edges.end(), h.tree_edges().begin(),
                      h.tree_edges().end());
  }
  if (!structure) {
    structure.emplace(g, spec.sources.front(), std::move(edges),
                      std::move(reinforced), std::move(tree_edges),
                      spec.fault_model);
  }
  return BuildResult{spec, spec.sources, std::move(*structure),
                     std::move(per_source), std::move(dual_tables),
                     std::move(dual_site_dist), total.seconds()};
}

// ---------------------------------------------------------------------------
// Session internals

namespace {

/// A leased what-if workspace (one per batch or query_one call, so one
/// per calling thread at a time): the subtree sweep of the last what-if
/// failure (pair) — the swept distances plus the T0 preorder intervals
/// they cover — with the key of that sweep, so a repeat of the same
/// failure (across groups or batches) skips it entirely. Dual-failure
/// serving keeps its own site-restricted arena alongside (grown lazily, so
/// non-dual sessions never pay for it).
struct WhatIfArena {
  ReplacementSweepScratch sweep;
  // [tin, tout) of each swept slice under the cached source's tree; an
  // empty interval (lo == hi) for a failure that moves no vertex.
  std::array<std::pair<std::int32_t, std::int32_t>, 2> swept{};
  DualQueryArena dual;
  // Cached traversal key: (source, normalized fault pair); source ==
  // kInvalidVertex means "holds nothing". fault2 == -1 ⇔ single failure.
  Vertex cached_source = kInvalidVertex;
  FaultClass cached_kind = FaultClass::kEdge;
  std::int32_t cached_fault = -1;
  FaultClass cached_kind2 = FaultClass::kEdge;
  std::int32_t cached_fault2 = -1;
};

using ArenaLease = PoolLease<WhatIfArena>;

/// One traversal group of a batch: every query naming the same normalized
/// (source, fault[, fault2]) key, so each distinct failure (pair) costs at
/// most one traversal.
struct QueryGroup {
  bool in_model_pair = false;
  std::vector<std::uint32_t> members;
};

struct GroupKey {
  std::int32_t source;
  std::uint8_t kind;
  std::int32_t fault;
  std::uint8_t kind2;
  std::int32_t fault2;
  bool operator==(const GroupKey&) const = default;
};

struct GroupKeyHash {
  std::size_t operator()(const GroupKey& k) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const std::uint64_t w :
         {static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.source)),
          (static_cast<std::uint64_t>(k.kind) << 32) |
              static_cast<std::uint32_t>(k.fault),
          (static_cast<std::uint64_t>(k.kind2) << 32) |
              static_cast<std::uint32_t>(k.fault2)}) {
      h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

/// A batch's classification workspace, pooled so the steady state serves
/// with ZERO per-batch heap allocation: vectors keep their high-water
/// capacity, group storage is reused up to n_groups, and the hash map is
/// cleared (buckets kept), not destroyed.
struct BatchScratch {
  std::vector<QueryGroup> groups;  // high-water storage; n_groups live
  std::size_t n_groups = 0;
  std::unordered_map<GroupKey, std::size_t, GroupKeyHash> group_of;

  void reset() {
    for (std::size_t i = 0; i < n_groups; ++i) groups[i].members.clear();
    n_groups = 0;
    group_of.clear();
  }
  QueryGroup& push_group(bool in_model_pair) {
    if (n_groups == groups.size()) groups.emplace_back();
    QueryGroup& grp = groups[n_groups++];
    grp.in_model_pair = in_model_pair;
    return grp;
  }
};

/// The normalized (unordered) failure pair of a query: elements sorted by
/// DualSite order, an absent second fault collapsed to {kEdge, -1}. Group
/// keys and arena cache keys both use exactly this, so a cached traversal
/// can never answer for a differently-ordered spelling of the same pair.
std::pair<DualSite, DualSite> normalized_pair(const Query& q) {
  DualSite a{q.kind, q.fault};
  DualSite b{q.kind2, q.fault2};
  if (q.fault2 >= 0 && b < a) std::swap(a, b);
  if (q.fault2 < 0) b = DualSite{FaultClass::kEdge, -1};
  return {a, b};
}

}  // namespace

struct Session::Impl {
  const Graph* g;
  FaultClass model;
  std::vector<Vertex> sources;
  FtBfsStructure structure;
  EdgeWeights weights;
  std::vector<BfsTree> trees;  // one per source, over `weights`
  // Replacement-distance tables per source; filled per the fault class
  // (edge: every model but kVertex; vertex: every model but kEdge). Rows
  // only: serving answers off them and never classifies a pair, so a load
  // pays one subtree-seeded sweep per fault site and no pair plane. All
  // immutable after construction.
  std::vector<ReplacementTable<EdgeFault>> edge_tables;
  std::vector<ReplacementTable<VertexFault>> vertex_tables;
  // The inline lookup of each table above, aligned with it.
  std::vector<TableReader<EdgeFault>> edge_readers;
  std::vector<TableReader<VertexFault>> vertex_readers;
  // Dual-failure serving state, one entry per source (kDual only): the
  // first-failure pair tables and the oracle classifying/answering pairs.
  std::vector<DualSiteTable> dual_tables;
  std::vector<DualFaultOracle> dual_oracles;
  // Site-local distance oracle tables (kDual only, optional): when sized
  // to the source set they are attached to the oracles and every in-model
  // pair answers O(1), zero traversals.
  std::vector<DualSiteDistTable> dual_site_dist;
  FreeListPool<WhatIfArena> arenas;
  FreeListPool<BatchScratch> batch_scratch;
  // Degradation state: true when this session serves recomputed pair
  // tables because the artifact's were corrupt or absent (see
  // SessionConfig::tolerate_corruption). Immutable after construction —
  // a degraded session stays degraded for its whole lifetime.
  bool serving_degraded = false;
  std::vector<std::string> degradation;  // human-readable reasons
  // Accelerator-only notes (site-dist drops): losing the accelerator loses
  // speed, never answers, so these do NOT degrade the session — fsck
  // surfaces them as notes.
  std::vector<std::string> accel_notes;
  std::vector<std::string> dropped_sections;  // what the load dropped

  Impl(const Graph& graph, FtBfsStructure&& h, std::vector<Vertex> srcs,
       std::uint64_t weight_seed, ThreadPool* pool,
       std::vector<DualSiteTable> tables = {},
       std::vector<DualSiteDistTable> site_dist = {},
       std::vector<io::SectionDrop> load_drops = {})
      : g(&graph),
        model(h.fault_class()),
        sources(std::move(srcs)),
        structure(std::move(h)),
        weights(EdgeWeights::uniform_random(graph, weight_seed)),
        dual_tables(std::move(tables)),
        dual_site_dist(std::move(site_dist)) {
    // Split the load's drops by section: losing the pair tables degrades
    // serving (answers come off recomputed tables), losing the site-dist
    // section only loses the accelerator.
    for (io::SectionDrop& d : load_drops) {
      dropped_sections.push_back(d.section);
      (d.section == "site-dist" ? accel_notes : degradation)
          .push_back(std::move(d.note));
    }
    serving_degraded = !degradation.empty();
    trees.reserve(sources.size());
    for (const Vertex s : sources) trees.emplace_back(graph, weights, s);

    // The rebuilt canonical trees must be exactly the trees the structure
    // was built around — otherwise the replacement tables answer for a
    // different T0 and every "in-model" reply would be silently wrong
    // (classic cause: serving with a different weight_seed than the
    // build used).
    std::vector<EdgeId> tree_union;
    for (const BfsTree& t : trees) {
      tree_union.insert(tree_union.end(), t.tree_edges().begin(),
                        t.tree_edges().end());
    }
    std::sort(tree_union.begin(), tree_union.end());
    tree_union.erase(std::unique(tree_union.begin(), tree_union.end()),
                     tree_union.end());
    FTB_CHECK_MSG(tree_union == structure.tree_edges(),
                  "session trees do not match the deployed structure "
                  "(was the structure built with this weight_seed?)");

    const bool covers_edge = model != FaultClass::kVertex;
    const bool covers_vertex = model != FaultClass::kEdge;
    if (covers_edge) {
      ReplacementTable<EdgeFault>::Config cfg;
      cfg.pool = pool;
      edge_tables.reserve(trees.size());
      for (const BfsTree& t : trees) edge_tables.emplace_back(t, cfg);
      for (const auto& tbl : edge_tables) edge_readers.emplace_back(tbl);
    }
    if (covers_vertex) {
      ReplacementTable<VertexFault>::Config cfg;
      cfg.pool = pool;
      vertex_tables.reserve(trees.size());
      for (const BfsTree& t : trees) vertex_tables.emplace_back(t, cfg);
      for (const auto& tbl : vertex_tables) vertex_readers.emplace_back(tbl);
    }
    if (model == FaultClass::kDual) {
      // Pair tables: artifact-provided (v4), or rebuilt deterministically
      // from the trees when the artifact carried none. The oracle then
      // re-checks each table against its tree (wrong weight_seed and
      // stale-table mistakes both surface as CheckError here).
      const bool need_tables = dual_tables.size() != sources.size();
      if (need_tables) {
        FTB_CHECK_MSG(dual_tables.empty(),
                      "dual pair tables do not match the source set");
      }
      // Site-dist accelerator: attach whatever arrived sized to the
      // source set; it is never rebuilt here. A partial or mismatched set
      // is never attached.
      if (dual_site_dist.size() != sources.size()) dual_site_dist.clear();
      if (need_tables) {
        dual_tables.reserve(trees.size());
        for (const BfsTree& t : trees) {
          // The production build's tables: optimized kernels, pruned.
          dual_tables.push_back(detail::build_dual_site_table(
              t, pool, /*reference_kernel=*/false, nullptr));
        }
        // Serving recomputed tables, not the shipped ones: the answers are
        // bit-identical (the rebuild is deterministic from the trees), but
        // the session is flagged degraded so operators notice the artifact
        // did not carry what it was supposed to.
        serving_degraded = true;
        degradation.emplace_back(
            "pair tables recomputed from the graph (artifact carried "
            "none, or its pair-table section was dropped)");
      }
      dual_oracles.reserve(trees.size());
      for (std::size_t i = 0; i < trees.size(); ++i) {
        dual_oracles.emplace_back(trees[i], edge_tables[i], vertex_tables[i],
                                  dual_tables[i]);
      }
      if (dual_site_dist.size() == sources.size()) {
        // dual_site_dist never changes after this point, so the attached
        // pointers stay valid for the Impl's whole lifetime. attach
        // validates each table's shape against its tree and pair table.
        for (std::size_t i = 0; i < dual_oracles.size(); ++i) {
          dual_oracles[i].attach_site_dist(&dual_site_dist[i]);
        }
      }
    } else {
      FTB_CHECK_MSG(dual_tables.empty(),
                    "pair tables belong to dual-failure sessions only");
      dual_site_dist.clear();
    }
  }

  bool covers_edge() const { return model != FaultClass::kVertex; }
  bool covers_vertex() const { return model != FaultClass::kEdge; }
  bool covers_pairs() const { return model == FaultClass::kDual; }
  /// All-or-nothing: attach happens only when every source has a table.
  bool has_site_dist() const {
    return !dual_oracles.empty() && dual_oracles.front().has_site_dist();
  }

  /// Traversal-free in-model pair attempt: the reducible ladder, plus the
  /// full site-local oracle when attached (then it ALWAYS answers).
  bool pair_fast(const Query& q, std::int32_t* out, bool* used_oracle) const {
    const auto si = static_cast<std::size_t>(q.source_index);
    return dual_oracles[si].dist_fast(q.v, DualSite{q.kind, q.fault},
                                      DualSite{q.kind2, q.fault2}, out,
                                      used_oracle);
  }

  /// In-model dual-failure answer. Precondition: classified kInModel with
  /// fault2 >= 0.
  std::int32_t dual_dist(const Query& q, WhatIfArena& arena,
                         std::int64_t* traversals,
                         std::int64_t* oracle_hits) const {
    std::int32_t fast = 0;
    bool used_oracle = false;
    if (pair_fast(q, &fast, &used_oracle)) {
      if (used_oracle && oracle_hits != nullptr) ++*oracle_hits;
      return fast;
    }
    const auto si = static_cast<std::size_t>(q.source_index);
    return dual_oracles[si].dist(q.v, DualSite{q.kind, q.fault},
                                 DualSite{q.kind2, q.fault2}, arena.dual,
                                 traversals);
  }

  /// In-model O(1) answer. Precondition: classified kInModel.
  std::int32_t in_model_dist(const Query& q) const {
    const auto si = static_cast<std::size_t>(q.source_index);
    if (q.kind == FaultClass::kEdge) {
      return edge_readers[si].dist(q.v, q.fault);
    }
    return vertex_readers[si].dist(q.v, q.fault);
  }

  /// The T0 preorder slice whose depths a failure can change: the
  /// subtree below a failed tree edge, or below (and including) a failed
  /// reachable vertex. Empty for any other failure — a non-tree edge, an
  /// edge outside H, an unreachable vertex, an absent second element —
  /// since every tree path avoids it and T0 ⊆ H.
  static std::span<const Vertex> affected_slice(const BfsTree& t,
                                                DualSite f) {
    if (f.id < 0) return {};
    if (f.kind == FaultClass::kVertex) {
      return t.reachable(f.id) ? t.subtree(f.id) : std::span<const Vertex>{};
    }
    return t.is_tree_edge(f.id) ? t.subtree(t.lower_endpoint(f.id))
                                : std::span<const Vertex>{};
  }

  /// Sweeps the query's failure (or failure pair) into `arena`, unless the
  /// arena already holds exactly that sweep. Every vertex outside the
  /// failures' T0 slices keeps its tree depth in H minus the failures (its
  /// tree path avoids them, and T0 ⊆ H), so only the union of the slices
  /// is recomputed: replacement_dist_sweep over H's edges, seeded from the
  /// slices' admitted neighbours outside them. Cost: the slices' volume,
  /// not O(n + m). Returns true when a sweep actually ran (a cache miss,
  /// an empty affected set included).
  bool what_if_traverse(const Query& q, WhatIfArena& arena) const {
    const BfsTree& t = trees[static_cast<std::size_t>(q.source_index)];
    const Vertex src = t.source();
    // Normalized pair → {a, b} and {b, a} share one cache entry, exactly
    // like the batch grouping key.
    const auto [a, b] = normalized_pair(q);
    if (arena.cached_source == src && arena.cached_kind == a.kind &&
        arena.cached_fault == a.id && arena.cached_kind2 == b.kind &&
        arena.cached_fault2 == b.id) {
      return false;
    }
    // T0 slices are laminar: two failures' slices nest or are disjoint.
    // Shallower root first (the sweep's bucket base), so a nested inner
    // slice is the second one, and it adds nothing.
    std::span<const Vertex> first = affected_slice(t, a);
    std::span<const Vertex> second = affected_slice(t, b);
    if (first.empty() || (!second.empty() && t.depth(second.front()) <
                                                 t.depth(first.front()))) {
      std::swap(first, second);
    }
    if (!second.empty() &&
        t.is_ancestor_or_equal(first.front(), second.front())) {
      second = {};
    }
    // An absent second element is {kEdge, -1}: kInvalidEdge.
    const auto edge_of = [](DualSite f) {
      return f.kind == FaultClass::kEdge ? f.id : kInvalidEdge;
    };
    const auto vertex_of = [](DualSite f) {
      return f.kind == FaultClass::kVertex ? f.id : kInvalidVertex;
    };
    replacement_dist_sweep(t, edge_of(a), vertex_of(a), first, arena.sweep,
                           edge_of(b), vertex_of(b), nullptr, second,
                           EdgesOfH{structure.complement_mask().data()});
    const auto interval = [&](std::span<const Vertex> slice) {
      return slice.empty()
                 ? std::pair<std::int32_t, std::int32_t>{0, 0}
                 : std::pair{t.tin(slice.front()), t.tout(slice.front())};
    };
    arena.swept = {interval(first), interval(second)};
    arena.cached_source = src;
    arena.cached_kind = a.kind;
    arena.cached_fault = a.id;
    arena.cached_kind2 = b.kind;
    arena.cached_fault2 = b.id;
    return true;
  }

  /// dist(s, v) in H minus the query's failure(s), off the arena's sweep
  /// (what_if_traverse ran for this query's key): kInfHops for a failed
  /// vertex, the swept distance inside a swept slice, the tree depth
  /// everywhere else.
  std::int32_t what_if_dist(const Query& q, const WhatIfArena& arena) const {
    if (q.kind == FaultClass::kVertex && q.v == q.fault) return kInfHops;
    if (q.fault2 >= 0 && q.kind2 == FaultClass::kVertex && q.v == q.fault2) {
      return kInfHops;
    }
    const BfsTree& t = trees[static_cast<std::size_t>(q.source_index)];
    const std::int32_t tv = t.tin(q.v);
    for (const auto& [lo, hi] : arena.swept) {
      if (tv >= lo && tv < hi) return arena.sweep.dist(q.v);
    }
    return t.depth(q.v);
  }

  /// Model-level classification (malformed queries are rejected before
  /// this runs). A query's own source never fails — refused even as a
  /// what-if, and a pair containing it is refused whole. Another source of
  /// a multi-source session CAN fail: the FT-MBFS vertex contract is per
  /// source (x ∉ {s} for each s ∈ S), and the table serving source_index
  /// answers any other vertex in O(1).
  QueryOutcome classify(const Query& q) const {
    const Vertex src = sources[static_cast<std::size_t>(q.source_index)];
    if (q.fault2 >= 0) {  // dual-failure pair
      if ((q.kind == FaultClass::kVertex &&
           static_cast<Vertex>(q.fault) == src) ||
          (q.kind2 == FaultClass::kVertex &&
           static_cast<Vertex>(q.fault2) == src)) {
        return QueryOutcome::kRefused;
      }
      if (covers_pairs()) {
        // A degraded session answers off recomputed tables — same
        // distance, honest tag.
        return serving_degraded ? QueryOutcome::kDegraded
                                : QueryOutcome::kInModel;
      }
      return q.allow_what_if ? QueryOutcome::kWhatIf
                             : QueryOutcome::kRefused;
    }
    if (q.kind == FaultClass::kEdge) {
      if (covers_edge() && !structure.is_reinforced(q.fault)) {
        return QueryOutcome::kInModel;
      }
    } else {
      if (static_cast<Vertex>(q.fault) == src) {
        return QueryOutcome::kRefused;
      }
      if (covers_vertex()) return QueryOutcome::kInModel;
    }
    return q.allow_what_if ? QueryOutcome::kWhatIf : QueryOutcome::kRefused;
  }

  /// Batch-level input validation: API misuse throws before any traversal
  /// runs.
  void validate_query(const Query& q) const {
    FTB_CHECK_MSG(q.kind == FaultClass::kEdge || q.kind == FaultClass::kVertex,
                  "invalid Query: kind must be kEdge or kVertex");
    FTB_CHECK_MSG(q.v >= 0 && q.v < g->num_vertices(),
                  "invalid Query: vertex " << q.v << " out of range [0, "
                                           << g->num_vertices() << ")");
    FTB_CHECK_MSG(q.source_index >= 0 &&
                      static_cast<std::size_t>(q.source_index) <
                          sources.size(),
                  "invalid Query: source_index " << q.source_index
                                                 << " out of range [0, "
                                                 << sources.size() << ")");
    const std::int32_t limit = q.kind == FaultClass::kEdge
                                   ? static_cast<std::int32_t>(g->num_edges())
                                   : g->num_vertices();
    FTB_CHECK_MSG(q.fault >= 0 && q.fault < limit,
                  "invalid Query: fault " << q.fault << " out of range [0, "
                                          << limit << ")");
    if (q.fault2 >= 0) {
      FTB_CHECK_MSG(
          q.kind2 == FaultClass::kEdge || q.kind2 == FaultClass::kVertex,
          "invalid Query: kind2 must be kEdge or kVertex");
      const std::int32_t limit2 =
          q.kind2 == FaultClass::kEdge
              ? static_cast<std::int32_t>(g->num_edges())
              : g->num_vertices();
      FTB_CHECK_MSG(q.fault2 < limit2,
                    "invalid Query: fault2 " << q.fault2
                                             << " out of range [0, "
                                             << limit2 << ")");
    }
  }
};

// ---------------------------------------------------------------------------
// Session surface

Session::Session(std::shared_ptr<const Impl> impl) : impl_(std::move(impl)) {}

Session Session::open(const Graph& g, const BuildSpec& spec) {
  return deploy(g, build(g, spec));
}

Session Session::deploy(const Graph& g, BuildResult result) {
  FTB_CHECK_MSG(&result.structure.graph() == &g,
                "BuildResult was built against a different graph");
  return Session(std::make_shared<const Impl>(
      g, std::move(result.structure), std::move(result.sources),
      result.spec.weight_seed, result.spec.pool,
      std::move(result.dual_tables), std::move(result.dual_site_dist)));
}

Session Session::load(const Graph& g, const std::string& path,
                      const Config& cfg) {
  std::vector<Vertex> sources;
  std::vector<DualSiteTable> tables;
  std::vector<DualSiteDistTable> site_dist;
  io::LoadReport report;
  FtBfsStructure h = io::load_structure(
      g, path, &sources, &tables,
      {.tolerate_corruption = cfg.tolerate_corruption}, &report, &site_dist);
  return Session(std::make_shared<const Impl>(
      g, std::move(h), std::move(sources), cfg.weight_seed, cfg.pool,
      std::move(tables), std::move(site_dist), std::move(report.dropped)));
}

void Session::save_v5(const std::string& path) const {
  io::save_structure_v5(impl_->structure, impl_->sources, impl_->dual_tables,
                        impl_->dual_site_dist, path);
}

void Session::save_v6(const std::string& path) const {
  io::save_structure_v6(impl_->structure, impl_->sources, impl_->dual_tables,
                        impl_->dual_site_dist, path);
}

const Graph& Session::graph() const { return *impl_->g; }
const FtBfsStructure& Session::structure() const { return impl_->structure; }
FaultClass Session::fault_model() const { return impl_->model; }
std::span<const Vertex> Session::sources() const { return impl_->sources; }

std::int32_t Session::distance(std::int32_t source_index, Vertex v) const {
  FTB_CHECK_MSG(source_index >= 0 && static_cast<std::size_t>(source_index) <
                                         impl_->sources.size(),
                "invalid source_index " << source_index);
  FTB_CHECK_MSG(v >= 0 && v < impl_->g->num_vertices(),
                "invalid vertex " << v);
  return impl_->trees[static_cast<std::size_t>(source_index)].depth(v);
}

QueryResult Session::query_one(const Query& q) const {
  const Impl& im = *impl_;
  im.validate_query(q);
  QueryResult r;
  r.outcome = im.classify(q);
  switch (r.outcome) {
    case QueryOutcome::kInModel:
    case QueryOutcome::kDegraded:  // same tables, honest tag
      if (q.fault2 >= 0) {
        // Traversal-free pairs skip the arena lease entirely.
        if (!im.pair_fast(q, &r.dist, nullptr)) {
          ArenaLease arena(im.arenas);
          r.dist = im.dual_dist(q, *arena, nullptr, nullptr);
        }
      } else {
        r.dist = im.in_model_dist(q);
      }
      break;
    case QueryOutcome::kWhatIf: {
      ArenaLease arena(im.arenas);
      im.what_if_traverse(q, *arena);
      r.dist = im.what_if_dist(q, *arena);
      break;
    }
    case QueryOutcome::kRefused:
    case QueryOutcome::kBudgetExhausted:  // classify never emits this
      break;
  }
  return r;
}

QueryResponse Session::query(QueryBatch batch) const {
  return query(batch, BatchOptions{});
}

QueryResponse Session::query(QueryBatch batch,
                             const BatchOptions& opts) const {
  // The deadline anchors at batch arrival; without one the clock is never
  // read (it costs more than a whole small in-model batch).
  const bool has_deadline = opts.deadline_seconds > 0;
  const auto batch_start = has_deadline
                               ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
  const Impl& im = *impl_;
  QueryResponse resp;
  resp.results.assign(batch.size(), QueryResult{});
  if (batch.empty()) return resp;

  // With the site-local oracle attached every in-model pair is O(1);
  // without it pairs group for (at most) one site-restricted traversal per
  // distinct pair.
  const bool oracle_pairs = im.has_site_dist();

  // One pass on the calling thread over a pooled scratch (zero per-batch
  // allocation once the high-water marks are warm). Every query is
  // validated (a malformed one throws before any traversal runs) and
  // classified; an in-model single fault is answered inline. Every other
  // query takes one out-of-line step that writes its O(1) answer or
  // groups it — what-ifs and non-oracle in-model pairs — by (source,
  // normalized fault[, fault2]) so each distinct failure (pair) is
  // traversed at most once. The scratch is leased LAZILY: a batch whose
  // every answer is O(1) — the high-QPS steady state — pays for the
  // response vector and nothing else, so small batches stay ahead of a
  // bare query_one loop.
  std::optional<PoolLease<BatchScratch>> scratch;
  BatchScratch* scp = nullptr;
  const auto key_of = [](const Query& q) {
    const auto [a, b] = normalized_pair(q);
    return GroupKey{q.source_index, static_cast<std::uint8_t>(a.kind), a.id,
                    static_cast<std::uint8_t>(b.kind), b.id};
  };
  const auto group_push = [&](std::size_t i, const Query& q,
                              bool in_model_pair) {
    if (scp == nullptr) {
      scratch.emplace(im.batch_scratch);
      scp = &**scratch;
      scp->reset();
    }
    const auto [it, inserted] =
        scp->group_of.try_emplace(key_of(q), scp->n_groups);
    if (inserted) scp->push_group(in_model_pair);
    scp->groups[it->second].members.push_back(static_cast<std::uint32_t>(i));
  };
  std::int64_t n_in_model = 0, n_what_if = 0, n_refused = 0, n_degraded = 0;
  // Held in a register across the out-of-line calls, which the compiler
  // cannot see through (reloading resp.results.data() per query is
  // measurable).
  QueryResult* const out = resp.results.data();
  // Writes a classified query's outcome and counts it: pairs get their
  // O(1) oracle answer or a group, what-ifs a group. An in-model single
  // fault never arrives here (the loop below answers it inline).
  const auto serve_classified = [&](std::size_t i, const Query& q,
                                    QueryOutcome outcome)
                                    __attribute__((noinline)) {
    out[i].outcome = outcome;
    switch (outcome) {
      case QueryOutcome::kInModel:
      case QueryOutcome::kDegraded:  // recomputed tables, same serving path
        FTB_DCHECK(q.fault2 >= 0);
        outcome == QueryOutcome::kInModel ? ++n_in_model : ++n_degraded;
        if (oracle_pairs) {
          bool used_oracle = false;
          im.pair_fast(q, &out[i].dist, &used_oracle);
          if (used_oracle) ++resp.site_oracle_hits;
        } else {
          group_push(i, q, /*in_model_pair=*/true);
        }
        break;
      case QueryOutcome::kWhatIf:
        ++n_what_if;
        group_push(i, q, /*in_model_pair=*/false);
        break;
      case QueryOutcome::kRefused:
        ++n_refused;
        break;
      case QueryOutcome::kBudgetExhausted:  // classify never emits this
        break;
    }
  };
  // A single-fault query inside these limits passes validate_query, so it
  // is classified without it and, when in-model, answered inline. Pairs
  // and out-of-range queries take validate_query (which throws its
  // message for a malformed one) before classify.
  const auto n = static_cast<std::uint32_t>(im.g->num_vertices());
  const auto m = static_cast<std::uint32_t>(im.g->num_edges());
  const auto sigma = static_cast<std::uint32_t>(im.sources.size());
  const TableReader<EdgeFault>* const edge_rd = im.edge_readers.data();
  const TableReader<VertexFault>* const vertex_rd = im.vertex_readers.data();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Query& q = batch[i];
    const auto fault = static_cast<std::uint32_t>(q.fault);
    const bool edge = q.kind == FaultClass::kEdge;
    if (q.fault2 < 0 && (edge || q.kind == FaultClass::kVertex) &&
        static_cast<std::uint32_t>(q.v) < n &&
        static_cast<std::uint32_t>(q.source_index) < sigma &&
        fault < (edge ? m : n)) {
      const QueryOutcome outcome = im.classify(q);
      if (outcome == QueryOutcome::kInModel) {
        const auto si = static_cast<std::size_t>(q.source_index);
        out[i] = {edge ? edge_rd[si].dist(q.v, q.fault)
                       : vertex_rd[si].dist(q.v, q.fault),
                  QueryOutcome::kInModel};
        ++n_in_model;
      } else {
        serve_classified(i, q, outcome);
      }
      continue;
    }
    im.validate_query(q);
    serve_classified(i, q, im.classify(q));
  }

  if (scp == nullptr || scp->n_groups == 0) {
    // No traversal group: every classified outcome stands.
    resp.in_model = n_in_model;
    resp.what_if = n_what_if;
    resp.refused = n_refused;
    resp.degraded = n_degraded;
    return resp;
  }

  // Traversal plane: the groups drain in first-appearance order on ONE
  // arena whose traversal cache persists across the whole batch, each
  // paying at most one traversal (a subtree sweep for what-ifs, a
  // site-restricted BFS for non-oracle pairs) and fanning its answer out
  // to every member.
  // Service limits: the budget charges one unit per group up front and
  // refunds it when no traversal actually ran (arena cache hit, or a pair
  // group the reducible ladder absorbed) — it bounds work actually paid
  // for, not queries served. A deadline is checked once per group before
  // it starts; a group already traversing is finished, not aborted. Both
  // limits only ever cut a suffix of the group order: once the budget
  // reaches 0 nothing is charged (so nothing is refunded), and the clock
  // only moves forward.
  const bool has_budget = opts.max_traversals >= 0;
  std::int64_t budget = has_budget ? opts.max_traversals : 0;
  const auto deadline =
      batch_start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            has_deadline ? opts.deadline_seconds : 0));
  ArenaLease lease(im.arenas);
  WhatIfArena& arena = *lease;
  for (std::size_t gi = 0; gi < scp->n_groups; ++gi) {
    const QueryGroup& grp = scp->groups[gi];
    if ((has_deadline && std::chrono::steady_clock::now() >= deadline) ||
        (has_budget && budget == 0)) {
      for (const std::uint32_t idx : grp.members) {
        resp.results[idx].outcome = QueryOutcome::kBudgetExhausted;
        resp.results[idx].dist = kInfHops;
      }
      continue;
    }
    if (has_budget) --budget;
    bool traversed = false;
    if (grp.in_model_pair) {
      const std::int64_t h0 = arena.dual.cache_hits();
      const std::int64_t m0 = arena.dual.cache_misses();
      std::int64_t ran = 0;
      for (const std::uint32_t idx : grp.members) {
        resp.results[idx].dist = im.dual_dist(batch[idx], arena, &ran,
                                              &resp.site_oracle_hits);
      }
      resp.pair_cache_hits += arena.dual.cache_hits() - h0;
      resp.pair_cache_misses += arena.dual.cache_misses() - m0;
      resp.pair_traversals += ran;
      traversed = ran != 0;
    } else {
      traversed = im.what_if_traverse(batch[grp.members.front()], arena);
      if (traversed) ++resp.what_if_traversals;
      for (const std::uint32_t idx : grp.members) {
        resp.results[idx].dist = im.what_if_dist(batch[idx], arena);
      }
    }
    if (has_budget && !traversed) ++budget;  // reducible or cached: refund
  }

  // A group that lost the budget (or the deadline) flipped its members'
  // outcomes, so a group-bearing batch re-counts over the results.
  for (const QueryResult& r : resp.results) {
    switch (r.outcome) {
      case QueryOutcome::kInModel:
        ++resp.in_model;
        break;
      case QueryOutcome::kWhatIf:
        ++resp.what_if;
        break;
      case QueryOutcome::kRefused:
        ++resp.refused;
        break;
      case QueryOutcome::kDegraded:
        ++resp.degraded;
        break;
      case QueryOutcome::kBudgetExhausted:
        ++resp.budget_exhausted;
        break;
    }
  }
  return resp;
}

// ---------------------------------------------------------------------------
// fsck: the serving-plane audit.

std::string FsckReport::to_string() const {
  std::ostringstream os;
  if (!ok) {
    os << "fsck: FAILED, " << errors.size() << " of " << checks
       << " checks violated";
  } else if (degraded) {
    os << "fsck: DEGRADED, " << checks << " checks ok";
  } else {
    os << "fsck: ok, " << checks << " checks";
  }
  for (const std::string& e : errors) os << "\n  error: " << e;
  for (const std::string& n : notes) os << "\n  note: " << n;
  return os.str();
}

bool Session::degraded() const { return impl_->serving_degraded; }

FsckReport Session::fsck() const {
  const Impl& im = *impl_;
  const Graph& g = *im.g;
  const FtBfsStructure& h = im.structure;
  FsckReport rep;
  rep.degraded = im.serving_degraded;
  rep.notes = im.degradation;
  rep.notes.insert(rep.notes.end(), im.accel_notes.begin(),
                   im.accel_notes.end());
  rep.dropped_sections = im.dropped_sections;
  const auto audit = [&rep](bool held, std::string what) {
    ++rep.checks;
    if (!held) rep.errors.push_back(std::move(what));
  };

  // Edge-partition invariants: E(H) sorted/unique/in-range, T0 ⊆ E(H),
  // E' ⊆ E(H).
  {
    bool in_range = true, sorted = true;
    EdgeId prev = -1;
    for (const EdgeId e : h.edges()) {
      if (e < 0 || e >= g.num_edges()) in_range = false;
      if (e <= prev) sorted = false;
      prev = e;
    }
    audit(in_range, "structure edge out of graph range");
    audit(sorted, "structure edge list not sorted/unique");
    bool tree_in_h = true;
    for (const EdgeId e : h.tree_edges()) {
      if (e < 0 || e >= g.num_edges() || !h.contains(e)) tree_in_h = false;
    }
    audit(tree_in_h, "tree edge outside E(H)");
    bool reinf_in_h = true;
    for (const EdgeId e : h.reinforced()) {
      if (e < 0 || e >= g.num_edges() || !h.contains(e)) reinf_in_h = false;
    }
    audit(reinf_in_h, "reinforced edge outside E(H)");
  }

  // Source set and per-source canonical trees: root at depth 0, every
  // reachable vertex one hop below its parent via a structure tree edge.
  audit(!im.sources.empty() && im.sources.front() == h.source(),
        "sources[0] != structure source");
  audit(im.trees.size() == im.sources.size(),
        "tree count != source count");
  std::vector<EdgeId> tree_union;
  for (std::size_t i = 0;
       i < im.trees.size() && i < im.sources.size(); ++i) {
    const BfsTree& t = im.trees[i];
    const std::string tag = " (source " + std::to_string(im.sources[i]) + ")";
    audit(t.source() == im.sources[i] && t.depth(t.source()) == 0,
          "tree root invariant violated" + tag);
    bool parent_ok = true, depth_ok = true, edge_ok = true;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (v == t.source() || !t.reachable(v)) continue;
      const Vertex p = t.parent(v);
      if (p < 0 || p >= g.num_vertices() || !t.reachable(p)) {
        parent_ok = false;
        continue;
      }
      if (t.depth(v) != t.depth(p) + 1) depth_ok = false;
      const EdgeId pe = t.parent_edge(v);
      if (pe < 0 || pe >= g.num_edges() || !h.contains(pe) ||
          !t.is_tree_edge(pe)) {
        edge_ok = false;
      }
    }
    audit(parent_ok, "tree parent out of range or unreachable" + tag);
    audit(depth_ok, "tree depth != parent depth + 1" + tag);
    audit(edge_ok, "tree parent edge not a structure edge" + tag);
    tree_union.insert(tree_union.end(), t.tree_edges().begin(),
                      t.tree_edges().end());
  }
  std::sort(tree_union.begin(), tree_union.end());
  tree_union.erase(std::unique(tree_union.begin(), tree_union.end()),
                   tree_union.end());
  audit(tree_union == h.tree_edges(),
        "canonical tree union != deployed tree edges");

  // Replacement tables against their trees: one per source and covered
  // model, each with exactly one row per ⟨v, fault ∈ π(s,v)⟩, no row
  // below v's failure-free depth, and lookup slots that copy the tree.
  const auto audit_tables = [&](const auto& tables, auto model,
                                bool covered, const char* kind) {
    using Model = decltype(model);
    audit(tables.size() == (covered ? im.trees.size() : 0),
          std::string(kind) + " replacement-table count != source count");
    for (std::size_t i = 0; i < tables.size() && i < im.trees.size(); ++i) {
      const std::string tag = " (" + std::string(kind) + " table, source " +
                              std::to_string(im.sources[i]) + ")";
      const RowAudit rows =
          audit_replacement_rows<Model>(im.trees[i], tables[i].rows());
      audit(rows.count_ok, "replacement-table row count != tree volume" + tag);
      audit(rows.bounds_ok,
            "replacement-table row below depth or above n - 1" + tag);
      audit(audit_table_slots<Model>(im.trees[i], tables[i].slots()),
            "replacement-table slots do not match the tree" + tag);
    }
  };
  audit_tables(im.edge_tables, EdgeFault{}, im.covers_edge(), "edge");
  audit_tables(im.vertex_tables, VertexFault{}, im.covers_vertex(), "vertex");

  // Dual pair tables: one per source; offsets a monotone cover of the
  // edge pool; every pooled edge a structure edge, sorted per site.
  if (im.model == FaultClass::kDual) {
    audit(im.dual_tables.size() == im.sources.size(),
          "pair-table count != source count");
    for (std::size_t i = 0; i < im.dual_tables.size(); ++i) {
      const DualSiteTable& tbl = im.dual_tables[i];
      const std::string tag =
          " (pair table " + std::to_string(i) + ")";
      const bool shape_ok =
          tbl.offsets.size() == tbl.sites.size() + 1 &&
          (tbl.offsets.empty() || tbl.offsets.front() == 0) &&
          (tbl.offsets.empty() ||
           tbl.offsets.back() ==
               static_cast<std::int64_t>(tbl.edge_pool.size()));
      audit(shape_ok, "pair-table offsets do not cover the edge pool" + tag);
      bool monotone = true;
      for (std::size_t k = 0; k + 1 < tbl.offsets.size(); ++k) {
        if (tbl.offsets[k] > tbl.offsets[k + 1]) monotone = false;
      }
      audit(monotone, "pair-table offsets not monotone" + tag);
      bool pool_ok = true;
      if (shape_ok && monotone) {
        for (std::size_t s = 0; s < tbl.num_sites(); ++s) {
          EdgeId prev = -1;
          for (const EdgeId e : tbl.subset(s)) {
            if (e < 0 || e >= g.num_edges() || !h.contains(e) || e <= prev) {
              pool_ok = false;
            }
            prev = e;
          }
        }
      }
      audit(pool_ok,
            "pair-table subset edge not a sorted structure edge" + tag);
    }
    // Site-dist accelerator (optional): attached all-or-nothing, offsets
    // a monotone cover of the per-slot arrays, rows covered end to end.
    if (!im.dual_site_dist.empty()) {
      audit(im.dual_site_dist.size() == im.sources.size(),
            "site-dist table count != source count");
      for (std::size_t i = 0; i < im.dual_site_dist.size() &&
                              i < im.dual_tables.size();
           ++i) {
        const DualSiteDistTable& sd = im.dual_site_dist[i];
        const std::string tag =
            " (site-dist table " + std::to_string(i) + ")";
        const bool shape_ok =
            sd.site_offsets.size() == im.dual_tables[i].num_sites() + 1 &&
            !sd.site_offsets.empty() && sd.site_offsets.front() == 0 &&
            sd.site_offsets.back() ==
                static_cast<std::int64_t>(sd.num_slots()) &&
            sd.tf_depth.size() == sd.num_slots() &&
            sd.row_offsets.size() == sd.num_slots() + 1;
        audit(shape_ok,
              "site-dist offsets do not cover the slot arrays" + tag);
        bool monotone = true;
        for (std::size_t k = 0; k + 1 < sd.site_offsets.size(); ++k) {
          if (sd.site_offsets[k] > sd.site_offsets[k + 1]) monotone = false;
        }
        for (std::size_t k = 0; k + 1 < sd.row_offsets.size(); ++k) {
          if (sd.row_offsets[k] > sd.row_offsets[k + 1]) monotone = false;
        }
        audit(monotone && (sd.row_offsets.empty() ||
                           (sd.row_offsets.front() == 0 &&
                            sd.row_offsets.back() ==
                                static_cast<std::int64_t>(sd.rows.size()))),
              "site-dist row offsets not a monotone cover" + tag);
      }
    }
  } else {
    audit(im.dual_tables.empty(),
          "pair tables present on a non-dual session");
    audit(im.dual_site_dist.empty(),
          "site-dist tables present on a non-dual session");
  }

  rep.ok = rep.errors.empty();
  return rep;
}

}  // namespace ftb::api

// referee.hpp — the differential referees of the production build paths,
// for tests and benches only (header-only).
//
// The library builds every structure one way. The bit-identical
// alternatives that differential checks race it against live here, built
// from the seams the library keeps:
//
//  * the per-source union — each source's canonical tree from the
//    two-pass reference canonical_sp (never the fused canonical_sp_run
//    kernel that production trees come from), each source's structure
//    composed on engines of the referee's own (build_epsilon_ftbfs,
//    build_vertex_ftbfs, build_either_ftbfs), merged like api::build's
//    §5 union;
//  * the kernel referee — those engines on the naive reference kernels
//    (ReplacementTable::Config::reference_kernel), and the dual site table
//    on them through detail::build_dual_site_table's parameter: the two
//    seams the library keeps for it;
//  * the dual referees — detail::build_dual_site_table's other referee
//    parameters: the unpruned recursion and the independent-rebase site
//    schedule;
//  * the interference referee — Phase S1's (≁)-interference and
//    π-intersection relations (Section 3.1), decided pair by pair from
//    their literal definitions.
//
// referee_build returns an api::BuildResult, so Session::deploy serves a
// referee exactly like a production build.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <unordered_map>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "src/core/dual_fault.hpp"
#include "src/core/epsilon_ftbfs.hpp"
#include "src/core/ftbfs.hpp"
#include "src/core/replacement.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/graph/bfs_tree.hpp"

namespace ftb::test {

/// How a referee build runs. The defaults are the production build's.
struct Referee {
  bool reference_kernel = false;  // naive reference engine kernels
  bool unpruned = false;          // dual: full H_f per site, no pruning
  bool dfs_schedule = true;       // dual, pruned: false = independent rebase
};

/// A Phase-S0 engine of `Engine` (ReplacementPathEngine or
/// VertexReplacementEngine) on `tree`, on the naive reference kernels when
/// `reference_kernel`.
template <class Engine>
Engine referee_engine(const BfsTree& tree, ThreadPool* pool,
                      bool reference_kernel, bool collect_detours) {
  typename Engine::Config cfg;
  cfg.pool = pool;
  cfg.reference_kernel = reference_kernel;
  cfg.collect_detours = collect_detours;
  return Engine(tree, cfg);
}

/// One source's ε pipeline composed on a referee engine (detours
/// collected, whichever branch of Theorem 3.1 `opts` takes).
inline EpsilonResult referee_epsilon(const BfsTree& tree,
                                     const EpsilonOptions& opts,
                                     bool reference_kernel) {
  return build_epsilon_ftbfs(
      referee_engine<ReplacementPathEngine>(tree, opts.pool, reference_kernel,
                                            /*collect_detours=*/true),
      opts);
}

/// One source's vertex-fault baseline composed on a referee engine.
inline FtBfsStructure referee_vertex(const BfsTree& tree, ThreadPool* pool,
                                     bool reference_kernel) {
  return build_vertex_ftbfs(referee_engine<VertexReplacementEngine>(
      tree, pool, reference_kernel, /*collect_detours=*/false));
}

/// Builds `spec` source by source on two-pass canonical trees and merges the
/// per-source structures (a single source's structure is returned as
/// built, so a σ = 1 referee pays no merge copy). `ref` picks the kernels
/// for every model and, for a dual spec, the site table's recursion and
/// schedule. `work`, when given, accumulates the dual rebase-seam work.
inline api::BuildResult referee_build(const Graph& g,
                                      const api::BuildSpec& spec,
                                      const Referee& ref = {},
                                      SweepWorkStats* work = nullptr) {
  spec.validate(g);
  const EdgeWeights weights = EdgeWeights::uniform_random(g, spec.weight_seed);
  std::vector<FtBfsStructure> parts;
  std::vector<EpsilonStats> per_source;
  std::vector<DualSiteTable> tables;
  std::vector<DualSiteDistTable> site_dist;
  for (const Vertex s : spec.sources) {
    const BfsTree tree(g, weights, s, canonical_sp(g, weights, s));
    switch (spec.fault_model) {
      case FaultClass::kEdge: {
        EpsilonResult r =
            referee_epsilon(tree, spec.epsilon_options(), ref.reference_kernel);
        per_source.push_back(r.stats);
        parts.push_back(std::move(r.structure));
        break;
      }
      case FaultClass::kVertex:
        parts.push_back(referee_vertex(tree, spec.pool, ref.reference_kernel));
        break;
      case FaultClass::kEither:
        parts.push_back(build_either_ftbfs(
            build_ftbfs(referee_engine<ReplacementPathEngine>(
                tree, spec.pool, ref.reference_kernel,
                /*collect_detours=*/false)),
            referee_vertex(tree, spec.pool, ref.reference_kernel)));
        break;
      case FaultClass::kDual: {
        std::vector<EdgeId> dual_edges;
        DualSiteDistTable sd;
        SweepWorkStats w;
        tables.push_back(detail::build_dual_site_table(
            tree, spec.pool, ref.reference_kernel, &dual_edges, ref.unpruned,
            spec.site_dist_oracle ? &sd : nullptr, /*ignored=*/true,
            ref.dfs_schedule, &w));
        if (spec.site_dist_oracle) site_dist.push_back(std::move(sd));
        if (work != nullptr) {
          work->label_writes += w.label_writes;
          work->sweep_visits += w.sweep_visits;
        }
        parts.emplace_back(g, s, std::move(dual_edges),
                           std::vector<EdgeId>{}, tree.tree_edges(),
                           FaultClass::kDual);
        break;
      }
    }
  }
  if (parts.size() > 1) {
    std::vector<EdgeId> edges, reinforced, tree_edges;
    for (const FtBfsStructure& h : parts) {
      edges.insert(edges.end(), h.edges().begin(), h.edges().end());
      reinforced.insert(reinforced.end(), h.reinforced().begin(),
                        h.reinforced().end());
      tree_edges.insert(tree_edges.end(), h.tree_edges().begin(),
                        h.tree_edges().end());
    }
    parts.front() = FtBfsStructure(g, spec.sources.front(), std::move(edges),
                                   std::move(reinforced),
                                   std::move(tree_edges), spec.fault_model);
  }
  return api::BuildResult{spec,
                          spec.sources,
                          std::move(parts.front()),
                          std::move(per_source),
                          std::move(tables),
                          std::move(site_dist),
                          0.0};
}

/// Byte-level equality of two pair tables.
inline bool same_tables(const DualSiteTable& a, const DualSiteTable& b) {
  return a.sites == b.sites && a.offsets == b.offsets &&
         a.edge_pool == b.edge_pool;
}

/// Byte-level equality of two site-dist tables.
inline bool same_site_dist(const DualSiteDistTable& a,
                           const DualSiteDistTable& b) {
  return a.site_offsets == b.site_offsets && a.parent_edge == b.parent_edge &&
         a.tf_depth == b.tf_depth && a.row_offsets == b.row_offsets &&
         a.rows == b.rows;
}

/// The (≁)-interference relation of an engine's uncovered pairs, pair by
/// pair: q ∈ I≁(p) iff the terminals differ, e ≁ e', and the detours share
/// a vertex internal to both (Eq. (1), by intersecting the internal vertex
/// sets). With a `max_bucket`, pair p counts internal vertex z only while
/// fewer than max_bucket smaller pair ids have z internal — the
/// InterferenceIndex::Config valve, which keeps each vertex's max_bucket
/// smallest ids. O(np² · |D|): small instances only.
class InterferenceReferee {
 public:
  explicit InterferenceReferee(
      const ReplacementPathEngine& engine,
      std::int32_t max_bucket = std::numeric_limits<std::int32_t>::max())
      : engine_(&engine) {
    const auto& pairs = engine.uncovered_pairs();
    std::unordered_map<Vertex, std::int32_t> seen;
    for (const UncoveredPair& p : pairs) {
      const auto det = engine.detour(p);
      std::vector<Vertex>& kept = internal_.emplace_back();
      for (std::size_t i = 1; i + 1 < det.size(); ++i) {
        if (seen[det[i]]++ < max_bucket) kept.push_back(det[i]);
      }
      std::sort(kept.begin(), kept.end());
    }
  }

  bool interferes(std::int32_t p, std::int32_t q) const {
    const BfsTree& tree = engine_->tree();
    const UncoveredPair& P = pair(p);
    const UncoveredPair& Q = pair(q);
    if (P.v == Q.v || tree.edges_related(P.e, Q.e)) return false;
    const auto& a = internal_[static_cast<std::size_t>(p)];
    const auto& b = internal_[static_cast<std::size_t>(q)];
    std::vector<Vertex> common;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(common));
    return !common.empty();
  }

  /// Fig. 2, literally: D(P_p) touches π(LCA(v,t), t) \ {LCA(v,t)}, with
  /// the LCA found by walking parents.
  bool pi_intersects(std::int32_t p, std::int32_t q) const {
    const BfsTree& tree = engine_->tree();
    const UncoveredPair& P = pair(p);
    const UncoveredPair& Q = pair(q);
    Vertex a = P.v, b = Q.v;
    while (tree.depth(a) > tree.depth(b)) a = tree.parent(a);
    while (tree.depth(b) > tree.depth(a)) b = tree.parent(b);
    while (a != b) {
      a = tree.parent(a);
      b = tree.parent(b);
    }
    std::vector<Vertex> target_path;  // π(LCA, t] vertices
    for (Vertex u = Q.v; u != a; u = tree.parent(u)) target_path.push_back(u);
    for (const Vertex z : engine_->detour(P)) {
      if (std::find(target_path.begin(), target_path.end(), z) !=
          target_path.end()) {
        return true;
      }
    }
    return false;
  }

 private:
  const UncoveredPair& pair(std::int32_t p) const {
    return engine_->uncovered_pairs()[static_cast<std::size_t>(p)];
  }

  const ReplacementPathEngine* engine_;
  std::vector<std::vector<Vertex>> internal_;  // kept internal vertices
};

}  // namespace ftb::test

#include "src/core/multi_source.hpp"

#include "src/core/dual_fault.hpp"
#include "src/core/validate.hpp"
#include "src/core/verifier.hpp"
#include "src/graph/multi_source_bfs_kernel.hpp"

namespace ftb {

namespace {

/// The §5 union over `sources`: `per_source(tree)` builds one source's
/// structure on its canonical tree, and the edge sets merge into one
/// structure tagged `model`. Every label set comes from one
/// canonical_source_sps call; each tree is built just before its structure
/// and dropped right after, so the peak holds σ label sets plus one tree.
/// A single source's structure (already tagged `model`) is returned as
/// built — σ = 1 pays no merge copy.
template <class PerSource>
FtBfsStructure union_over_sources(const Graph& g,
                                  const std::vector<Vertex>& sources,
                                  std::uint64_t weight_seed, FaultClass model,
                                  PerSource&& per_source) {
  const EdgeWeights weights = EdgeWeights::uniform_random(g, weight_seed);
  std::vector<CanonicalSp> sps = canonical_source_sps(g, weights, sources);
  if (sources.size() == 1) {
    return per_source(BfsTree(g, weights, sources.front(), std::move(sps[0])));
  }
  std::vector<EdgeId> edges;
  std::vector<EdgeId> reinforced;
  std::vector<EdgeId> tree_edges;  // union of the per-source trees
  // Each per-source tree holds up to n−1 edges; reserving up front keeps
  // the tree-edge union from reallocating once per source. (The backup
  // edge union is Õ(n^{1+ε})-sized and grows amortized instead.)
  tree_edges.reserve(sources.size() *
                     static_cast<std::size_t>(g.num_vertices()));
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const BfsTree tree(g, weights, sources[i], std::move(sps[i]));
    const FtBfsStructure h = per_source(tree);
    edges.insert(edges.end(), h.edges().begin(), h.edges().end());
    reinforced.insert(reinforced.end(), h.reinforced().begin(),
                      h.reinforced().end());
    tree_edges.insert(tree_edges.end(), h.tree_edges().begin(),
                      h.tree_edges().end());
  }
  return FtBfsStructure(g, sources.front(), std::move(edges),
                        std::move(reinforced), std::move(tree_edges), model);
}

}  // namespace

MultiSourceResult detail::build_epsilon_ftmbfs_impl(
    const Graph& g, const std::vector<Vertex>& sources,
    const EpsilonOptions& opts) {
  detail::check_epsilon(opts.eps);
  detail::check_sources(g, sources);
  std::vector<EpsilonStats> stats;
  stats.reserve(sources.size());
  FtBfsStructure merged = union_over_sources(
      g, sources, opts.weight_seed, FaultClass::kEdge,
      [&](const BfsTree& tree) {
        EpsilonResult res = detail::build_epsilon_ftbfs_impl(tree, opts);
        stats.push_back(res.stats);
        return std::move(res.structure);
      });
  return MultiSourceResult{std::move(merged), std::move(stats)};
}

FtBfsStructure detail::build_vertex_ftmbfs_impl(
    const Graph& g, const std::vector<Vertex>& sources,
    const VertexFtBfsOptions& opts) {
  detail::check_sources(g, sources);
  return union_over_sources(
      g, sources, opts.weight_seed, FaultClass::kVertex,
      [&](const BfsTree& tree) {
        return detail::build_vertex_ftbfs_impl(tree, opts);
      });
}

FtBfsStructure detail::build_either_ftmbfs_impl(
    const Graph& g, const std::vector<Vertex>& sources,
    const VertexFtBfsOptions& opts) {
  detail::check_sources(g, sources);
  return union_over_sources(
      g, sources, opts.weight_seed, FaultClass::kEither,
      [&](const BfsTree& tree) {
        return detail::build_either_ftbfs_impl(tree, opts);
      });
}

DualMultiSourceResult detail::build_dual_failure_ftmbfs_impl(
    const Graph& g, const std::vector<Vertex>& sources,
    const DualFtBfsOptions& opts) {
  detail::check_sources(g, sources);
  std::vector<DualSiteTable> tables;
  std::vector<DualSiteDistTable> site_dist;
  tables.reserve(sources.size());
  FtBfsStructure merged = union_over_sources(
      g, sources, opts.weight_seed, FaultClass::kDual,
      [&](const BfsTree& tree) {
        DualBuildResult r = detail::build_dual_failure_ftbfs_impl(tree, opts);
        tables.push_back(std::move(r.tables));
        if (opts.site_dist_oracle) site_dist.push_back(std::move(r.site_dist));
        return std::move(r.structure);
      });
  return DualMultiSourceResult{std::move(merged), std::move(tables),
                               std::move(site_dist)};
}

std::int64_t verify_multi_source(const FtBfsStructure& h,
                                 std::span<const Vertex> sources,
                                 std::int64_t max_failures_per_source) {
  std::int64_t violations = 0;
  for (const Vertex s : sources) {
    // Re-anchor the union structure at source s: same edge partition, but
    // the per-source tree must be recomputed, so verify against the union
    // edge set directly through a fresh per-source view.
    // (The union contains each per-source T0, so the tree_edges of the
    // merged structure are a superset of any single tree; we hand the
    // verifier the union's tree list — every tree edge of every source is
    // in it, so all relevant failures are covered.)
    FtBfsStructure view(h.graph(), s, h.edges(), h.reinforced(),
                        h.tree_edges());
    VerifyOptions vo;
    vo.max_failures = max_failures_per_source;
    const VerifyReport rep = verify_structure(view, vo);
    violations += rep.violations;
  }
  return violations;
}

std::int64_t verify_vertex_multi_source(const FtBfsStructure& h,
                                        std::span<const Vertex> sources,
                                        std::int64_t max_failures_per_source) {
  std::int64_t violations = 0;
  for (const Vertex s : sources) {
    // Same re-anchoring as the edge verifier: the union edge set viewed
    // from source s; verify_vertex_structure sweeps every failing vertex
    // x ≠ s against literal BFS.
    FtBfsStructure view(h.graph(), s, h.edges(), h.reinforced(),
                        h.tree_edges(), FaultClass::kVertex);
    violations += verify_vertex_structure(view, max_failures_per_source);
  }
  return violations;
}

}  // namespace ftb

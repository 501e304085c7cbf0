#include "src/core/ftbfs.hpp"

#include "src/core/validate.hpp"

namespace ftb {

FtBfsStructure build_ftbfs(const ReplacementPathEngine& engine) {
  const BfsTree& tree = engine.tree();
  std::vector<EdgeId> edges = tree.tree_edges();
  for (const UncoveredPair& p : engine.uncovered_pairs()) {
    edges.push_back(p.last_edge);
  }
  return FtBfsStructure(tree.graph(), tree.source(), std::move(edges),
                        /*reinforced=*/{}, tree.tree_edges());
}

FtBfsStructure detail::build_ftbfs_impl(const Graph& g, Vertex source,
                                        const FtBfsOptions& opts) {
  detail::check_source(g, source);
  const EdgeWeights weights = EdgeWeights::uniform_random(g, opts.weight_seed);
  return build_ftbfs_impl(BfsTree(g, weights, source), opts);
}

FtBfsStructure detail::build_ftbfs_impl(const BfsTree& tree,
                                        const FtBfsOptions& opts) {
  ReplacementPathEngine::Config cfg;
  cfg.collect_detours = false;  // the baseline only needs last edges
  cfg.pool = opts.pool;
  cfg.reference_kernel = opts.reference_kernel;
  const ReplacementPathEngine engine(tree, cfg);
  return build_ftbfs(engine);
}

FtBfsStructure detail::build_reinforced_tree_impl(const Graph& g,
                                                  Vertex source,
                                                  const FtBfsOptions& opts) {
  detail::check_source(g, source);
  const EdgeWeights weights = EdgeWeights::uniform_random(g, opts.weight_seed);
  const BfsTree tree(g, weights, source);
  std::vector<EdgeId> edges = tree.tree_edges();
  std::vector<EdgeId> reinforced = tree.tree_edges();
  return FtBfsStructure(g, source, std::move(edges), std::move(reinforced),
                        tree.tree_edges());
}

FtBfsStructure build_ftbfs(const Graph& g, Vertex source,
                           const FtBfsOptions& opts) {
  return detail::build_ftbfs_impl(g, source, opts);
}

FtBfsStructure build_reinforced_tree(const Graph& g, Vertex source,
                                     const FtBfsOptions& opts) {
  return detail::build_reinforced_tree_impl(g, source, opts);
}

}  // namespace ftb

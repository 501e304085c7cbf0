#include "src/core/ftbfs.hpp"

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

FtBfsStructure detail::build_ftbfs_impl(const BfsTree& tree,
                                        ThreadPool* pool) {
  ReplacementPathEngine::Config cfg;
  cfg.collect_detours = false;  // the baseline only needs last edges
  cfg.pool = pool;
  const ReplacementPathEngine engine(tree, cfg);
  return build_ftbfs(engine);
}

}  // namespace ftb

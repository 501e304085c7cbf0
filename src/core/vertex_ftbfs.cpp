// vertex_ftbfs.cpp — thin builders over the shared S0 engine
// (fault_model.cpp) under the VertexFault policy.
#include "src/core/vertex_ftbfs.hpp"

#include "src/core/ftbfs.hpp"

namespace ftb {

FtBfsStructure build_vertex_ftbfs(const VertexReplacementEngine& engine) {
  const BfsTree& tree = engine.tree();
  std::vector<EdgeId> edges = tree.tree_edges();
  for (const VertexFaultPair& p : engine.uncovered_pairs()) {
    edges.push_back(p.last_edge);
  }
  return FtBfsStructure(tree.graph(), tree.source(), std::move(edges), {},
                        tree.tree_edges(), FaultClass::kVertex);
}

FtBfsStructure build_either_ftbfs(const FtBfsStructure& edge_half,
                                  const FtBfsStructure& vertex_half) {
  std::vector<EdgeId> edges = edge_half.edges();
  edges.insert(edges.end(), vertex_half.edges().begin(),
               vertex_half.edges().end());
  return FtBfsStructure(edge_half.graph(), edge_half.source(),
                        std::move(edges), {}, edge_half.tree_edges(),
                        FaultClass::kEither);
}

FtBfsStructure detail::build_vertex_ftbfs_impl(const BfsTree& tree,
                                               ThreadPool* pool) {
  VertexReplacementEngine::Config cfg;
  cfg.pool = pool;
  cfg.collect_detours = false;  // the baseline only needs last edges
  const VertexReplacementEngine engine(tree, cfg);
  return build_vertex_ftbfs(engine);
}

FtBfsStructure detail::build_either_ftbfs_impl(const BfsTree& tree,
                                               ThreadPool* pool) {
  return build_either_ftbfs(detail::build_ftbfs_impl(tree, pool),
                            detail::build_vertex_ftbfs_impl(tree, pool));
}

}  // namespace ftb

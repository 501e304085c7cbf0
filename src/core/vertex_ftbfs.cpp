// vertex_ftbfs.cpp — thin builders over the shared S0 engine
// (fault_model.cpp) under the VertexFault policy, plus the exhaustive
// literal-BFS verifier.
#include "src/core/vertex_ftbfs.hpp"

#include <atomic>

#include "src/core/ftbfs.hpp"
#include "src/graph/bfs_kernel.hpp"

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

FtBfsStructure detail::build_vertex_ftbfs_impl(const BfsTree& tree,
                                               const VertexFtBfsOptions& opts) {
  VertexReplacementEngine::Config cfg;
  cfg.pool = opts.pool;
  cfg.reference_kernel = opts.reference_kernel;
  cfg.collect_detours = false;  // the baseline only needs last edges
  const VertexReplacementEngine engine(tree, cfg);
  return build_vertex_ftbfs(engine);
}

FtBfsStructure detail::build_either_ftbfs_impl(const BfsTree& tree,
                                               const VertexFtBfsOptions& opts) {
  FtBfsOptions eopts;
  eopts.pool = opts.pool;
  eopts.reference_kernel = opts.reference_kernel;
  const FtBfsStructure edge_h = detail::build_ftbfs_impl(tree, eopts);
  const FtBfsStructure vertex_h = detail::build_vertex_ftbfs_impl(tree, opts);
  std::vector<EdgeId> edges = edge_h.edges();
  edges.insert(edges.end(), vertex_h.edges().begin(), vertex_h.edges().end());
  return FtBfsStructure(tree.graph(), tree.source(), std::move(edges), {},
                        edge_h.tree_edges(), FaultClass::kEither);
}

std::int64_t verify_vertex_structure(const FtBfsStructure& h,
                                     std::int64_t max_failures,
                                     ThreadPool* pool_ptr) {
  const Graph& g = h.graph();
  const Vertex s = h.source();
  ThreadPool& pool = pool_ptr != nullptr ? *pool_ptr : ThreadPool::global();

  std::vector<Vertex> candidates;
  for (Vertex x = 0; x < g.num_vertices(); ++x) {
    if (x != s) candidates.push_back(x);
  }
  if (max_failures >= 0 &&
      static_cast<std::int64_t>(candidates.size()) > max_failures) {
    candidates.resize(static_cast<std::size_t>(max_failures));
  }

  std::atomic<std::int64_t> violations{0};
  pool.parallel_for(candidates.size(), [&](std::size_t i) {
    const Vertex x = candidates[i];
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    thread_local std::vector<std::uint8_t> banned;
    if (banned.size() < n) banned.assign(n, 0);
    banned[static_cast<std::size_t>(x)] = 1;
    thread_local BfsScratch in_g, in_h;
    BfsBans g_bans;
    g_bans.banned_vertex = &banned;
    bfs_run(g, s, g_bans, in_g);
    BfsBans h_bans;
    h_bans.banned_vertex = &banned;
    h_bans.banned_edge_mask = &h.complement_mask();
    bfs_run(g, s, h_bans, in_h);
    std::int64_t local = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (v == x) continue;
      if (in_h.dist(v) != in_g.dist(v)) ++local;
    }
    banned[static_cast<std::size_t>(x)] = 0;
    violations.fetch_add(local, std::memory_order_relaxed);
  });
  return violations.load();
}

}  // namespace ftb

// bfs_kernel_test.cpp — the direction-optimizing kernel, its scratch
// arenas, and the subtree-seeded replacement sweep must be bit-identical to
// the naive reference implementations on every input class: random graphs,
// ban masks, disconnected graphs, and the star/path extremes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/dist_sweep.hpp"
#include "src/core/epsilon_ftbfs.hpp"
#include "src/core/ftbfs.hpp"
#include "src/core/replacement.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/graph/bfs_kernel.hpp"
#include "src/graph/canonical_bfs.hpp"
#include "src/graph/connectivity.hpp"
#include "src/graph/generators.hpp"
#include "src/util/rng.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

void expect_kernel_matches_reference(const Graph& g, Vertex src,
                                     const BfsBans& bans,
                                     BfsKernelConfig::Mode mode,
                                     const std::string& label) {
  const BfsResult ref = plain_bfs_reference(g, src, bans);
  BfsScratch scratch;
  BfsKernelConfig cfg;
  cfg.mode = mode;
  bfs_run(g, src, bans, scratch, cfg);

  ASSERT_EQ(scratch.order().size(), ref.order.size()) << label;
  for (std::size_t i = 0; i < ref.order.size(); ++i) {
    ASSERT_EQ(scratch.order()[i], ref.order[i]) << label << " i=" << i;
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(scratch.dist(v), ref.dist[static_cast<std::size_t>(v)])
        << label << " v=" << v;
    ASSERT_EQ(scratch.parent(v), ref.parent[static_cast<std::size_t>(v)])
        << label << " v=" << v;
    ASSERT_EQ(scratch.parent_edge(v),
              ref.parent_edge[static_cast<std::size_t>(v)])
        << label << " v=" << v;
  }
}

const BfsKernelConfig::Mode kAllModes[] = {BfsKernelConfig::Mode::kAuto,
                                           BfsKernelConfig::Mode::kTopDown,
                                           BfsKernelConfig::Mode::kBottomUp};

TEST(BfsKernel, MatchesReferenceOnFamilies) {
  for (auto& fc : test::small_families()) {
    for (const auto mode : kAllModes) {
      expect_kernel_matches_reference(fc.graph, fc.source, {}, mode, fc.name);
    }
  }
}

TEST(BfsKernel, MatchesReferenceUnderBans) {
  Rng rng(99);
  for (auto& fc : test::small_families()) {
    const Graph& g = fc.graph;
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    const std::size_t m = static_cast<std::size_t>(g.num_edges());

    // Random vertex + edge masks plus a single banned edge, all at once.
    std::vector<std::uint8_t> vmask(n, 0);
    std::vector<std::uint8_t> emask(m, 0);
    for (std::size_t v = 0; v < n; ++v) {
      if (static_cast<Vertex>(v) != fc.source) vmask[v] = rng.next_below(4) == 0;
    }
    for (std::size_t e = 0; e < m; ++e) emask[e] = rng.next_below(5) == 0;

    BfsBans bans;
    bans.banned_vertex = &vmask;
    bans.banned_edge_mask = &emask;
    bans.banned_edge =
        static_cast<EdgeId>(rng.next_below(static_cast<std::uint64_t>(m)));
    for (const auto mode : kAllModes) {
      expect_kernel_matches_reference(g, fc.source, bans, mode, fc.name);
    }
  }
}

TEST(BfsKernel, DisconnectedGraph) {
  // Two components plus isolated vertices.
  GraphBuilder b(10);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(4, 5);
  b.add_edge(5, 6);
  b.add_edge(6, 4);
  const Graph g = b.build();
  for (const auto mode : kAllModes) {
    expect_kernel_matches_reference(g, 0, {}, mode, "disconnected/0");
    expect_kernel_matches_reference(g, 4, {}, mode, "disconnected/4");
    expect_kernel_matches_reference(g, 9, {}, mode, "disconnected/9");
  }
}

TEST(BfsKernel, StarAndPathExtremes) {
  const Graph star = gen::star_graph(64);
  const Graph path = gen::path_graph(64);
  for (const auto mode : kAllModes) {
    expect_kernel_matches_reference(star, 0, {}, mode, "star/center");
    expect_kernel_matches_reference(star, 17, {}, mode, "star/leaf");
    expect_kernel_matches_reference(path, 0, {}, mode, "path/end");
    expect_kernel_matches_reference(path, 31, {}, mode, "path/mid");
  }
}

TEST(BfsKernel, BottomUpActuallyEngagesOnDenseGraphs) {
  // Sanity check on the alpha/beta heuristic: a dense low-diameter graph
  // must trigger at least one bottom-up level in auto mode.
  const Graph g = gen::complete_graph(256);
  BfsScratch scratch;
  bfs_run(g, 0, {}, scratch);
  EXPECT_GT(scratch.stats().bottom_up_levels, 0);
}

TEST(BfsKernel, ScratchReuseAcrossSourcesAndBans) {
  // Two back-to-back queries on one scratch must not leak state between
  // runs: each must equal a fresh-scratch run.
  const Graph g = gen::erdos_renyi(80, 0.07, 11);
  BfsScratch reused;
  Rng rng(5);
  for (int round = 0; round < 12; ++round) {
    const Vertex src =
        static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(80)));
    BfsBans bans;
    if (round % 2 == 1) {
      bans.banned_edge = static_cast<EdgeId>(
          rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
    }
    bfs_run(g, src, bans, reused);
    BfsScratch fresh;
    bfs_run(g, src, bans, fresh);
    ASSERT_EQ(std::vector<Vertex>(reused.order().begin(), reused.order().end()),
              std::vector<Vertex>(fresh.order().begin(), fresh.order().end()))
        << "round " << round;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(reused.dist(v), fresh.dist(v)) << "round " << round;
      ASSERT_EQ(reused.parent(v), fresh.parent(v)) << "round " << round;
    }
  }
}

TEST(BfsKernel, EpochWraparound) {
  const Graph g = gen::grid_graph(5, 5);
  BfsScratch scratch;
  bfs_run(g, 0, {}, scratch);
  scratch.debug_set_epoch_near_wrap();
  // Two runs straddle the wrap; both must stay correct.
  for (int i = 0; i < 3; ++i) {
    bfs_run(g, 3, {}, scratch);
    const BfsResult ref = plain_bfs_reference(g, 3);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(scratch.dist(v), ref.dist[static_cast<std::size_t>(v)])
          << "wrap round " << i;
    }
  }
}

// ---- fused canonical kernel ------------------------------------------------

TEST(CanonicalKernel, MatchesReferenceOnFamilies) {
  for (auto& fc : test::small_families()) {
    const Graph& g = fc.graph;
    const EdgeWeights w = EdgeWeights::uniform_random(g, 1234);
    const CanonicalSp ref = canonical_sp(g, w, fc.source);
    CanonicalSpScratch scratch;
    canonical_sp_run(g, w, fc.source, {}, scratch);

    ASSERT_EQ(scratch.order().size(), ref.order.size()) << fc.name;
    for (std::size_t i = 0; i < ref.order.size(); ++i) {
      ASSERT_EQ(scratch.order()[i], ref.order[i]) << fc.name;
    }
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const std::size_t vi = static_cast<std::size_t>(v);
      ASSERT_EQ(scratch.hops(v), ref.hops[vi]) << fc.name << " v=" << v;
      if (!ref.reachable(v)) continue;
      ASSERT_EQ(scratch.wsum(v), ref.wsum[vi]) << fc.name << " v=" << v;
      ASSERT_EQ(scratch.parent(v), ref.parent[vi]) << fc.name << " v=" << v;
      ASSERT_EQ(scratch.parent_edge(v), ref.parent_edge[vi])
          << fc.name << " v=" << v;
      ASSERT_EQ(scratch.first_hop(v), ref.first_hop[vi])
          << fc.name << " v=" << v;
    }
  }
}

TEST(CanonicalKernel, MatchesReferenceUnderBansAndEqualWeights) {
  // Equal weights force the (parent id, edge id) fallback everywhere —
  // the tie-break must agree exactly with the reference.
  for (auto& fc : test::tiny_families()) {
    const Graph& g = fc.graph;
    EdgeWeights w;
    w.w.assign(static_cast<std::size_t>(g.num_edges()), 7);
    std::vector<std::uint8_t> vmask(static_cast<std::size_t>(g.num_vertices()),
                                    0);
    // Ban an arbitrary non-source vertex when one exists.
    if (g.num_vertices() > 2) {
      vmask[static_cast<std::size_t>((fc.source + 1) % g.num_vertices())] = 1;
    }
    BfsBans bans;
    bans.banned_vertex = &vmask;
    const CanonicalSp ref = canonical_sp(g, w, fc.source, bans);
    CanonicalSpScratch scratch;
    canonical_sp_run(g, w, fc.source, bans, scratch);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const std::size_t vi = static_cast<std::size_t>(v);
      ASSERT_EQ(scratch.hops(v), ref.hops[vi]) << fc.name;
      if (!ref.reachable(v)) continue;
      ASSERT_EQ(scratch.wsum(v), ref.wsum[vi]) << fc.name;
      ASSERT_EQ(scratch.parent(v), ref.parent[vi]) << fc.name;
      ASSERT_EQ(scratch.parent_edge(v), ref.parent_edge[vi]) << fc.name;
    }
  }
}

// ---- subtree-seeded replacement sweep --------------------------------------

TEST(ReplacementSweep, MatchesFullBfsPerTreeEdge) {
  for (auto& fc : test::small_families()) {
    const Graph& g = fc.graph;
    const EdgeWeights w = EdgeWeights::uniform_random(g, 42);
    const BfsTree tree(g, w, fc.source);
    ReplacementSweepScratch sweep;
    for (const EdgeId e : tree.tree_edges()) {
      const Vertex low = tree.lower_endpoint(e);
      BfsBans bans;
      bans.banned_edge = e;
      const BfsResult full = plain_bfs_reference(g, fc.source, bans);
      replacement_dist_sweep(tree, e, kInvalidVertex, tree.subtree(low),
                             sweep);
      for (const Vertex v : tree.subtree(low)) {
        ASSERT_EQ(sweep.dist(v), full.dist[static_cast<std::size_t>(v)])
            << fc.name << " e=" << e << " v=" << v;
      }
    }
  }
}

TEST(ReplacementSweep, MatchesFullBfsPerTreeVertex) {
  for (auto& fc : test::small_families()) {
    const Graph& g = fc.graph;
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    const EdgeWeights w = EdgeWeights::uniform_random(g, 43);
    const BfsTree tree(g, w, fc.source);
    ReplacementSweepScratch sweep;
    for (const Vertex x : tree.preorder()) {
      if (x == fc.source || tree.subtree_size(x) <= 1) continue;
      std::vector<std::uint8_t> banned(n, 0);
      banned[static_cast<std::size_t>(x)] = 1;
      BfsBans bans;
      bans.banned_vertex = &banned;
      const BfsResult full = plain_bfs_reference(g, fc.source, bans);
      replacement_dist_sweep(tree, kInvalidEdge, x, tree.subtree(x), sweep);
      for (const Vertex v : tree.subtree(x)) {
        if (v == x) continue;
        ASSERT_EQ(sweep.dist(v), full.dist[static_cast<std::size_t>(v)])
            << fc.name << " x=" << x << " v=" << v;
      }
    }
  }
}

// ---- engine + construction equivalence -------------------------------------

TEST(EngineEquivalence, ReferenceAndOptimizedKernelsAgree) {
  for (auto& fc : test::small_families()) {
    const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 7);
    const BfsTree tree(fc.graph, w, fc.source);

    ReplacementPathEngine::Config ref_cfg;
    ref_cfg.reference_kernel = true;
    const ReplacementPathEngine ref(tree, ref_cfg);
    const ReplacementPathEngine opt(tree);

    ASSERT_EQ(opt.stats().pairs_total, ref.stats().pairs_total) << fc.name;
    ASSERT_EQ(opt.stats().pairs_covered, ref.stats().pairs_covered)
        << fc.name;
    ASSERT_EQ(opt.stats().pairs_infinite, ref.stats().pairs_infinite)
        << fc.name;
    const auto& rp = ref.uncovered_pairs();
    const auto& op = opt.uncovered_pairs();
    ASSERT_EQ(op.size(), rp.size()) << fc.name;
    for (std::size_t i = 0; i < rp.size(); ++i) {
      ASSERT_EQ(op[i].v, rp[i].v) << fc.name << " i=" << i;
      ASSERT_EQ(op[i].e, rp[i].e) << fc.name << " i=" << i;
      ASSERT_EQ(op[i].rep_dist, rp[i].rep_dist) << fc.name << " i=" << i;
      ASSERT_EQ(op[i].diverge, rp[i].diverge) << fc.name << " i=" << i;
      ASSERT_EQ(op[i].last_edge, rp[i].last_edge) << fc.name << " i=" << i;
      ASSERT_EQ(op[i].detour_len, rp[i].detour_len) << fc.name << " i=" << i;
      const auto rd = ref.detour(rp[i]);
      const auto od = opt.detour(op[i]);
      ASSERT_EQ(std::vector<Vertex>(od.begin(), od.end()),
                std::vector<Vertex>(rd.begin(), rd.end()))
          << fc.name << " i=" << i;
    }
  }
}

TEST(EngineEquivalence, VertexEngineReferenceAndOptimizedAgree) {
  for (auto& fc : test::small_families()) {
    const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 8);
    const BfsTree tree(fc.graph, w, fc.source);

    VertexReplacementEngine::Config ref_cfg;
    ref_cfg.reference_kernel = true;
    const VertexReplacementEngine ref(tree, ref_cfg);
    const VertexReplacementEngine opt(tree);

    ASSERT_EQ(opt.stats().pairs_covered, ref.stats().pairs_covered)
        << fc.name;
    ASSERT_EQ(opt.stats().pairs_infinite, ref.stats().pairs_infinite)
        << fc.name;
    const auto& rp = ref.uncovered_pairs();
    const auto& op = opt.uncovered_pairs();
    ASSERT_EQ(op.size(), rp.size()) << fc.name;
    for (std::size_t i = 0; i < rp.size(); ++i) {
      ASSERT_EQ(op[i].v, rp[i].v) << fc.name << " i=" << i;
      ASSERT_EQ(op[i].x, rp[i].x) << fc.name << " i=" << i;
      ASSERT_EQ(op[i].rep_dist, rp[i].rep_dist) << fc.name << " i=" << i;
      ASSERT_EQ(op[i].diverge, rp[i].diverge) << fc.name << " i=" << i;
      ASSERT_EQ(op[i].last_edge, rp[i].last_edge) << fc.name << " i=" << i;
    }
  }
}

TEST(EngineEquivalence, EpsilonConstructionEdgeSetsIdentical) {
  for (auto& fc : test::tiny_families()) {
    const EdgeWeights w =
        EdgeWeights::uniform_random(fc.graph, EpsilonOptions{}.weight_seed);
    const BfsTree tree(fc.graph, w, fc.source);
    for (const double eps : {0.25, 0.5}) {
      EpsilonOptions ref_opts;
      ref_opts.eps = eps;
      ref_opts.reference_kernel = true;
      EpsilonOptions opt_opts;
      opt_opts.eps = eps;
      const EpsilonResult a = detail::build_epsilon_ftbfs_impl(tree, ref_opts);
      const EpsilonResult b = detail::build_epsilon_ftbfs_impl(tree, opt_opts);
      ASSERT_EQ(a.structure.edges(), b.structure.edges()) << fc.name;
      ASSERT_EQ(a.structure.reinforced(), b.structure.reinforced()) << fc.name;
      ASSERT_EQ(a.structure.tree_edges(), b.structure.tree_edges()) << fc.name;
    }
  }
}

// ---- kernel-backed connectivity helpers ------------------------------------

TEST(ComponentLabels, MatchTarjanReport) {
  GraphBuilder b(12);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(5, 3);
  b.add_edge(7, 8);
  const Graph g = b.build();
  const auto labels = component_labels(g);
  const auto rep = analyze_connectivity(g);
  ASSERT_EQ(labels, rep.component);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(gen::cycle_graph(9)));
}

}  // namespace
}  // namespace ftb

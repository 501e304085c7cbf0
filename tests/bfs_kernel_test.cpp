// bfs_kernel_test.cpp — the direction-optimizing kernel, its scratch
// arenas, and the subtree-seeded replacement sweep must be bit-identical to
// the naive reference implementations on every input class: random graphs,
// ban masks, disconnected graphs, and the star/path extremes. The fused
// canonical kernel's boundary (the arcs its bans drop) must list exactly
// the brute-force arcs, at every depth cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
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
#include "tests/property_test_util.hpp"
#include "tests/referee.hpp"
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

/// Every arc from a vertex at hops < limit into a banned vertex, edge-banned
/// arcs excluded, in the kernel's expansion order: `ref.order` (level by
/// level, ascending id), each vertex's arcs in adjacency order. A non-empty
/// `filter` also drops the arcs from hops limit − 1 into heads h with
/// filter[h] == kInvalidEdge.
std::vector<BoundaryArc> brute_force_boundary(
    const Graph& g, const CanonicalSp& ref, const BfsBans& bans,
    std::int32_t limit, std::span<const EdgeId> filter = {}) {
  std::vector<BoundaryArc> out;
  for (const Vertex u : ref.order) {
    const std::int32_t hu = ref.hops[static_cast<std::size_t>(u)];
    if (hu >= limit) break;
    for (const Arc& a : g.neighbors(u)) {
      if (bans.edge_banned(a.edge) || !bans.vertex_banned(a.to)) continue;
      if (!filter.empty() && hu + 1 == limit &&
          filter[static_cast<std::size_t>(a.to)] == kInvalidEdge) {
        continue;
      }
      out.push_back({a.to, u, a.edge});
    }
  }
  return out;
}

/// The scratch's labels of `v` equal the reference's.
void expect_labels_match(const CanonicalSpScratch& got, const CanonicalSp& ref,
                         Vertex v, const std::string& label) {
  const std::size_t vi = static_cast<std::size_t>(v);
  ASSERT_TRUE(got.reachable(v)) << label << " v=" << v;
  ASSERT_EQ(got.hops(v), ref.hops[vi]) << label << " v=" << v;
  ASSERT_EQ(got.wsum(v), ref.wsum[vi]) << label << " v=" << v;
  ASSERT_EQ(got.parent(v), ref.parent[vi]) << label << " v=" << v;
  ASSERT_EQ(got.parent_edge(v), ref.parent_edge[vi]) << label << " v=" << v;
  ASSERT_EQ(got.first_hop(v), ref.first_hop[vi]) << label << " v=" << v;
}

/// An unfiltered run equals the two-pass reference up to `limit`: order,
/// labels, nothing deeper reached.
void expect_run_matches_reference(const CanonicalSpScratch& got,
                                  const CanonicalSp& ref, std::int32_t limit,
                                  const std::string& label) {
  std::vector<Vertex> want;
  for (const Vertex v : ref.order) {
    if (ref.hops[static_cast<std::size_t>(v)] <= limit) want.push_back(v);
  }
  ASSERT_EQ(got.order().size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.order()[i], want[i]) << label << " i=" << i;
    expect_labels_match(got, ref, want[i], label);
  }
}

TEST(CanonicalKernel, BoundaryListsEveryArcIntoTheBans) {
  Rng rng(2024);
  std::size_t listed = 0;
  for (const auto& pc : test::property_cases(40, 2)) {
    FTB_PROPERTY_TRACE(pc, "bfs_kernel_test");
    const Graph& g = pc.graph;
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    const std::size_t m = static_cast<std::size_t>(g.num_edges());
    const EdgeWeights w = EdgeWeights::uniform_random(g, 77);
    CanonicalSpScratch scratch;  // one arena for every run of the case
    for (int round = 0; round < 3; ++round) {
      std::vector<std::uint8_t> vmask(n, 0);
      for (std::size_t v = 0; v < n; ++v) {
        if (static_cast<Vertex>(v) != pc.source) {
          vmask[v] = rng.next_below(4) == 0;
        }
      }
      // The last round also bans edges, some of them into banned vertices.
      std::vector<std::uint8_t> emask(m, 0);
      if (round == 2) {
        for (std::size_t e = 0; e < m; ++e) emask[e] = rng.next_below(3) == 0;
      }
      BfsBans bans;
      bans.banned_vertex = &vmask;
      bans.banned_edge_mask = &emask;
      const CanonicalSp ref = canonical_sp(g, w, pc.source, bans);
      for (const std::int32_t limit : {0, 1, 2, 3, kInfHops}) {
        canonical_sp_run(g, w, pc.source, bans, scratch, limit);
        const std::vector<BoundaryArc> want =
            brute_force_boundary(g, ref, bans, limit);
        const auto got = scratch.boundary();
        listed += got.size();
        ASSERT_EQ(got.size(), want.size())
            << pc.name() << " round=" << round << " limit=" << limit;
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i], want[i]) << pc.name() << " round=" << round
                                     << " limit=" << limit << " i=" << i;
        }
      }
    }
    // Nothing banned, or edges only: nothing listed, and nothing left over
    // from the banned runs on the same arena.
    canonical_sp_run(g, w, pc.source, {}, scratch);
    EXPECT_TRUE(scratch.boundary().empty()) << pc.name();
    if (m > 0) {
      BfsBans edge_only;
      edge_only.banned_edge = 0;
      canonical_sp_run(g, w, pc.source, edge_only, scratch);
      EXPECT_TRUE(scratch.boundary().empty()) << pc.name();
    }
  }
  EXPECT_GT(listed, 0u);
}

TEST(CanonicalKernel, LastLevelFilterKeepsOnlyFilteredHeads) {
  Rng rng(2029);
  std::size_t kept = 0;
  std::size_t dropped = 0;
  for (const auto& pc : test::property_cases(40, 2)) {
    FTB_PROPERTY_TRACE(pc, "bfs_kernel_test");
    const Graph& g = pc.graph;
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    const std::size_t m = static_cast<std::size_t>(g.num_edges());
    const EdgeWeights w = EdgeWeights::uniform_random(g, 91);
    CanonicalSpScratch scratch;  // one arena for every run of the case
    for (int round = 0; round < 3; ++round) {
      std::vector<std::uint8_t> vmask(n, 0);
      for (std::size_t v = 0; v < n; ++v) {
        if (static_cast<Vertex>(v) != pc.source) {
          vmask[v] = rng.next_below(4) == 0;
        }
      }
      std::vector<std::uint8_t> emask(m, 0);
      if (round > 0) {
        for (std::size_t e = 0; e < m; ++e) emask[e] = rng.next_below(4) == 0;
      }
      // Any valid entry keeps its vertex; the value itself is not read.
      std::vector<EdgeId> filter(n, kInvalidEdge);
      for (std::size_t v = 0; v < n; ++v) {
        if (rng.next_below(3) == 0) filter[v] = 0;
      }
      BfsBans bans;
      bans.banned_vertex = &vmask;
      bans.banned_edge_mask = &emask;
      const CanonicalSp ref = canonical_sp(g, w, pc.source, bans);
      for (const std::int32_t limit : {0, 1, 2, 3, kInfHops}) {
        const std::string label = pc.name() + " round=" +
                                  std::to_string(round) +
                                  " limit=" + std::to_string(limit);
        canonical_sp_run(g, w, pc.source, bans, scratch, limit, filter);
        const auto order = scratch.order();
        // Levels below the limit (and the source, at any limit): the
        // reference's order and labels.
        std::size_t i = 0;
        for (const Vertex v : ref.order) {
          if (ref.hops[static_cast<std::size_t>(v)] >= limit && i > 0) break;
          ASSERT_LT(i, order.size()) << label;
          ASSERT_EQ(order[i], v) << label << " i=" << i;
          expect_labels_match(scratch, ref, v, label);
          ++i;
        }
        // The last level, as a set: the filtered reference level (none
        // without a limit).
        std::vector<Vertex> last(order.begin() + static_cast<std::ptrdiff_t>(i),
                                 order.end());
        std::sort(last.begin(), last.end());
        std::vector<Vertex> want_last;
        for (Vertex v = 0; v < static_cast<Vertex>(n); ++v) {
          const std::size_t vi = static_cast<std::size_t>(v);
          if (v == pc.source || limit == kInfHops || ref.hops[vi] != limit) {
            continue;
          }
          if (filter[vi] == kInvalidEdge) {
            ASSERT_FALSE(scratch.reachable(v)) << label << " v=" << v;
            ++dropped;
          } else {
            want_last.push_back(v);
          }
        }
        kept += want_last.size();
        ASSERT_EQ(last, want_last) << label;
        for (const Vertex v : last) expect_labels_match(scratch, ref, v, label);

        const std::vector<BoundaryArc> want =
            brute_force_boundary(g, ref, bans, limit, filter);
        const auto got = scratch.boundary();
        ASSERT_EQ(got.size(), want.size()) << label;
        for (std::size_t k = 0; k < want.size(); ++k) {
          ASSERT_EQ(got[k], want[k]) << label << " k=" << k;
        }
      }
      // The filtered runs leave no frontier bit behind: unfiltered runs on
      // the same arena still match the reference, level order included.
      canonical_sp_run(g, w, pc.source, bans, scratch);
      expect_run_matches_reference(scratch, ref, kInfHops,
                                   pc.name() + " unfiltered");
      canonical_sp_run(g, w, pc.source, bans, scratch, 2);
      expect_run_matches_reference(scratch, ref, 2,
                                   pc.name() + " unfiltered limit=2");
    }
  }
  EXPECT_GT(kept, 0u);
  EXPECT_GT(dropped, 0u);
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
        EdgeWeights::uniform_random(fc.graph, kDefaultWeightSeed);
    const BfsTree tree(fc.graph, w, fc.source);
    for (const double eps : {0.25, 0.5}) {
      EpsilonOptions opts;
      opts.eps = eps;
      const EpsilonResult a =
          test::referee_epsilon(tree, opts, /*reference_kernel=*/true);
      const EpsilonResult b = detail::build_epsilon_ftbfs_impl(tree, opts);
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

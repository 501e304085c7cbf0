// fault_model_test.cpp — the unified S0 engine across fault models, on the
// seeded property harness (tests/property_test_util.hpp).
//
// Differential guarantees the refactor is held to:
//   * FaultReplacementEngine<EdgeFault> under the scratch kernels is
//     bit-identical — every pair field, every detour vertex, every table
//     row — to the reference-kernel pipeline (the pre-refactor engine's
//     independent realization) on every harness case;
//   * the same holds for FaultReplacementEngine<VertexFault>;
//   * rebase_punctured_tree is bit-identical to the full punctured
//     canonical rebuild on EVERY first-failure site, and the
//     restrict_terminals engine emits exactly the full engine's pairs for
//     the restricted terminals — the two legs the pruned dual pipeline
//     stands on;
//   * the PuncturedTree overlay answers every accessor the restricted
//     engines read exactly like the referee's full rebased BfsTree, on
//     every site, in T0 DFS order and in shuffled order, and a workspace
//     rebound to a new tree at a recycled address starts fresh;
//   * a full ReplacementTable answers every fault and every vertex like a
//     literal BFS of the punctured graph, and a table restricted to a
//     subtree slice agrees with it at every listed terminal;
//   * vertex-fault StructureOracle queries agree with literal BFS on
//     G \ {x} exhaustively at small n.
// Failing property cases print their one-command reproduction via
// FTB_PROPERTY_TRACE.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <type_traits>

#include "src/api/ftbfs_api.hpp"
#include "src/core/dist_sweep.hpp"
#include "src/core/dual_fault.hpp"
#include "src/core/ftbfs.hpp"
#include "src/core/structure_oracle.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "tests/property_test_util.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

template <class Model>
void expect_engines_bit_identical(const BfsTree& tree) {
  typename FaultReplacementEngine<Model>::Config ref_cfg;
  ref_cfg.reference_kernel = true;
  const FaultReplacementEngine<Model> ref(tree, ref_cfg);
  const FaultReplacementEngine<Model> opt(tree);

  const auto rr = ref.table().rows();
  const auto orows = opt.table().rows();
  ASSERT_TRUE(std::equal(rr.begin(), rr.end(), orows.begin(), orows.end()));
  const auto& rp = ref.uncovered_pairs();
  const auto& op = opt.uncovered_pairs();
  ASSERT_EQ(rp.size(), op.size());
  for (std::size_t i = 0; i < rp.size(); ++i) {
    ASSERT_EQ(rp[i].v, op[i].v) << i;
    ASSERT_EQ(Model::fault_of(rp[i]), Model::fault_of(op[i])) << i;
    ASSERT_EQ(Model::pos_of(rp[i]), Model::pos_of(op[i])) << i;
    ASSERT_EQ(rp[i].rep_dist, op[i].rep_dist) << i;
    ASSERT_EQ(rp[i].diverge, op[i].diverge) << i;
    ASSERT_EQ(rp[i].diverge_depth, op[i].diverge_depth) << i;
    ASSERT_EQ(rp[i].last_edge, op[i].last_edge) << i;
    ASSERT_EQ(rp[i].detour_len, op[i].detour_len) << i;
    const auto rd = ref.detour(rp[i]);
    const auto od = opt.detour(op[i]);
    ASSERT_TRUE(std::equal(rd.begin(), rd.end(), od.begin(), od.end())) << i;
  }
  const auto& rs = ref.stats();
  const auto& os = opt.stats();
  EXPECT_EQ(rs.pairs_total, os.pairs_total);
  EXPECT_EQ(rs.pairs_covered, os.pairs_covered);
  EXPECT_EQ(rs.pairs_uncovered, os.pairs_uncovered);
  EXPECT_EQ(rs.pairs_infinite, os.pairs_infinite);
  EXPECT_EQ(rs.detour_vertices, os.detour_vertices);
}

/// Every first-failure site of `base` (edge sites, then vertex sites) with
/// its affected subtree root.
struct PunctureSite {
  EdgeId fe = kInvalidEdge;
  Vertex fv = kInvalidVertex;
  Vertex top = kInvalidVertex;
};
std::vector<PunctureSite> puncture_sites(const BfsTree& base) {
  std::vector<PunctureSite> sites;
  for (const EdgeId e : base.tree_edges()) {
    sites.push_back({e, kInvalidVertex, base.lower_endpoint(e)});
  }
  for (const Vertex u : base.preorder()) {
    if (u != base.source() && base.subtree_size(u) > 1) {
      sites.push_back({kInvalidEdge, u, u});
    }
  }
  return sites;
}

/// Punctures every site of `base` on ONE workspace, in T0 DFS order and
/// then in a seeded shuffled order (so transitions between unrelated sites
/// are covered), and compares each overlay accessor the restricted engines
/// read with the referee's full rebased tree.
void expect_overlay_matches_referee(const BfsTree& base,
                                    std::uint64_t shuffle_seed) {
  const Graph& g = base.graph();
  std::vector<PunctureSite> sites = puncture_sites(base);
  std::stable_sort(sites.begin(), sites.end(),
                   [&](const PunctureSite& a, const PunctureSite& b) {
                     return base.tin(a.top) < base.tin(b.top);
                   });
  std::vector<PunctureSite> shuffled = sites;
  std::mt19937_64 rng(shuffle_seed);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  PuncturedWorkspace ws;
  ws.bind(base);
  for (const auto* order : {&sites, &shuffled}) {
    for (const PunctureSite& f : *order) {
      const PuncturedTree& tf = ws.puncture(f.fe, f.fv);
      const BfsTree full = rebase_punctured_tree(base, f.fe, f.fv);
      SCOPED_TRACE(::testing::Message() << "fe=" << f.fe << " fv=" << f.fv);
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(tf.reachable(v), full.reachable(v)) << "v=" << v;
        ASSERT_EQ(tf.depth(v), full.depth(v)) << "v=" << v;
        ASSERT_EQ(tf.parent(v), full.parent(v)) << "v=" << v;
        ASSERT_EQ(tf.parent_edge(v), full.parent_edge(v)) << "v=" << v;
      }
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        ASSERT_EQ(tf.is_tree_edge(e), full.is_tree_edge(e)) << "e=" << e;
        if (full.is_tree_edge(e)) {
          ASSERT_EQ(tf.lower_endpoint(e), full.lower_endpoint(e)) << "e=" << e;
          ASSERT_EQ(tf.edge_depth(e), full.edge_depth(e)) << "e=" << e;
        }
      }
      if (f.fe != kInvalidEdge) {
        ASSERT_FALSE(tf.is_tree_edge(f.fe));
      }

      // Terminals (A_f) and the engines' sweep sites: the terminals'
      // T_f ancestors-or-selves, the source excluded.
      std::set<Vertex> sweep_sites;
      for (const Vertex d : base.subtree(f.top)) {
        if (!full.reachable(d)) continue;
        const auto kids = tf.children(d);
        const auto want = full.children(d);
        ASSERT_TRUE(std::equal(kids.begin(), kids.end(), want.begin(),
                               want.end()))
            << "children of " << d;
        for (Vertex a = 0; a < g.num_vertices(); ++a) {
          if (!full.reachable(a)) continue;
          ASSERT_EQ(tf.is_ancestor_or_equal(a, d),
                    full.is_ancestor_or_equal(a, d))
              << "a=" << a << " d=" << d;
        }
        for (Vertex u = d; u != base.source(); u = full.parent(u)) {
          sweep_sites.insert(u);
        }
      }
      for (const Vertex u : sweep_sites) {
        const auto got = tf.subtree(u);
        const auto want = full.subtree(u);
        ASSERT_EQ(got.front(), u);
        ASSERT_EQ(std::multiset<Vertex>(got.begin(), got.end()),
                  std::multiset<Vertex>(want.begin(), want.end()))
            << "subtree of " << u;
        ASSERT_EQ(tf.subtree_size(u) > 1, full.subtree_size(u) > 1)
            << "subtree_size of " << u;
      }
    }
  }
}

/// The property sweep both parametrized suites draw from: the harness's
/// four families plus the structured classics of test_util (star, clique,
/// grid, …) folded in as extra cases so the engine keeps its old coverage.
std::vector<test::PropertyCase>& sweep_cases() {
  static std::vector<test::PropertyCase>* cases = [] {
    auto* out = new std::vector<test::PropertyCase>(
        test::property_cases(44, 2));
    for (auto& fc : test::small_families(test::property_base_seed())) {
      test::PropertyCase pc;
      pc.family = test::GraphFamily::kDenseRandom;  // tag only; name wins
      pc.n = fc.graph.num_vertices();
      pc.seed = test::property_base_seed();
      pc.base_seed = test::property_base_seed();
      pc.source = fc.source;
      pc.graph = std::move(fc.graph);
      pc.label = fc.name;
      out->push_back(std::move(pc));
    }
    return out;
  }();
  return *cases;
}

class FaultModelFamilyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultModelFamilyTest, EdgeEngineBitIdenticalToReference) {
  const test::PropertyCase& pc = sweep_cases()[GetParam()];
  FTB_PROPERTY_TRACE(pc, "fault_model_test");
  const EdgeWeights w = EdgeWeights::uniform_random(pc.graph, 42);
  const BfsTree tree(pc.graph, w, pc.source);
  expect_engines_bit_identical<EdgeFault>(tree);
}

TEST_P(FaultModelFamilyTest, VertexEngineBitIdenticalToReference) {
  const test::PropertyCase& pc = sweep_cases()[GetParam()];
  FTB_PROPERTY_TRACE(pc, "fault_model_test");
  const EdgeWeights w = EdgeWeights::uniform_random(pc.graph, 42);
  const BfsTree tree(pc.graph, w, pc.source);
  expect_engines_bit_identical<VertexFault>(tree);
}

TEST_P(FaultModelFamilyTest, EdgeTablesBitIdenticalAcrossKernels) {
  const test::PropertyCase& pc = sweep_cases()[GetParam()];
  FTB_PROPERTY_TRACE(pc, "fault_model_test");
  const EdgeWeights w = EdgeWeights::uniform_random(pc.graph, 43);
  const BfsTree tree(pc.graph, w, pc.source);
  ReplacementPathEngine::Config ref_cfg;
  ref_cfg.reference_kernel = true;
  const ReplacementPathEngine ref(tree, ref_cfg);
  const ReplacementPathEngine opt(tree);
  for (Vertex v = 0; v < pc.graph.num_vertices(); ++v) {
    if (!tree.reachable(v)) continue;
    for (const EdgeId e : tree.tree_edges()) {
      if (!tree.on_source_path(e, v)) continue;
      ASSERT_EQ(ref.replacement_dist(v, e), opt.replacement_dist(v, e))
          << "v=" << v << " e=" << e;
    }
  }
}

TEST_P(FaultModelFamilyTest, RebasedPuncturedTreeBitIdenticalToFullRebuild) {
  // The prefix-reuse leg: for EVERY first-failure site, the incremental
  // rebase must reproduce the full punctured canonical tree bit for bit —
  // labels, tree edges, preorder intervals, finalization order.
  const test::PropertyCase& pc = sweep_cases()[GetParam()];
  FTB_PROPERTY_TRACE(pc, "fault_model_test");
  const EdgeWeights w = EdgeWeights::uniform_random(pc.graph, 45);
  const BfsTree base(pc.graph, w, pc.source);

  const auto check_site = [&](EdgeId fe, Vertex fv) {
    BfsBans bans;
    bans.banned_edge = fe;
    bans.banned_vertex_one = fv;
    const BfsTree full(pc.graph, w, pc.source, bans);
    const BfsTree rebased = rebase_punctured_tree(base, fe, fv);
    ASSERT_EQ(rebased.tree_edges(), full.tree_edges())
        << "fe=" << fe << " fv=" << fv;
    ASSERT_EQ(rebased.sp().hops, full.sp().hops);
    ASSERT_EQ(rebased.sp().wsum, full.sp().wsum);
    ASSERT_EQ(rebased.sp().parent, full.sp().parent);
    ASSERT_EQ(rebased.sp().parent_edge, full.sp().parent_edge);
    ASSERT_EQ(rebased.sp().first_hop, full.sp().first_hop);
    ASSERT_EQ(rebased.sp().order, full.sp().order);
    for (Vertex v = 0; v < pc.graph.num_vertices(); ++v) {
      if (!full.reachable(v)) continue;
      ASSERT_EQ(rebased.tin(v), full.tin(v));
      ASSERT_EQ(rebased.tout(v), full.tout(v));
      ASSERT_EQ(rebased.subtree_size(v), full.subtree_size(v));
    }
  };
  // Every site on small trees; a deterministic stride on big ones keeps
  // the sweep O(40 full rebuilds) per case while still touching every
  // depth band.
  const auto& edges = base.tree_edges();
  const std::size_t estride = std::max<std::size_t>(1, edges.size() / 20);
  for (std::size_t i = 0; i < edges.size(); i += estride) {
    check_site(edges[i], kInvalidVertex);
  }
  std::vector<Vertex> vsites;
  for (const Vertex u : base.preorder()) {
    if (u != base.source() && base.subtree_size(u) > 1) vsites.push_back(u);
  }
  const std::size_t vstride = std::max<std::size_t>(1, vsites.size() / 20);
  for (std::size_t i = 0; i < vsites.size(); i += vstride) {
    check_site(kInvalidEdge, vsites[i]);
  }
}

TEST_P(FaultModelFamilyTest, RestrictedEngineMatchesFullEngineOnTerminals) {
  // The segment-pruning leg: an engine restricted to a subtree's terminals
  // must emit exactly the full engine's pairs for those terminals and
  // agree on every replacement distance it still answers for.
  const test::PropertyCase& pc = sweep_cases()[GetParam()];
  FTB_PROPERTY_TRACE(pc, "fault_model_test");
  const EdgeWeights w = EdgeWeights::uniform_random(pc.graph, 46);
  const BfsTree tree(pc.graph, w, pc.source);
  if (tree.tree_edges().empty()) return;
  // A representative site: the deepest tree edge's subtree plus the
  // root-child subtree (small and large restriction).
  std::vector<Vertex> tops;
  tops.push_back(tree.lower_endpoint(tree.tree_edges().back()));
  tops.push_back(tree.lower_endpoint(tree.tree_edges().front()));
  for (const Vertex top : tops) {
    const std::span<const Vertex> terminals = tree.subtree(top);
    const auto run = [&](auto model_tag) {
      using Model = decltype(model_tag);
      typename FaultReplacementEngine<Model>::Config full_cfg, rcfg;
      const FaultReplacementEngine<Model> full(tree, full_cfg);
      rcfg.restrict_terminals = terminals;
      const FaultReplacementEngine<Model> restricted(tree, rcfg);
      // Expected: the full engine's pairs whose terminal lies in the span.
      std::vector<typename Model::Pair> want;
      for (const auto& p : full.uncovered_pairs()) {
        if (tree.is_ancestor_or_equal(top, p.v)) want.push_back(p);
      }
      const auto& got = restricted.uncovered_pairs();
      ASSERT_EQ(got.size(), want.size()) << "top=" << top;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].v, want[i].v) << i;
        ASSERT_EQ(Model::fault_of(got[i]), Model::fault_of(want[i])) << i;
        ASSERT_EQ(got[i].rep_dist, want[i].rep_dist) << i;
        ASSERT_EQ(got[i].last_edge, want[i].last_edge) << i;
        ASSERT_EQ(got[i].diverge, want[i].diverge) << i;
        const auto fd = full.detour(want[i]);
        const auto rd = restricted.detour(got[i]);
        ASSERT_TRUE(std::equal(fd.begin(), fd.end(), rd.begin(), rd.end()))
            << i;
      }
    };
    run(EdgeFault{});
    run(VertexFault{});
  }
}

/// Every fault of `Model` in G, source excluded for vertex faults: the
/// failure universe a table answers for (tree sites and the faults off
/// every tree path alike).
template <class Model>
std::vector<typename Model::FaultId> all_faults(const BfsTree& tree) {
  std::vector<typename Model::FaultId> faults;
  if constexpr (std::is_same_v<Model, EdgeFault>) {
    for (EdgeId e = 0; e < tree.graph().num_edges(); ++e) faults.push_back(e);
  } else {
    for (Vertex x = 0; x < tree.graph().num_vertices(); ++x) {
      if (x != tree.source()) faults.push_back(x);
    }
  }
  return faults;
}

TEST_P(FaultModelFamilyTest, ReplacementTableMatchesBruteForce) {
  // A full table answers dist(s, v, G \ {f}) for every fault and every v
  // exactly like a literal BFS of the punctured graph.
  const test::PropertyCase& pc = sweep_cases()[GetParam()];
  FTB_PROPERTY_TRACE(pc, "fault_model_test");
  const EdgeWeights w = EdgeWeights::uniform_random(pc.graph, 48);
  const BfsTree tree(pc.graph, w, pc.source);
  const auto run = [&](auto model_tag) {
    using Model = decltype(model_tag);
    const ReplacementTable<Model> table(tree);
    EXPECT_EQ(table.pairs_total(),
              static_cast<std::int64_t>(table.rows().size()));
    for (const auto f : all_faults<Model>(tree)) {
      BfsBans bans;
      if constexpr (std::is_same_v<Model, EdgeFault>) {
        bans.banned_edge = f;
      } else {
        bans.banned_vertex_one = f;
      }
      const BfsResult bfs = plain_bfs_reference(pc.graph, pc.source, bans);
      for (Vertex v = 0; v < pc.graph.num_vertices(); ++v) {
        ASSERT_EQ(table.replacement_dist(v, f),
                  bfs.dist[static_cast<std::size_t>(v)])
            << to_string(Model::kClass) << " f=" << f << " v=" << v;
      }
    }
  };
  run(EdgeFault{});
  run(VertexFault{});
}

TEST_P(FaultModelFamilyTest, RestrictedTableMatchesFullTableOnTerminals) {
  // A table restricted to a BfsTree subtree slice answers every listed
  // terminal, under every fault, exactly like the full table.
  const test::PropertyCase& pc = sweep_cases()[GetParam()];
  FTB_PROPERTY_TRACE(pc, "fault_model_test");
  const EdgeWeights w = EdgeWeights::uniform_random(pc.graph, 49);
  const BfsTree tree(pc.graph, w, pc.source);
  const auto run = [&](auto model_tag) {
    using Model = decltype(model_tag);
    const ReplacementTable<Model> full(tree);
    const auto faults = all_faults<Model>(tree);
    // Every subtree slice on small trees, a deterministic stride on big
    // ones (each slice already checks |slice| · |faults| answers).
    const auto& pre = tree.preorder();
    const std::size_t stride = std::max<std::size_t>(1, pre.size() / 12);
    for (std::size_t i = 0; i < pre.size(); i += stride) {
      const Vertex top = pre[i];
      typename ReplacementTable<Model>::Config cfg;
      cfg.restrict_terminals = tree.subtree(top);
      const ReplacementTable<Model> restricted(tree, cfg);
      for (const Vertex v : cfg.restrict_terminals) {
        for (const auto f : faults) {
          ASSERT_EQ(restricted.replacement_dist(v, f),
                    full.replacement_dist(v, f))
              << to_string(Model::kClass) << " top=" << top << " v=" << v
              << " f=" << f;
        }
      }
    }
  };
  run(EdgeFault{});
  run(VertexFault{});
}

TEST_P(FaultModelFamilyTest, PuncturedOverlayMatchesRebasedTree) {
  // The overlay leg of the production dual build: on every site, every
  // accessor the restricted engines, the site-dist harvest and the per-site
  // body read of the punctured tree must agree with the referee's full
  // rebased BfsTree.
  const test::PropertyCase& pc = sweep_cases()[GetParam()];
  FTB_PROPERTY_TRACE(pc, "fault_model_test");
  const EdgeWeights w = EdgeWeights::uniform_random(pc.graph, 47);
  const BfsTree base(pc.graph, w, pc.source);
  expect_overlay_matches_referee(base, pc.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Families, FaultModelFamilyTest,
    ::testing::Range<std::size_t>(0, sweep_cases().size()),
    [](const auto& pinfo) { return sweep_cases()[pinfo.param].name(); });

// ---- punctured-tree overlay ----------------------------------------------

TEST(PuncturedWorkspace, OverlayMatchesRebasedTreeOnRmat) {
  // Skewed degrees: many forest roots per site, exits spread over many
  // top-level subtrees — the outer-block splice under load.
  const Graph g = gen::rmat_connected(7, 3 * 128, 5);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 1);
  const BfsTree base(g, w, 0);
  expect_overlay_matches_referee(base, 0x5EED);
}

TEST(PuncturedWorkspace, RebindToRecycledAddressIsFresh) {
  // A workspace must never trust a tree's address: a different tree built
  // in the same storage (pooled workspaces outlive the trees they served)
  // must get punctures of ITS labels everywhere, not the old tree's.
  const Graph g = gen::rmat_connected(8, 3 * 256, 1);
  const EdgeWeights w1 = EdgeWeights::uniform_random(g, 1);
  const EdgeWeights w99 = EdgeWeights::uniform_random(g, 99);
  std::optional<BfsTree> slot;
  slot.emplace(g, w1, 0);
  PuncturedWorkspace ws;
  ws.bind(*slot);
  (void)ws.puncture(slot->tree_edges().front(), kInvalidVertex);

  const BfsTree* const first_address = &*slot;
  slot.reset();
  slot.emplace(g, w99, 0);
  ASSERT_EQ(&*slot, first_address);
  ws.bind(*slot);
  std::int64_t differing = 0;
  for (const EdgeId e : slot->tree_edges()) {
    const PuncturedTree& tf = ws.puncture(e, kInvalidVertex);
    const BfsTree want = rebase_punctured_tree(*slot, e, kInvalidVertex);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      differing += tf.depth(v) != want.depth(v) ||
                   tf.parent(v) != want.parent(v) ||
                   tf.parent_edge(v) != want.parent_edge(v);
    }
  }
  EXPECT_EQ(differing, 0);
}

// ---- vertex-fault serving stack ------------------------------------------

TEST(VertexStructureOracleTest, MatchesLiteralBfsExhaustively) {
  for (const auto& fc : test::property_cases(18, 1)) {
    FTB_PROPERTY_TRACE(fc, "fault_model_test");
    const VertexFtBfsOptions opts;  // default weight seed
    const EdgeWeights w =
        EdgeWeights::uniform_random(fc.graph, opts.weight_seed);
    const BfsTree tree(fc.graph, w, fc.source);
    const FtBfsStructure h = detail::build_vertex_ftbfs_impl(tree, opts);
    ASSERT_EQ(h.fault_class(), FaultClass::kVertex);
    const VertexReplacementEngine engine(tree);
    const VertexStructureOracle oracle(h, engine);
    const std::size_t n = static_cast<std::size_t>(fc.graph.num_vertices());
    for (Vertex x = 0; x < fc.graph.num_vertices(); ++x) {
      if (x == fc.source) continue;
      // Literal BFS in H \ {x} — the deployed artifact, not G.
      std::vector<std::uint8_t> banned(n, 0);
      banned[static_cast<std::size_t>(x)] = 1;
      BfsBans bans;
      bans.banned_vertex = &banned;
      bans.banned_edge_mask = &h.complement_mask();
      const BfsResult brute = plain_bfs(fc.graph, fc.source, bans);
      for (Vertex v = 0; v < fc.graph.num_vertices(); ++v) {
        if (v == x) continue;
        ASSERT_EQ(oracle.query(v, x),
                  brute.dist[static_cast<std::size_t>(v)])
            << " v=" << v << " x=" << x;
        ASSERT_EQ(oracle.query_unchecked(v, x), oracle.query(v, x));
      }
    }
  }
}

TEST(VertexStructureOracleTest, SourceFailureRefused) {
  const Graph g = gen::cycle_graph(8);
  const VertexFtBfsOptions opts;
  const EdgeWeights w = EdgeWeights::uniform_random(g, opts.weight_seed);
  const BfsTree tree(g, w, 0);
  const FtBfsStructure h = detail::build_vertex_ftbfs_impl(tree, opts);
  const VertexReplacementEngine engine(tree);
  const VertexStructureOracle oracle(h, engine);
  EXPECT_THROW(oracle.query(3, 0), CheckError);
}

TEST(VertexOracleTest, PathQueriesAreValidReplacementPaths) {
  for (const auto& fc : test::property_cases(20, 1)) {
    FTB_PROPERTY_TRACE(fc, "fault_model_test");
    const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 44);
    const BfsTree tree(fc.graph, w, fc.source);
    const VertexReplacementEngine engine(tree);  // detours collected
    const VertexReplacementOracle oracle(engine);
    for (const VertexFaultPair& p : engine.uncovered_pairs()) {
      const std::vector<Vertex> path = oracle.path(p.v, p.x);
      ASSERT_EQ(path.front(), fc.source);
      ASSERT_EQ(path.back(), p.v);
      ASSERT_EQ(static_cast<std::int32_t>(path.size()) - 1, p.rep_dist);
      for (std::size_t i = 0; i < path.size(); ++i) {
        ASSERT_NE(path[i], p.x) << "path re-touches the failed vertex";
        if (i + 1 < path.size()) {
          ASSERT_NE(fc.graph.find_edge(path[i], path[i + 1]), kInvalidEdge);
        }
      }
      const EdgeId last =
          fc.graph.find_edge(path[path.size() - 2], path.back());
      ASSERT_EQ(last, p.last_edge);
    }
  }
}

TEST(VertexEngineTest, CoveredTestMatchesLiteralGPrime) {
  for (const auto& fc : test::property_cases(20, 1)) {
    FTB_PROPERTY_TRACE(fc, "fault_model_test");
    const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 45);
    const BfsTree tree(fc.graph, w, fc.source);
    const VertexReplacementEngine engine(tree);
    const std::size_t n = static_cast<std::size_t>(fc.graph.num_vertices());
    for (Vertex v = 0; v < fc.graph.num_vertices(); ++v) {
      if (!tree.reachable(v) || tree.depth(v) < 2) continue;
      // Literal G'(v): ban v's non-tree incident edges.
      std::vector<std::uint8_t> mask(
          static_cast<std::size_t>(fc.graph.num_edges()), 0);
      for (const Arc& a : fc.graph.neighbors(v)) {
        const bool tree_incident =
            a.edge == tree.parent_edge(v) ||
            (tree.is_tree_edge(a.edge) && tree.lower_endpoint(a.edge) == a.to);
        if (!tree_incident) mask[static_cast<std::size_t>(a.edge)] = 1;
      }
      const std::vector<Vertex> path = tree.path_from_source(v);
      for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        const Vertex x = path[i];
        const std::int32_t rd = engine.replacement_dist(v, x);
        if (rd >= kInfHops) continue;
        std::vector<std::uint8_t> banned(n, 0);
        banned[static_cast<std::size_t>(x)] = 1;
        BfsBans bans;
        bans.banned_edge_mask = &mask;
        bans.banned_vertex = &banned;
        const BfsResult gp = plain_bfs(fc.graph, fc.source, bans);
        const bool covered_brute =
            gp.dist[static_cast<std::size_t>(v)] == rd;
        ASSERT_EQ(engine.covered(v, x), covered_brute)
            << " v=" << v << " x=" << x;
      }
    }
  }
}

TEST(FaultClassTest, TagsAndParsingRoundTrip) {
  for (const FaultClass fc :
       {FaultClass::kEdge, FaultClass::kVertex, FaultClass::kEither,
        FaultClass::kDual}) {
    EXPECT_EQ(parse_fault_class(to_string(fc)), fc);
  }
  EXPECT_THROW(parse_fault_class("meteor"), CheckError);

  const Graph g = gen::gnm(24, 80, 9);
  // Each model's build is tagged with its model; the pre-dual "dual"
  // union is the single-failure either model.
  for (const FaultClass model : {FaultClass::kEdge, FaultClass::kVertex,
                                 FaultClass::kEither, FaultClass::kDual}) {
    EXPECT_EQ(api::build(g, {.fault_model = model}).structure.fault_class(),
              model);
  }
}

}  // namespace
}  // namespace ftb

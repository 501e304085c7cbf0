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
//   * vertex-fault replacement tables agree with literal BFS on H \ {x}
//     exhaustively at small n, and a vertex Session refuses the source;
//   * on an R-MAT hub, where the engines read u_0's candidates from the
//     source-arc index and the rest off the capped traversal's boundary,
//     both models (full, and restricted on punctured overlays) still match
//     the reference, and every sampled pair's divergence point and detour
//     pass an independent canonical-SP referee of the ESA'13 rule;
//   * a detour leaving s for the capped ball's unexpanded last level, a
//     dual site whose ambient edge is a source arc and one whose ambient
//     vertex borders a terminal come out as the reference has them.
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
  // The reference enumeration is the adjacency scan, always.
  EXPECT_EQ(rs.detour_traversal_arcs, 0);
  EXPECT_EQ(rs.detour_boundary_arcs, 0);
  EXPECT_EQ(rs.detour_source_probes, 0);
}

/// Asserts that `restricted` emitted exactly `want`, the pairs of `full`
/// whose terminal it serves, in order: every field and detour vertex.
template <class Model, class Restricted, class Full>
void expect_same_pairs(const Restricted& restricted, const Full& full,
                       const std::vector<typename Model::Pair>& want) {
  const auto& got = restricted.uncovered_pairs();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].v, want[i].v) << i;
    ASSERT_EQ(Model::fault_of(got[i]), Model::fault_of(want[i])) << i;
    ASSERT_EQ(got[i].rep_dist, want[i].rep_dist) << i;
    ASSERT_EQ(got[i].diverge, want[i].diverge) << i;
    ASSERT_EQ(got[i].diverge_depth, want[i].diverge_depth) << i;
    ASSERT_EQ(got[i].last_edge, want[i].last_edge) << i;
    ASSERT_EQ(got[i].detour_len, want[i].detour_len) << i;
    const auto fd = full.detour(want[i]);
    const auto rd = restricted.detour(got[i]);
    ASSERT_TRUE(std::equal(fd.begin(), fd.end(), rd.begin(), rd.end())) << i;
  }
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
  const std::vector<EdgeId> source_arcs =
      source_arc_index(pc.graph, pc.source);
  for (const Vertex top : tops) {
    const std::span<const Vertex> terminals = tree.subtree(top);
    const auto run = [&](auto model_tag) {
      using Model = decltype(model_tag);
      typename FaultReplacementEngine<Model>::Config full_cfg, rcfg;
      const FaultReplacementEngine<Model> full(tree, full_cfg);
      rcfg.restrict_terminals = terminals;
      rcfg.source_arcs = source_arcs;
      const FaultReplacementEngine<Model> restricted(tree, rcfg);
      // Expected: the full engine's pairs whose terminal lies in the span.
      std::vector<typename Model::Pair> want;
      for (const auto& p : full.uncovered_pairs()) {
        if (tree.is_ancestor_or_equal(top, p.v)) want.push_back(p);
      }
      SCOPED_TRACE(::testing::Message() << "top=" << top);
      expect_same_pairs<Model>(restricted, full, want);
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

// ---- hub path vertices -----------------------------------------------------

/// R-MAT at scale 10: vertex 0 is a hub whose degree dwarfs the capped
/// off-path balls, so every tree path from source 0 starts at a vertex
/// whose candidates come from the source-arc index, not its adjacency.
Graph hub_graph() { return gen::rmat_connected(10, 8 << 10, 3); }

/// The minimum-degree vertex (smallest id among ties): a source whose
/// paths reach the hub only past the first hop.
Vertex low_degree_vertex(const Graph& g) {
  Vertex best = 0;
  for (Vertex v = 1; v < g.num_vertices(); ++v) {
    if (g.degree(v) < g.degree(best)) best = v;
  }
  return best;
}

/// Weights in {1, 2}: full (hops, wsum, entry, last_edge) ties between
/// divergence candidates are common.
EdgeWeights tie_heavy_weights(const Graph& g, std::uint64_t seed) {
  EdgeWeights w = EdgeWeights::uniform_random(g, seed);
  for (std::uint64_t& x : w.w) x = 1 + (x & 1);
  return w;
}

/// Independent referee of the divergence rule (Parter–Peleg, ESA'13) on a
/// sample of `engine`'s pairs: with H_j = G minus the path vertices other
/// than u_j and v, minus v's tree parent edge and the ambient failure, a
/// two-pass canonical_sp from u_j must miss rd − j for every j < j*, and
/// from u_{j*} must reach v in exactly the stored detour's hops and weight
/// (and along the stored detour itself when weights are distinct).
template <class Engine>
void expect_canonical_detours(const Engine& engine, bool distinct_weights,
                              EdgeId ambient_edge = kInvalidEdge,
                              Vertex ambient_vertex = kInvalidVertex) {
  const BfsTree& tree = engine.tree();
  const Graph& g = tree.graph();
  const EdgeWeights& w = tree.weights();
  const auto& pairs = engine.uncovered_pairs();
  const std::size_t stride = std::max<std::size_t>(1, pairs.size() / 150);
  std::vector<std::uint8_t> banned(static_cast<std::size_t>(g.num_vertices()),
                                   0);
  for (std::size_t pi = 0; pi < pairs.size(); pi += stride) {
    const auto& p = pairs[pi];
    const std::vector<Vertex> path = tree.path_from_source(p.v);
    // u_0 .. u_{k-1}; v = u_k stays admissible.
    const auto mark_path = [&](std::uint8_t bit) {
      for (std::size_t j = 0; j + 1 < path.size(); ++j) {
        banned[static_cast<std::size_t>(path[j])] = bit;
      }
    };
    mark_path(1);
    for (std::int32_t j = 0; j <= p.diverge_depth; ++j) {
      const Vertex uj = path[static_cast<std::size_t>(j)];
      banned[static_cast<std::size_t>(uj)] = 0;
      BfsBans bans;
      bans.banned_vertex = &banned;
      bans.banned_edge = tree.parent_edge(p.v);
      bans.banned_edge2 = ambient_edge;
      bans.banned_vertex_one = ambient_vertex;
      const CanonicalSp sp = canonical_sp(g, w, uj, bans);
      banned[static_cast<std::size_t>(uj)] = 1;
      const std::int32_t h = sp.hops[static_cast<std::size_t>(p.v)];
      if (j < p.diverge_depth) {
        ASSERT_TRUE(h >= kInfHops || j + h > p.rep_dist)
            << "v=" << p.v << " rd=" << p.rep_dist << " j=" << j;
        continue;
      }
      ASSERT_EQ(h, p.detour_len) << "v=" << p.v << " j*=" << j;
      const auto det = engine.detour(p);
      std::uint64_t wsum = 0;
      for (std::size_t t = 0; t + 1 < det.size(); ++t) {
        wsum += w[g.find_edge(det[t], det[t + 1])];
      }
      ASSERT_EQ(sp.wsum[static_cast<std::size_t>(p.v)], wsum)
          << "v=" << p.v << " j*=" << j;
      if (distinct_weights) {
        const std::vector<Vertex> want = sp.path_from_source(p.v);
        ASSERT_TRUE(std::equal(want.begin(), want.end(), det.begin(),
                               det.end()))
            << "v=" << p.v << " j*=" << j;
      }
    }
    mark_path(0);
  }
}

TEST(FaultModelHubTest, BoundaryCandidatesMatchReferenceOnRmatHub) {
  const Graph g = hub_graph();
  const Vertex low = low_degree_vertex(g);
  for (const bool ties : {false, true}) {
    const EdgeWeights w = ties ? tie_heavy_weights(g, 42)
                               : EdgeWeights::uniform_random(g, 42);
    for (const Vertex source : {Vertex{0}, low}) {
      SCOPED_TRACE(::testing::Message()
                   << "source=" << source << " tie_heavy=" << ties);
      const BfsTree tree(g, w, source);
      const auto run = [&](auto model_tag) {
        using Model = decltype(model_tag);
        expect_engines_bit_identical<Model>(tree);
        const FaultReplacementEngine<Model> opt(tree);
        expect_canonical_detours(opt, !ties);
        // Production reads u_1.. off the traversals' boundary and u_0 from
        // the source-arc index (the reference engine does neither; see
        // expect_engines_bit_identical).
        EXPECT_GT(opt.stats().detour_traversal_arcs, 0);
        EXPECT_GT(opt.stats().detour_boundary_arcs, 0);
        EXPECT_GT(opt.stats().detour_source_probes, 0);
      };
      run(EdgeFault{});
      run(VertexFault{});
    }
  }
}

/// Asserts that `restricted`, a production engine built on the overlay
/// `tf` with `cfg`, emits exactly the pairs of a reference-kernel engine
/// built with the same config.
template <class Model>
void expect_matches_reference(
    const FaultReplacementEngine<Model, PuncturedTree>& restricted,
    const PuncturedTree& tf,
    typename FaultReplacementEngine<Model, PuncturedTree>::Config cfg) {
  cfg.reference_kernel = true;
  const FaultReplacementEngine<Model, PuncturedTree> ref(tf, cfg);
  expect_same_pairs<Model>(restricted, ref, ref.uncovered_pairs());
}

TEST(FaultModelHubTest, RestrictedPuncturedEnginesMatchFullEngineOnRmatHub) {
  // The dual build's leg: restricted engines on punctured overlays of the
  // hub tree, against full engines on the referee's rebased trees and
  // against restricted reference-kernel engines on the same overlays.
  const Graph g = hub_graph();
  const std::vector<EdgeId> source_arcs = source_arc_index(g, 0);
  for (const bool ties : {false, true}) {
    const EdgeWeights w = ties ? tie_heavy_weights(g, 7)
                               : EdgeWeights::uniform_random(g, 7);
    const BfsTree base(g, w, 0);
    const std::vector<PunctureSite> sites = puncture_sites(base);
    const std::size_t stride = std::max<std::size_t>(1, sites.size() / 24);
    PuncturedWorkspace ws;
    ws.bind(base);
    std::int64_t restricted_boundary = 0;
    for (std::size_t si = 0; si < sites.size(); si += stride) {
      const PunctureSite& f = sites[si];
      SCOPED_TRACE(::testing::Message() << "fe=" << f.fe << " fv=" << f.fv
                                        << " tie_heavy=" << ties);
      const PuncturedTree& tf = ws.puncture(f.fe, f.fv);
      const BfsTree full_tree = rebase_punctured_tree(base, f.fe, f.fv);
      const auto run = [&](auto model_tag) {
        using Model = decltype(model_tag);
        typename FaultReplacementEngine<Model>::Config full_cfg;
        full_cfg.ambient_banned_edge = f.fe;
        full_cfg.ambient_banned_vertex = f.fv;
        const FaultReplacementEngine<Model> full(full_tree, full_cfg);
        if (si % (4 * stride) == 0) {
          expect_canonical_detours(full, !ties, f.fe, f.fv);
        }
        typename FaultReplacementEngine<Model, PuncturedTree>::Config rcfg;
        rcfg.ambient_banned_edge = f.fe;
        rcfg.ambient_banned_vertex = f.fv;
        rcfg.restrict_terminals = base.subtree(f.top);
        rcfg.source_arcs = source_arcs;
        const FaultReplacementEngine<Model, PuncturedTree> restricted(tf,
                                                                      rcfg);
        restricted_boundary += restricted.stats().detour_boundary_arcs;
        std::vector<typename Model::Pair> want;
        for (const auto& p : full.uncovered_pairs()) {
          if (base.is_ancestor_or_equal(f.top, p.v)) want.push_back(p);
        }
        expect_same_pairs<Model>(restricted, full, want);
        expect_matches_reference<Model>(restricted, tf, rcfg);
      };
      run(EdgeFault{});
      run(VertexFault{});
    }
    EXPECT_GT(restricted_boundary, 0);
  }
}

TEST(FaultModelHubTest, RestrictedEngineNeedsSourceArcIndex) {
  // A restricted engine never fills an O(n) index of its own.
  const Graph g = hub_graph();
  const BfsTree tree(g, EdgeWeights::uniform_random(g, 3), 0);
  ReplacementPathEngine::Config cfg;
  cfg.restrict_terminals = tree.subtree(tree.preorder()[1]);
  EXPECT_THROW(ReplacementPathEngine(tree, cfg), CheckError);
  const std::vector<EdgeId> short_index(8, kInvalidEdge);
  cfg.source_arcs = short_index;
  EXPECT_THROW(ReplacementPathEngine(tree, cfg), CheckError);
}

// ---- candidates the boundary alone would get wrong -----------------------

/// Equal weights: canonical ties fall to the smaller parent id.
EdgeWeights unit_weights(const Graph& g) {
  EdgeWeights w;
  w.w.assign(static_cast<std::size_t>(g.num_edges()), 1);
  return w;
}

Graph graph_of(Vertex n, std::initializer_list<std::pair<Vertex, Vertex>> es) {
  GraphBuilder b(n);
  for (const auto& [u, x] : es) b.add_edge(u, x);
  return b.build();
}

TEST(DetourCandidateTest, SourceEdgeIntoLastLevelIsTheOnlyDetour) {
  // The 7-cycle 0-1-2-3-6-5-4-0 from source 0: π(0, 3) = 0-1-2-3, and
  // every failure on it leaves one replacement path, 0-4-5-6-3. It
  // diverges at s by the edge (0, 4), off π(0, 3), and 4 sits at hops 3
  // from 3 in the off-path graph: the last level of the traversal capped
  // at max_rd − 1 = 3, which is never expanded, so no boundary arc
  // reaches s from it. Only the source-arc index offers that candidate.
  const Graph g = graph_of(
      7, {{0, 1}, {1, 2}, {2, 3}, {3, 6}, {6, 5}, {5, 4}, {4, 0}});
  const EdgeWeights w = unit_weights(g);
  const BfsTree tree(g, w, 0);
  ASSERT_EQ(tree.path_from_source(3), (std::vector<Vertex>{0, 1, 2, 3}));

  std::vector<std::uint8_t> banned(7, 0);
  banned[0] = banned[1] = banned[2] = 1;
  BfsBans bans;
  bans.banned_vertex = &banned;
  CanonicalSpScratch sp;
  canonical_sp_run(g, w, 3, bans, sp, 3);
  ASSERT_EQ(sp.hops(4), 3);
  for (const BoundaryArc& b : sp.boundary()) EXPECT_NE(b.reached, 4);

  const std::vector<Vertex> want_detour{0, 4, 5, 6, 3};
  const auto run = [&](auto model_tag) {
    using Model = decltype(model_tag);
    expect_engines_bit_identical<Model>(tree);
    const FaultReplacementEngine<Model> engine(tree);
    const auto ids = engine.uncovered_of(3);
    ASSERT_EQ(ids.size(), Model::kClass == FaultClass::kEdge ? 3u : 2u);
    for (const std::int32_t id : ids) {
      const auto& p = engine.uncovered_pairs()[static_cast<std::size_t>(id)];
      EXPECT_EQ(p.rep_dist, 4);
      EXPECT_EQ(p.diverge, 0);
      EXPECT_EQ(p.diverge_depth, 0);
      EXPECT_EQ(p.last_edge, g.find_edge(6, 3));
      const auto det = engine.detour(p);
      EXPECT_TRUE(std::equal(det.begin(), det.end(), want_detour.begin(),
                             want_detour.end()));
    }
  };
  run(EdgeFault{});
  run(VertexFault{});
}

TEST(DetourCandidateTest, RestrictedEngineSkipsAmbientSourceArc) {
  // The dual build's site at the tree edge (0, 1), a source arc: the
  // source-arc index still lists it, and the engine must not offer it.
  // T0 from 0 (equal weights): 1, 2, 5 | 3, 4 (under 1), 6 | 7. Without
  // (0, 1), T_f reaches 4 by 0-5-6-4 and 1 below 4, so for terminal 4
  // vertex 1 is a ball vertex at hops 1. Every failure on π_f(0, 4) has
  // the one replacement path 0-2-3-7-4; the ambient arc would offer u_0
  // a 2-hop candidate through 1 that no position consumes.
  const Graph g = graph_of(8, {{0, 1}, {1, 4}, {0, 2}, {2, 3}, {3, 7},
                               {7, 4}, {0, 5}, {5, 6}, {6, 4}});
  const EdgeWeights w = unit_weights(g);
  const BfsTree base(g, w, 0);
  const EdgeId fe = g.find_edge(0, 1);
  ASSERT_TRUE(base.is_tree_edge(fe));
  ASSERT_EQ(base.lower_endpoint(fe), 1);
  const std::vector<EdgeId> source_arcs = source_arc_index(g, 0);
  ASSERT_EQ(source_arcs[1], fe);

  PuncturedWorkspace ws;
  ws.bind(base);
  const PuncturedTree& tf = ws.puncture(fe, kInvalidVertex);
  ASSERT_EQ(tf.path_from_source(4), (std::vector<Vertex>{0, 5, 6, 4}));
  ASSERT_EQ(tf.parent(1), 4);

  const std::vector<Vertex> want_detour{0, 2, 3, 7, 4};
  const auto run = [&](auto model_tag) {
    using Model = decltype(model_tag);
    typename FaultReplacementEngine<Model, PuncturedTree>::Config cfg;
    cfg.ambient_banned_edge = fe;
    cfg.restrict_terminals = base.subtree(1);
    cfg.source_arcs = source_arcs;
    const FaultReplacementEngine<Model, PuncturedTree> engine(tf, cfg);
    expect_matches_reference<Model>(engine, tf, cfg);
    std::size_t at_4 = 0;
    for (const auto& p : engine.uncovered_pairs()) {
      if (p.v != 4) continue;
      ++at_4;
      EXPECT_EQ(p.rep_dist, 4);
      EXPECT_EQ(p.diverge_depth, 0);
      const auto det = engine.detour(p);
      EXPECT_TRUE(std::equal(det.begin(), det.end(), want_detour.begin(),
                             want_detour.end()));
    }
    EXPECT_EQ(at_4, Model::kClass == FaultClass::kEdge ? 3u : 2u);
  };
  run(EdgeFault{});
  run(VertexFault{});
}

TEST(DetourCandidateTest, RestrictedEngineSkipsAmbientVertex) {
  // The dual build's site at vertex 1. T0 from 0 (equal weights) has
  // π(0, 2) = 0-1-2; without 1, T_f has π_f(0, 2) = 0-5-6-2, and every
  // finite failure on it leaves the one replacement path 0-5-3-4-2,
  // diverging at u_1 = 5. The traversal from 2 drops the arc (2, 1) into
  // the ambient vertex; read as a candidate of a path vertex it would
  // offer a 1-hop detour that masks the real one.
  const Graph g = graph_of(
      7, {{0, 1}, {1, 2}, {0, 5}, {5, 6}, {6, 2}, {5, 3}, {3, 4}, {4, 2}});
  const EdgeWeights w = unit_weights(g);
  const BfsTree base(g, w, 0);
  ASSERT_EQ(base.path_from_source(2), (std::vector<Vertex>{0, 1, 2}));
  const std::vector<EdgeId> source_arcs = source_arc_index(g, 0);

  PuncturedWorkspace ws;
  ws.bind(base);
  const PuncturedTree& tf = ws.puncture(kInvalidEdge, 1);
  ASSERT_EQ(tf.path_from_source(2), (std::vector<Vertex>{0, 5, 6, 2}));

  const std::vector<Vertex> want_detour{5, 3, 4, 2};
  const auto run = [&](auto model_tag) {
    using Model = decltype(model_tag);
    typename FaultReplacementEngine<Model, PuncturedTree>::Config cfg;
    cfg.ambient_banned_vertex = 1;
    cfg.restrict_terminals = base.subtree(1);
    cfg.source_arcs = source_arcs;
    const FaultReplacementEngine<Model, PuncturedTree> engine(tf, cfg);
    expect_matches_reference<Model>(engine, tf, cfg);
    std::size_t at_2 = 0;
    for (const auto& p : engine.uncovered_pairs()) {
      if (p.v != 2) continue;
      ++at_2;
      EXPECT_EQ(p.rep_dist, 4);
      EXPECT_EQ(p.diverge_depth, 1);
      const auto det = engine.detour(p);
      EXPECT_TRUE(std::equal(det.begin(), det.end(), want_detour.begin(),
                             want_detour.end()));
    }
    EXPECT_EQ(at_2, Model::kClass == FaultClass::kEdge ? 2u : 1u);
  };
  run(EdgeFault{});
  run(VertexFault{});
}

// ---- vertex-fault serving stack ------------------------------------------

TEST(VertexServingTest, MatchesLiteralBfsExhaustively) {
  // The FT-BFS contract the serving plane reads: the vertex engine's O(1)
  // table on G equals a literal BFS in the deployed H \ {x}.
  for (const auto& fc : test::property_cases(18, 1)) {
    FTB_PROPERTY_TRACE(fc, "fault_model_test");
    const EdgeWeights w =
        EdgeWeights::uniform_random(fc.graph, kDefaultWeightSeed);
    const BfsTree tree(fc.graph, w, fc.source);
    const FtBfsStructure h = detail::build_vertex_ftbfs_impl(tree, nullptr);
    ASSERT_EQ(h.fault_class(), FaultClass::kVertex);
    const VertexReplacementEngine engine(tree);
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
        ASSERT_EQ(engine.replacement_dist(v, x),
                  brute.dist[static_cast<std::size_t>(v)])
            << " v=" << v << " x=" << x;
      }
    }
  }
}

TEST(VertexServingTest, SourceFailureRefused) {
  // The source never fails under any model: refused, even as a what-if.
  const Graph g = gen::cycle_graph(8);
  const api::Session session =
      api::Session::open(g, {.fault_model = FaultClass::kVertex});
  api::Query q;
  q.v = 3;
  q.kind = FaultClass::kVertex;
  q.fault = 0;
  q.allow_what_if = true;
  EXPECT_EQ(session.query_one(q).outcome, api::QueryOutcome::kRefused);
}

TEST(VertexEngineTest, PathQueriesAreValidReplacementPaths) {
  for (const auto& fc : test::property_cases(20, 1)) {
    FTB_PROPERTY_TRACE(fc, "fault_model_test");
    const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 44);
    const BfsTree tree(fc.graph, w, fc.source);
    const VertexReplacementEngine engine(tree);  // detours collected
    for (const VertexFaultPair& p : engine.uncovered_pairs()) {
      const std::vector<Vertex> path = engine.replacement_path(p.v, p.x);
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

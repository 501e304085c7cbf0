// dual_fault_test.cpp — the dual-failure differential suite, on the seeded
// property harness (tests/property_test_util.hpp).
//
// Every answer the dual pipeline can serve — structure BFS, oracle fast
// paths, batched Session queries, reloaded v4 artifacts — is pinned
// bit-identical against brute-force two-failure BFS AND against the
// unpruned referee (tests/referee.hpp) on the harness's four
// graph families (dense random, sparse random, long path, grid: the
// adversarial shapes differ in where replacement paths can run):
// exhaustive pairs at small n, seeded property sampling at larger n. A
// failing case prints its one-command reproduction via FTB_PROPERTY_TRACE.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/api/ftbfs_api.hpp"
#include "src/core/dual_fault.hpp"
#include "src/core/replacement.hpp"
#include "src/core/verifier.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/graph/generators.hpp"
#include "src/io/structure_io.hpp"
#include "src/sim/failure_sim.hpp"
#include "tests/property_test_util.hpp"
#include "tests/referee.hpp"

namespace ftb {
namespace {

TEST(DualFault, PrunedStructureMatchesBruteForceOnEveryPair) {
  for (const auto& pc : test::property_cases(28, 2)) {
    FTB_PROPERTY_TRACE(pc, "dual_fault_test");
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.sources = {pc.source};
    const api::BuildResult res = api::build(pc.graph, spec);
    EXPECT_EQ(res.structure.fault_class(), FaultClass::kDual);
    EXPECT_EQ(res.structure.num_reinforced(), 0);
    ASSERT_EQ(res.dual_tables.size(), 1u);
    // Exhaustive: every unordered failure pair, every vertex.
    EXPECT_EQ(verify_structure(res.structure).violations, 0);
  }
}

TEST(DualFault, PrunedIsSubsetOfUnprunedRefereeAndServesIdentically) {
  for (const auto& pc : test::property_cases(36, 2)) {
    FTB_PROPERTY_TRACE(pc, "dual_fault_test");
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.sources = {pc.source};
    const api::BuildResult pruned = api::build(pc.graph, spec);
    const api::BuildResult referee =
        test::referee_build(pc.graph, spec, {.unpruned = true});

    // Containment: the pruned H drops edges of the PR 4 recursion, never
    // adds any — and per-site subsets shrink the same way.
    const auto& pe = pruned.structure.edges();
    const auto& ue = referee.structure.edges();
    EXPECT_TRUE(std::includes(ue.begin(), ue.end(), pe.begin(), pe.end()));
    EXPECT_LE(pruned.structure.num_edges(), referee.structure.num_edges());
    const DualSiteTable& pt = pruned.dual_tables.front();
    const DualSiteTable& ut = referee.dual_tables.front();
    ASSERT_EQ(pt.sites.size(), ut.sites.size());
    EXPECT_LE(pt.edge_pool.size(), ut.edge_pool.size());

    // Differential serving: both sessions answer a seeded pair batch
    // bit-identically (and the structure sweep referees both below).
    const api::Session a = api::Session::deploy(pc.graph, pruned);
    const api::Session b = api::Session::deploy(pc.graph, referee);
    test::FaultSampler sampler(pc.graph, pc.source, pc.seed ^ 0xFA17);
    std::vector<api::Query> batch;
    for (const auto& [x, y] : sampler.sample_pairs(60)) {
      for (Vertex v = 0; v < pc.graph.num_vertices(); v += 2) {
        api::Query q;
        q.v = v;
        q.kind = x.kind;
        q.fault = x.id;
        q.kind2 = y.kind;
        q.fault2 = y.id;
        batch.push_back(q);
      }
    }
    const api::QueryResponse ra = a.query(batch);
    const api::QueryResponse rb = b.query(batch);
    ASSERT_EQ(ra.results.size(), rb.results.size());
    for (std::size_t i = 0; i < ra.results.size(); ++i) {
      ASSERT_EQ(ra.results[i].dist, rb.results[i].dist) << "query " << i;
      ASSERT_EQ(ra.results[i].outcome, rb.results[i].outcome) << "query " << i;
    }
  }
}

TEST(DualFault, PrunedPropertySamplingAtLargeN) {
  // Seeded property sampling at sizes where exhaustive pairs are too
  // expensive: the pruned structure still honors the dual contract, and
  // stays within the unpruned referee's size budget.
  for (const auto& pc : test::property_cases(120, 1)) {
    FTB_PROPERTY_TRACE(pc, "dual_fault_test");
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.sources = {pc.source};
    const api::BuildResult pruned = api::build(pc.graph, spec);
    const api::BuildResult referee =
        test::referee_build(pc.graph, spec, {.unpruned = true});
    EXPECT_EQ(verify_structure(pruned.structure,
                               {.max_pairs = 300, .seed = pc.seed})
                  .violations,
              0);
    EXPECT_LE(pruned.structure.num_edges(), referee.structure.num_edges());
  }
}

TEST(DualFault, PrunedReferenceKernelBuildsIdenticalStructure) {
  // The pruned pipeline under the naive reference kernels (restricted
  // engines + rebased trees included) must emit the same structure and
  // tables as the optimized kernels.
  for (const auto& pc : test::property_cases(26, 1)) {
    FTB_PROPERTY_TRACE(pc, "dual_fault_test");
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.sources = {pc.source};
    const api::BuildResult opt = api::build(pc.graph, spec);
    const api::BuildResult ref =
        test::referee_build(pc.graph, spec, {.reference_kernel = true});
    EXPECT_EQ(opt.structure.edges(), ref.structure.edges());
    ASSERT_EQ(opt.dual_tables.size(), ref.dual_tables.size());
    EXPECT_EQ(opt.dual_tables.front().offsets, ref.dual_tables.front().offsets);
    EXPECT_EQ(opt.dual_tables.front().edge_pool,
              ref.dual_tables.front().edge_pool);
  }
}

TEST(DualFault, SessionServesEveryPairBitIdenticalToBruteForce) {
  for (const auto& pc : test::property_cases(30, 1)) {
    FTB_PROPERTY_TRACE(pc, "dual_fault_test");
    const Graph& g = pc.graph;
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.sources = {pc.source};
    const api::Session session = api::Session::open(g, spec);

    const auto universe = failure_universe(g, pc.source, FaultClass::kDual);
    // Stride the universe so the suite stays fast but still mixes every
    // classification: tree/non-tree edges, internal/leaf vertices.
    const std::size_t stride = universe.size() > 60 ? 5 : 1;
    std::vector<std::pair<DualSite, DualSite>> pairs;
    for (std::size_t i = 0; i < universe.size(); i += stride) {
      for (std::size_t j = i; j < universe.size(); j += stride) {
        pairs.emplace_back(universe[i], universe[j]);
      }
    }
    std::vector<api::Query> batch;
    for (const auto& [a, b] : pairs) {
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        api::Query q;
        q.v = v;
        q.kind = a.kind;
        q.fault = a.id;
        q.kind2 = b.kind;
        q.fault2 = b.id;
        batch.push_back(q);
      }
    }
    const api::QueryResponse resp = session.query(batch);
    EXPECT_EQ(resp.refused, 0);
    EXPECT_EQ(resp.in_model, static_cast<std::int64_t>(batch.size()));
    EXPECT_LE(resp.pair_traversals, static_cast<std::int64_t>(pairs.size()));

    BfsScratch truth;
    std::size_t qi = 0;
    for (const auto& [a, b] : pairs) {
      dual_bruteforce_bfs(g, pc.source, a, b, truth);
      for (Vertex v = 0; v < g.num_vertices(); ++v, ++qi) {
        const bool destroyed = (a.kind == FaultClass::kVertex && a.id == v) ||
                               (b.kind == FaultClass::kVertex && b.id == v);
        const std::int32_t want = destroyed ? kInfHops : truth.dist(v);
        ASSERT_EQ(resp.results[qi].dist, want)
            << " v=" << v << " f1=(" << static_cast<int>(a.kind)
            << "," << a.id << ") f2=(" << static_cast<int>(b.kind) << ","
            << b.id << ")";
      }
    }
  }
}

TEST(DualFault, OracleFastPathsAreExactAndTraversalFree) {
  const Graph g = gen::random_connected(40, 110, 13);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::BuildResult res = api::build(g, spec);

  const EdgeWeights w = EdgeWeights::uniform_random(g, spec.weight_seed);
  const BfsTree tree(g, w, 0);
  ReplacementPathEngine::Config cfg;
  cfg.collect_detours = false;
  const ReplacementPathEngine ee(tree, cfg);
  VertexReplacementEngine::Config vcfg;
  vcfg.collect_detours = false;
  const VertexReplacementEngine ve(tree, vcfg);
  const DualFaultOracle oracle(tree, ee.table(), ve.table(),
                               res.dual_tables.front());
  DualQueryArena arena;

  // (a) a doubled element degenerates to the single-fault tables;
  // (b) two off-tree elements (non-tree edge + leaf vertex) reduce to
  //     tree depths;
  // (c) a sited first element with a second edge outside H_f reuses the
  //     single-fault answer.
  EdgeId nontree = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!tree.is_tree_edge(e)) {
      nontree = e;
      break;
    }
  }
  ASSERT_NE(nontree, kInvalidEdge);
  Vertex leaf = kInvalidVertex;
  for (Vertex x = 1; x < g.num_vertices(); ++x) {
    if (tree.reachable(x) && tree.subtree_size(x) == 1) {
      leaf = x;
      break;
    }
  }
  ASSERT_NE(leaf, kInvalidVertex);
  const DualSiteTable& t = res.dual_tables.front();
  std::pair<DualSite, DualSite> offsite_pair = {DualSite{FaultClass::kEdge,
                                                         nontree},
                                                DualSite{FaultClass::kVertex,
                                                         leaf}};
  // A (site, off-structure edge) pair, if the graph has an edge outside
  // the (dense) dual structure.
  std::vector<std::pair<DualSite, DualSite>> cases = {
      {DualSite{FaultClass::kEdge, tree.tree_edges().front()},
       DualSite{FaultClass::kEdge, tree.tree_edges().front()}},
      {DualSite{FaultClass::kVertex, leaf},
       DualSite{FaultClass::kVertex, leaf}},
      offsite_pair,
  };
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!res.structure.contains(e)) {
      cases.push_back({DualSite{FaultClass::kEdge, tree.tree_edges().front()},
                       DualSite{FaultClass::kEdge, e}});
      break;
    }
  }
  (void)t;
  BfsScratch truth;
  for (const auto& [a, b] : cases) {
    ASSERT_TRUE(oracle.reducible(a, b));
    std::int64_t traversals = 0;
    dual_bruteforce_bfs(g, 0, a, b, truth);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const bool destroyed = (a.kind == FaultClass::kVertex && a.id == v) ||
                             (b.kind == FaultClass::kVertex && b.id == v);
      EXPECT_EQ(oracle.dist(v, a, b, arena, &traversals),
                destroyed ? kInfHops : truth.dist(v))
          << "v=" << v;
    }
    EXPECT_EQ(traversals, 0);  // the fast paths never traverse
  }
  // Reducible pairs touch neither cache counter: no traversal ran, none
  // was reused.
  EXPECT_EQ(arena.cache_hits(), 0);
  EXPECT_EQ(arena.cache_misses(), 0);
}

TEST(DualFault, OracleArenaCountsHitsMissesAndEvictions) {
  // The DualQueryArena is a one-slot traversal cache over the pruned
  // serving sets: repeats of one non-reducible pair are hits, a different
  // pair evicts the held traversal (a miss), and reducible pairs bypass
  // the cache entirely.
  const auto pc = test::property_cases(40, 1).front();
  FTB_PROPERTY_TRACE(pc, "dual_fault_test");
  const Graph& g = pc.graph;
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.sources = {pc.source};
  const api::BuildResult res = api::build(g, spec);

  const EdgeWeights w = EdgeWeights::uniform_random(g, spec.weight_seed);
  const BfsTree tree(g, w, pc.source);
  ReplacementPathEngine::Config ecfg;
  ecfg.collect_detours = false;
  const ReplacementPathEngine ee(tree, ecfg);
  VertexReplacementEngine::Config vcfg;
  vcfg.collect_detours = false;
  const VertexReplacementEngine ve(tree, vcfg);
  const DualFaultOracle oracle(tree, ee.table(), ve.table(),
                               res.dual_tables.front());
  DualQueryArena arena;

  // Two distinct non-reducible pairs: adjacent tree edges always share a
  // π(s,·), so (tree edge, tree edge) pairs are never reducible.
  ASSERT_GE(tree.tree_edges().size(), 3u);
  const DualSite e0{FaultClass::kEdge, tree.tree_edges()[0]};
  const DualSite e1{FaultClass::kEdge, tree.tree_edges()[1]};
  const DualSite e2{FaultClass::kEdge, tree.tree_edges()[2]};
  ASSERT_FALSE(oracle.reducible(e0, e1));
  ASSERT_FALSE(oracle.reducible(e1, e2));

  // First touch: one miss, then every same-pair query hits.
  std::int64_t traversals = 0;
  BfsScratch truth;
  dual_bruteforce_bfs(g, pc.source, e0, e1, truth);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(oracle.dist(v, e0, e1, arena, &traversals), truth.dist(v));
  }
  EXPECT_EQ(arena.cache_misses(), 1);
  EXPECT_EQ(arena.cache_hits(),
            static_cast<std::int64_t>(g.num_vertices()) - 1);
  EXPECT_EQ(traversals, 1);

  // The unordered spelling of the held pair is still a hit.
  ASSERT_EQ(oracle.dist(0, e1, e0, arena, &traversals),
            oracle.dist(0, e0, e1, arena, &traversals));
  EXPECT_EQ(arena.cache_misses(), 1);

  // A pair storm alternating two pairs evicts the one-slot cache every
  // time: each switch is a fresh miss, answers stay exact throughout.
  BfsScratch truth2;
  dual_bruteforce_bfs(g, pc.source, e1, e2, truth2);
  const std::int64_t misses_before = arena.cache_misses();
  for (int round = 0; round < 4; ++round) {
    // The arena holds {e0, e1} entering the storm, so leading with
    // {e1, e2} makes every round an eviction.
    const bool second = round % 2 == 0;
    const DualSite a = second ? e1 : e0;
    const DualSite b = second ? e2 : e1;
    BfsScratch& want = second ? truth2 : truth;
    ASSERT_EQ(oracle.dist(1, a, b, arena, nullptr), want.dist(1));
  }
  EXPECT_EQ(arena.cache_misses(), misses_before + 4);

  // Reducible traffic in between does not disturb the held traversal.
  EdgeId off_structure = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!res.structure.contains(e)) {  // in no subset, on no tree
      off_structure = e;
      break;
    }
  }
  const std::int64_t hits_before = arena.cache_hits();
  if (off_structure != kInvalidEdge) {
    const DualSite off{FaultClass::kEdge, off_structure};
    ASSERT_TRUE(oracle.reducible(e1, off));
    (void)oracle.dist(2, e1, off, arena, nullptr);
    EXPECT_EQ(arena.cache_misses(), misses_before + 4);
  }
  // The storm ended on {e0, e1}; that pair is still held.
  ASSERT_EQ(oracle.dist(3, e0, e1, arena, nullptr), truth.dist(3));
  EXPECT_EQ(arena.cache_hits(), hits_before + 1);
}

TEST(DualFault, SavedSessionReloadsAndServesIdentically) {
  const Graph g = gen::random_connected(36, 80, 19);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session original = api::Session::open(g, spec);

  const std::string path = ::testing::TempDir() + "/dual_session.ftbfs";
  original.save_v5(path);

  // The artifact is a v5 file with its pair tables.
  {
    std::ifstream f(path);
    std::string first;
    std::getline(f, first);
    EXPECT_EQ(first, "ftbfs-structure 5");
    std::stringstream rest;
    rest << f.rdbuf();
    EXPECT_NE(rest.str().find("fault-model dual"), std::string::npos);
    EXPECT_NE(rest.str().find("pair-tables 1"), std::string::npos);
  }

  std::vector<Vertex> sources;
  std::vector<DualSiteTable> tables;
  const FtBfsStructure reloaded_h =
      io::load_structure(g, path, &sources, &tables);
  EXPECT_EQ(reloaded_h.fault_class(), FaultClass::kDual);
  ASSERT_EQ(tables.size(), 1u);

  const api::Session reloaded = api::Session::load(g, path);
  std::remove(path.c_str());

  const auto universe = failure_universe(g, 0, FaultClass::kDual);
  std::vector<api::Query> batch;
  for (std::size_t i = 0; i < universe.size(); i += 3) {
    for (std::size_t j = i; j < universe.size(); j += 7) {
      for (Vertex v = 0; v < g.num_vertices(); v += 2) {
        api::Query q;
        q.v = v;
        q.kind = universe[i].kind;
        q.fault = universe[i].id;
        q.kind2 = universe[j].kind;
        q.fault2 = universe[j].id;
        batch.push_back(q);
      }
    }
  }
  const api::QueryResponse a = original.query(batch);
  const api::QueryResponse b = reloaded.query(batch);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].dist, b.results[i].dist) << i;
    EXPECT_EQ(a.results[i].outcome, b.results[i].outcome) << i;
  }
}

TEST(DualFault, ArtifactWithoutTablesIsRebuiltOnLoad) {
  const Graph g = gen::grid_graph(5, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session original = api::Session::open(g, spec);

  // An artifact written WITHOUT pair tables (no pair-tables section) still
  // loads; the session rebuilds the tables deterministically from the
  // weight seed.
  std::ostringstream os;
  io::write_structure_v5(original.structure(), original.sources(), {}, {},
                         os);
  EXPECT_EQ(os.str().find("pair-tables"), std::string::npos);
  const std::string path = ::testing::TempDir() + "/dual_no_tables.ftbfs";
  {
    std::ofstream f(path);
    f << os.str();
  }
  const api::Session reloaded = api::Session::load(g, path);
  std::remove(path.c_str());

  api::Query q;
  q.v = g.num_vertices() - 1;
  q.kind = FaultClass::kEdge;
  q.fault = original.structure().tree_edges().front();
  q.kind2 = FaultClass::kVertex;
  q.fault2 = 1;
  const api::QueryResult ra = original.query_one(q);
  const api::QueryResult rb = reloaded.query_one(q);
  EXPECT_EQ(ra.outcome, api::QueryOutcome::kInModel);
  EXPECT_EQ(ra.dist, rb.dist);
}

TEST(DualFault, MultiSourceDualServesEverySource) {
  const Graph g = gen::random_connected(32, 70, 23);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.sources = {0, 17};
  const api::Session session = api::Session::open(g, spec);
  ASSERT_EQ(session.sources().size(), 2u);

  // Per-source contract: the union structure still matches brute force
  // on sampled pairs from every source.
  EXPECT_EQ(verify_structure(session.structure(), {.sources = spec.sources,
                                                   .max_pairs = 400,
                                                   .seed = 5})
                .violations,
            0);

  // And the batched plane answers for both source indices.
  const auto universe =
      failure_universe(g, kInvalidVertex, FaultClass::kDual);  // all vertices
  std::vector<api::Query> batch;
  for (std::int32_t si = 0; si < 2; ++si) {
    const Vertex src = spec.sources[static_cast<std::size_t>(si)];
    for (std::size_t i = 0; i < universe.size(); i += 6) {
      for (std::size_t j = i; j < universe.size(); j += 9) {
        if ((universe[i].kind == FaultClass::kVertex &&
             universe[i].id == src) ||
            (universe[j].kind == FaultClass::kVertex &&
             universe[j].id == src)) {
          continue;  // the asking source never fails
        }
        for (Vertex v = 0; v < g.num_vertices(); v += 3) {
          api::Query q;
          q.v = v;
          q.kind = universe[i].kind;
          q.fault = universe[i].id;
          q.kind2 = universe[j].kind;
          q.fault2 = universe[j].id;
          q.source_index = si;
          batch.push_back(q);
        }
      }
    }
  }
  const api::QueryResponse resp = session.query(batch);
  EXPECT_EQ(resp.refused, 0);
  BfsScratch truth;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const api::Query& q = batch[i];
    const Vertex src = spec.sources[static_cast<std::size_t>(q.source_index)];
    dual_bruteforce_bfs(g, src, DualSite{q.kind, q.fault},
                        DualSite{q.kind2, q.fault2}, truth);
    const bool destroyed =
        (q.kind == FaultClass::kVertex && q.fault == q.v) ||
        (q.kind2 == FaultClass::kVertex && q.fault2 == q.v);
    ASSERT_EQ(resp.results[i].dist, destroyed ? kInfHops : truth.dist(q.v))
        << i;
  }
}

TEST(DualFault, PairRefusalAndWhatIfRules) {
  const Graph g = gen::random_connected(30, 70, 29);
  // A pair containing the asking source is refused even on a dual session.
  api::BuildSpec dual_spec;
  dual_spec.fault_model = FaultClass::kDual;
  const api::Session dual_session = api::Session::open(g, dual_spec);
  api::Query q;
  q.v = 5;
  q.kind = FaultClass::kVertex;
  q.fault = 0;  // the source
  q.kind2 = FaultClass::kEdge;
  q.fault2 = 0;
  q.allow_what_if = true;
  EXPECT_EQ(dual_session.query_one(q).outcome, api::QueryOutcome::kRefused);

  // On a single-fault session a pair is out of model: refused without
  // allow_what_if, answered by literal BFS on H minus both with it.
  api::BuildSpec edge_spec;
  edge_spec.eps = 0.3;
  const api::Session edge_session = api::Session::open(g, edge_spec);
  api::Query p;
  p.v = 7;
  p.kind = FaultClass::kEdge;
  p.fault = 1;
  p.kind2 = FaultClass::kVertex;
  p.fault2 = 3;
  EXPECT_EQ(edge_session.query_one(p).outcome, api::QueryOutcome::kRefused);
  p.allow_what_if = true;
  const api::QueryResult r = edge_session.query_one(p);
  EXPECT_EQ(r.outcome, api::QueryOutcome::kWhatIf);
  // Referee: literal BFS on H minus the pair.
  const FtBfsStructure& h = edge_session.structure();
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(g.num_vertices()),
                                 0);
  mask[3] = 1;
  BfsBans bans;
  bans.banned_edge_mask = &h.complement_mask();
  bans.banned_edge = 1;
  bans.banned_vertex = &mask;
  BfsScratch scratch;
  bfs_run(g, 0, bans, scratch);
  EXPECT_EQ(r.dist, scratch.dist(7));
}

TEST(DualFault, DualDrillsReportZeroViolations) {
  const Graph g = gen::random_connected(36, 90, 31);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session session = api::Session::open(g, spec);

  // Structure-side build-then-verify drill.
  const DrillReport structural =
      run_failure_drill(session.structure(), FaultClass::kDual, 200, 3);
  EXPECT_EQ(structural.violations, 0) << structural.to_string();
  EXPECT_DOUBLE_EQ(structural.max_stretch, 1.0);

  // Session-served drill: same storm, same verdict.
  const DrillReport served =
      run_failure_drill(session, FaultClass::kDual, 200, 3);
  EXPECT_EQ(served.violations, 0) << served.to_string();
  EXPECT_EQ(served.drills, structural.drills);
  EXPECT_EQ(served.reachable_queries, structural.reachable_queries);
}

TEST(DualFault, ProductionMatchesTwoPassRefereeOnStructuresAndAnswers) {
  // The production build (trees on the fused canonical kernel) races the
  // referee of tests/referee.hpp, whose trees come from the two-pass
  // canonical_sp: the structure, the pair tables, AND the batched session
  // answers must agree byte for byte.
  for (const auto& pc : test::property_cases(30, 1)) {
    FTB_PROPERTY_TRACE(pc, "dual_fault_test");
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.sources = {pc.source};
    const api::BuildResult ra = api::build(pc.graph, spec);
    const api::BuildResult rb = test::referee_build(pc.graph, spec);
    EXPECT_EQ(ra.structure.edges(), rb.structure.edges()) << pc.name();
    EXPECT_EQ(ra.structure.tree_edges(), rb.structure.tree_edges())
        << pc.name();
    ASSERT_EQ(ra.dual_tables.size(), rb.dual_tables.size());
    EXPECT_TRUE(
        test::same_tables(ra.dual_tables.front(), rb.dual_tables.front()))
        << pc.name();

    const api::Session sa = api::Session::deploy(pc.graph, ra);
    const api::Session sb = api::Session::deploy(pc.graph, rb);
    test::FaultSampler sampler(pc.graph, pc.source, pc.seed ^ 0xB17A);
    std::vector<api::Query> batch;
    for (const auto& [x, y] : sampler.sample_pairs(40)) {
      for (Vertex v = 0; v < pc.graph.num_vertices(); v += 3) {
        api::Query q;
        q.v = v;
        q.kind = x.kind;
        q.fault = x.id;
        q.kind2 = y.kind;
        q.fault2 = y.id;
        batch.push_back(q);
      }
    }
    const api::QueryResponse qa = sa.query(batch);
    const api::QueryResponse qb = sb.query(batch);
    ASSERT_EQ(qa.results.size(), qb.results.size());
    for (std::size_t i = 0; i < qa.results.size(); ++i) {
      ASSERT_EQ(qa.results[i].dist, qb.results[i].dist)
          << pc.name() << " query " << i;
      ASSERT_EQ(qa.results[i].outcome, qb.results[i].outcome)
          << pc.name() << " query " << i;
    }
  }
}

TEST(DualFault, MultiSourceDualMatchesTwoPassReferee) {
  // The multi-source dual path crosses both seams at once: the per-source
  // canonical trees AND the per-source pair-table builds.
  const Graph g = gen::random_connected(32, 70, 23);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.sources = {0, 9, 17};
  const api::BuildResult ra = api::build(g, spec);
  const api::BuildResult rb = test::referee_build(g, spec);
  EXPECT_EQ(ra.structure.edges(), rb.structure.edges());
  ASSERT_EQ(ra.dual_tables.size(), rb.dual_tables.size());
  for (std::size_t s = 0; s < ra.dual_tables.size(); ++s) {
    EXPECT_TRUE(test::same_tables(ra.dual_tables[s], rb.dual_tables[s])) << s;
  }
}

/// One source's dual build under the independent-rebase referee schedule,
/// site-dist rows included; `work` receives its rebase-seam work.
api::BuildResult independent_rebase(const Graph& g, Vertex source,
                                    SweepWorkStats* work) {
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.sources = {source};
  spec.site_dist_oracle = true;
  return test::referee_build(g, spec, {.dfs_schedule = false}, work);
}

TEST(DualFault, DfsScheduleIsByteIdenticalToIndependentRebase) {
  // The production build walks sites in DFS order, reusing each site's
  // nearest processed ancestor's workspace state; the referee's
  // independent schedule rebases every site from T0 in isolation. On all
  // four property families the structure, pair tables AND site-dist rows
  // must agree byte for byte, and the DFS schedule's rebase-seam work must
  // be strictly lower (it pays subtree-volume patches where the referee
  // pays a full O(n) label copy per site).
  for (const auto& pc : test::property_cases(34, 2)) {
    FTB_PROPERTY_TRACE(pc, "dual_fault_test");
    DualFtBfsOptions opts;
    opts.site_dist_oracle = true;
    const EdgeWeights w =
        EdgeWeights::uniform_random(pc.graph, kDefaultWeightSeed);
    const DualBuildResult a = detail::build_dual_failure_ftbfs_impl(
        BfsTree(pc.graph, w, pc.source), opts);
    SweepWorkStats ind_work;
    const api::BuildResult b =
        independent_rebase(pc.graph, pc.source, &ind_work);
    EXPECT_EQ(a.structure.edges(), b.structure.edges()) << pc.name();
    EXPECT_EQ(a.structure.tree_edges(), b.structure.tree_edges()) << pc.name();
    EXPECT_TRUE(test::same_tables(a.tables, b.dual_tables.front()))
        << pc.name();
    EXPECT_TRUE(test::same_site_dist(a.site_dist, b.dual_site_dist.front()))
        << pc.name();
    EXPECT_LT(a.sweep_work.total(), ind_work.total()) << pc.name();
  }
}

TEST(DualFault, DfsScheduleOnDegenerateTrees) {
  // Path: T0 is one chain, so DFS order visits sites root-downward and
  // consecutive sites share all but one path edge of ancestor state. Star:
  // every site's affected subtree is a leaf (or the whole fan for the
  // center vertex), the smallest possible patches. Both extremes must stay
  // byte-identical across schedules.
  for (const Graph& g : {gen::path_graph(64), gen::star_graph(64)}) {
    DualFtBfsOptions opts;
    opts.site_dist_oracle = true;
    const EdgeWeights w = EdgeWeights::uniform_random(g, kDefaultWeightSeed);
    const DualBuildResult a =
        detail::build_dual_failure_ftbfs_impl(BfsTree(g, w, 0), opts);
    SweepWorkStats ind_work;
    const api::BuildResult b = independent_rebase(g, 0, &ind_work);
    EXPECT_EQ(a.structure.edges(), b.structure.edges());
    EXPECT_TRUE(test::same_tables(a.tables, b.dual_tables.front()));
    EXPECT_TRUE(test::same_site_dist(a.site_dist, b.dual_site_dist.front()));
    EXPECT_LT(a.sweep_work.total(), ind_work.total());
    // The structures still honor the dual contract on every pair.
    EXPECT_EQ(verify_structure(a.structure).violations, 0);
  }
}

TEST(DualFault, DfsScheduleServesLikeIndependentReferee) {
  // The production build and the independent-rebase referee, both
  // deployed: structures, tables, and batched session answers are
  // identical.
  const Graph g = gen::random_connected(36, 90, 19);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.sources = {0};
  const api::BuildResult ra = api::build(g, spec);
  const api::BuildResult rb =
      test::referee_build(g, spec, {.dfs_schedule = false});
  EXPECT_EQ(ra.structure.edges(), rb.structure.edges());
  ASSERT_EQ(ra.dual_tables.size(), rb.dual_tables.size());
  EXPECT_TRUE(
      test::same_tables(ra.dual_tables.front(), rb.dual_tables.front()));

  const api::Session sa = api::Session::deploy(g, ra);
  const api::Session sb = api::Session::deploy(g, rb);
  test::FaultSampler sampler(g, 0, 0xD5F5);
  std::vector<api::Query> batch;
  for (const auto& [x, y] : sampler.sample_pairs(40)) {
    for (Vertex v = 0; v < g.num_vertices(); v += 3) {
      api::Query q;
      q.v = v;
      q.kind = x.kind;
      q.fault = x.id;
      q.kind2 = y.kind;
      q.fault2 = y.id;
      batch.push_back(q);
    }
  }
  const api::QueryResponse qa = sa.query(batch);
  const api::QueryResponse qb = sb.query(batch);
  ASSERT_EQ(qa.results.size(), qb.results.size());
  for (std::size_t i = 0; i < qa.results.size(); ++i) {
    ASSERT_EQ(qa.results[i].dist, qb.results[i].dist) << "query " << i;
    ASSERT_EQ(qa.results[i].outcome, qb.results[i].outcome) << "query " << i;
  }
}

TEST(DualFault, ConcurrentDualBuildStormIsDeterministic) {
  // Several threads build the same dual structure simultaneously — the
  // production DFS schedule racing the independent-rebase referee,
  // site-dist on — all through the shared global pool (nested
  // parallel_for, pooled workspaces). Every result must equal the
  // reference build byte for byte; TSan watches this under the
  // concurrency ctest label.
  const Graph g = gen::random_connected(48, 140, 11);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.site_dist_oracle = true;
  const api::BuildResult ref = api::build(g, spec);
  const DualSiteTable& ref_tables = ref.dual_tables.front();
  const DualSiteDistTable& ref_site_dist = ref.dual_site_dist.front();
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        bool same = true;
        if ((t + round) % 2 == 0) {
          const api::BuildResult r = api::build(g, spec);
          same = r.structure.edges() == ref.structure.edges() &&
                 test::same_tables(r.dual_tables.front(), ref_tables) &&
                 test::same_site_dist(r.dual_site_dist.front(),
                                      ref_site_dist);
        } else {
          const api::BuildResult r = independent_rebase(g, 0, nullptr);
          same = r.structure.edges() == ref.structure.edges() &&
                 test::same_tables(r.dual_tables.front(), ref_tables) &&
                 test::same_site_dist(r.dual_site_dist.front(),
                                      ref_site_dist);
        }
        if (!same) mismatches++;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(DualFault, WrongWeightSeedIsRefusedAtLoad) {
  const Graph g = gen::random_connected(30, 80, 37);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.weight_seed = 1234;
  const api::Session session = api::Session::open(g, spec);
  const std::string path = ::testing::TempDir() + "/dual_seed.ftbfs";
  session.save_v5(path);
  api::SessionConfig cfg;
  cfg.weight_seed = 1235;
  EXPECT_THROW(api::Session::load(g, path, cfg), CheckError);
  cfg.weight_seed = 1234;
  EXPECT_NO_THROW(api::Session::load(g, path, cfg));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ftb

// vertex_ftbfs_test.cpp — the vertex-failure FT-BFS extension: engine
// tables vs brute force, full protection of the baseline, dual structures.
#include <gtest/gtest.h>

#include <cmath>

#include "src/api/ftbfs_api.hpp"
#include "src/core/verifier.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

class VertexFamilyTest : public ::testing::TestWithParam<std::string> {};

test::FamilyCase find_family(const std::string& name) {
  for (auto& fc : test::small_families()) {
    if (fc.name == name) return std::move(fc);
  }
  ADD_FAILURE() << "unknown family " << name;
  return {"", gen::path_graph(2), 0};
}

std::vector<std::string> family_names() {
  std::vector<std::string> names;
  for (const auto& fc : test::small_families()) names.push_back(fc.name);
  return names;
}

TEST_P(VertexFamilyTest, ReplacementDistancesMatchBruteForce) {
  const test::FamilyCase fc = find_family(GetParam());
  const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 91);
  const BfsTree tree(fc.graph, w, fc.source);
  const VertexReplacementEngine engine(tree);
  const std::size_t n = static_cast<std::size_t>(fc.graph.num_vertices());
  for (Vertex x = 0; x < fc.graph.num_vertices(); ++x) {
    if (x == fc.source) continue;
    std::vector<std::uint8_t> banned(n, 0);
    banned[static_cast<std::size_t>(x)] = 1;
    BfsBans bans;
    bans.banned_vertex = &banned;
    const BfsResult brute = plain_bfs(fc.graph, fc.source, bans);
    for (Vertex v = 0; v < fc.graph.num_vertices(); ++v) {
      if (v == x) continue;
      ASSERT_EQ(engine.replacement_dist(v, x),
                brute.dist[static_cast<std::size_t>(v)])
          << "v=" << v << " x=" << x;
    }
  }
}

TEST_P(VertexFamilyTest, BaselineProtectsEveryVertexFailure) {
  const test::FamilyCase fc = find_family(GetParam());
  const FtBfsStructure h =
      api::build(fc.graph,
                 {.fault_model = FaultClass::kVertex, .sources = {fc.source}})
          .structure;
  EXPECT_EQ(verify_structure(h).violations, 0) << h.summary();
}

TEST_P(VertexFamilyTest, UncoveredPairLastEdgesAreNewEnding) {
  const test::FamilyCase fc = find_family(GetParam());
  const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 93);
  const BfsTree tree(fc.graph, w, fc.source);
  const VertexReplacementEngine engine(tree);
  for (const VertexFaultPair& p : engine.uncovered_pairs()) {
    ASSERT_FALSE(tree.is_tree_edge(p.last_edge));
    ASSERT_TRUE(fc.graph.is_endpoint(p.last_edge, p.v));
    // Divergence strictly above the failed vertex.
    ASSERT_LT(p.diverge_depth, p.x_pos);
    // The failing vertex is internal to π(s,v).
    ASSERT_TRUE(tree.is_ancestor_or_equal(p.x, p.v));
    ASSERT_NE(p.x, p.v);
  }
}

TEST_P(VertexFamilyTest, PairAccounting) {
  const test::FamilyCase fc = find_family(GetParam());
  const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 95);
  const BfsTree tree(fc.graph, w, fc.source);
  const VertexReplacementEngine engine(tree);
  const auto& st = engine.stats();
  EXPECT_EQ(st.pairs_total,
            st.pairs_covered + st.pairs_uncovered + st.pairs_infinite);
  std::int64_t expect = 0;
  for (Vertex v = 0; v < fc.graph.num_vertices(); ++v) {
    if (tree.reachable(v) && tree.depth(v) >= 1) {
      expect += tree.depth(v) - 1;
    }
  }
  EXPECT_EQ(st.pairs_total, expect);
}

INSTANTIATE_TEST_SUITE_P(Families, VertexFamilyTest,
                         ::testing::ValuesIn(family_names()),
                         [](const auto& pinfo) { return pinfo.param; });

TEST(VertexFtBfs, SizeWithinTheoremEnvelope) {
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    const Graph g = gen::random_connected(150, 450, seed);
    const FtBfsStructure h =
        api::build(g, {.fault_model = FaultClass::kVertex}).structure;
    EXPECT_LE(static_cast<double>(h.num_edges()),
              4.0 * std::pow(150.0, 1.5));
  }
}

TEST(VertexFtBfs, DualStructureSurvivesBothFaultModels) {
  const Graph g = gen::gnm(40, 170, 71);
  const FtBfsStructure dual =
      api::build(g, {.fault_model = FaultClass::kEither}).structure;
  // Vertex failures.
  EXPECT_EQ(verify_structure(dual).violations, 0);
  // Edge failures: the dual contains the edge-fault baseline, whose
  // contract the standard verifier checks.
  VerifyOptions vo;
  vo.check_nontree_failures = true;
  EXPECT_TRUE(verify_structure(dual, vo).ok);
}

TEST(VertexFtBfs, DualContainsBothBaselines) {
  const Graph g = gen::gnm(36, 150, 73);
  const FtBfsStructure dual =
      api::build(g, {.fault_model = FaultClass::kEither}).structure;
  const FtBfsStructure edge_h = api::build(g, {.eps = 1.0}).structure;
  const FtBfsStructure vertex_h =
      api::build(g, {.fault_model = FaultClass::kVertex}).structure;
  for (const EdgeId e : edge_h.edges()) EXPECT_TRUE(dual.contains(e));
  for (const EdgeId e : vertex_h.edges()) EXPECT_TRUE(dual.contains(e));
}

TEST(VertexFtBfs, CutVertexDisconnectionsAreVacuous) {
  // A path: every internal vertex is a cut vertex; no pair has a
  // replacement path, the structure is just the tree, and verification is
  // vacuous on the cut side.
  const Graph g = gen::path_graph(10);
  const FtBfsStructure h =
      api::build(g, {.fault_model = FaultClass::kVertex}).structure;
  EXPECT_EQ(h.num_edges(), 9);
  EXPECT_EQ(verify_structure(h).violations, 0);
}

TEST(VertexFtBfs, SourceNeverFails) {
  const Graph g = gen::cycle_graph(8);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 97);
  const BfsTree tree(g, w, 0);
  const VertexReplacementEngine engine(tree);
  EXPECT_THROW(engine.replacement_dist(3, 0), CheckError);
}

TEST(VertexFtBfs, VertexVsEdgeStructuresDiffer) {
  // On an even cycle, edge failures reroute the long way but vertex
  // failures additionally kill the failed hop's shortcuts — the two
  // baselines need not coincide; both must be correct.
  const Graph g = gen::gnm(30, 120, 79);
  const FtBfsStructure vh =
      api::build(g, {.fault_model = FaultClass::kVertex}).structure;
  EXPECT_EQ(verify_structure(vh).violations, 0);
}

}  // namespace
}  // namespace ftb

// verifier_test.cpp — the verifier must bless correct structures and catch
// broken ones.
#include <gtest/gtest.h>

#include "src/api/ftbfs_api.hpp"
#include "src/core/verifier.hpp"
#include "src/graph/lower_bound.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

TEST(Verifier, BlessesCorrectStructures) {
  const Graph g = gen::gnm(40, 160, 41);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  const VerifyReport rep = verify_structure(h);
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.violations, 0);
  EXPECT_GT(rep.failures_checked, 1);
}

TEST(Verifier, CatchesBareTreeOnCliqueNeighborhood) {
  // On the intro example a bare, unreinforced T0 is NOT fault tolerant:
  // failing a clique tree edge leaves longer detours in T0 than in G.
  const Graph g = gen::intro_example(16);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 2);
  const BfsTree tree(g, w, 0);
  const FtBfsStructure bare(g, 0, tree.tree_edges(), {}, tree.tree_edges());
  const VerifyReport rep = verify_structure(bare);
  EXPECT_FALSE(rep.ok);
  EXPECT_GT(rep.violations, 0);
  EXPECT_FALSE(rep.examples.empty());
  // The counterexample is actionable: a concrete (edge, vertex) pair.
  const auto& ex = rep.examples.front();
  EXPECT_NE(ex.f1.id, kInvalidEdge);
  EXPECT_GT(ex.dist_structure, ex.dist_graph);
}

TEST(Verifier, CatchesMissingForcedEdgeOnLowerBoundGraph) {
  // Remove one forced bipartite edge from a correct baseline structure on
  // the Theorem 5.1 graph: the verifier must flag exactly that failure.
  const auto lb = lb::build_single_source(220, 0.33);
  const FtBfsStructure h =
      api::build(lb.graph, {.sources = {lb.source}, .eps = 1.0}).structure;
  const std::vector<EdgeId> forced = lb.forced_edges(0, 1);
  // Find a forced edge actually present in H (Claim 5.3 says all are).
  EdgeId victim = kInvalidEdge;
  for (const EdgeId e : forced) {
    if (h.contains(e)) {
      victim = e;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidEdge) << "Claim 5.3 violated by the baseline?!";
  std::vector<EdgeId> edges;
  for (const EdgeId e : h.edges()) {
    if (e != victim) edges.push_back(e);
  }
  const FtBfsStructure broken(lb.graph, lb.source, std::move(edges), {},
                              h.tree_edges());
  const VerifyReport rep = verify_structure(broken);
  EXPECT_FALSE(rep.ok);
}

TEST(Verifier, ReinforcingTheWeakEdgeRestoresTheContract) {
  // Same corruption as above, but the failing path edge is reinforced —
  // the verifier must now pass (reinforced edges never fail).
  const auto lb = lb::build_single_source(220, 0.33);
  const FtBfsStructure h =
      api::build(lb.graph, {.sources = {lb.source}, .eps = 1.0}).structure;
  const std::vector<EdgeId> forced = lb.forced_edges(0, 1);
  EdgeId victim = kInvalidEdge;
  for (const EdgeId e : forced) {
    if (h.contains(e)) {
      victim = e;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidEdge);
  std::vector<EdgeId> edges;
  for (const EdgeId e : h.edges()) {
    if (e != victim) edges.push_back(e);
  }
  const EdgeId costly = lb.copies[0].pi_edges[0];  // e^0_1
  const FtBfsStructure repaired(lb.graph, lb.source, std::move(edges),
                                {costly}, h.tree_edges());
  const VerifyReport rep = verify_structure(repaired);
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

TEST(Verifier, MaxFailuresCaps) {
  const Graph g = gen::gnm(40, 160, 43);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  VerifyOptions vo;
  vo.max_failures = 5;
  const VerifyReport rep = verify_structure(h, vo);
  EXPECT_EQ(rep.failures_checked, 5 + 1);  // + the failure-free check
}

TEST(Verifier, NonTreeModeAlsoPasses) {
  const Graph g = gen::gnm(30, 120, 47);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  VerifyOptions vo;
  vo.check_nontree_failures = true;
  const VerifyReport rep = verify_structure(h, vo);
  EXPECT_TRUE(rep.ok);
  EXPECT_GT(rep.failures_checked, static_cast<std::int64_t>(
                                      h.tree_edges().size()));
}

TEST(Verifier, ReportFormatting) {
  const Graph g = gen::gnm(20, 60, 49);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  const VerifyReport rep = verify_structure(h);
  EXPECT_NE(rep.to_string().find("OK"), std::string::npos);
}

/// One pinned case: the count the per-model verifier of each model (edge,
/// vertex, either = edge + vertex, dual; the union re-anchored at each
/// source for σ = 3) reported once the first needed backup edge `victim`
/// was removed. Correct builds reported 0 everywhere.
struct VerifyPin {
  FaultClass model;
  std::size_t sigma;
  EdgeId victim;
  std::int64_t violations;
};

TEST(Verifier, PinnedAgainstThePerModelVerifiers) {
  constexpr VerifyPin kPins[] = {
      {FaultClass::kEdge, 1, 6, 2},   {FaultClass::kEdge, 3, 7, 2},
      {FaultClass::kVertex, 1, 6, 1}, {FaultClass::kVertex, 3, 6, 1},
      {FaultClass::kEither, 1, 6, 3}, {FaultClass::kEither, 3, 6, 1},
      {FaultClass::kDual, 1, 6, 1},   {FaultClass::kDual, 3, 6, 21},
  };
  const Graph g = test::pin_graph();
  for (const VerifyPin& pin : kPins) {
    const api::BuildResult res = test::pin_build(g, pin.model, pin.sigma);
    const std::string label =
        std::string(to_string(pin.model)) + " sigma=" +
        std::to_string(pin.sigma);
    // Dual pairs: 1500 per source, seed 9.
    const VerifyOptions vo{
        .sources = res.sources, .max_pairs = 1500, .seed = 9};
    EXPECT_EQ(verify_structure(res.structure, vo).violations, 0) << label;
    ASSERT_TRUE(res.structure.contains(pin.victim)) << label;
    ASSERT_FALSE(res.structure.is_reinforced(pin.victim)) << label;
    const VerifyReport broken =
        verify_structure(test::without_edge(res.structure, pin.victim), vo);
    EXPECT_EQ(broken.violations, pin.violations) << label;
    // Every model records its counterexamples.
    EXPECT_EQ(broken.examples.size(),
              static_cast<std::size_t>(std::min<std::int64_t>(
                  pin.violations, 16)))
        << label;
  }
}

TEST(Verifier, DisconnectedGraphsVerifyVacuously) {
  GraphBuilder b(8);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(4, 5);  // unreachable island
  const Graph g = b.build();
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  const VerifyReport rep = verify_structure(h);
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

}  // namespace
}  // namespace ftb

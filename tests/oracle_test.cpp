// oracle_test.cpp — the engine's O(1) replacement-distance and O(len)
// replacement-path queries vs. literal BFS.
#include <gtest/gtest.h>

#include "src/core/replacement.hpp"
#include "src/graph/canonical_bfs.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

struct OracleFixture {
  Graph g;
  Vertex source;
  EdgeWeights w;
  BfsTree tree;
  ReplacementPathEngine engine;

  explicit OracleFixture(test::FamilyCase fc)
      : g(std::move(fc.graph)),
        source(fc.source),
        w(EdgeWeights::uniform_random(g, 13)),
        tree(g, w, source),
        engine(tree) {}
};

TEST(Oracle, DistancesMatchBfsForEveryEdgeFailure) {
  for (auto& fc : test::small_families()) {
    const std::string name = fc.name;
    OracleFixture fx(std::move(fc));
    for (EdgeId e = 0; e < fx.g.num_edges(); ++e) {
      BfsBans bans;
      bans.banned_edge = e;
      const BfsResult brute = plain_bfs(fx.g, fx.source, bans);
      for (Vertex v = 0; v < fx.g.num_vertices(); ++v) {
        ASSERT_EQ(fx.engine.replacement_dist(v, e),
                  brute.dist[static_cast<std::size_t>(v)])
            << name << " v=" << v << " e=" << e;
      }
    }
  }
}

TEST(Oracle, NoFailureDistance) {
  OracleFixture fx({"gnm", gen::gnm(30, 110, 3), 0});
  const BfsResult r = plain_bfs(fx.g, 0);
  for (Vertex v = 0; v < fx.g.num_vertices(); ++v) {
    EXPECT_EQ(fx.tree.depth(v), r.dist[static_cast<std::size_t>(v)]);
  }
}

TEST(Oracle, PathsAreValidAndShortest) {
  OracleFixture fx({"gnm", gen::gnm(28, 100, 5), 0});
  for (const EdgeId e : fx.tree.tree_edges()) {
    for (Vertex v = 1; v < fx.g.num_vertices(); ++v) {
      const std::int32_t d = fx.engine.replacement_dist(v, e);
      if (d >= kInfHops) continue;  // see DisconnectionReportsInfinity
      const auto path = fx.engine.replacement_path(v, e);
      ASSERT_EQ(static_cast<std::int32_t>(path.size()) - 1, d);
      ASSERT_EQ(path.front(), fx.source);
      ASSERT_EQ(path.back(), v);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const EdgeId hop = fx.g.find_edge(path[i], path[i + 1]);
        ASSERT_NE(hop, kInvalidEdge);
        ASSERT_NE(hop, e);
      }
    }
  }
}

TEST(Oracle, DisconnectionReportsInfinity) {
  const Graph g = gen::path_graph(6);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 7);
  const BfsTree tree(g, w, 0);
  const ReplacementPathEngine engine(tree);
  const EdgeId mid = g.find_edge(2, 3);
  EXPECT_EQ(engine.replacement_dist(5, mid), kInfHops);
  // No path to reconstruct: the engine refuses instead of inventing one.
  EXPECT_THROW(engine.replacement_path(5, mid), CheckError);
  EXPECT_EQ(engine.replacement_dist(1, mid), 1);
}

}  // namespace
}  // namespace ftb

// optimizer_test.cpp — the greedy budgeted designs (paper Discussion):
// frontier monotonicity, structure correctness at every budget, and the
// instance-vs-universal gap.
#include <gtest/gtest.h>

#include "src/api/ftbfs_api.hpp"
#include "src/core/optimizer.hpp"
#include "src/core/verifier.hpp"
#include "src/graph/lower_bound.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

TEST(GreedyFrontier, EndpointsMatchTheExtremes) {
  const Graph g = gen::gnm(40, 170, 7);
  const GreedyFrontier frontier(g, 0);
  const FtBfsStructure baseline = api::build(g, {.eps = 1.0}).structure;
  // r=0 → exactly the ESA'13 baseline size (same engine, same last edges).
  EXPECT_EQ(frontier.points().front().backup, baseline.num_edges());
  // r=|T0| → the bare reinforced tree.
  EXPECT_EQ(frontier.points().back().backup, 0);
  EXPECT_EQ(frontier.points().size(), baseline.tree_edges().size() + 1);
}

TEST(GreedyFrontier, BackupIsNonIncreasingInR) {
  const Graph g = gen::random_connected(60, 200, 9);
  const GreedyFrontier frontier(g, 0);
  for (std::size_t i = 1; i < frontier.points().size(); ++i) {
    EXPECT_LE(frontier.points()[i].backup, frontier.points()[i - 1].backup);
    EXPECT_EQ(frontier.points()[i].reinforced,
              static_cast<std::int64_t>(i));
  }
}

TEST(GreedyFrontier, MaterializedPointsMatchFrontierCounts) {
  const Graph g = gen::gnm(36, 150, 11);
  const GreedyFrontier frontier(g, 0);
  for (const std::int64_t r : {std::int64_t{0}, std::int64_t{3},
                               std::int64_t{10},
                               static_cast<std::int64_t>(
                                   frontier.order().size())}) {
    const FtBfsStructure h = frontier.design_max_reinforced(r);
    EXPECT_EQ(h.num_reinforced(), std::min<std::int64_t>(
                                      r, static_cast<std::int64_t>(
                                             frontier.order().size())));
    EXPECT_EQ(h.num_backup(), frontier.backup_at(h.num_reinforced()));
  }
}

TEST(GreedyFrontier, EveryBudgetYieldsACorrectStructure) {
  for (auto& fc : test::tiny_families()) {
    const GreedyFrontier frontier(fc.graph, fc.source);
    const std::int64_t max_r =
        static_cast<std::int64_t>(frontier.order().size());
    for (std::int64_t r = 0; r <= max_r; r += std::max<std::int64_t>(
                                             1, max_r / 4)) {
      const FtBfsStructure h = frontier.design_max_reinforced(r);
      VerifyOptions vo;
      vo.check_nontree_failures = true;
      const VerifyReport rep = verify_structure(h, vo);
      EXPECT_TRUE(rep.ok)
          << fc.name << " r=" << r << ": " << rep.to_string();
    }
  }
}

TEST(GreedyFrontier, BackupBudgetDesignRespectsTheBudget) {
  const Graph g = gen::gnm(40, 170, 13);
  const GreedyFrontier frontier(g, 0);
  const std::int64_t full = frontier.points().front().backup;
  for (const std::int64_t budget :
       {std::int64_t{0}, full / 2, full, full * 2}) {
    const FtBfsStructure h = frontier.design_max_backup(budget);
    EXPECT_LE(h.num_backup(), budget);
    EXPECT_TRUE(verify_structure(h).ok);
  }
}

TEST(GreedyFrontier, BeatsTheUniversalConstructionOnItsOwnGraph) {
  // The Discussion's point: the universal ε construction can be wasteful
  // on specific instances. On the Theorem 5.1 graph, give the greedy the
  // same reinforcement budget the ε construction used and compare b.
  const auto lbg = lb::build_single_source(260, 0.5);
  api::BuildSpec spec;
  spec.eps = 0.15;
  spec.sources = {lbg.source};
  const api::BuildResult universal = api::build(lbg.graph, spec);
  const GreedyFrontier frontier(lbg.graph, lbg.source);
  const FtBfsStructure greedy =
      frontier.design_max_reinforced(universal.structure.num_reinforced());
  EXPECT_LE(greedy.num_backup(), universal.structure.num_backup());
  EXPECT_TRUE(verify_structure(greedy).ok);
}

TEST(GreedyFrontier, GreedyPrefersTheBridgeOnTheIntroExample) {
  // The intro figure: the single s—clique bridge saves nothing when
  // reinforced? No: the bridge is a cut edge, so it forces NO backup (its
  // failure disconnects). The clique tree edges are the ones with forced
  // detour edges. The very first greedy pick must save more than 1.
  const Graph g = gen::intro_example(20);
  const GreedyFrontier frontier(g, 0);
  EXPECT_GE(frontier.points()[0].backup - frontier.points()[1].backup, 1);
}

TEST(GreedyFrontier, RejectsNegativeBudgets) {
  const Graph g = gen::path_graph(6);
  const GreedyFrontier frontier(g, 0);
  EXPECT_THROW(frontier.design_max_reinforced(-1), CheckError);
  EXPECT_THROW(frontier.design_max_backup(-1), CheckError);
}

}  // namespace
}  // namespace ftb

// sim_test.cpp — failure drills report clean SLAs on correct structures
// and catch broken ones.
#include <gtest/gtest.h>

#include "src/api/ftbfs_api.hpp"
#include "src/graph/generators.hpp"
#include "src/sim/failure_sim.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

TEST(FailureSim, CorrectStructureHasNoViolations) {
  const Graph g = gen::gnm(40, 180, 61);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  const DrillReport rep = run_failure_drill(h, FaultClass::kEdge, 100, 1);
  EXPECT_EQ(rep.violations, 0) << rep.to_string();
  EXPECT_DOUBLE_EQ(rep.max_stretch, 1.0);
  EXPECT_GT(rep.drills, 0);
  EXPECT_GT(rep.reachable_queries, 0);
}

TEST(FailureSim, EpsilonStructureSurvivesDrills) {
  const Graph g = gen::random_connected(60, 160, 63);
  api::BuildSpec spec;
  spec.eps = 0.3;
  const api::BuildResult res = api::build(g, spec);
  const DrillReport rep =
      run_failure_drill(res.structure, FaultClass::kEdge, 200, 2);
  EXPECT_EQ(rep.violations, 0) << rep.to_string();
  EXPECT_DOUBLE_EQ(rep.max_stretch, 1.0);
}

TEST(FailureSim, ReinforcedEdgesAreNeverDrilled) {
  const Graph g = gen::gnm(30, 120, 65);
  api::BuildSpec spec;
  spec.eps = 0.2;
  const api::BuildResult res = api::build(g, spec);
  // Ask for more drills than there are fault-prone edges: the simulator
  // must cap at exactly m - r.
  const DrillReport rep =
      run_failure_drill(res.structure, FaultClass::kEdge, g.num_edges() * 2,
                        3);
  EXPECT_EQ(rep.drills,
            g.num_edges() - res.structure.num_reinforced());
}

TEST(FailureSim, DetectsBrokenStructure) {
  // A bare tree over the intro example misses the clique reroutes.
  const Graph g = gen::intro_example(16);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 4);
  const BfsTree tree(g, w, 0);
  const FtBfsStructure bare(g, 0, tree.tree_edges(), {}, tree.tree_edges());
  const DrillReport rep =
      run_failure_drill(bare, FaultClass::kEdge, g.num_edges(), 5);
  EXPECT_GT(rep.violations, 0);
  EXPECT_GT(rep.max_stretch, 1.0);
}

TEST(FailureSim, DeterministicGivenSeed) {
  const Graph g = gen::gnm(30, 120, 67);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  const DrillReport a = run_failure_drill(h, FaultClass::kEdge, 50, 11);
  const DrillReport b = run_failure_drill(h, FaultClass::kEdge, 50, 11);
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(FailureSim, VertexDrillCleanOnVertexStructure) {
  const Graph g = gen::gnm(40, 180, 69);
  const FtBfsStructure h =
      api::build(g, {.fault_model = FaultClass::kVertex}).structure;
  const DrillReport rep = run_failure_drill(h, FaultClass::kVertex, 100, 1);
  EXPECT_EQ(rep.violations, 0) << rep.to_string();
  EXPECT_DOUBLE_EQ(rep.max_stretch, 1.0);
  EXPECT_GT(rep.drills, 0);
  // All n−1 routers are fault-prone; asking for more caps there.
  const DrillReport all =
      run_failure_drill(h, FaultClass::kVertex, g.num_vertices() * 2, 2);
  EXPECT_EQ(all.drills, g.num_vertices() - 1);
}

TEST(FailureSim, VertexDrillDetectsBareTree) {
  const Graph g = gen::erdos_renyi(36, 0.25, 71);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 6);
  const BfsTree tree(g, w, 0);
  const FtBfsStructure bare(g, 0, tree.tree_edges(), {}, tree.tree_edges());
  const DrillReport rep =
      run_failure_drill(bare, FaultClass::kVertex, g.num_vertices(), 7);
  EXPECT_GT(rep.violations, 0);
}

TEST(FailureSim, EitherDrillRunsBothStorms) {
  const Graph g = gen::gnm(32, 140, 75);
  const FtBfsStructure dual =
      api::build(g, {.fault_model = FaultClass::kEither}).structure;
  const DrillReport edge_rep =
      run_failure_drill(dual, FaultClass::kEdge, 1000, 3);
  const DrillReport vrep =
      run_failure_drill(dual, FaultClass::kVertex, 1000, 3);
  const DrillReport both =
      run_failure_drill(dual, FaultClass::kEither, 1000, 3);
  EXPECT_EQ(both.drills, edge_rep.drills + vrep.drills);
  EXPECT_EQ(both.violations, 0) << both.to_string();
  EXPECT_DOUBLE_EQ(both.max_stretch, 1.0);
}

TEST(FailureSim, BridgeFailuresCountAsDisconnections) {
  const Graph g = gen::path_graph(10);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  const DrillReport rep = run_failure_drill(h, FaultClass::kEdge, 9, 13);
  EXPECT_GT(rep.disconnections, 0);
  EXPECT_EQ(rep.violations, 0);  // disconnections in G too — no violation
}

/// One pinned drill: a test::pin_build case as built (victim =
/// kInvalidEdge) or without its first needed backup edge, drilled with
/// seed 3 (200 single failures per kind, 150 dual pairs). `report` is the
/// single-source DrillReport::to_string() of the per-model drills this
/// loop replaced, byte for byte. The σ = 3 counts score every source (the
/// replaced drills scored sources[0] alone: queries 2212 / 729 / 2941 /
/// 4135, and 0 violations on every broken σ = 3 case but edge's 2), and
/// their storms also draw what the other sources' universes add to
/// sources[0]'s: router sources[0] itself.
struct DrillPin {
  FaultClass model;
  std::size_t sigma;
  EdgeId victim;
  std::int64_t drills;
  std::int64_t queries;
  std::int64_t violations;
  const char* report;
};

TEST(FailureSim, PinnedAgainstThePerModelDrills) {
  const DrillPin kPins[] = {
      {FaultClass::kEdge, 1, kInvalidEdge, 79, 2212, 0,
       "DrillReport(drills=79, queries=2212, violations=0, "
       "disconnections=0, max_stretch=1, avg_distance=1.87206)"},
      {FaultClass::kEdge, 1, 6, 79, 2212, 2,
       "DrillReport(drills=79, queries=2212, violations=2, "
       "disconnections=0, max_stretch=inf, avg_distance=1.87116)"},
      {FaultClass::kEdge, 3, kInvalidEdge, 79, 6636, 0, nullptr},
      {FaultClass::kEdge, 3, 7, 79, 6636, 2, nullptr},
      {FaultClass::kVertex, 1, kInvalidEdge, 27, 729, 0,
       "DrillReport(drills=27, queries=729, violations=0, "
       "disconnections=0, max_stretch=1, avg_distance=1.86831)"},
      {FaultClass::kVertex, 1, 6, 27, 729, 1,
       "DrillReport(drills=27, queries=729, violations=1, "
       "disconnections=0, max_stretch=inf, avg_distance=1.8642)"},
      {FaultClass::kVertex, 3, kInvalidEdge, 28, 2187, 0, nullptr},
      {FaultClass::kVertex, 3, 6, 28, 2187, 1, nullptr},
      {FaultClass::kEither, 1, kInvalidEdge, 106, 2941, 0,
       "DrillReport(drills=106, queries=2941, violations=0, "
       "disconnections=0, max_stretch=1, avg_distance=1.87113)"},
      {FaultClass::kEither, 1, 6, 106, 2941, 3,
       "DrillReport(drills=106, queries=2941, violations=3, "
       "disconnections=0, max_stretch=inf, avg_distance=1.86943)"},
      {FaultClass::kEither, 3, kInvalidEdge, 107, 8823, 0, nullptr},
      {FaultClass::kEither, 3, 6, 107, 8823, 1, nullptr},
      {FaultClass::kDual, 1, kInvalidEdge, 150, 4135, 0,
       "DrillReport(drills=150, queries=4135, violations=0, "
       "disconnections=0, max_stretch=1, avg_distance=1.88126)"},
      {FaultClass::kDual, 1, 6, 150, 4135, 0,
       "DrillReport(drills=150, queries=4135, violations=0, "
       "disconnections=0, max_stretch=1, avg_distance=1.88126)"},
      {FaultClass::kDual, 3, kInvalidEdge, 150, 12269, 0, nullptr},
      {FaultClass::kDual, 3, 6, 150, 12269, 1, nullptr},
  };
  const Graph g = test::pin_graph();
  for (const DrillPin& pin : kPins) {
    const api::BuildResult res = test::pin_build(g, pin.model, pin.sigma);
    const std::string label = std::string(to_string(pin.model)) +
                              " sigma=" + std::to_string(pin.sigma) +
                              " victim=" + std::to_string(pin.victim);
    const FtBfsStructure h = test::without_edge(res.structure, pin.victim);
    const std::int64_t n = pin.model == FaultClass::kDual ? 150 : 200;
    const DrillReport by_structure =
        run_failure_drill(h, pin.model, n, 3, res.sources);
    const api::Session session = api::Session::deploy(
        g, api::BuildResult{res.spec, res.sources, FtBfsStructure(h),
                            res.per_source, res.dual_tables,
                            res.dual_site_dist, 0.0});
    const DrillReport by_session = run_failure_drill(session, pin.model, n, 3);
    for (const DrillReport& rep : {by_structure, by_session}) {
      EXPECT_EQ(rep.drills, pin.drills) << label;
      EXPECT_EQ(rep.reachable_queries, pin.queries) << label;
      EXPECT_EQ(rep.violations, pin.violations) << label;
      EXPECT_EQ(rep.disconnections, 0) << label;
      // A vertex storm is the shuffled router universe (n < 200 drills),
      // so n distinct drills means every router failed — router
      // sources[0] included, which only the other sources put in model.
      if (pin.model == FaultClass::kVertex && pin.sigma > 1) {
        EXPECT_EQ(rep.drills, g.num_vertices()) << label;
      }
    }
    if (pin.report == nullptr) continue;
    EXPECT_EQ(by_structure.to_string(), pin.report) << label;
    if (pin.model != FaultClass::kDual) {
      EXPECT_EQ(by_session.to_string(), pin.report) << label;
    }
  }
}

TEST(FailureSim, SessionDualDrillReportPinned) {
  const Graph g = test::pin_graph();
  const api::Session session =
      api::Session::deploy(g, test::pin_build(g, FaultClass::kDual, 1));
  EXPECT_EQ(run_failure_drill(session, FaultClass::kDual, 150, 3).to_string(),
            "DrillReport(drills=150, queries=4135, violations=0, "
            "disconnections=0, max_stretch=1, avg_distance=1.88126, "
            "pair_traversals=29, site_oracle_hits=0, pair_cache_hits=757, "
            "pair_cache_misses=29)");
}

TEST(FailureSim, DrillScoresEverySource) {
  // A single-source ε structure promises nothing from another source:
  // drilled as an FT-MBFS artifact over {0, 20}, the storm must see it.
  // (Scoring only h.source(), the drill used to report 0 violations.)
  const Graph g = gen::gnm(40, 150, 5);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  EXPECT_EQ(run_failure_drill(h, FaultClass::kEdge, 500, 1).violations, 0);
  const std::vector<Vertex> two{0, 20};
  const DrillReport rep = run_failure_drill(h, FaultClass::kEdge, 500, 1, two);
  EXPECT_GT(rep.violations, 0) << rep.to_string();
  EXPECT_EQ(rep.drills, 150);
}

}  // namespace
}  // namespace ftb

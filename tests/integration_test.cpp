// integration_test.cpp — full-pipeline flows across module boundaries:
// generate → build → serialize → reload → query → drill → optimize,
// asserting cross-module consistency at every joint.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "src/api/ftbfs_api.hpp"
#include "src/core/cost_model.hpp"
#include "src/core/epsilon_ftbfs.hpp"
#include "src/core/ftbfs.hpp"
#include "src/core/optimizer.hpp"
#include "src/core/replacement.hpp"
#include "src/core/verifier.hpp"
#include "src/graph/connectivity.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/lower_bound.hpp"
#include "src/io/edge_list.hpp"
#include "src/io/structure_io.hpp"
#include "src/sim/failure_sim.hpp"
#include "tests/property_test_util.hpp"

namespace ftb {
namespace {

/// Ships a single-source structure through the v5 wire format.
FtBfsStructure ship(const FtBfsStructure& h, const Graph& g) {
  const Vertex anchor[] = {h.source()};
  std::stringstream wire;
  io::write_structure_v5(h, anchor, {}, {}, wire);
  return io::read_structure(g, wire);
}

TEST(Integration, FullDeploymentPipeline) {
  // 1. generate + ship the graph
  const Graph g0 = gen::random_connected(80, 300, 404);
  std::stringstream graph_wire;
  io::write_edge_list(g0, graph_wire);
  const Graph g = io::read_edge_list(graph_wire);

  // 2. design under a budget
  const CostParams prices{1.0, 25.0};
  const std::vector<double> grid{0.0, 0.2, 1.0 / 3.0, 0.5};
  const EpsilonResult designed = design_cheapest(g, 0, prices, grid);

  // 3. ship the structure
  const FtBfsStructure deployed = ship(designed.structure, g);

  // 4. verify + drill the deployed artifact
  EXPECT_TRUE(verify_structure(deployed).ok);
  const DrillReport drill =
      run_failure_drill(deployed, FaultClass::kEdge, 120, 99);
  EXPECT_EQ(drill.violations, 0) << drill.to_string();
  EXPECT_DOUBLE_EQ(drill.max_stretch, 1.0);
}

TEST(Integration, EngineTablesAgreeWithDeployedStructure) {
  const Graph g = gen::gnm(50, 220, 405);
  const std::uint64_t seed = 7;
  api::BuildSpec spec;
  spec.eps = 0.3;
  spec.weight_seed = seed;
  const api::BuildResult res = api::build(g, spec);

  const EdgeWeights w = EdgeWeights::uniform_random(g, seed);
  const BfsTree tree(g, w, 0);
  const ReplacementPathEngine engine(tree);

  Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    const EdgeId e = static_cast<EdgeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
    if (res.structure.is_reinforced(e)) continue;
    const auto bfs = res.structure.distances_avoiding(e);
    const Vertex v = static_cast<Vertex>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
    ASSERT_EQ(engine.replacement_dist(v, e),
              bfs[static_cast<std::size_t>(v)]);
  }
}

TEST(Integration, FrontierDesignsRoundTripAndVerify) {
  const Graph g = gen::gnm(40, 170, 406);
  const GreedyFrontier frontier(g, 0);
  const FtBfsStructure budget_design = frontier.design_max_reinforced(10);
  const FtBfsStructure back = ship(budget_design, g);
  EXPECT_EQ(back.num_reinforced(), budget_design.num_reinforced());
  EXPECT_TRUE(verify_structure(back).ok);
}

TEST(Integration, ConnectivityExplainsDrillDisconnections) {
  // On a bridgy graph the drill's disconnection count must agree with the
  // bridge structure: failing a bridge disconnects exactly the far side.
  const Graph g = gen::dumbbell(8, 3);
  const ConnectivityReport conn = analyze_connectivity(g);
  ASSERT_EQ(conn.bridges.size(), 3u);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  // Drill everything deterministically.
  const DrillReport rep =
      run_failure_drill(h, FaultClass::kEdge, g.num_edges(), 3);
  EXPECT_EQ(rep.violations, 0);
  // Each failed bridge cuts off at least the far clique (8 vertices).
  EXPECT_GE(rep.disconnections, 3 * 8);
}

TEST(Integration, MultiSourceDeploymentStormAcrossSigma) {
  // The full-pipeline flow was single-source only; this sweeps σ: one
  // union build over σ sources (one canonical tree per source), a
  // save/reload round trip, then a FaultSampler-driven query storm per
  // source index, refereed by literal BFS.
  const Graph g = gen::random_connected(48, 160, 408);
  for (const std::size_t sigma : {std::size_t{2}, std::size_t{6}}) {
    std::vector<Vertex> sources;
    for (std::size_t k = 0; k < sigma; ++k) {
      sources.push_back(static_cast<Vertex>(
          (k * static_cast<std::size_t>(g.num_vertices())) / sigma));
    }
    api::BuildSpec spec;
    spec.eps = 0.3;
    spec.sources = sources;
    const api::Session built = api::Session::open(g, spec);

    const std::string path = ::testing::TempDir() + "/ms_storm_" +
                             std::to_string(sigma) + ".ftbfs";
    built.save_v5(path);
    const api::Session session = api::Session::load(g, path);
    std::remove(path.c_str());

    std::vector<api::Query> batch;
    for (std::size_t si = 0; si < sigma; ++si) {
      test::FaultSampler sampler(g, sources[si], 408 + si);
      int storms = 0;
      while (storms < 8) {
        const DualSite site = sampler.next_site();
        if (site.kind != FaultClass::kEdge ||
            session.structure().is_reinforced(site.id)) {
          continue;
        }
        ++storms;
        for (Vertex v = 0; v < g.num_vertices(); v += 5) {
          api::Query q;
          q.v = v;
          q.kind = FaultClass::kEdge;
          q.fault = site.id;
          q.source_index = static_cast<std::int32_t>(si);
          batch.push_back(q);
        }
      }
    }
    const api::QueryResponse resp = session.query(batch);
    EXPECT_EQ(resp.refused, 0) << "sigma " << sigma;
    BfsScratch truth;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const api::Query& q = batch[i];
      const Vertex s = sources[static_cast<std::size_t>(q.source_index)];
      BfsBans bans;
      bans.banned_edge = q.fault;
      bfs_run(g, s, bans, truth);
      ASSERT_EQ(resp.results[i].dist, truth.dist(q.v))
          << "sigma=" << sigma << " i=" << i;
    }
  }
}

TEST(Integration, AdversarialEndToEnd) {
  // The paper's own worst case through the whole stack.
  const auto lbg = lb::build_single_source(400, 0.5);
  api::BuildSpec spec;
  spec.eps = 0.15;
  spec.sources = {lbg.source};
  const api::BuildResult res = api::build(lbg.graph, spec);
  // Certified floor honored.
  EXPECT_GE(res.structure.num_backup(),
            lbg.certified_min_backup(res.structure.num_reinforced()));
  // Contract honored.
  EXPECT_TRUE(verify_structure(res.structure).ok);
  // Drills clean.
  const DrillReport drill =
      run_failure_drill(res.structure, FaultClass::kEdge, 200, 5);
  EXPECT_EQ(drill.violations, 0);
  // And the greedy frontier dominates at the same budget.
  const GreedyFrontier frontier(lbg.graph, lbg.source);
  EXPECT_LE(frontier.backup_at(res.structure.num_reinforced()),
            res.structure.num_backup());
}

}  // namespace
}  // namespace ftb

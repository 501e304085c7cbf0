// epsilon_ftbfs_test.cpp — the main construction (Theorem 3.1).
//
// The decisive property: for every ε and every graph family, every
// non-reinforced edge failure preserves every distance (checked against
// literal BFS by the verifier), while b(n) and r(n) stay inside the
// theorem envelopes. The family sweep runs on the seeded property harness
// (tests/property_test_util.hpp): a failing case prints its one-command
// FTBFS_PROPERTY_SEED reproduction.
#include <gtest/gtest.h>

#include <cmath>

#include "src/api/ftbfs_api.hpp"
#include "src/core/epsilon_ftbfs.hpp"
#include "src/core/verifier.hpp"
#include "src/graph/lower_bound.hpp"
#include "tests/property_test_util.hpp"

namespace ftb {
namespace {

const double kEpsGrid[] = {0.0, 0.15, 0.25, 0.4, 0.5, 1.0};

/// The sweep set: the harness's four seeded families plus the structured
/// corner shapes the old hand-rolled sweep carried (labels instead of
/// derived seeds — they are deterministic regardless of the base seed).
std::vector<test::PropertyCase> epsilon_sweep_cases() {
  std::vector<test::PropertyCase> cases = test::property_cases(28, 1);
  const auto add = [&](const char* label, Graph g, Vertex source) {
    test::PropertyCase pc;
    pc.label = label;
    pc.base_seed = test::property_base_seed();
    pc.source = source;
    pc.n = g.num_vertices();
    pc.graph = std::move(g);
    cases.push_back(std::move(pc));
  };
  add("star24", gen::star_graph(24), 0);
  add("complete16", gen::complete_graph(16), 3);
  add("bipartite6x9", gen::complete_bipartite(6, 9), 0);
  add("intro24", gen::intro_example(24), 0);
  {
    auto lb = lb::build_single_source(220, 0.33);
    add("lb220_e33", std::move(lb.graph), lb.source);
  }
  return cases;
}

TEST(EpsilonFamilySweep, NonReinforcedFailuresPreserveAllDistances) {
  for (const test::PropertyCase& pc : epsilon_sweep_cases()) {
    FTB_PROPERTY_TRACE(pc, "epsilon_ftbfs_test");
    for (const double eps : kEpsGrid) {
      api::BuildSpec spec;
      spec.eps = eps;
      spec.sources = {pc.source};
      const api::BuildResult res = api::build(pc.graph, spec);
      VerifyOptions vo;
      vo.check_nontree_failures = true;
      const VerifyReport rep = verify_structure(res.structure, vo);
      EXPECT_TRUE(rep.ok) << pc.name() << " eps=" << eps << ": "
                          << rep.to_string();
    }
  }
}

TEST(EpsilonFamilySweep, StatsAreInternallyConsistent) {
  for (const test::PropertyCase& pc : epsilon_sweep_cases()) {
    FTB_PROPERTY_TRACE(pc, "epsilon_ftbfs_test");
    for (const double eps : kEpsGrid) {
      api::BuildSpec spec;
      spec.eps = eps;
      spec.sources = {pc.source};
      const api::BuildResult res = api::build(pc.graph, spec);
      const auto& st = res.per_source.front();
      EXPECT_EQ(st.backup + st.reinforced, st.structure_edges);
      EXPECT_EQ(st.backup, res.structure.num_backup());
      EXPECT_EQ(st.reinforced, res.structure.num_reinforced());
      if (!st.used_baseline && eps > 0) {
        EXPECT_EQ(st.i1_size + st.i2_size, st.pairs_uncovered);
        // Lemma 4.10: Phase S1 never leaves pairs behind.
        EXPECT_EQ(st.s1_leftover_pairs, 0) << pc.name() << " eps=" << eps;
      }
    }
  }
}

TEST(EpsilonFamilySweep, ReinforcedSetIsSubsetOfTreeEdges) {
  for (const test::PropertyCase& pc : epsilon_sweep_cases()) {
    FTB_PROPERTY_TRACE(pc, "epsilon_ftbfs_test");
    for (const double eps : kEpsGrid) {
      api::BuildSpec spec;
      spec.eps = eps;
      spec.sources = {pc.source};
      const api::BuildResult res = api::build(pc.graph, spec);
      std::vector<std::uint8_t> is_tree(
          static_cast<std::size_t>(pc.graph.num_edges()), 0);
      for (const EdgeId e : res.structure.tree_edges()) {
        is_tree[static_cast<std::size_t>(e)] = 1;
      }
      for (const EdgeId e : res.structure.reinforced()) {
        EXPECT_TRUE(is_tree[static_cast<std::size_t>(e)])
            << pc.name() << ": reinforced a non-tree edge " << e;
      }
    }
  }
}

// ---- Endpoint semantics of the tradeoff -----------------------------------

TEST(EpsilonFtBfs, EpsZeroReinforcesExactlyTheTree) {
  const Graph g = gen::erdos_renyi(40, 0.15, 11);
  api::BuildSpec spec;
  spec.eps = 0.0;
  const api::BuildResult res = api::build(g, spec);
  EXPECT_EQ(res.structure.num_backup(), 0);
  EXPECT_EQ(res.structure.num_edges(), res.structure.num_reinforced());
  EXPECT_EQ(res.structure.edges(), res.structure.tree_edges());
}

TEST(EpsilonFtBfs, LargeEpsDispatchesToBaseline) {
  const Graph g = gen::erdos_renyi(40, 0.15, 11);
  for (const double eps : {0.5, 0.75, 1.0}) {
    api::BuildSpec spec;
    spec.eps = eps;
    const api::BuildResult res = api::build(g, spec);
    EXPECT_TRUE(res.per_source.front().used_baseline);
    EXPECT_EQ(res.structure.num_reinforced(), 0);
  }
}

TEST(EpsilonFtBfs, ForcedS1S2AtLargeEpsStillCorrect) {
  // Ablation path: run the full S1/S2 pipeline at ε = 0.5.
  const Graph g = gen::erdos_renyi(36, 0.18, 13);
  api::BuildSpec spec;
  spec.eps = 0.5;
  spec.baseline_for_large_eps = false;
  const api::BuildResult res = api::build(g, spec);
  EXPECT_FALSE(res.per_source.front().used_baseline);
  VerifyOptions vo;
  vo.check_nontree_failures = true;
  EXPECT_TRUE(verify_structure(res.structure, vo).ok);
}

TEST(EpsilonFtBfs, DeterministicGivenSeed) {
  const Graph g = gen::gnm(50, 220, 17);
  api::BuildSpec spec;
  spec.eps = 0.3;
  spec.weight_seed = 99;
  const api::BuildResult a = api::build(g, spec);
  const api::BuildResult b = api::build(g, spec);
  EXPECT_EQ(a.structure.edges(), b.structure.edges());
  EXPECT_EQ(a.structure.reinforced(), b.structure.reinforced());
}

TEST(EpsilonFtBfs, ReinforcementWithinTheoremEnvelope) {
  // Generous-constant version of r(n) = O(1/ε · n^{1-ε} · log n) across
  // moderate random instances.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Graph g = gen::random_connected(160, 500, seed);
    for (const double eps : {0.2, 1.0 / 3.0}) {
      api::BuildSpec spec;
      spec.eps = eps;
      const api::BuildResult res = api::build(g, spec);
      const double bound = 8.0 * theorem_reinforce_bound(160, eps);
      EXPECT_LE(static_cast<double>(res.structure.num_reinforced()), bound)
          << "seed=" << seed << " eps=" << eps;
    }
  }
}

TEST(EpsilonFtBfs, BackupWithinTheoremEnvelope) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Graph g = gen::random_connected(160, 500, seed);
    for (const double eps : {0.2, 1.0 / 3.0, 0.5}) {
      api::BuildSpec spec;
      spec.eps = eps;
      const api::BuildResult res = api::build(g, spec);
      const double bound = 8.0 * theorem_backup_bound(160, eps);
      EXPECT_LE(static_cast<double>(res.structure.num_backup()), bound)
          << "seed=" << seed << " eps=" << eps;
    }
  }
}

TEST(EpsilonFtBfs, AblationKnobsPreserveCorrectness) {
  const Graph g = gen::gnm(60, 300, 23);
  for (const bool no_flush : {false, true}) {
    for (const bool no_cross : {false, true}) {
      api::BuildSpec spec;
      spec.eps = 0.25;
      spec.disable_s2_light_flush = no_flush;
      spec.disable_s2_crossings = no_cross;
      const api::BuildResult res = api::build(g, spec);
      const VerifyReport rep = verify_structure(res.structure);
      EXPECT_TRUE(rep.ok) << "no_flush=" << no_flush
                          << " no_cross=" << no_cross << ": "
                          << rep.to_string();
    }
  }
}

TEST(EpsilonFtBfs, SingleRoundOverrideStillCorrect) {
  const Graph g = gen::gnm(60, 300, 29);
  api::BuildSpec spec;
  spec.eps = 0.25;
  spec.k_rounds_override = 1;
  const api::BuildResult res = api::build(g, spec);
  EXPECT_TRUE(verify_structure(res.structure).ok);
}


TEST(EpsilonFtBfs, TradeoffIsMonotoneOnTheDeepFamily) {
  // The headline shape at instance level: on the deep adversarial family,
  // growing eps buys more backup and sheds reinforcement.
  const auto lbg = lb::build_single_source(500, 0.5);
  std::vector<std::int64_t> bs, rs;
  for (const double eps : {0.05, 0.15, 0.3}) {
    api::BuildSpec spec;
    spec.eps = eps;
    spec.sources = {lbg.source};
    const api::BuildResult res = api::build(lbg.graph, spec);
    bs.push_back(res.structure.num_backup());
    rs.push_back(res.structure.num_reinforced());
  }
  EXPECT_LE(bs.front(), bs.back());
  EXPECT_GE(rs.front(), rs.back());
  // And the small-eps end genuinely reinforces something here.
  EXPECT_GT(rs.front(), 0);
}

TEST(EpsilonFtBfs, RejectsOutOfRangeEps) {
  const Graph g = gen::path_graph(4);
  api::BuildSpec spec;
  spec.eps = -0.1;
  EXPECT_THROW(api::build(g, spec), CheckError);
  spec.eps = 1.5;
  EXPECT_THROW(api::build(g, spec), CheckError);
}

}  // namespace
}  // namespace ftb

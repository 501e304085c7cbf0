// multi_source_test.cpp — the FT-MBFS union construction. The family
// sweep runs on the seeded property harness (tests/property_test_util.hpp)
// so a failing case prints its FTBFS_PROPERTY_SEED reproduction.
#include <gtest/gtest.h>

#include "src/core/multi_source.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/lower_bound.hpp"
#include "tests/property_test_util.hpp"
#include "tests/referee.hpp"

namespace ftb {
namespace {

TEST(MultiSource, ContractHoldsForEverySource) {
  const Graph g = gen::gnm(40, 150, 77);
  api::BuildSpec spec;
  spec.sources = {0, 7, 23};
  spec.eps = 0.3;
  const api::BuildResult ms = api::build(g, spec);
  EXPECT_EQ(verify_multi_source(ms.structure, ms.sources), 0);
}

TEST(MultiSource, PropertySweepContractHoldsOnEveryFamily) {
  // Three spread sources per seeded family case, both union flavors.
  for (const test::PropertyCase& pc : test::property_cases(30, 1)) {
    FTB_PROPERTY_TRACE(pc, "multi_source_test");
    const Vertex n = pc.graph.num_vertices();
    ASSERT_GE(n, 9);
    api::BuildSpec spec;
    spec.sources = {0, n / 3, (2 * n) / 3};
    spec.eps = 0.3;
    const api::BuildResult ms = api::build(pc.graph, spec);
    EXPECT_EQ(verify_multi_source(ms.structure, spec.sources), 0)
        << pc.name();
    spec.fault_model = FaultClass::kVertex;
    const api::BuildResult vms = api::build(pc.graph, spec);
    EXPECT_EQ(verify_vertex_multi_source(vms.structure, spec.sources), 0)
        << pc.name();
  }
}

TEST(MultiSource, ContractHoldsAtEndpointEps) {
  const Graph g = gen::random_connected(36, 60, 5);
  for (const double eps : {0.0, 0.5, 1.0}) {
    api::BuildSpec spec;
    spec.sources = {0, 18};
    spec.eps = eps;
    const api::BuildResult ms = api::build(g, spec);
    EXPECT_EQ(verify_multi_source(ms.structure, ms.sources), 0)
        << "eps=" << eps;
  }
}

TEST(MultiSource, UnionDominatesEverySingleSource) {
  const Graph g = gen::gnm(36, 140, 81);
  api::BuildSpec spec;
  spec.sources = {0, 5, 11};
  spec.eps = 0.25;
  const api::BuildResult ms = api::build(g, spec);
  for (const Vertex s : ms.sources) {
    spec.sources = {s};
    const api::BuildResult single = api::build(g, spec);
    EXPECT_GE(ms.structure.num_edges(), single.structure.num_edges());
    for (const EdgeId e : single.structure.edges()) {
      EXPECT_TRUE(ms.structure.contains(e));
    }
  }
}

TEST(MultiSource, PerSourceStatsAligned) {
  const Graph g = gen::gnm(30, 100, 83);
  api::BuildSpec spec;
  spec.sources = {2, 9};
  spec.eps = 0.3;
  const api::BuildResult ms = api::build(g, spec);
  ASSERT_EQ(ms.per_source.size(), spec.sources.size());
  for (const auto& st : ms.per_source) {
    EXPECT_EQ(st.n, g.num_vertices());
    EXPECT_GE(st.structure_edges, g.num_vertices() - 1);
  }
}

TEST(MultiSource, WorksOnTheTheorem54Graph) {
  const auto lb = lb::build_multi_source(400, 2, 0.3);
  api::BuildSpec spec;
  spec.sources = lb.sources;
  spec.eps = 0.3;
  const api::BuildResult ms = api::build(lb.graph, spec);
  // Spot-verify (cap failures for runtime).
  EXPECT_EQ(verify_multi_source(ms.structure, ms.sources,
                                /*max_failures_per_source=*/150),
            0);
  // Certified bound holds for the union as well.
  EXPECT_GE(ms.structure.num_backup(),
            lb.certified_min_backup(ms.structure.num_reinforced()));
}

TEST(MultiSource, SingleSourceDegeneratesToEpsilonFtBfs) {
  // σ = 1 runs the union pipeline too; it must return the per-source
  // structure exactly as the ε pipeline builds it on the scalar tree.
  const Graph g = gen::gnm(30, 110, 85);
  api::BuildSpec spec;
  spec.sources = {4};
  spec.eps = 0.3;
  const api::BuildResult ms = api::build(g, spec);
  const EdgeWeights w = EdgeWeights::uniform_random(g, spec.weight_seed);
  const EpsilonResult single = detail::build_epsilon_ftbfs_impl(
      BfsTree(g, w, 4), spec.epsilon_options());
  EXPECT_EQ(ms.structure.edges(), single.structure.edges());
  EXPECT_EQ(ms.structure.reinforced(), single.structure.reinforced());
  EXPECT_EQ(ms.structure.tree_edges(), single.structure.tree_edges());
}

TEST(MultiSource, EmptySourcesRejected) {
  const Graph g = gen::path_graph(4);
  for (const FaultClass model : {FaultClass::kEdge, FaultClass::kVertex}) {
    api::BuildSpec spec;
    spec.fault_model = model;
    spec.sources = {};
    EXPECT_THROW(api::build(g, spec), CheckError) << to_string(model);
  }
}

TEST(MultiSource, VertexUnionContractHoldsForEverySource) {
  const Graph g = gen::gnm(40, 150, 87);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kVertex;
  spec.sources = {0, 7, 23};
  const api::BuildResult ms = api::build(g, spec);
  EXPECT_EQ(ms.structure.fault_class(), FaultClass::kVertex);
  EXPECT_EQ(verify_vertex_multi_source(ms.structure, ms.sources), 0);
}

TEST(MultiSource, VertexUnionDominatesEverySingleSource) {
  const Graph g = gen::gnm(36, 140, 89);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kVertex;
  spec.sources = {0, 5, 11};
  const api::BuildResult ms = api::build(g, spec);
  for (const Vertex s : ms.sources) {
    spec.sources = {s};
    const api::BuildResult single = api::build(g, spec);
    for (const EdgeId e : single.structure.edges()) {
      EXPECT_TRUE(ms.structure.contains(e));
    }
  }
}

TEST(MultiSource, UnionsMatchTwoPassReferee) {
  // The production multi-source build (per-source trees on the fused
  // canonical kernel) vs the per-source union of tests/referee.hpp on
  // two-pass canonical_sp trees: every union flavor must emit the same
  // structure byte for byte across the property harness's adversarial
  // families.
  for (const test::PropertyCase& pc : test::property_cases(30, 1)) {
    FTB_PROPERTY_TRACE(pc, "multi_source_test");
    const Vertex n = pc.graph.num_vertices();
    for (const FaultClass model : {FaultClass::kEdge, FaultClass::kVertex,
                                   FaultClass::kEither, FaultClass::kDual}) {
      api::BuildSpec spec;
      spec.fault_model = model;
      spec.eps = 0.3;
      spec.sources = {0, n / 3, (2 * n) / 3};
      const api::BuildResult a = api::build(pc.graph, spec);
      const api::BuildResult b = test::referee_build(pc.graph, spec);
      const std::string label = pc.name() + " " + to_string(model);
      EXPECT_EQ(a.structure.edges(), b.structure.edges()) << label;
      EXPECT_EQ(a.structure.reinforced(), b.structure.reinforced()) << label;
      EXPECT_EQ(a.structure.tree_edges(), b.structure.tree_edges()) << label;
      ASSERT_EQ(a.per_source.size(), b.per_source.size()) << label;
      for (std::size_t i = 0; i < a.per_source.size(); ++i) {
        EXPECT_EQ(a.per_source[i].structure_edges,
                  b.per_source[i].structure_edges)
            << label << " source " << i;
      }
      ASSERT_EQ(a.dual_tables.size(), b.dual_tables.size()) << label;
      for (std::size_t i = 0; i < a.dual_tables.size(); ++i) {
        EXPECT_TRUE(test::same_tables(a.dual_tables[i], b.dual_tables[i]))
            << label << " source " << i;
      }
    }
  }
}

TEST(MultiSource, VertexSingleSourceDegeneratesToBaseline) {
  const Graph g = gen::gnm(30, 110, 91);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kVertex;
  spec.sources = {4};
  const api::BuildResult ms = api::build(g, spec);
  const EdgeWeights w = EdgeWeights::uniform_random(g, spec.weight_seed);
  const FtBfsStructure single =
      detail::build_vertex_ftbfs_impl(BfsTree(g, w, 4), spec.pool);
  EXPECT_EQ(ms.structure.edges(), single.edges());
  EXPECT_EQ(ms.structure.tree_edges(), single.tree_edges());
  EXPECT_EQ(ms.structure.fault_class(), single.fault_class());
}

}  // namespace
}  // namespace ftb

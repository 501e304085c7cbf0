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
  const std::vector<Vertex> sources{0, 7, 23};
  EpsilonOptions opts;
  opts.eps = 0.3;
  const MultiSourceResult ms = build_epsilon_ftmbfs(g, sources, opts);
  EXPECT_EQ(verify_multi_source(g, ms), 0);
}

TEST(MultiSource, PropertySweepContractHoldsOnEveryFamily) {
  // Three spread sources per seeded family case, both union flavors.
  for (const test::PropertyCase& pc : test::property_cases(30, 1)) {
    FTB_PROPERTY_TRACE(pc, "multi_source_test");
    const Vertex n = pc.graph.num_vertices();
    ASSERT_GE(n, 9);
    const std::vector<Vertex> sources{0, n / 3, (2 * n) / 3};
    EpsilonOptions opts;
    opts.eps = 0.3;
    const MultiSourceResult ms =
        build_epsilon_ftmbfs(pc.graph, sources, opts);
    EXPECT_EQ(verify_multi_source(pc.graph, ms), 0) << pc.name();
    const MultiSourceResult vms = build_vertex_ftmbfs(pc.graph, sources);
    EXPECT_EQ(verify_vertex_multi_source(pc.graph, vms), 0) << pc.name();
  }
}

TEST(MultiSource, ContractHoldsAtEndpointEps) {
  const Graph g = gen::random_connected(36, 60, 5);
  const std::vector<Vertex> sources{0, 18};
  for (const double eps : {0.0, 0.5, 1.0}) {
    EpsilonOptions opts;
    opts.eps = eps;
    const MultiSourceResult ms = build_epsilon_ftmbfs(g, sources, opts);
    EXPECT_EQ(verify_multi_source(g, ms), 0) << "eps=" << eps;
  }
}

TEST(MultiSource, UnionDominatesEverySingleSource) {
  const Graph g = gen::gnm(36, 140, 81);
  const std::vector<Vertex> sources{0, 5, 11};
  EpsilonOptions opts;
  opts.eps = 0.25;
  const MultiSourceResult ms = build_epsilon_ftmbfs(g, sources, opts);
  for (const Vertex s : sources) {
    const EpsilonResult single = build_epsilon_ftbfs(g, s, opts);
    EXPECT_GE(ms.structure.num_edges(), single.structure.num_edges());
    for (const EdgeId e : single.structure.edges()) {
      EXPECT_TRUE(ms.structure.contains(e));
    }
  }
}

TEST(MultiSource, PerSourceStatsAligned) {
  const Graph g = gen::gnm(30, 100, 83);
  const std::vector<Vertex> sources{2, 9};
  EpsilonOptions opts;
  opts.eps = 0.3;
  const MultiSourceResult ms = build_epsilon_ftmbfs(g, sources, opts);
  ASSERT_EQ(ms.per_source.size(), sources.size());
  for (const auto& st : ms.per_source) {
    EXPECT_EQ(st.n, g.num_vertices());
    EXPECT_GE(st.structure_edges, g.num_vertices() - 1);
  }
}

TEST(MultiSource, WorksOnTheTheorem54Graph) {
  const auto lb = lb::build_multi_source(400, 2, 0.3);
  EpsilonOptions opts;
  opts.eps = 0.3;
  const MultiSourceResult ms =
      build_epsilon_ftmbfs(lb.graph, lb.sources, opts);
  // Spot-verify (cap failures for runtime).
  EXPECT_EQ(verify_multi_source(lb.graph, ms, /*max_failures=*/150), 0);
  // Certified bound holds for the union as well.
  EXPECT_GE(ms.structure.num_backup(),
            lb.certified_min_backup(ms.structure.num_reinforced()));
}

TEST(MultiSource, SingleSourceDegeneratesToEpsilonFtBfs) {
  const Graph g = gen::gnm(30, 110, 85);
  EpsilonOptions opts;
  opts.eps = 0.3;
  const MultiSourceResult ms = build_epsilon_ftmbfs(g, {4}, opts);
  const EpsilonResult single = build_epsilon_ftbfs(g, 4, opts);
  EXPECT_EQ(ms.structure.edges(), single.structure.edges());
  EXPECT_EQ(ms.structure.reinforced(), single.structure.reinforced());
}

TEST(MultiSource, EmptySourcesRejected) {
  const Graph g = gen::path_graph(4);
  EXPECT_THROW(build_epsilon_ftmbfs(g, {}, {}), CheckError);
  EXPECT_THROW(build_vertex_ftmbfs(g, {}, {}), CheckError);
}

TEST(MultiSource, VertexUnionContractHoldsForEverySource) {
  const Graph g = gen::gnm(40, 150, 87);
  const std::vector<Vertex> sources{0, 7, 23};
  const MultiSourceResult ms = build_vertex_ftmbfs(g, sources);
  EXPECT_EQ(ms.structure.fault_class(), FaultClass::kVertex);
  EXPECT_EQ(verify_vertex_multi_source(g, ms), 0);
}

TEST(MultiSource, VertexUnionDominatesEverySingleSource) {
  const Graph g = gen::gnm(36, 140, 89);
  const std::vector<Vertex> sources{0, 5, 11};
  const MultiSourceResult ms = build_vertex_ftmbfs(g, sources);
  for (const Vertex s : sources) {
    const FtBfsStructure single = build_vertex_ftbfs(g, s);
    for (const EdgeId e : single.edges()) {
      EXPECT_TRUE(ms.structure.contains(e));
    }
  }
}

TEST(MultiSource, FusedUnionsMatchScalarReferee) {
  // The fused multi-source build (one canonical_source_sps sweep) vs the
  // scalar per-source union of tests/referee.hpp: every union flavor must
  // emit the same structure byte for byte across the property harness's
  // adversarial families.
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
  const MultiSourceResult ms = build_vertex_ftmbfs(g, {4});
  const FtBfsStructure single = build_vertex_ftbfs(g, 4);
  EXPECT_EQ(ms.structure.edges(), single.edges());
  EXPECT_EQ(ms.structure.tree_edges(), single.tree_edges());
}

}  // namespace
}  // namespace ftb

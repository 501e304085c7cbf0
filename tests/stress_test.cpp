// stress_test.cpp — randomized cross-seed property sweeps.
//
// Where the family tests pin one seed, these sweep (seed × density × ε)
// on random graphs and the exotic generator shapes, asserting the one
// property that matters everywhere: every fault-prone failure preserves
// every distance.
#include <gtest/gtest.h>

#include "src/api/ftbfs_api.hpp"
#include "src/core/verifier.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/graph/bfs_kernel.hpp"
#include "src/graph/generators.hpp"
#include "tests/property_test_util.hpp"

namespace ftb {
namespace {

struct StressCase {
  std::string name;
  std::uint64_t seed;
  double eps;
};

std::string case_name(const StressCase& c) {
  return c.name + "_s" + std::to_string(c.seed) + "_e" +
         std::to_string(static_cast<int>(c.eps * 100));
}

class StressSweep : public ::testing::TestWithParam<StressCase> {};

Graph make_graph(const std::string& name, std::uint64_t seed) {
  if (name == "sparse") return gen::random_connected(56, 40, seed);
  if (name == "medium") return gen::gnm(48, 180, seed);
  if (name == "dense") return gen::gnm(40, 420, seed);
  if (name == "scalefree") return gen::preferential_attachment(50, 2, seed);
  if (name == "hypercube") return gen::hypercube(5);
  if (name == "theta") return gen::theta_graph(4, 7);
  if (name == "dumbbell") return gen::dumbbell(10, 4);
  if (name == "lollipop") return gen::lollipop(12, 9);
  ADD_FAILURE() << "unknown stress graph " << name;
  return gen::path_graph(2);
}

std::vector<StressCase> stress_cases() {
  std::vector<StressCase> out;
  const char* names[] = {"sparse", "medium",    "dense",    "scalefree",
                         "hypercube", "theta", "dumbbell", "lollipop"};
  for (const char* name : names) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      for (const double eps : {0.12, 0.3}) {
        out.push_back({name, seed, eps});
      }
    }
  }
  return out;
}

TEST_P(StressSweep, EpsilonStructureSurvivesEveryFailure) {
  const StressCase c = GetParam();
  const Graph g = make_graph(c.name, c.seed);
  api::BuildSpec spec;
  spec.eps = c.eps;
  spec.weight_seed = c.seed * 7919;
  const api::BuildResult res = api::build(g, spec);
  VerifyOptions vo;
  vo.check_nontree_failures = true;
  const VerifyReport rep = verify_structure(res.structure, vo);
  EXPECT_TRUE(rep.ok) << case_name(c) << ": " << rep.to_string();
}

TEST_P(StressSweep, BaselineAndVertexBaselineSurvive) {
  const StressCase c = GetParam();
  if (c.eps != 0.12) return;  // fault models don't depend on ε
  const Graph g = make_graph(c.name, c.seed);
  api::BuildSpec spec;
  spec.eps = 1.0;
  spec.weight_seed = c.seed * 104729;
  const api::BuildResult eh = api::build(g, spec);
  EXPECT_TRUE(verify_structure(eh.structure).ok) << case_name(c);
  spec.fault_model = FaultClass::kVertex;
  const api::BuildResult vh = api::build(g, spec);
  EXPECT_EQ(verify_structure(vh.structure).violations, 0) << case_name(c);
}

INSTANTIATE_TEST_SUITE_P(Sweep, StressSweep,
                         ::testing::ValuesIn(stress_cases()),
                         [](const auto& pinfo) {
                           return case_name(pinfo.param);
                         });

TEST(Stress, ManySourcesOnOneGraph) {
  // One union structure over σ sources (the multi-source build path)
  // instead of σ independent single-source builds, swept over σ — then a
  // FaultSampler storm per source: every sampled non-reinforced edge
  // failure preserves that source's distances in the union.
  const Graph g = gen::gnm(30, 110, 77);
  for (const std::size_t sigma : {std::size_t{1}, std::size_t{4},
                                  std::size_t{10}}) {
    std::vector<Vertex> sources;
    for (std::size_t k = 0; k < sigma; ++k) {
      sources.push_back(static_cast<Vertex>(3 * k));
    }
    api::BuildSpec spec;
    spec.sources = sources;
    spec.eps = 0.25;
    const api::BuildResult ms = api::build(g, spec);
    ASSERT_EQ(
        verify_structure(ms.structure, {.sources = sources}).violations, 0)
        << "sigma " << sigma;

    BfsScratch truth;
    for (const Vertex s : sources) {
      test::FaultSampler sampler(
          g, s, 77 ^ (sigma * 131) ^ static_cast<std::uint64_t>(s));
      const FtBfsStructure view(g, s, ms.structure.edges(),
                                ms.structure.reinforced(),
                                ms.structure.tree_edges(),
                                ms.structure.fault_class());
      int storms = 0;
      while (storms < 6) {
        const DualSite site = sampler.next_site();
        if (site.kind != FaultClass::kEdge ||
            ms.structure.is_reinforced(site.id)) {
          continue;
        }
        ++storms;
        const auto in_h = view.distances_avoiding(site.id);
        BfsBans bans;
        bans.banned_edge = site.id;
        bfs_run(g, s, bans, truth);
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          ASSERT_EQ(in_h[static_cast<std::size_t>(v)], truth.dist(v))
              << "sigma=" << sigma << " s=" << s << " e=" << site.id
              << " v=" << v;
        }
      }
    }
  }
}

TEST(Stress, DisconnectedInputsAcrossSeeds) {
  // ER below the connectivity threshold: several components; the contract
  // restricted to the source's component must still hold.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = gen::erdos_renyi(60, 0.03, seed);
    api::BuildSpec spec;
    spec.eps = 0.3;
    const api::BuildResult res = api::build(g, spec);
    const VerifyReport rep = verify_structure(res.structure);
    ASSERT_TRUE(rep.ok) << "seed " << seed << ": " << rep.to_string();
  }
}

TEST(Stress, TinyGraphsEdgeCases) {
  // n = 1, 2, 3 and a triangle: boundary conditions of every module.
  {
    const Graph g = gen::path_graph(1);
    const api::BuildResult res = api::build(g, {});
    EXPECT_EQ(res.structure.num_edges(), 0);
  }
  {
    const Graph g = gen::path_graph(2);
    const api::BuildResult res = api::build(g, {});
    EXPECT_EQ(res.structure.num_edges(), 1);
    EXPECT_TRUE(verify_structure(res.structure).ok);
  }
  {
    const Graph g = gen::cycle_graph(3);
    api::BuildSpec spec;
    spec.eps = 0.25;
    const api::BuildResult res = api::build(g, spec);
    VerifyOptions vo;
    vo.check_nontree_failures = true;
    EXPECT_TRUE(verify_structure(res.structure, vo).ok);
  }
}

}  // namespace
}  // namespace ftb

// api_build_test.cpp — the facade-vs-referee differential suite.
//
// ftb::api::build(graph, BuildSpec) runs one §5 union loop over every
// fault model and source count; it must be byte-identical to the scalar
// per-source referee of tests/referee.hpp at σ = 1 and σ = 3: same edges,
// same reinforced set, same tree edges, same fault tag, same per-source ε
// stats, same dual pair tables and site-dist rows. Plus the shared
// "invalid BuildSpec" validation shape and the Session save/load round
// trip (structure_io v3 keeps the multi-source set).
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>

#include "src/api/ftbfs_api.hpp"
#include "src/core/ftbfs.hpp"
#include "src/graph/generators.hpp"
#include "src/io/structure_io.hpp"
#include "tests/property_test_util.hpp"
#include "tests/referee.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

void expect_identical(const FtBfsStructure& a, const FtBfsStructure& b,
                      const std::string& what) {
  EXPECT_EQ(a.edges(), b.edges()) << what;
  EXPECT_EQ(a.reinforced(), b.reinforced()) << what;
  EXPECT_EQ(a.tree_edges(), b.tree_edges()) << what;
  EXPECT_EQ(a.fault_class(), b.fault_class()) << what;
  EXPECT_EQ(a.source(), b.source()) << what;
}

/// Everything a build returns except the wall clock: structure, per-source
/// ε stats counts, dual pair tables and site-dist rows.
void expect_same_build(const api::BuildResult& a, const api::BuildResult& b,
                       const std::string& what) {
  expect_identical(a.structure, b.structure, what);
  EXPECT_EQ(a.sources, b.sources) << what;
  ASSERT_EQ(a.per_source.size(), b.per_source.size()) << what;
  for (std::size_t i = 0; i < a.per_source.size(); ++i) {
    const EpsilonStats& x = a.per_source[i];
    const EpsilonStats& y = b.per_source[i];
    const std::string at = what + " source#" + std::to_string(i);
    EXPECT_EQ(x.k_rounds, y.k_rounds) << at;
    EXPECT_EQ(x.threshold, y.threshold) << at;
    EXPECT_EQ(x.used_baseline, y.used_baseline) << at;
    EXPECT_EQ(x.pairs_total, y.pairs_total) << at;
    EXPECT_EQ(x.pairs_uncovered, y.pairs_uncovered) << at;
    EXPECT_EQ(x.s1_added_edges, y.s1_added_edges) << at;
    EXPECT_EQ(x.interference_truncated_buckets,
              y.interference_truncated_buckets)
        << at;
    EXPECT_EQ(x.s2_added_edges, y.s2_added_edges) << at;
    EXPECT_EQ(x.structure_edges, y.structure_edges) << at;
    EXPECT_EQ(x.backup, y.backup) << at;
    EXPECT_EQ(x.reinforced, y.reinforced) << at;
  }
  ASSERT_EQ(a.dual_tables.size(), b.dual_tables.size()) << what;
  for (std::size_t i = 0; i < a.dual_tables.size(); ++i) {
    EXPECT_TRUE(test::same_tables(a.dual_tables[i], b.dual_tables[i]))
        << what << " source#" << i;
  }
  ASSERT_EQ(a.dual_site_dist.size(), b.dual_site_dist.size()) << what;
  for (std::size_t i = 0; i < a.dual_site_dist.size(); ++i) {
    EXPECT_TRUE(
        test::same_site_dist(a.dual_site_dist[i], b.dual_site_dist[i]))
        << what << " source#" << i;
  }
}

/// The seeded property families plus a few structured shapes; each case
/// is built at σ = 1 (its own source) and at σ = 3 (spread sources).
std::vector<test::FamilyCase> diff_families() {
  std::vector<test::FamilyCase> out;
  for (test::PropertyCase& pc : test::property_cases(30, 1)) {
    out.push_back({pc.name(), std::move(pc.graph), pc.source});
  }
  out.push_back({"grid6x7", gen::grid_graph(6, 7), 0});
  out.push_back({"lollipop", gen::lollipop(12, 8), 0});
  return out;
}

std::vector<std::vector<Vertex>> source_sets(const test::FamilyCase& fc) {
  const Vertex n = fc.graph.num_vertices();
  return {{fc.source}, {0, n / 3, (2 * n) / 3}};
}

/// api::build vs test::referee_build for `model` at every σ and ε, with the
/// referee's engines on the optimized and on the naive reference kernels.
void expect_model_matches_referee(FaultClass model,
                                  std::initializer_list<double> eps_grid) {
  for (const auto& fc : diff_families()) {
    for (const std::vector<Vertex>& sources : source_sets(fc)) {
      for (const double eps : eps_grid) {
        api::BuildSpec spec;
        spec.fault_model = model;
        spec.sources = sources;
        spec.eps = eps;
        spec.site_dist_oracle = model == FaultClass::kDual;
        const std::string what = fc.name + " " + to_string(model) +
                                 " sigma=" + std::to_string(sources.size()) +
                                 " eps=" + std::to_string(eps);
        const api::BuildResult got = api::build(fc.graph, spec);
        expect_same_build(got, test::referee_build(fc.graph, spec), what);
        expect_same_build(
            got,
            test::referee_build(fc.graph, spec, {.reference_kernel = true}),
            what + " reference-kernels");
      }
    }
  }
}

TEST(ApiBuild, EdgeModelMatchesRefereeAtEverySigma) {
  // ε = 0 is the reinforced tree, ε ≥ 1/2 the ESA'13 baseline branch.
  expect_model_matches_referee(FaultClass::kEdge,
                               {0.0, 0.25, 0.45, 0.6, 1.0});
}

TEST(ApiBuild, VertexModelMatchesRefereeAtEverySigma) {
  expect_model_matches_referee(FaultClass::kVertex, {0.25});
}

TEST(ApiBuild, EitherModelMatchesRefereeAtEverySigma) {
  expect_model_matches_referee(FaultClass::kEither, {0.25});
}

TEST(ApiBuild, DualModelMatchesRefereeAtEverySigma) {
  // Pair tables and site-dist rows included (site_dist_oracle on).
  expect_model_matches_referee(FaultClass::kDual, {0.25});
}

TEST(ApiBuild, EpsOneIsTheEsa13Baseline) {
  // The ε ≥ 1/2 cells take Theorem 3.1's baseline branch: byte-identical
  // to the baseline pipeline on the same canonical tree.
  for (const auto& fc : diff_families()) {
    api::BuildSpec spec;
    spec.sources = {fc.source};
    spec.eps = 1.0;
    const EdgeWeights w = EdgeWeights::uniform_random(fc.graph,
                                                      spec.weight_seed);
    const BfsTree tree(fc.graph, w, fc.source);
    expect_identical(api::build(fc.graph, spec).structure,
                     detail::build_ftbfs_impl(tree, nullptr),
                     fc.name + " baseline");
  }
}

TEST(ApiBuild, EpsZeroReinforcesTheCanonicalTree) {
  for (const auto& fc : diff_families()) {
    api::BuildSpec spec;
    spec.sources = {fc.source};
    spec.eps = 0.0;
    const EdgeWeights w = EdgeWeights::uniform_random(fc.graph,
                                                      spec.weight_seed);
    const BfsTree tree(fc.graph, w, fc.source);
    const FtBfsStructure reinforced_tree(fc.graph, fc.source,
                                         tree.tree_edges(), tree.tree_edges(),
                                         tree.tree_edges());
    expect_identical(api::build(fc.graph, spec).structure, reinforced_tree,
                     fc.name + " reinforced-tree");
  }
}

// ---------------------------------------------------------------------------
// Validation: one CheckError message shape everywhere.

void expect_invalid_spec(const Graph& g, const api::BuildSpec& spec) {
  try {
    api::build(g, spec);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("invalid BuildSpec"),
              std::string::npos)
        << e.what();
  }
}

TEST(ApiBuildValidation, RejectsBadEpsilon) {
  const Graph g = gen::grid_graph(4, 4);
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), -0.1, 1.5}) {
    api::BuildSpec spec;
    spec.eps = bad;
    expect_invalid_spec(g, spec);
  }
}

TEST(ApiBuildValidation, RejectsBadSourceSets) {
  const Graph g = gen::grid_graph(4, 4);
  {
    api::BuildSpec spec;
    spec.sources = {};
    expect_invalid_spec(g, spec);
  }
  {
    api::BuildSpec spec;
    spec.sources = {0, 99};  // out of range
    expect_invalid_spec(g, spec);
  }
  {
    api::BuildSpec spec;
    spec.sources = {0, 3, 0};  // duplicate
    expect_invalid_spec(g, spec);
  }
}

// ---------------------------------------------------------------------------
// Session save / load round trip (structure_io v5).

TEST(ApiSessionIo, MultiSourceRoundTripKeepsSources) {
  const Graph g = gen::random_connected(50, 120, 17);
  api::BuildSpec spec;
  spec.sources = {2, 31, 44};
  spec.eps = 0.3;
  const api::Session session = api::Session::open(g, spec);

  std::ostringstream os;
  io::write_structure_v5(session.structure(), session.sources(), {}, {},
                         os);
  std::istringstream is(os.str());
  std::vector<Vertex> sources;
  const FtBfsStructure reloaded = io::read_structure(g, is, &sources);
  EXPECT_EQ(sources, spec.sources);
  EXPECT_EQ(reloaded.edges(), session.structure().edges());
  EXPECT_EQ(reloaded.reinforced(), session.structure().reinforced());
  EXPECT_EQ(reloaded.fault_class(), session.structure().fault_class());
}

TEST(ApiSessionIo, SavedSessionReloadsAndAnswersIdentically) {
  const Graph g = gen::random_connected(48, 130, 19);
  api::BuildSpec spec;
  spec.sources = {0, 20};
  spec.eps = 0.35;
  const api::Session original = api::Session::open(g, spec);

  const std::string path = ::testing::TempDir() + "/api_session_io.ftbfs";
  original.save_v5(path);
  const api::Session reloaded = api::Session::load(g, path);
  std::remove(path.c_str());

  EXPECT_EQ(reloaded.sources().size(), original.sources().size());
  std::vector<api::Query> batch;
  for (const EdgeId e : original.structure().tree_edges()) {
    for (Vertex v = 0; v < g.num_vertices(); v += 7) {
      for (std::int32_t si = 0; si < 2; ++si) {
        api::Query q;
        q.v = v;
        q.fault = e;
        q.source_index = si;
        q.allow_what_if = true;
        batch.push_back(q);
      }
    }
  }
  const api::QueryResponse a = original.query(batch);
  const api::QueryResponse b = reloaded.query(batch);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].dist, b.results[i].dist) << i;
    EXPECT_EQ(a.results[i].outcome, b.results[i].outcome) << i;
  }
}

TEST(ApiSessionIo, LoadWithWrongWeightSeedIsRefused) {
  const Graph g = gen::random_connected(40, 110, 23);
  api::BuildSpec spec;
  spec.eps = 0.3;
  spec.weight_seed = 77;
  const api::Session session = api::Session::open(g, spec);
  const std::string path = ::testing::TempDir() + "/api_session_seed.ftbfs";
  session.save_v5(path);
  api::SessionConfig cfg;
  cfg.weight_seed = 78;  // different tie-breaking → different tree
  EXPECT_THROW(api::Session::load(g, path, cfg), CheckError);
  cfg.weight_seed = 77;
  EXPECT_NO_THROW(api::Session::load(g, path, cfg));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ftb

// multi_source_kernel_test.cpp — the differential wall between the
// production canonical trees and the two-pass reference. Every tree the
// library builds comes from the fused single-pass kernel (canonical_sp_run,
// through canonical_sp_fused); canonical_sp stays the independent referee.
// The wall requires every label vector — hops, wsum, parent, parent_edge,
// first_hop and order, unreachable entries included — to match the
// referee's whole: per source at several source counts σ on every property
// family (through BfsTree and through the multi-source ms_canonical_sp),
// per punctured graph under FaultSampler-drawn bans, and across a rejected
// source. The facade's duplicate-source rejection is pinned here too.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "src/graph/bfs_tree.hpp"
#include "src/graph/canonical_bfs.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/multi_source_bfs_kernel.hpp"
#include "src/util/check.hpp"
#include "tests/property_test_util.hpp"

namespace ftb {
namespace {

/// Whole-vector equality of every field, so unreachable entries must hold
/// the reference's defaults too.
void expect_same_labels(const CanonicalSp& got, const CanonicalSp& want,
                        const std::string& label) {
  EXPECT_EQ(got.hops, want.hops) << label;
  EXPECT_EQ(got.wsum, want.wsum) << label;
  EXPECT_EQ(got.parent, want.parent) << label;
  EXPECT_EQ(got.parent_edge, want.parent_edge) << label;
  EXPECT_EQ(got.first_hop, want.first_hop) << label;
  EXPECT_EQ(got.order, want.order) << label;
}

/// σ sources spread over the graph from `anchor`; σ > n repeats sources.
std::vector<BfsLane> spread_lanes(const Graph& g, Vertex anchor,
                                  std::size_t sigma) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<BfsLane> lanes(sigma);
  for (std::size_t i = 0; i < sigma; ++i) {
    lanes[i].source =
        static_cast<Vertex>((static_cast<std::size_t>(anchor) + 7 * i) % n);
  }
  return lanes;
}

TEST(CanonicalTrees, PerSourceTreesMatchTwoPassReference) {
  // σ = 1 and 2, and 63–65 — the widths where the removed bit-parallel
  // kernel switched lane-word layout, kept so the multi-source seam is
  // exercised at the same source counts it always was.
  for (const auto& pc : test::property_cases(80, 1)) {
    FTB_PROPERTY_TRACE(pc, "multi_source_kernel_test");
    const Graph& g = pc.graph;
    const EdgeWeights w = EdgeWeights::uniform_random(g, pc.seed);
    for (const std::size_t sigma : {1, 2, 63, 64, 65}) {
      const std::vector<BfsLane> lanes = spread_lanes(g, pc.source, sigma);
      const std::vector<CanonicalSp> sps = ms_canonical_sp(g, w, lanes);
      ASSERT_EQ(sps.size(), sigma);
      for (std::size_t i = 0; i < sigma; ++i) {
        const Vertex s = lanes[i].source;
        const CanonicalSp ref = canonical_sp(g, w, s);
        const std::string label = pc.name() + " sigma=" +
                                  std::to_string(sigma) +
                                  " i=" + std::to_string(i);
        expect_same_labels(sps[i], ref, label + " ms_canonical_sp");
        expect_same_labels(BfsTree(g, w, s).sp(), ref, label + " BfsTree");
      }
    }
  }
}

TEST(CanonicalTrees, PuncturedTreesMatchTwoPassReference) {
  // The unpruned dual referee builds one punctured BfsTree per failure
  // site: the source with that site's edge or vertex banned.
  for (const auto& pc : test::property_cases(60, 1)) {
    FTB_PROPERTY_TRACE(pc, "multi_source_kernel_test");
    const Graph& g = pc.graph;
    const EdgeWeights w = EdgeWeights::uniform_random(g, pc.seed);
    test::FaultSampler sampler(g, pc.source, pc.seed ^ 0xB17'0001ULL);
    for (int k = 0; k < 16; ++k) {
      const DualSite site = sampler.next_site();
      BfsBans bans;
      if (site.kind == FaultClass::kEdge) {
        bans.banned_edge = site.id;
      } else {
        bans.banned_vertex_one = site.id;
      }
      expect_same_labels(BfsTree(g, w, pc.source, bans).sp(),
                         canonical_sp(g, w, pc.source, bans),
                         pc.name() + " site " + to_string(site.kind) + ":" +
                             std::to_string(site.id));
    }
  }
}

TEST(CanonicalTrees, RejectsBannedOrInvalidSourceWithoutCorruption) {
  const Graph g = gen::grid_graph(4, 4);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 7);
  BfsBans self_ban;
  self_ban.banned_vertex_one = 5;
  EXPECT_THROW(BfsTree(g, w, 5, self_ban), CheckError);
  EXPECT_THROW(BfsTree(g, w, 99), CheckError);
  const std::vector<BfsLane> bad = {{Vertex{0}}, {Vertex{99}}};
  EXPECT_THROW(ms_canonical_sp(g, w, bad), CheckError);
  // Nothing of a rejected call survives into the next one.
  expect_same_labels(BfsTree(g, w, 5).sp(), canonical_sp(g, w, 5),
                     "after_rejection");
  const std::vector<BfsLane> good = {{Vertex{0}}, {Vertex{15}}};
  const std::vector<CanonicalSp> sps = ms_canonical_sp(g, w, good);
  expect_same_labels(sps[0], canonical_sp(g, w, 0), "after_rejection lane 0");
  expect_same_labels(sps[1], canonical_sp(g, w, 15), "after_rejection lane 1");
}

// ---- facade validation -----------------------------------------------------

TEST(MultiSourceKernel, DuplicateSourceRejectionMessage) {
  // The facade refuses a duplicated source with the one "invalid
  // BuildSpec" shape, before any kernel is leased.
  const Graph g = gen::grid_graph(4, 4);
  api::BuildSpec spec;
  spec.sources = {0, 3, 0};
  try {
    api::build(g, spec);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "invalid BuildSpec: duplicate source (got 0)"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace ftb

// multi_source_kernel_test.cpp — the scalar-differential wall for the
// bit-parallel multi-source BFS kernel. Every lane of a fused run must be
// bit-identical to a scalar bfs_run of that lane's (source, bans): same
// order, same dist/parent/parent_edge at every vertex. The wall covers the
// σ word-geometry extremes (σ = 1, σ ∈ {63, 64} at the word boundary,
// σ ∈ {65, 129} striped with one-bit final words), per-lane bans of every
// flavor, disconnected
// sources, kernel reuse, epoch wraparound, the process-wide pool, the
// fused canonical seam (ms_canonical_sp), the multi-source canonical-tree
// builder (canonical_source_sps) against scalar BfsTree, and the facade's
// duplicate-source rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "src/graph/bfs_kernel.hpp"
#include "src/graph/bfs_tree.hpp"
#include "src/graph/canonical_bfs.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/multi_source_bfs_kernel.hpp"
#include "src/util/check.hpp"
#include "src/util/rng.hpp"
#include "tests/property_test_util.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

/// The wall itself: run the fused kernel, then σ scalar runs, and require
/// every per-lane label to match bit for bit.
void expect_lanes_match_scalar(const Graph& g,
                               std::span<const BfsLane> lanes,
                               MultiSourceBfsKernel& kernel,
                               const std::string& label) {
  kernel.run(g, lanes);
  ASSERT_EQ(kernel.num_lanes(), lanes.size()) << label;

  BfsScratch scratch;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    bfs_run(g, lanes[l].source, lanes[l].bans, scratch);
    const auto fused_order = kernel.order(l);
    const auto scalar_order = scratch.order();
    ASSERT_EQ(fused_order.size(), scalar_order.size())
        << label << " lane=" << l;
    for (std::size_t i = 0; i < scalar_order.size(); ++i) {
      ASSERT_EQ(fused_order[i], scalar_order[i])
          << label << " lane=" << l << " i=" << i;
    }
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(kernel.visited(l, v), scratch.visited(v))
          << label << " lane=" << l << " v=" << v;
      ASSERT_EQ(kernel.dist(l, v), scratch.dist(v))
          << label << " lane=" << l << " v=" << v;
      ASSERT_EQ(kernel.parent(l, v), scratch.parent(v))
          << label << " lane=" << l << " v=" << v;
      ASSERT_EQ(kernel.parent_edge(l, v), scratch.parent_edge(v))
          << label << " lane=" << l << " v=" << v;
    }
  }
}

void expect_lanes_match_scalar(const Graph& g,
                               std::span<const BfsLane> lanes,
                               const std::string& label) {
  MultiSourceBfsKernel kernel;
  expect_lanes_match_scalar(g, lanes, kernel, label);
}

/// σ ban-free lanes whose sources cycle over the vertex set starting at
/// `anchor` — duplicates past σ > n are deliberate (the dual pipeline
/// batches same-source lanes).
std::vector<BfsLane> cycling_lanes(const Graph& g, Vertex anchor,
                                   std::size_t sigma) {
  std::vector<BfsLane> lanes(sigma);
  for (std::size_t l = 0; l < sigma; ++l) {
    lanes[l].source = static_cast<Vertex>(
        (anchor + static_cast<Vertex>(l)) % g.num_vertices());
  }
  return lanes;
}

// σ = 1 (degenerate), a mid width, the last all-in-word-0 widths (63 full
// tail mask, 64 no tail mask), the first striped width (65: lane 64 alone
// in word 1 under a one-bit tail mask), and a three-word stripe whose last
// word is again one bit (129) — the geometries where the lane-word
// indexing can go wrong.
constexpr std::size_t kSigmas[] = {1, 5, 63, 64, 65, 129};

TEST(MultiSourceKernel, MatchesScalarOnFamilies) {
  for (auto& fc : test::small_families()) {
    for (const std::size_t sigma : kSigmas) {
      const auto lanes = cycling_lanes(fc.graph, fc.source, sigma);
      expect_lanes_match_scalar(
          fc.graph, lanes,
          fc.name + "/sigma" + std::to_string(sigma));
    }
  }
}

TEST(MultiSourceKernel, MatchesScalarUnderPerLaneBans) {
  Rng rng(2024);
  // Ptr-mask storage with stable addresses across lane construction.
  std::deque<std::vector<std::uint8_t>> masks;
  for (auto& fc : test::small_families()) {
    const Graph& g = fc.graph;
    const auto n = static_cast<std::uint64_t>(g.num_vertices());
    const auto m = static_cast<std::uint64_t>(g.num_edges());
    for (const std::size_t sigma : {std::size_t{3}, std::size_t{65}}) {
      auto lanes = cycling_lanes(g, fc.source, sigma);
      for (std::size_t l = 0; l < sigma; ++l) {
        BfsBans& bans = lanes[l].bans;
        switch (l % 5) {
          case 0:  // ban-free lane mixed in with banned ones
            break;
          case 1:
            bans.banned_edge = static_cast<EdgeId>(rng.next_below(m));
            break;
          case 2:  // the two-scalar-edge failure shape
            bans.banned_edge = static_cast<EdgeId>(rng.next_below(m));
            bans.banned_edge2 = static_cast<EdgeId>(rng.next_below(m));
            break;
          case 3: {  // scalar vertex ban, never the lane's own source
            const auto x =
                static_cast<Vertex>(rng.next_below(n));
            if (x != lanes[l].source) bans.banned_vertex_one = x;
            break;
          }
          case 4: {  // the rare pointer-mask path: vertex + edge masks
            std::vector<std::uint8_t> vmask(n, 0);
            for (std::uint64_t v = 0; v < n; ++v) {
              if (static_cast<Vertex>(v) != lanes[l].source) {
                vmask[v] = rng.next_below(4) == 0;
              }
            }
            std::vector<std::uint8_t> emask(m, 0);
            for (std::uint64_t e = 0; e < m; ++e) {
              emask[e] = rng.next_below(5) == 0;
            }
            masks.push_back(std::move(vmask));
            bans.banned_vertex = &masks.back();
            masks.push_back(std::move(emask));
            bans.banned_edge_mask = &masks.back();
            break;
          }
        }
      }
      expect_lanes_match_scalar(
          g, lanes, fc.name + "/bans_sigma" + std::to_string(sigma));
    }
  }
}

TEST(MultiSourceKernel, DisconnectedSources) {
  // Two components plus isolated vertices; lanes anchor in each part, so
  // some lanes never see most of the graph while others race through it.
  GraphBuilder b(10);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(4, 5);
  b.add_edge(5, 6);
  b.add_edge(6, 4);
  const Graph g = b.build();
  const std::vector<BfsLane> lanes = {
      {Vertex{0}, {}}, {Vertex{4}, {}}, {Vertex{9}, {}}, {Vertex{2}, {}}};
  expect_lanes_match_scalar(g, lanes, "disconnected");
}

TEST(MultiSourceKernel, WordBoundaryAndStriping) {
  // σ = 63 exercises the full-but-masked word 0 (tail mask 2^63 − 1),
  // σ = 64 keeps every lane in word 0 with no tail mask; σ = 65 forces the
  // striped layout where lane 64 lives alone in word 1 with a one-bit tail
  // mask, and σ = 129 adds a full middle word with lane 128 alone in word
  // 2 — the final-partial-word geometries of the ban masks and frontier
  // words.
  const Graph g = gen::random_connected(90, 260, 31);
  for (const std::size_t sigma :
       {std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{129}}) {
    auto lanes = cycling_lanes(g, 7, sigma);
    // Give the word-seam lanes bans so the σ-wide ban masks straddle every
    // word boundary too: the last lane (the final partial word's top bit),
    // lane 0, and — when striped — the first lane of each later word.
    lanes[sigma - 1].bans.banned_edge = 3;
    lanes[0].bans.banned_vertex_one = 88;
    if (sigma > 64) lanes[64].bans.banned_edge = 7;
    if (sigma > 128) lanes[128].bans.banned_vertex_one = 41;
    expect_lanes_match_scalar(g, lanes,
                              "boundary/sigma" + std::to_string(sigma));
  }
}

TEST(MultiSourceKernel, ReuseAcrossRunsOfVaryingWidth) {
  // One kernel across rounds of different σ, sources, bans, and graphs —
  // no state may leak between runs.
  const Graph g1 = gen::erdos_renyi(70, 0.08, 12);
  const Graph g2 = gen::grid_graph(8, 9);
  MultiSourceBfsKernel kernel;
  Rng rng(77);
  for (int round = 0; round < 10; ++round) {
    const Graph& g = (round % 2 == 0) ? g1 : g2;
    const std::size_t sigma = 1 + rng.next_below(64);
    auto lanes = cycling_lanes(
        g, static_cast<Vertex>(rng.next_below(
               static_cast<std::uint64_t>(g.num_vertices()))),
        sigma);
    if (round % 3 == 1) {
      lanes[0].bans.banned_edge = static_cast<EdgeId>(
          rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
    }
    expect_lanes_match_scalar(g, lanes, kernel,
                              "round" + std::to_string(round));
  }
}

TEST(MultiSourceKernel, EpochWraparound) {
  const Graph g = gen::grid_graph(5, 5);
  MultiSourceBfsKernel kernel;
  const auto lanes = cycling_lanes(g, 0, 65);
  kernel.run(g, lanes);
  kernel.debug_set_epoch_near_wrap();
  // Runs straddling the wrap must stay bit-identical to scalar.
  for (int i = 0; i < 3; ++i) {
    expect_lanes_match_scalar(g, lanes, kernel, "wrap" + std::to_string(i));
  }
}

TEST(MultiSourceKernel, PooledKernelsStayCorrect) {
  const Graph g = gen::random_connected(60, 140, 5);
  const auto lanes = cycling_lanes(g, 3, 17);
  // Lease → release → lease again: the second lease usually gets the same
  // warm object back and must still answer exactly.
  for (int i = 0; i < 3; ++i) {
    MsKernelLease lease(multi_source_kernel_pool());
    expect_lanes_match_scalar(g, lanes, *lease, "lease" + std::to_string(i));
  }
}

TEST(MultiSourceKernel, RejectsBannedOrInvalidSourceWithoutCorruption) {
  const Graph g = gen::grid_graph(4, 4);
  MultiSourceBfsKernel kernel;
  {
    std::vector<BfsLane> lanes = cycling_lanes(g, 0, 3);
    lanes[2].bans.banned_vertex_one = lanes[2].source;
    EXPECT_THROW(kernel.run(g, lanes), CheckError);
  }
  {
    std::vector<BfsLane> lanes = cycling_lanes(g, 0, 3);
    lanes[1].source = 99;  // out of range
    EXPECT_THROW(kernel.run(g, lanes), CheckError);
  }
  // Validation happens before any lane is seeded, so the kernel (and its
  // all-zero frontier invariant) must survive the failed runs intact.
  const auto lanes = cycling_lanes(g, 5, 4);
  expect_lanes_match_scalar(g, lanes, kernel, "after_rejection");
}

// ---- fused canonical seam --------------------------------------------------

TEST(MsCanonicalSp, MatchesScalarCanonicalSp) {
  Rng rng(404);
  for (auto& fc : test::small_families()) {
    const Graph& g = fc.graph;
    const EdgeWeights w = EdgeWeights::uniform_random(g, 99);
    auto lanes = cycling_lanes(g, fc.source, 8);
    // Per-lane bans: the canonical replay must honor them lane by lane.
    lanes[2].bans.banned_edge = static_cast<EdgeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
    const auto x = static_cast<Vertex>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
    if (x != lanes[5].source) lanes[5].bans.banned_vertex_one = x;

    const std::vector<CanonicalSp> fused = ms_canonical_sp(g, w, lanes);
    ASSERT_EQ(fused.size(), lanes.size()) << fc.name;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const CanonicalSp ref =
          canonical_sp(g, w, lanes[l].source, lanes[l].bans);
      ASSERT_EQ(fused[l].order, ref.order) << fc.name << " lane=" << l;
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const auto vi = static_cast<std::size_t>(v);
        ASSERT_EQ(fused[l].hops[vi], ref.hops[vi])
            << fc.name << " lane=" << l << " v=" << v;
        if (!ref.reachable(v)) continue;
        ASSERT_EQ(fused[l].wsum[vi], ref.wsum[vi])
            << fc.name << " lane=" << l << " v=" << v;
        ASSERT_EQ(fused[l].parent[vi], ref.parent[vi])
            << fc.name << " lane=" << l << " v=" << v;
        ASSERT_EQ(fused[l].parent_edge[vi], ref.parent_edge[vi])
            << fc.name << " lane=" << l << " v=" << v;
        ASSERT_EQ(fused[l].first_hop[vi], ref.first_hop[vi])
            << fc.name << " lane=" << l << " v=" << v;
      }
    }
  }
}

// ---- seeded property sweep -------------------------------------------------

TEST(MultiSourceKernelProperty, FaultSampledLanesMatchScalar) {
  // The adversarial graph families under FaultSampler-drawn per-lane bans:
  // each lane gets an independent site from the failure universe, the shape
  // the dual pipeline's punctured batches actually produce.
  for (const auto& pc : test::property_cases(60, 1)) {
    FTB_PROPERTY_TRACE(pc, "MultiSourceKernelProperty");
    const Graph& g = pc.graph;
    test::FaultSampler sampler(g, pc.source, pc.seed ^ 0xB17'0001ULL);
    auto lanes = cycling_lanes(g, pc.source, 16);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const DualSite site = sampler.next_site();
      if (site.kind == FaultClass::kEdge) {
        lanes[l].bans.banned_edge = site.id;
      } else if (static_cast<Vertex>(site.id) != lanes[l].source) {
        lanes[l].bans.banned_vertex_one = site.id;
      }
    }
    expect_lanes_match_scalar(g, lanes, pc.name());
  }
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

// ---- the multi-source canonical-tree builder -------------------------------

TEST(CanonicalSourceSps, TreesMatchScalarBfsTree) {
  // canonical_source_sps is the one canonical-tree builder of the
  // multi-source unions and Session: at every σ word geometry (scalar
  // σ = 1, fused σ = 2, the σ ∈ {63, 64} word boundary, striped σ = 65),
  // every tree adopted from its labels must equal the scalar BfsTree of
  // that source in parent, parent edge, depth and tree-edge order.
  for (const auto& pc : test::property_cases(80, 1)) {
    FTB_PROPERTY_TRACE(pc, "multi_source_kernel_test");
    const Graph& g = pc.graph;
    const Vertex n = g.num_vertices();
    const EdgeWeights w = EdgeWeights::uniform_random(g, pc.seed);
    for (const std::size_t sigma : {1, 2, 63, 64, 65}) {
      std::vector<Vertex> sources;
      for (std::size_t i = 0; i < sigma; ++i) {
        sources.push_back(
            static_cast<Vertex>((static_cast<std::size_t>(pc.source) + 7 * i) %
                                static_cast<std::size_t>(n)));
      }
      std::vector<CanonicalSp> sps = canonical_source_sps(g, w, sources);
      ASSERT_EQ(sps.size(), sigma);
      for (std::size_t i = 0; i < sigma; ++i) {
        const BfsTree fused(g, w, sources[i], std::move(sps[i]));
        const BfsTree scalar(g, w, sources[i]);
        for (Vertex v = 0; v < n; ++v) {
          ASSERT_EQ(fused.parent(v), scalar.parent(v))
              << "sigma=" << sigma << " lane=" << i << " v=" << v;
          ASSERT_EQ(fused.parent_edge(v), scalar.parent_edge(v))
              << "sigma=" << sigma << " lane=" << i << " v=" << v;
          ASSERT_EQ(fused.depth(v), scalar.depth(v))
              << "sigma=" << sigma << " lane=" << i << " v=" << v;
        }
        ASSERT_EQ(fused.tree_edges(), scalar.tree_edges())
            << "sigma=" << sigma << " lane=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace ftb

// what_if_serving_test.cpp — what-if queries served by the subtree-local
// sweep vs literal BFS on H minus the failure(s), on the seeded property
// harness (tests/property_test_util.hpp).
//
// A Session answers a what-if failure (or failure pair) by sweeping only
// the failures' T0 slices over H's edges and reading T0 depths elsewhere.
// This suite pins every answer to bfs_run on H \ {f1[, f2]} across the
// shapes that sweep distinguishes: empty slices (non-tree edges, edges
// outside H, unreachable vertices), leaf and internal vertices, reinforced
// tree edges, and pairs whose slices nest, are disjoint, mix an edge and a
// vertex, or sit side by side in one subtree — for every source of a
// multi-source session, with the same failure repeated under different
// sources within and across batches (the arena cache key is (source,
// normalized pair)).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "src/graph/bfs_kernel.hpp"
#include "src/graph/bfs_tree.hpp"
#include "src/graph/lower_bound.hpp"
#include "tests/property_test_util.hpp"

namespace ftb {
namespace {

using api::Query;
using api::QueryOutcome;

constexpr DualSite kNone{FaultClass::kEdge, -1};

/// `g` plus a two-vertex component {n, n+1} joined by one edge: a vertex
/// and an edge no source reaches.
Graph with_stray_component(const Graph& g) {
  const Vertex n = g.num_vertices();
  GraphBuilder b(n + 2);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    b.add_edge(u, v);
  }
  b.add_edge(n, n + 1);
  return b.build();
}

/// Literal BFS from `s` on H \ {a, b} (b may be kNone).
std::vector<std::int32_t> literal_bfs(const FtBfsStructure& h, Vertex s,
                                      DualSite a, DualSite b) {
  const Graph& g = h.graph();
  BfsScratch scratch;
  std::vector<std::uint8_t> mask;
  BfsBans bans;
  bans.banned_edge_mask = &h.complement_mask();
  {
    const PairBans pair(a, b, mask,
                        static_cast<std::size_t>(g.num_vertices()), bans);
    bfs_run(g, s, bans, scratch);
  }
  std::vector<std::int32_t> out(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    out[static_cast<std::size_t>(v)] = scratch.dist(v);
  }
  return out;
}

/// Which sweep shapes the failures drawn so far covered, as what-ifs.
struct Coverage {
  std::int64_t leaf_vertex = 0, internal_vertex = 0, unreachable_vertex = 0;
  std::int64_t reinforced_edge = 0, non_tree_edge = 0, edge_outside_h = 0;
  std::int64_t nested = 0, disjoint = 0, edge_and_vertex = 0,
               one_subtree = 0;
};

/// The failures of one session's storm: single failures and pairs, each
/// tagged with the coverage counter it feeds when served as a what-if.
struct Failure {
  DualSite a, b;
  std::int64_t Coverage::*tag;
};

DualSite vertex_site(Vertex x) { return DualSite{FaultClass::kVertex, x}; }
DualSite edge_site(EdgeId e) { return DualSite{FaultClass::kEdge, e}; }

/// Draws the storm's failures from the first source's tree: every single
/// shape, and pairs that nest, are disjoint, mix an edge and a vertex, or
/// hang side by side below one vertex.
std::vector<Failure> draw_failures(const BfsTree& t, const FtBfsStructure& h,
                                   Rng& rng) {
  const Graph& g = t.graph();
  std::vector<Vertex> leaves, internal;
  for (const Vertex x : t.preorder()) {
    if (x == t.source()) continue;
    (t.subtree_size(x) == 1 ? leaves : internal).push_back(x);
  }
  std::vector<EdgeId> reinforced_tree, non_tree_in_h, outside_h;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!h.contains(e)) {
      outside_h.push_back(e);
    } else if (t.is_tree_edge(e)) {
      if (h.is_reinforced(e)) reinforced_tree.push_back(e);
    } else {
      non_tree_in_h.push_back(e);
    }
  }
  const auto pick = [&rng](const auto& pool) {
    return pool[rng.next_below(pool.size())];
  };
  std::vector<Failure> out;
  const auto single = [&](DualSite a, std::int64_t Coverage::*tag) {
    out.push_back(Failure{a, kNone, tag});
  };
  for (int k = 0; k < 3; ++k) {
    if (!leaves.empty()) {
      single(vertex_site(pick(leaves)), &Coverage::leaf_vertex);
    }
    if (!internal.empty()) {
      single(vertex_site(pick(internal)), &Coverage::internal_vertex);
    }
    if (!reinforced_tree.empty()) {
      single(edge_site(pick(reinforced_tree)), &Coverage::reinforced_edge);
    }
    if (!non_tree_in_h.empty()) {
      single(edge_site(pick(non_tree_in_h)), &Coverage::non_tree_edge);
    }
    if (!outside_h.empty()) {
      single(edge_site(pick(outside_h)), &Coverage::edge_outside_h);
    }
  }
  // A vertex of the stray component: no source reaches it.
  const Vertex stray = g.num_vertices() - 1;
  single(vertex_site(stray), &Coverage::unreachable_vertex);

  // Pairs along one root path: a deep vertex, an ancestor of it, and the
  // deep vertex's parent edge — nested slices, vertex+vertex and
  // edge+vertex — plus the deep vertex with an off-tree edge (one empty
  // slice).
  std::vector<EdgeId> off_tree = non_tree_in_h;
  off_tree.insert(off_tree.end(), outside_h.begin(), outside_h.end());
  for (int k = 0; k < 4 && !internal.empty(); ++k) {
    const Vertex v = pick(leaves.empty() ? internal : leaves);
    if (t.depth(v) < 3) continue;
    Vertex x = v;
    const auto up = 1 + static_cast<std::int32_t>(rng.next_below(
                            static_cast<std::uint64_t>(t.depth(v) - 1)));
    for (std::int32_t j = 0; j < up; ++j) x = t.parent(x);
    out.push_back(Failure{vertex_site(x), vertex_site(t.parent(v)),
                          &Coverage::nested});
    out.push_back(Failure{edge_site(t.parent_edge(v)), vertex_site(x),
                          &Coverage::edge_and_vertex});
    if (!off_tree.empty()) {
      out.push_back(Failure{vertex_site(v), edge_site(pick(off_tree)),
                            &Coverage::edge_and_vertex});
    }
  }
  // Disjoint slices: two vertices, neither an ancestor of the other.
  for (int k = 0, found = 0; k < 64 && found < 4 && internal.size() > 1;
       ++k) {
    const Vertex x = pick(internal);
    const Vertex y = pick(leaves.empty() ? internal : leaves);
    if (t.is_ancestor_or_equal(x, y) || t.is_ancestor_or_equal(y, x)) {
      continue;
    }
    ++found;
    out.push_back(Failure{vertex_site(x), vertex_site(y),
                          &Coverage::disjoint});
    out.push_back(Failure{edge_site(t.parent_edge(y)), vertex_site(x),
                          &Coverage::disjoint});
  }
  // Both in one subtree: two children's subtrees of one vertex, failed at
  // their roots (vertex + vertex and edge + vertex).
  for (const Vertex y : internal) {
    const std::span<const Vertex> kids = t.children(y);
    if (kids.size() < 2) continue;
    out.push_back(Failure{vertex_site(kids[0]), vertex_site(kids[1]),
                          &Coverage::one_subtree});
    out.push_back(Failure{edge_site(t.parent_edge(kids[1])),
                          vertex_site(kids[0]), &Coverage::one_subtree});
    if (out.size() > 48) break;
  }
  // The degenerate pair: one element twice.
  if (!internal.empty()) {
    const DualSite x = vertex_site(pick(internal));
    out.push_back(Failure{x, x, &Coverage::nested});
  }
  return out;
}

bool names_vertex(const Failure& f, Vertex x) {
  return f.a == vertex_site(x) || f.b == vertex_site(x);
}

Query make_query(const Failure& f, std::int32_t si, Vertex v, bool swap) {
  Query q;
  q.source_index = si;
  q.v = v;
  const DualSite a = swap && f.b.id >= 0 ? f.b : f.a;
  const DualSite b = swap && f.b.id >= 0 ? f.a : f.b;
  q.kind = a.kind;
  q.fault = a.id;
  if (b.id >= 0) {
    q.kind2 = b.kind;
    q.fault2 = b.id;
  }
  q.allow_what_if = true;
  return q;
}

/// Serves every failure under every source and checks each answer
/// against literal BFS; what-if answers feed `cov`.
void check_session(const api::Session& session, const BfsTree& t0,
                   Rng& rng, Coverage& cov, const std::string& label) {
  const FtBfsStructure& h = session.structure();
  const Graph& g = session.graph();
  const auto sigma = static_cast<std::int32_t>(session.sources().size());
  const std::vector<Failure> failures = draw_failures(t0, h, rng);
  ASSERT_FALSE(failures.empty()) << label;

  // truth[fi][si][v]
  std::vector<std::vector<std::vector<std::int32_t>>> truth;
  for (const Failure& f : failures) {
    auto& rows = truth.emplace_back();
    for (const Vertex src : session.sources()) {
      // A failed source has no distances; its queries are refused.
      rows.push_back(names_vertex(f, src)
                         ? std::vector<std::int32_t>{}
                         : literal_bfs(h, src, f.a, f.b));
    }
  }

  const Vertex stride = std::max<Vertex>(1, g.num_vertices() / 48);
  // Within a batch: each failure under every source back to back, and
  // the pair spelled both ways. Across batches: one batch per (failure
  // chunk, source), so consecutive batches repeat a failure under the
  // next source.
  std::vector<std::vector<std::pair<Query, std::int32_t>>> batches(1);
  for (std::size_t fi = 0; fi < failures.size(); ++fi) {
    for (std::int32_t si = 0; si < sigma; ++si) {
      for (Vertex v = static_cast<Vertex>(fi % 3); v < g.num_vertices();
           v += stride) {
        batches.back().emplace_back(
            make_query(failures[fi], si, v, (v / stride) % 2 == 1),
            static_cast<std::int32_t>(fi));
      }
    }
    if (fi % 4 == 3) batches.emplace_back();
  }
  for (std::size_t fi = 0; fi < failures.size(); ++fi) {
    for (std::int32_t si = sigma - 1; si >= 0; --si) {
      auto& one = batches.emplace_back();
      for (Vertex v = 0; v < g.num_vertices(); v += stride) {
        one.emplace_back(make_query(failures[fi], si, v, false),
                         static_cast<std::int32_t>(fi));
      }
    }
  }
  for (const auto& tagged : batches) {
    if (tagged.empty()) continue;
    std::vector<Query> batch;
    for (const auto& [q, fi] : tagged) batch.push_back(q);
    const api::QueryResponse resp = session.query(batch);
    ASSERT_EQ(resp.results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Query& q = batch[i];
      const auto fi = static_cast<std::size_t>(tagged[i].second);
      const api::QueryResult& r = resp.results[i];
      const Vertex src =
          session.sources()[static_cast<std::size_t>(q.source_index)];
      if (names_vertex(failures[fi], src)) {
        // A query's own source never fails: refused, even as a what-if.
        ASSERT_EQ(r.outcome, QueryOutcome::kRefused) << label;
        continue;
      }
      ASSERT_TRUE(r.outcome == QueryOutcome::kWhatIf ||
                  r.outcome == QueryOutcome::kInModel)
          << label << " i=" << i;
      ASSERT_EQ(r.dist,
                truth[fi][static_cast<std::size_t>(q.source_index)]
                     [static_cast<std::size_t>(q.v)])
          << label << " source#" << q.source_index
          << " v=" << q.v << " fault=" << q.fault << " fault2="
          << q.fault2 << " outcome=" << static_cast<int>(r.outcome);
      if (r.outcome == QueryOutcome::kWhatIf) {
        ++(cov.*failures[fi].tag);
      }
    }
  }
  // query_one shares the arenas: alternate failures and sources.
  for (std::size_t fi = 0; fi < failures.size(); fi += 3) {
    for (std::int32_t si = 0; si < sigma; ++si) {
      if (names_vertex(failures[fi],
                       session.sources()[static_cast<std::size_t>(si)])) {
        continue;
      }
      const Vertex v = static_cast<Vertex>((fi * 7) %
                                           static_cast<std::size_t>(
                                               g.num_vertices()));
      ASSERT_EQ(session.query_one(make_query(failures[fi], si, v, true)).dist,
                truth[fi][static_cast<std::size_t>(si)]
                     [static_cast<std::size_t>(v)])
          << label << " query_one source#" << si << " v=" << v;
    }
  }
}

struct Case {
  std::string label;
  Graph graph;
  Vertex source = 0;
};

TEST(WhatIfServing, SubtreeLocalMatchesLiteralBfs) {
  std::vector<Case> cases;
  for (auto& pc : test::property_cases(60, 2)) {
    cases.push_back(Case{pc.repro("what_if_serving_test"),
                         with_stray_component(pc.graph), pc.source});
  }
  {
    // The deep adversarial family at tiny ε: a structure that reinforces.
    lb::SingleSourceLb lbg = lb::build_single_source(300, 0.5);
    cases.push_back(Case{"lower_bound_n300",
                         with_stray_component(lbg.graph), lbg.source});
  }
  Coverage cov;
  Rng rng(test::property_base_seed(20));
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    const Vertex n = c.graph.num_vertices() - 2;  // the stray pair excluded
    for (const FaultClass model :
         {FaultClass::kEdge, FaultClass::kVertex, FaultClass::kEither}) {
      for (const int sigma : {1, 3}) {
        api::BuildSpec spec;
        spec.fault_model = model;
        spec.eps = 0.05;
        spec.sources = {c.source};
        for (int k = 1; k < sigma; ++k) {
          spec.sources.push_back((c.source + k * n / sigma) % n);
        }
        const api::Session session = api::Session::open(c.graph, spec);
        const EdgeWeights w =
            EdgeWeights::uniform_random(c.graph, spec.weight_seed);
        const BfsTree t0(c.graph, w, c.source);
        check_session(session, t0, rng, cov,
                      c.label + " model=" +
                          std::to_string(static_cast<int>(model)) +
                          " sigma=" + std::to_string(sigma));
        if (HasFatalFailure()) return;
      }
    }
  }
  // Every shape the sweep distinguishes was served as a what-if.
  EXPECT_GT(cov.leaf_vertex, 0);
  EXPECT_GT(cov.internal_vertex, 0);
  EXPECT_GT(cov.unreachable_vertex, 0);
  EXPECT_GT(cov.reinforced_edge, 0);
  EXPECT_GT(cov.non_tree_edge, 0);
  EXPECT_GT(cov.edge_outside_h, 0);
  EXPECT_GT(cov.nested, 0);
  EXPECT_GT(cov.disjoint, 0);
  EXPECT_GT(cov.edge_and_vertex, 0);
  EXPECT_GT(cov.one_subtree, 0);
}

}  // namespace
}  // namespace ftb

// structure_oracle_test.cpp — O(1) deployed-structure queries through
// api::Session vs literal BFS on H \ {e}.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/api/ftbfs_api.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/lower_bound.hpp"

namespace ftb {
namespace {

using api::Query;
using api::QueryOutcome;

api::Session open_session(const Graph& g, double eps, std::uint64_t seed) {
  api::BuildSpec spec;
  spec.eps = eps;
  spec.weight_seed = seed;
  return api::Session::open(g, spec);
}

Query edge_query(Vertex v, EdgeId e, bool what_if) {
  Query q;
  q.v = v;
  q.fault = e;
  q.allow_what_if = what_if;
  return q;
}

TEST(StructureServing, MatchesLiteralBfsOnEveryFaultProneEdge) {
  const Graph g = gen::gnm(36, 150, 21);
  const api::Session session = open_session(g, 0.25, 21);
  const FtBfsStructure& h = session.structure();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (h.is_reinforced(e)) continue;
    std::vector<Query> batch;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      batch.push_back(edge_query(v, e, false));
    }
    const api::QueryResponse resp = session.query(batch);
    const auto bfs = h.distances_avoiding(e);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const api::QueryResult& r = resp.results[static_cast<std::size_t>(v)];
      ASSERT_EQ(r.outcome, QueryOutcome::kInModel);
      ASSERT_EQ(r.dist, bfs[static_cast<std::size_t>(v)])
          << "v=" << v << " e=" << e;
    }
  }
}

/// A structure that reinforces: the deep adversarial family at tiny ε.
struct Reinforced {
  lb::SingleSourceLb lbg = lb::build_single_source(300, 0.5);
  api::Session session = [this] {
    api::BuildSpec spec;
    spec.sources = {lbg.source};
    spec.eps = 0.05;
    return api::Session::open(lbg.graph, spec);
  }();
};

TEST(StructureServing, RefusesReinforcedFailures) {
  const Reinforced fx;
  const FtBfsStructure& h = fx.session.structure();
  ASSERT_GT(h.num_reinforced(), 0);
  for (const EdgeId e : h.reinforced()) {
    // Reinforced edges never fail in the model: refused, never thrown.
    const api::QueryResult refused =
        fx.session.query_one(edge_query(0, e, false));
    EXPECT_EQ(refused.outcome, QueryOutcome::kRefused);
    EXPECT_EQ(refused.dist, kInfHops);
    // As a what-if the session answers by literal BFS on H \ {e}.
    const auto bfs = h.distances_avoiding(e);
    for (Vertex v = 0; v < std::min<Vertex>(h.graph().num_vertices(), 8);
         ++v) {
      const api::QueryResult r =
          fx.session.query_one(edge_query(v, e, true));
      EXPECT_EQ(r.outcome, QueryOutcome::kWhatIf);
      EXPECT_EQ(r.dist, bfs[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(StructureServing, WhatIfCacheStaysExactAcrossInterleavedFaults) {
  // What-if traversals are cached per fault on pooled arenas; faults
  // interleaved within a batch and alternating across batches must keep
  // returning exactly what a fresh BFS reports.
  const Reinforced fx;
  const FtBfsStructure& h = fx.session.structure();
  std::vector<EdgeId> probe = h.reinforced();
  if (probe.size() > 3) probe.resize(3);
  ASSERT_FALSE(probe.empty());
  std::vector<std::vector<std::int32_t>> fresh;
  for (const EdgeId e : probe) fresh.push_back(h.distances_avoiding(e));
  const Vertex n = h.graph().num_vertices();
  for (int round = 0; round < 2; ++round) {
    std::vector<Query> batch;
    for (Vertex v = 0; v < n; ++v) {
      for (std::size_t k = 0; k < probe.size(); ++k) {
        const std::size_t at = round == 0 ? k : probe.size() - 1 - k;
        batch.push_back(edge_query(v, probe[at], true));
      }
    }
    const api::QueryResponse resp = fx.session.query(batch);
    EXPECT_LE(resp.what_if_traversals,
              static_cast<std::int64_t>(probe.size()));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto k = static_cast<std::size_t>(
          std::find(probe.begin(), probe.end(), batch[i].fault) -
          probe.begin());
      ASSERT_EQ(resp.results[i].dist,
                fresh[k][static_cast<std::size_t>(batch[i].v)])
          << "round=" << round << " v=" << batch[i].v
          << " e=" << batch[i].fault;
    }
    // Single queries alternating faults hit the same arenas.
    for (Vertex v = 0; v < n; v += 7) {
      for (std::size_t k = 0; k < probe.size(); ++k) {
        ASSERT_EQ(fx.session.query_one(edge_query(v, probe[k], true)).dist,
                  fresh[k][static_cast<std::size_t>(v)]);
      }
    }
  }
}

}  // namespace
}  // namespace ftb

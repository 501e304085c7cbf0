// api_session_test.cpp — the batched, thread-safe query plane.
//
// Three claims under test:
//   1. classification — every query lands in the documented outcome cell
//      (in-model O(1) hit / what-if BFS / refused);
//   2. answers — bit-identical to the serial ground truth: a literal BFS
//      on H minus the fault(s);
//   3. thread safety — many threads hammering one Session with mixed
//      batches get exactly the serial answers (this test carries the
//      `concurrency` ctest label and runs under the TSan CI job).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/api/ftbfs_api.hpp"
#include "src/core/replacement.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/sim/failure_sim.hpp"
#include "src/graph/bfs_tree.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/lower_bound.hpp"
#include "src/util/rng.hpp"
#include "tests/referee.hpp"

namespace ftb {
namespace {

using api::Query;
using api::QueryOutcome;
using api::QueryResponse;

/// Serial ground truth for any single-fault query the session can answer:
/// a literal BFS on H \ {fault}.
std::int32_t serial_truth(const api::Session& session, const Query& q) {
  const Graph& g = session.graph();
  const FtBfsStructure& h = session.structure();
  const Vertex src =
      session.sources()[static_cast<std::size_t>(q.source_index)];
  std::vector<std::int32_t> dist;
  if (q.kind == FaultClass::kEdge) {
    BfsBans bans;
    bans.banned_edge_mask = &h.complement_mask();
    bans.banned_edge = q.fault;
    BfsScratch scratch;
    bfs_run(g, src, bans, scratch);
    return scratch.dist(q.v);
  }
  if (q.v == q.fault) return kInfHops;
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(g.num_vertices()),
                                 0);
  mask[static_cast<std::size_t>(q.fault)] = 1;
  BfsBans bans;
  bans.banned_vertex = &mask;
  bans.banned_edge_mask = &h.complement_mask();
  BfsScratch scratch;
  bfs_run(g, src, bans, scratch);
  return scratch.dist(q.v);
}

TEST(ApiSession, InModelAnswersMatchLiteralBfs) {
  const Graph g = gen::lollipop(14, 9);
  api::BuildSpec spec;
  spec.eps = 0.05;  // deep tail → reinforcement exists at this ε
  const api::Session session = api::Session::open(g, spec);
  const FtBfsStructure& h = session.structure();

  std::vector<Query> batch;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      Query q;
      q.v = v;
      q.fault = e;
      q.allow_what_if = true;
      batch.push_back(q);
    }
  }
  const QueryResponse resp = session.query(batch);
  ASSERT_EQ(resp.results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Query& q = batch[i];
    const bool reinforced = h.is_reinforced(q.fault);
    EXPECT_EQ(resp.results[i].outcome, reinforced ? QueryOutcome::kWhatIf
                                                  : QueryOutcome::kInModel);
    EXPECT_EQ(resp.results[i].dist, serial_truth(session, q))
        << "v=" << q.v << " e=" << q.fault;
  }
  EXPECT_EQ(resp.in_model + resp.what_if, static_cast<std::int64_t>(
                                              batch.size()));
  EXPECT_EQ(resp.refused, 0);
}

TEST(ApiSession, RefusalAndWhatIfCells) {
  // The deep adversarial family genuinely reinforces at small ε (the same
  // fixture epsilon_ftbfs_test's tradeoff-monotonicity test relies on).
  const auto lbg = lb::build_single_source(300, 0.5);
  const Graph& g = lbg.graph;
  api::BuildSpec spec;
  spec.sources = {lbg.source};
  spec.eps = 0.05;
  const api::Session session = api::Session::open(g, spec);
  const FtBfsStructure& h = session.structure();
  ASSERT_GT(h.num_reinforced(), 0) << "fixture must reinforce something";
  const EdgeId reinforced = h.reinforced().front();

  {  // reinforced edge without allow_what_if → refused, never thrown
    Query q;
    q.v = 5;
    q.fault = reinforced;
    const auto r = session.query_one(q);
    EXPECT_EQ(r.outcome, QueryOutcome::kRefused);
    EXPECT_EQ(r.dist, kInfHops);
  }
  {  // vertex fault on an edge-model session: what-if only
    Query q;
    q.v = 5;
    q.kind = FaultClass::kVertex;
    q.fault = lbg.source == 3 ? 4 : 3;
    EXPECT_EQ(session.query_one(q).outcome, QueryOutcome::kRefused);
    q.allow_what_if = true;
    const auto r = session.query_one(q);
    EXPECT_EQ(r.outcome, QueryOutcome::kWhatIf);
    EXPECT_EQ(r.dist, serial_truth(session, q));
  }
  {  // the source never fails, not even as a what-if
    Query q;
    q.v = 5;
    q.kind = FaultClass::kVertex;
    q.fault = lbg.source;
    q.allow_what_if = true;
    EXPECT_EQ(session.query_one(q).outcome, QueryOutcome::kRefused);
  }
  {  // malformed queries throw, they are not statuses
    Query q;
    q.v = g.num_vertices();
    q.fault = 0;
    EXPECT_THROW(session.query_one(q), CheckError);
    std::vector<Query> batch(1, q);
    EXPECT_THROW(session.query(batch), CheckError);
  }
}

TEST(ApiSession, VertexSessionMatchesVertexEngine) {
  const Graph g = gen::random_connected(40, 100, 9);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kVertex;
  const api::Session session = api::Session::open(g, spec);

  const EdgeWeights w = EdgeWeights::uniform_random(g, spec.weight_seed);
  const BfsTree tree(g, w, 0);
  const VertexReplacementEngine engine(tree);

  std::vector<Query> batch;
  for (Vertex x = 1; x < g.num_vertices(); ++x) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      Query q;
      q.v = v;
      q.kind = FaultClass::kVertex;
      q.fault = x;
      batch.push_back(q);
    }
  }
  const QueryResponse resp = session.query(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(resp.results[i].outcome, QueryOutcome::kInModel);
    EXPECT_EQ(resp.results[i].dist,
              engine.replacement_dist(batch[i].v, batch[i].fault))
        << "v=" << batch[i].v << " x=" << batch[i].fault;
  }
}

TEST(ApiSession, DualSessionAnswersBothKindsInModel) {
  const Graph g = gen::random_connected(36, 90, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session session = api::Session::open(g, spec);

  std::vector<Query> batch;
  for (Vertex v = 0; v < g.num_vertices(); v += 3) {
    Query qe;
    qe.v = v;
    qe.fault = 0;
    batch.push_back(qe);
    Query qv;
    qv.v = v;
    qv.kind = FaultClass::kVertex;
    qv.fault = std::max<Vertex>(1, v);
    batch.push_back(qv);
  }
  const QueryResponse resp = session.query(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(resp.results[i].outcome, QueryOutcome::kInModel) << i;
    EXPECT_EQ(resp.results[i].dist, serial_truth(session, batch[i])) << i;
  }
}

TEST(ApiSession, MultiSourceServesEverySource) {
  const Graph g = gen::random_connected(50, 130, 29);
  api::BuildSpec spec;
  spec.sources = {0, 23, 41};
  spec.eps = 0.3;
  const api::Session session = api::Session::open(g, spec);

  std::vector<Query> batch;
  for (const EdgeId e : session.structure().tree_edges()) {
    for (Vertex v = 0; v < g.num_vertices(); v += 5) {
      for (std::int32_t si = 0; si < 3; ++si) {
        Query q;
        q.v = v;
        q.fault = e;
        q.source_index = si;
        q.allow_what_if = true;
        batch.push_back(q);
      }
    }
  }
  const QueryResponse resp = session.query(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // The FT-MBFS contract: the structure answer equals the surviving-
    // graph answer for every source and every in-model failure — and the
    // what-if cell is the literal structure BFS by definition.
    if (resp.results[i].outcome == QueryOutcome::kInModel ||
        resp.results[i].outcome == QueryOutcome::kWhatIf) {
      EXPECT_EQ(resp.results[i].dist, serial_truth(session, batch[i]))
          << "i=" << i;
    }
  }
  EXPECT_EQ(resp.refused, 0);
}

TEST(ApiSession, AnotherSourceMayFailInModel) {
  // The per-source FT-MBFS vertex contract forbids failing only the
  // QUERYING source (x ∉ {s} per s ∈ S): another data center going down
  // is a perfectly in-model event for the rest. Regression test — the
  // plane used to refuse any source vertex, which crashed the
  // session-served vertex drill on multi-source deployments.
  const Graph g = gen::random_connected(45, 110, 33);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kVertex;
  spec.sources = {0, 17, 30};
  const api::Session session = api::Session::open(g, spec);

  Query q;
  q.v = 5;
  q.kind = FaultClass::kVertex;
  q.fault = 17;  // sources[1] fails...
  q.source_index = 0;  // ...queried from sources[0]: in-model
  const auto r = session.query_one(q);
  EXPECT_EQ(r.outcome, QueryOutcome::kInModel);
  EXPECT_EQ(r.dist, serial_truth(session, q));
  q.source_index = 1;  // the querying source itself: refused
  EXPECT_EQ(session.query_one(q).outcome, QueryOutcome::kRefused);

  // And the drill that used to trip FTB_CHECK(resp.refused == 0): same
  // storm, same verdict as the structure-served drill.
  const DrillReport via_session =
      run_failure_drill(session, FaultClass::kVertex, 40, 11);
  const DrillReport via_structure =
      run_failure_drill(session.structure(), FaultClass::kVertex, 40, 11);
  EXPECT_EQ(via_session.drills, via_structure.drills);
  EXPECT_EQ(via_session.violations, via_structure.violations);
  EXPECT_EQ(via_session.reachable_queries, via_structure.reachable_queries);
  EXPECT_EQ(via_session.violations, 0);
}

// ---------------------------------------------------------------------------
// The serving-plane additions: the site-local dual oracle (zero-traversal
// pair answers), the surfaced arena-cache counters, and the adaptive
// inline/sharded cutover — all bit-identical to the serial referee.

/// A storm of dual-pair queries (edge×edge over consecutive tree edges,
/// plus edge×vertex mixes) across every destination stride.
std::vector<Query> pair_storm(const api::Session& session, Vertex v_stride) {
  const Graph& g = session.graph();
  const auto& tree_edges = session.structure().tree_edges();
  std::vector<Query> batch;
  for (std::size_t i = 0; i + 1 < tree_edges.size(); i += 2) {
    for (Vertex v = 0; v < g.num_vertices(); v += v_stride) {
      Query q;
      q.v = v;
      q.kind = FaultClass::kEdge;
      q.fault = tree_edges[i];
      q.kind2 = FaultClass::kEdge;
      q.fault2 = tree_edges[i + 1];
      batch.push_back(q);
      Query mixed = q;
      mixed.kind2 = FaultClass::kVertex;
      mixed.fault2 = std::max<Vertex>(1, v);
      batch.push_back(mixed);
    }
  }
  return batch;
}

TEST(ApiSession, SiteDistOracleServesPairStormsTraversalFree) {
  // The tentpole contract: with the site-local oracle attached, every
  // in-model dual pair answers O(1) from the precomputed tables — zero
  // traversals, bit-identical to the traversing plane.
  const Graph g = gen::random_connected(36, 90, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session plain = api::Session::open(g, spec);
  spec.site_dist_oracle = true;
  const api::Session fast = api::Session::open(g, spec);

  const std::vector<Query> batch = pair_storm(fast, 3);
  const QueryResponse want = plain.query(batch);
  ASSERT_GT(want.pair_traversals, 0) << "fixture must have traversing pairs";

  const QueryResponse got = fast.query(batch);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got.results[i].dist, want.results[i].dist) << "i=" << i;
    EXPECT_EQ(got.results[i].outcome, want.results[i].outcome) << "i=" << i;
  }
  EXPECT_EQ(got.pair_traversals, 0);
  EXPECT_GT(got.site_oracle_hits, 0);
  EXPECT_EQ(got.pair_cache_misses, 0);

  // query_one rides the same O(1) plane.
  for (std::size_t i = 0; i < batch.size(); i += 7) {
    EXPECT_EQ(fast.query_one(batch[i]).dist, want.results[i].dist);
  }

  const api::FsckReport rep = fast.fsck();
  EXPECT_TRUE(rep.ok);
  EXPECT_FALSE(rep.degraded);
}

TEST(ApiSession, MultiSourceSiteDistRoundTripsThroughSaveV5) {
  // save_v5 carries every source's site-dist accelerator: a plain load of
  // the artifact serves pair storms from every source traversal-free,
  // bit-identical to the session that built it.
  const Graph g = gen::random_connected(30, 70, 13);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.sources = {0, 11};
  spec.site_dist_oracle = true;
  const api::Session built = api::Session::open(g, spec);
  const std::string path =
      ::testing::TempDir() + "/api_session_ms_site_dist.ftbfs";
  built.save_v5(path);
  const api::Session loaded = api::Session::load(g, path);
  std::remove(path.c_str());

  std::vector<Query> batch = pair_storm(built, 3);
  const std::size_t per_source = batch.size();
  for (std::size_t i = 0; i < per_source; ++i) {
    Query q = batch[i];
    q.source_index = 1;
    batch.push_back(q);
  }
  const QueryResponse want = built.query(batch);
  const QueryResponse got = loaded.query(batch);
  EXPECT_FALSE(loaded.degraded());
  EXPECT_EQ(got.pair_traversals, 0);
  EXPECT_GT(got.site_oracle_hits, 0);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got.results[i].dist, want.results[i].dist) << "i=" << i;
    EXPECT_EQ(got.results[i].outcome, want.results[i].outcome) << "i=" << i;
  }
}

TEST(ApiSession, PairCacheCountersSurface) {
  // The leased-arena traversal cache is observable: a batch that repeats
  // one non-reducible pair across many destinations pays one traversal
  // (one miss) and hits for the rest.
  const Graph g = gen::random_connected(36, 90, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session session = api::Session::open(g, spec);
  const auto& tree_edges = session.structure().tree_edges();

  for (std::size_t i = 0; i + 1 < tree_edges.size(); i += 2) {
    std::vector<Query> batch;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      Query q;
      q.v = v;
      q.kind = FaultClass::kEdge;
      q.fault = tree_edges[i];
      q.kind2 = FaultClass::kEdge;
      q.fault2 = tree_edges[i + 1];
      batch.push_back(q);
    }
    const QueryResponse resp = session.query(batch);
    // Reducible pairs (and pairs whose storm touches the cache once)
    // don't witness the hit counter — scan on until one does.
    if (resp.pair_traversals == 0 || resp.pair_cache_hits == 0) continue;
    EXPECT_GT(resp.pair_cache_misses, 0);
    EXPECT_EQ(resp.site_oracle_hits, 0);
    return;
  }
  FAIL() << "no cache-churning pair in the fixture";
}

TEST(ApiSession, SiteDistOracleSurvivesSaveLoadAndRebuilds) {
  const Graph g = gen::grid_graph(5, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.site_dist_oracle = true;
  const api::Session built = api::Session::open(g, spec);

  const std::vector<Query> batch = pair_storm(built, 2);
  const QueryResponse want = built.query(batch);
  EXPECT_EQ(want.pair_traversals, 0);
  EXPECT_GT(want.site_oracle_hits, 0);

  const std::string path =
      ::testing::TempDir() + "/api_session_site_dist.ftbfs";
  built.save_v5(path);
  {
    // The shipped site-dist section reattaches on a plain load: still
    // traversal-free, still bit-identical, not degraded.
    const api::Session loaded = api::Session::load(g, path);
    EXPECT_FALSE(loaded.degraded());
    const QueryResponse got = loaded.query(batch);
    EXPECT_EQ(got.pair_traversals, 0);
    EXPECT_GT(got.site_oracle_hits, 0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(got.results[i].dist, want.results[i].dist) << "i=" << i;
      EXPECT_EQ(got.results[i].outcome, want.results[i].outcome) << "i=" << i;
    }
  }
  {
    // An artifact WITHOUT the section + SessionConfig::site_dist_oracle:
    // the tables are rebuilt from the graph — an accelerator rebuild, not
    // a degradation.
    api::BuildSpec plain_spec;
    plain_spec.fault_model = FaultClass::kDual;
    const api::Session plain = api::Session::open(g, plain_spec);
    plain.save_v5(path);
    api::SessionConfig cfg;
    cfg.site_dist_oracle = true;
    const api::Session rebuilt = api::Session::load(g, path, cfg);
    EXPECT_FALSE(rebuilt.degraded());
    const QueryResponse got = rebuilt.query(batch);
    EXPECT_EQ(got.pair_traversals, 0);
    EXPECT_GT(got.site_oracle_hits, 0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(got.results[i].dist, want.results[i].dist) << "i=" << i;
    }
  }
  {
    // Corrupt site-dist payload bit: the tolerant load drops the
    // accelerator, keeps the pair tables, serves the same answers by
    // traversal — degraded speed, never degraded service.
    built.save_v5(path);
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    const std::size_t hdr = bytes.find("section site-dist ");
    ASSERT_NE(hdr, std::string::npos);
    const std::size_t payload = bytes.find('\n', hdr) + 1;
    bytes[payload + 24] ^= 0x08;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    const api::Session survivor = api::Session::load(g, path);
    EXPECT_FALSE(survivor.degraded());
    const QueryResponse got = survivor.query(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(got.results[i].dist, want.results[i].dist) << "i=" << i;
      EXPECT_EQ(got.results[i].outcome, QueryOutcome::kInModel) << "i=" << i;
    }
    // The dropped section is an fsck note, not a degradation.
    const api::FsckReport rep = survivor.fsck();
    EXPECT_TRUE(rep.ok);
    EXPECT_FALSE(rep.degraded);
  }
  std::remove(path.c_str());
}

/// Flips one bit inside a saved v5 artifact's pair-table payload, so a
/// tolerant load recomputes the tables and serves degraded (CRC-32C
/// catches every single-bit error).
void corrupt_pair_tables(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  const std::size_t hdr = bytes.find("section pair-tables ");
  ASSERT_NE(hdr, std::string::npos);
  const std::size_t payload = bytes.find('\n', hdr) + 1;
  bytes[payload + 40] ^= 0x10;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(ApiSession, SingleFaultAnswersMatchBuildSideEnginesAcrossLoads) {
  // Sessions serve off replacement tables, not engines: every in-model
  // single-fault answer of a deployed, a v5-loaded, a v6-loaded and (for
  // the dual model, the only one with pair tables to drop) a degraded
  // session equals a build-side engine's replacement_dist, for every fault
  // model at σ = 3.
  const Graph g = gen::random_connected(24, 60, 5);
  const std::vector<Vertex> sources = {0, 9, 17};
  const std::string v5 = ::testing::TempDir() + "/api_session_tables.v5";
  const std::string v6 = ::testing::TempDir() + "/api_session_tables.v6";
  for (const FaultClass model : {FaultClass::kEdge, FaultClass::kVertex,
                                 FaultClass::kEither, FaultClass::kDual}) {
    SCOPED_TRACE(to_string(model));
    api::BuildSpec spec;
    spec.fault_model = model;
    spec.sources = sources;
    const api::Session deployed =
        api::Session::deploy(g, api::build(g, spec));
    deployed.save_v5(v5);
    deployed.save_v6(v6);
    std::vector<std::pair<const char*, api::Session>> sessions = {
        {"deploy", deployed},
        {"v5 load", api::Session::load(g, v5)},
        {"v6 load", api::Session::load(g, v6)}};
    if (model == FaultClass::kDual) {
      corrupt_pair_tables(v5);
      sessions.emplace_back("degraded load", api::Session::load(g, v5));
      ASSERT_TRUE(sessions.back().second.degraded());
    }

    // Every single fault of the model's kinds, from every source, with the
    // build side's answer.
    const EdgeWeights w = EdgeWeights::uniform_random(g, spec.weight_seed);
    std::vector<Query> batch;
    std::vector<std::int32_t> want;
    for (std::size_t si = 0; si < sources.size(); ++si) {
      const BfsTree tree(g, w, sources[si]);
      Query q;
      q.source_index = static_cast<std::int32_t>(si);
      if (model != FaultClass::kVertex) {
        const ReplacementPathEngine engine(tree);
        q.kind = FaultClass::kEdge;
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          for (Vertex v = 0; v < g.num_vertices(); ++v) {
            q.v = v;
            q.fault = e;
            batch.push_back(q);
            want.push_back(engine.replacement_dist(v, e));
          }
        }
      }
      if (model != FaultClass::kEdge) {
        const VertexReplacementEngine engine(tree);
        q.kind = FaultClass::kVertex;
        for (Vertex x = 0; x < g.num_vertices(); ++x) {
          if (x == sources[si]) continue;
          for (Vertex v = 0; v < g.num_vertices(); ++v) {
            q.v = v;
            q.fault = x;
            batch.push_back(q);
            want.push_back(engine.replacement_dist(v, x));
          }
        }
      }
    }
    for (const auto& [how, session] : sessions) {
      const QueryResponse resp = session.query(batch);
      std::int64_t served = 0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const QueryOutcome o = resp.results[i].outcome;
        if (o != QueryOutcome::kInModel && o != QueryOutcome::kDegraded) {
          continue;
        }
        ++served;
        ASSERT_EQ(resp.results[i].dist, want[i])
            << how << " source_index=" << batch[i].source_index
            << " v=" << batch[i].v << " fault=" << batch[i].fault;
      }
      EXPECT_GT(served, static_cast<std::int64_t>(batch.size()) / 2) << how;
    }
  }
  std::remove(v5.c_str());
  std::remove(v6.c_str());
}

TEST(ApiSession, InlineCutoverBoundaryBitIdentical) {
  // BatchOptions::inline_threshold pins the strategy: a batch exactly at
  // the threshold serves inline on the caller thread, one past it shards
  // across the pool — and the answers must not know the difference.
  const Graph g = gen::random_connected(36, 90, 41);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session session = api::Session::open(g, spec);

  std::vector<Query> batch = pair_storm(session, 4);
  for (Vertex v = 0; v < g.num_vertices(); v += 3) {  // mix in singles
    Query q;
    q.v = v;
    q.kind = FaultClass::kEdge;
    q.fault = 0;
    batch.push_back(q);
  }
  std::vector<api::QueryResult> expected;
  expected.reserve(batch.size());
  for (const Query& q : batch) expected.push_back(session.query_one(q));

  const auto n = static_cast<std::int32_t>(batch.size());
  for (const std::int32_t threshold : {n, n - 1, 0, -1}) {
    api::BatchOptions opts;
    opts.inline_threshold = threshold;
    const QueryResponse resp = session.query(batch, opts);
    ASSERT_EQ(resp.results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(resp.results[i].dist, expected[i].dist)
          << "threshold=" << threshold << " i=" << i;
      EXPECT_EQ(resp.results[i].outcome, expected[i].outcome)
          << "threshold=" << threshold << " i=" << i;
    }
  }

  // kBudgetExhausted interplay is path-independent at budget 0: every
  // traversal group exhausts, every O(1) answer is still served — on the
  // inline path and the sharded path alike.
  api::BatchOptions starved_inline;
  starved_inline.max_traversals = 0;
  starved_inline.inline_threshold = n;
  api::BatchOptions starved_sharded;
  starved_sharded.max_traversals = 0;
  starved_sharded.inline_threshold = 0;
  const QueryResponse ri = session.query(batch, starved_inline);
  const QueryResponse rs = session.query(batch, starved_sharded);
  EXPECT_GT(ri.budget_exhausted, 0);
  EXPECT_EQ(ri.budget_exhausted, rs.budget_exhausted);
  EXPECT_EQ(ri.in_model, rs.in_model);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(ri.results[i].dist, rs.results[i].dist) << "i=" << i;
    EXPECT_EQ(ri.results[i].outcome, rs.results[i].outcome) << "i=" << i;
  }
}

TEST(ApiSession, InlineCutoverBoundaryOnDegradedSessions) {
  // The cutover is pure strategy on degraded sessions too: recomputed
  // tables, kDegraded tags, identical distances on both paths.
  const Graph g = gen::grid_graph(5, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session fresh = api::Session::open(g, spec);
  const std::string path =
      ::testing::TempDir() + "/api_session_cutover_degraded.ftbfs";
  fresh.save_v5(path);
  corrupt_pair_tables(path);
  const api::Session session = api::Session::load(g, path);
  ASSERT_TRUE(session.degraded());

  const std::vector<Query> batch = pair_storm(session, 2);
  std::vector<api::QueryResult> expected;
  expected.reserve(batch.size());
  for (const Query& q : batch) expected.push_back(session.query_one(q));

  const auto n = static_cast<std::int32_t>(batch.size());
  for (const std::int32_t threshold : {n, 0}) {
    api::BatchOptions opts;
    opts.inline_threshold = threshold;
    const QueryResponse resp = session.query(batch, opts);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(resp.results[i].dist, expected[i].dist)
          << "threshold=" << threshold << " i=" << i;
      EXPECT_EQ(resp.results[i].outcome, QueryOutcome::kDegraded)
          << "threshold=" << threshold << " i=" << i;
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Concurrency: many threads × one Session, answers bit-identical to the
// serial plane. Runs under TSan in CI (ctest -L concurrency).

TEST(ApiSessionConcurrency, ManyThreadsMixedBatchesMatchSerial) {
  // Fixture with every outcome cell populated: the deep adversarial family
  // reinforces at ε = 0.05, so the pool mixes in-model edge hits,
  // reinforced-edge what-ifs, vertex what-ifs and refusals.
  const auto lbg = lb::build_single_source(300, 0.5);
  const Graph& g = lbg.graph;
  api::BuildSpec spec;
  spec.sources = {lbg.source};
  spec.eps = 0.05;
  const api::Session session = api::Session::open(g, spec);
  const FtBfsStructure& h = session.structure();
  ASSERT_GT(h.num_reinforced(), 0);

  std::vector<Query> all;
  for (EdgeId e = 0; e < g.num_edges(); e += 5) {
    for (Vertex v = 0; v < g.num_vertices(); v += 7) {
      Query q;
      q.v = v;
      q.fault = e;
      q.allow_what_if = (e % 2) == 0;
      all.push_back(q);
    }
  }
  for (const EdgeId e : h.reinforced()) {  // both what-if and refused cells
    for (Vertex v = 0; v < g.num_vertices(); v += 3) {
      Query q;
      q.v = v;
      q.fault = e;
      q.allow_what_if = (v % 2) == 0;
      all.push_back(q);
    }
  }
  for (Vertex x = 1; x < g.num_vertices(); x += 23) {
    for (Vertex v = 0; v < g.num_vertices(); v += 11) {
      Query q;
      q.v = v;
      q.kind = FaultClass::kVertex;
      q.fault = x;
      q.allow_what_if = true;
      all.push_back(q);
    }
  }

  // Serial expectations once, up front.
  std::vector<api::QueryResult> expected;
  expected.reserve(all.size());
  for (const Query& q : all) expected.push_back(session.query_one(q));

  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(1000 + t));
      for (int round = 0; round < kRounds; ++round) {
        // Each round: a random shuffle of the pool, so threads disagree
        // about order and what-if grouping.
        std::vector<std::uint32_t> order(all.size());
        for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        std::vector<Query> batch;
        batch.reserve(order.size());
        for (const std::uint32_t i : order) batch.push_back(all[i]);
        const QueryResponse resp = session.query(batch);
        for (std::size_t k = 0; k < order.size(); ++k) {
          const api::QueryResult& want = expected[order[k]];
          const api::QueryResult& got = resp.results[k];
          if (got.dist != want.dist || got.outcome != want.outcome) {
            failures[static_cast<std::size_t>(t)] =
                "thread " + std::to_string(t) + " round " +
                std::to_string(round) + " query " + std::to_string(order[k]);
            return;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  (void)h;
}

TEST(ApiSessionConcurrency, DualPairStormManyThreadsMatchSerial) {
  // The dual plane's shared state — pair grouping, leased DualQueryArenas
  // with their site-complement masks, the oracle's O(1) reductions — must
  // hold under concurrent mixed batches exactly like the single-fault
  // plane. Runs under TSan via the concurrency label.
  const Graph g = gen::random_connected(36, 90, 41);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session session = api::Session::open(g, spec);

  std::vector<Query> all;
  for (EdgeId e = 0; e < g.num_edges(); e += 3) {
    for (Vertex x = 1; x < g.num_vertices(); x += 5) {
      for (Vertex v = 0; v < g.num_vertices(); v += 4) {
        Query q;
        q.v = v;
        q.kind = FaultClass::kEdge;
        q.fault = e;
        q.kind2 = FaultClass::kVertex;
        q.fault2 = x;
        all.push_back(q);
        // Mix in the single-fault planes of the same session.
        Query single;
        single.v = v;
        single.kind = FaultClass::kVertex;
        single.fault = x;
        all.push_back(single);
      }
    }
  }

  std::vector<api::QueryResult> expected;
  expected.reserve(all.size());
  for (const Query& q : all) expected.push_back(session.query_one(q));

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(7000 + t));
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::uint32_t> order(all.size());
        for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        std::vector<Query> batch;
        batch.reserve(order.size());
        for (const std::uint32_t i : order) batch.push_back(all[i]);
        const QueryResponse resp = session.query(batch);
        for (std::size_t k = 0; k < order.size(); ++k) {
          const api::QueryResult& want = expected[order[k]];
          const api::QueryResult& got = resp.results[k];
          if (got.dist != want.dist || got.outcome != want.outcome) {
            failures[static_cast<std::size_t>(t)] =
                "thread " + std::to_string(t) + " round " +
                std::to_string(round) + " query " + std::to_string(order[k]);
            return;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

TEST(ApiSessionConcurrency, DegradedSessionServesConcurrentStorms) {
  // The chaos scenario under TSan: a session reloaded from a corrupted v5
  // artifact (pair tables dropped, recomputed from the graph, outcomes
  // tagged kDegraded) is hammered by many threads; every answer must be
  // bit-identical to the serial pass over the same degraded session, and
  // to the distances of a clean fresh session. Degradation must change
  // the tag, never the data plane's thread safety.
  const Graph g = gen::grid_graph(5, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session fresh = api::Session::open(g, spec);
  const std::string path =
      ::testing::TempDir() + "/api_session_degraded.ftbfs";
  fresh.save_v5(path);
  corrupt_pair_tables(path);
  const api::Session session = api::Session::load(g, path);
  ASSERT_TRUE(session.degraded());

  std::vector<Query> all;
  for (EdgeId e = 0; e < g.num_edges(); e += 4) {
    for (Vertex x = 1; x < g.num_vertices(); x += 6) {
      for (Vertex v = 0; v < g.num_vertices(); v += 5) {
        Query q;
        q.v = v;
        q.kind = FaultClass::kEdge;
        q.fault = e;
        q.kind2 = FaultClass::kVertex;
        q.fault2 = x;
        all.push_back(q);
      }
    }
  }

  std::vector<api::QueryResult> expected;
  expected.reserve(all.size());
  for (const Query& q : all) {
    const api::QueryResult serial = session.query_one(q);
    // Degraded tag, clean-session distance.
    EXPECT_EQ(serial.outcome, QueryOutcome::kDegraded);
    EXPECT_EQ(serial.dist, fresh.query_one(q).dist);
    expected.push_back(serial);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(9100 + t));
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::uint32_t> order(all.size());
        for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        std::vector<Query> batch;
        batch.reserve(order.size());
        for (const std::uint32_t i : order) batch.push_back(all[i]);
        const QueryResponse resp = session.query(batch);
        for (std::size_t k = 0; k < order.size(); ++k) {
          const api::QueryResult& want = expected[order[k]];
          const api::QueryResult& got = resp.results[k];
          if (got.dist != want.dist || got.outcome != want.outcome) {
            failures[static_cast<std::size_t>(t)] =
                "thread " + std::to_string(t) + " round " +
                std::to_string(round) + " query " + std::to_string(order[k]);
            return;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  std::remove(path.c_str());
}

TEST(ApiSessionConcurrency, PrunedDualArenaCacheChurnsUnderConcurrentStorms) {
  // DualFaultOracle caching under the PRUNED structure, concurrently: the
  // leased one-slot DualQueryArenas evict on every pair switch, so a storm
  // of alternating non-reducible pairs from many threads churns the arena
  // pool's cached traversals while reducible pairs bypass the cache — all
  // answers must stay bit-identical to the serial referee. Runs under TSan
  // via the concurrency label (the dual ctest label pulls it into the ASan
  // job too).
  const Graph g = gen::random_connected(40, 110, 53);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session session = api::Session::open(g, spec);
  const FtBfsStructure& h = session.structure();

  // An alternating storm of sited pairs (every query a fresh pair — the
  // eviction-heavy shape) interleaved with reducible pairs (doubled
  // elements and off-structure second edges — the cache-bypassing shape).
  EdgeId off_structure = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!h.contains(e)) {
      off_structure = e;
      break;
    }
  }
  const auto& tree_edges = h.tree_edges();
  std::vector<Query> all;
  for (std::size_t i = 0; i + 1 < tree_edges.size(); i += 2) {
    for (Vertex v = 0; v < g.num_vertices(); v += 5) {
      Query pair;
      pair.v = v;
      pair.kind = FaultClass::kEdge;
      pair.fault = tree_edges[i];
      pair.kind2 = FaultClass::kEdge;
      pair.fault2 = tree_edges[i + 1];
      all.push_back(pair);
      Query doubled = pair;
      doubled.fault2 = doubled.fault;
      all.push_back(doubled);
      if (off_structure != kInvalidEdge) {
        Query reducible = pair;
        reducible.fault2 = off_structure;
        all.push_back(reducible);
      }
    }
  }

  std::vector<api::QueryResult> expected;
  expected.reserve(all.size());
  for (const Query& q : all) expected.push_back(session.query_one(q));

  constexpr int kThreads = 8;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(9100 + t));
      for (int round = 0; round < 3; ++round) {
        std::vector<std::uint32_t> order(all.size());
        for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        std::vector<Query> batch;
        batch.reserve(order.size());
        for (const std::uint32_t i : order) batch.push_back(all[i]);
        const QueryResponse resp = session.query(batch);
        for (std::size_t k = 0; k < order.size(); ++k) {
          if (resp.results[k].dist != expected[order[k]].dist ||
              resp.results[k].outcome != expected[order[k]].outcome) {
            failures[static_cast<std::size_t>(t)] =
                "thread " + std::to_string(t) + " round " +
                std::to_string(round) + " query " + std::to_string(order[k]);
            return;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

TEST(ApiSessionConcurrency, ArenaFreeListStormAcrossCutover) {
  // The lock-free arena freelist under fire: threads alternate tiny
  // batches (inline path — caller-thread lease/release churn) with large
  // forced-sharded batches (pool threads leasing concurrently), plus the
  // site-dist oracle plane in the mix. Every answer bit-identical to the
  // serial referee; TSan (ctest -L concurrency) watches the freelist.
  const Graph g = gen::random_connected(32, 80, 17);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.site_dist_oracle = true;
  const api::Session session = api::Session::open(g, spec);

  std::vector<Query> all = pair_storm(session, 2);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {  // singles churn arenas too
    Query q;
    q.v = v;
    q.kind = FaultClass::kVertex;
    q.fault = std::max<Vertex>(1, v);
    q.allow_what_if = true;
    all.push_back(q);
  }

  std::vector<api::QueryResult> expected;
  expected.reserve(all.size());
  for (const Query& q : all) expected.push_back(session.query_one(q));

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(4200 + t));
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::uint32_t> order(all.size());
        for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        // Odd rounds: the whole storm forced through the sharded path.
        // Even rounds: a stream of tiny inline batches (size ≤ 8), each
        // leasing and releasing scratch + arenas on the caller thread.
        api::BatchOptions opts;
        opts.inline_threshold = (round % 2 == 1) ? 0 : 1 << 20;
        const std::size_t step = (round % 2 == 1) ? order.size() : 8;
        for (std::size_t lo = 0; lo < order.size(); lo += step) {
          const std::size_t hi = std::min(lo + step, order.size());
          std::vector<Query> batch;
          batch.reserve(hi - lo);
          for (std::size_t k = lo; k < hi; ++k)
            batch.push_back(all[order[k]]);
          const QueryResponse resp = session.query(batch, opts);
          for (std::size_t k = lo; k < hi; ++k) {
            const api::QueryResult& want = expected[order[k]];
            const api::QueryResult& got = resp.results[k - lo];
            if (got.dist != want.dist || got.outcome != want.outcome) {
              failures[static_cast<std::size_t>(t)] =
                  "thread " + std::to_string(t) + " round " +
                  std::to_string(round) + " query " +
                  std::to_string(order[k]);
              return;
            }
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

TEST(ApiSessionConcurrency, SigmaWideMultiSourceSessionStorm) {
  // σ = 64 sources, each tree on the fused canonical kernel, and the
  // session is then stormed from competing threads across all 64 source
  // indices. The per-source union on two-pass canonical_sp trees
  // (tests/referee.hpp) is the referee — identical structure, identical
  // served answers — and the TSan job runs this under -L concurrency.
  const Graph g = gen::random_connected(96, 300, 41);
  std::vector<Vertex> sources;
  for (std::size_t k = 0; k < 64; ++k) {
    sources.push_back(static_cast<Vertex>((k * 96) / 64));
  }
  api::BuildSpec spec;
  spec.eps = 0.3;
  spec.sources = sources;
  const api::Session production = api::Session::open(g, spec);
  const api::Session referee =
      api::Session::deploy(g, test::referee_build(g, spec));
  ASSERT_EQ(production.sources().size(), 64u);
  EXPECT_EQ(production.structure().edges(), referee.structure().edges());
  EXPECT_EQ(production.structure().tree_edges(),
            referee.structure().tree_edges());

  // A mixed batch touching every source index.
  Rng rng(4141);
  std::vector<Query> batch;
  for (std::int32_t si = 0; si < 64; ++si) {
    for (int k = 0; k < 6; ++k) {
      Query q;
      q.v = static_cast<Vertex>(
          rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
      q.kind = FaultClass::kEdge;
      q.fault = static_cast<EdgeId>(
          rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
      q.source_index = si;
      q.allow_what_if = true;
      batch.push_back(q);
    }
  }
  const QueryResponse want = production.query(batch);
  // Referee every answer of the batch against the serial ground truth.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(want.results[i].dist, serial_truth(production, batch[i])) << i;
  }

  std::atomic<int> mismatches{0};
  auto storm = [&](const api::Session& s) {
    for (int round = 0; round < 3; ++round) {
      const QueryResponse got = s.query(batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (got.results[i].dist != want.results[i].dist ||
            got.results[i].outcome != want.results[i].outcome) {
          mismatches.fetch_add(1);
          return;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back(storm, std::cref(production));
    threads.emplace_back(storm, std::cref(referee));
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ApiSessionConcurrency, ConcurrentSessionsShareTheGlobalPool) {
  // Two independent sessions, queried from competing threads, both backed
  // by the global ThreadPool: results must stay exact.
  const Graph g1 = gen::grid_graph(7, 7);
  const Graph g2 = gen::random_connected(40, 90, 3);
  api::BuildSpec spec1;
  spec1.eps = 0.25;
  api::BuildSpec spec2;
  spec2.fault_model = FaultClass::kVertex;
  const api::Session s1 = api::Session::open(g1, spec1);
  const api::Session s2 = api::Session::open(g2, spec2);

  auto make_batch = [](const api::Session& s, FaultClass kind) {
    std::vector<Query> batch;
    const Graph& g = s.graph();
    const std::int32_t faults = kind == FaultClass::kEdge
                                    ? static_cast<std::int32_t>(g.num_edges())
                                    : g.num_vertices();
    for (std::int32_t f = kind == FaultClass::kEdge ? 0 : 1; f < faults;
         f += 2) {
      for (Vertex v = 0; v < g.num_vertices(); v += 4) {
        Query q;
        q.v = v;
        q.kind = kind;
        q.fault = f;
        q.allow_what_if = true;
        batch.push_back(q);
      }
    }
    return batch;
  };
  const std::vector<Query> b1 = make_batch(s1, FaultClass::kEdge);
  const std::vector<Query> b2 = make_batch(s2, FaultClass::kVertex);
  const QueryResponse want1 = s1.query(b1);
  const QueryResponse want2 = s2.query(b2);

  std::atomic<int> mismatches{0};
  auto run = [&](const api::Session& s, const std::vector<Query>& b,
                 const QueryResponse& want) {
    for (int round = 0; round < 4; ++round) {
      const QueryResponse got = s.query(b);
      for (std::size_t i = 0; i < b.size(); ++i) {
        if (got.results[i].dist != want.results[i].dist) {
          mismatches.fetch_add(1);
          return;
        }
      }
    }
  };
  std::thread t1(run, std::cref(s1), std::cref(b1), std::cref(want1));
  std::thread t2(run, std::cref(s2), std::cref(b2), std::cref(want2));
  std::thread t3(run, std::cref(s1), std::cref(b1), std::cref(want1));
  std::thread t4(run, std::cref(s2), std::cref(b2), std::cref(want2));
  t1.join();
  t2.join();
  t3.join();
  t4.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace ftb

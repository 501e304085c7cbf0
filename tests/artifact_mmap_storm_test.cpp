// artifact_mmap_storm_test.cpp — the shared-mmap serving claim: two
// Sessions loaded from the SAME v6 artifact file (each attach maps it
// read-only, MAP_SHARED — the OS page cache holds one copy of the bytes)
// hammered by concurrent mixed single/dual-pair storms from many threads
// must serve answers bit-identical to each other, to the serial pass, and
// to the live session the artifact was saved from. Carries the
// `concurrency` ctest label and runs under the TSan CI job.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "src/graph/generators.hpp"
#include "src/util/rng.hpp"

namespace ftb {
namespace {

using api::Query;

TEST(ArtifactMmapStorm, TwoSessionsOneArtifactManyThreads) {
  const Graph g = gen::random_connected(40, 100, 23);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.site_dist_oracle = true;
  const api::Session live = api::Session::open(g, spec);

  const std::string path = "artifact_mmap_storm_scratch.v6";
  live.save_v6(path);

  // Two independent attaches of one file. Strict config: any corruption or
  // drop would fail the load — these sessions must serve the artifact's
  // own tables, not a recompute.
  api::SessionConfig cfg;
  cfg.tolerate_corruption = false;
  const api::Session a = api::Session::load(g, path, cfg);
  const api::Session b = api::Session::load(g, path, cfg);
  EXPECT_TRUE(a.fsck().ok);
  EXPECT_TRUE(b.fsck().ok);
  EXPECT_FALSE(a.degraded());
  EXPECT_FALSE(b.degraded());

  // A pool mixing every dual-session cell: single edge faults, single
  // vertex faults, and in-model pairs (edge+edge, edge+vertex,
  // vertex+vertex) — reducible and non-reducible alike.
  std::vector<Query> all;
  for (EdgeId e = 0; e < g.num_edges(); e += 7) {
    for (Vertex v = 1; v < g.num_vertices(); v += 5) {
      Query q;
      q.v = v;
      q.kind = FaultClass::kEdge;
      q.fault = e;
      all.push_back(q);

      q.kind2 = FaultClass::kEdge;
      q.fault2 = (e + 3) % g.num_edges();
      if (q.fault2 != q.fault) all.push_back(q);

      q.kind2 = FaultClass::kVertex;
      q.fault2 = (v + 11) % g.num_vertices();
      if (q.fault2 != 0) all.push_back(q);
    }
  }
  for (Vertex x = 1; x < g.num_vertices(); x += 9) {
    for (Vertex v = 1; v < g.num_vertices(); v += 6) {
      Query q;
      q.v = v;
      q.kind = FaultClass::kVertex;
      q.fault = x;
      all.push_back(q);

      q.kind2 = FaultClass::kVertex;
      q.fault2 = (x + 13) % g.num_vertices();
      if (q.fault2 != 0 && q.fault2 != x) all.push_back(q);
    }
  }
  ASSERT_GT(all.size(), 100u);

  // Serial ground truth from the live session the artifact was saved from.
  std::vector<api::QueryResult> expected;
  expected.reserve(all.size());
  for (const Query& q : all) expected.push_back(live.query_one(q));

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Even threads hit session a, odd ones session b — both mmaps serve
      // simultaneously, interleaved with the live session's own arenas.
      const api::Session& mine = (t % 2 == 0) ? a : b;
      Rng rng(static_cast<std::uint64_t>(4200 + t));
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::uint32_t> order(all.size());
        for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        std::vector<Query> batch;
        batch.reserve(order.size());
        for (const std::uint32_t i : order) batch.push_back(all[i]);
        const api::QueryResponse resp = mine.query(batch);
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

}  // namespace
}  // namespace ftb

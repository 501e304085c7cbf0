#include "src/sim/failure_sim.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>

#include "src/api/ftbfs_api.hpp"
#include "src/core/dual_fault.hpp"
#include "src/graph/bfs_kernel.hpp"
#include "src/graph/canonical_bfs.hpp"
#include "src/io/structure_io.hpp"

namespace ftb {

std::string DrillReport::to_string() const {
  std::ostringstream os;
  os << "DrillReport(drills=" << drills << ", queries=" << reachable_queries
     << ", violations=" << violations << ", disconnections=" << disconnections
     << ", max_stretch=" << max_stretch << ", avg_distance=" << avg_distance;
  if (pair_traversals + site_oracle_hits + pair_cache_hits +
          pair_cache_misses >
      0) {
    os << ", pair_traversals=" << pair_traversals
       << ", site_oracle_hits=" << site_oracle_hits
       << ", pair_cache_hits=" << pair_cache_hits
       << ", pair_cache_misses=" << pair_cache_misses;
  }
  os << ")";
  return os.str();
}

namespace {

/// One (surviving-graph, surviving-structure) distance comparison folded
/// into the report — the single scoring rule every drill flavor shares.
void score_pair(std::int32_t dg, std::int32_t dh, DrillReport& report,
                double& dist_sum, std::int64_t& dist_count) {
  if (dg >= kInfHops) {
    ++report.disconnections;
    return;
  }
  ++report.reachable_queries;
  dist_sum += dh >= kInfHops ? 0 : dh;
  ++dist_count;
  if (dh != dg) {
    ++report.violations;
    const double stretch =
        dh >= kInfHops
            ? std::numeric_limits<double>::infinity()
            : (dg == 0 ? 1.0
                       : static_cast<double>(dh) / static_cast<double>(dg));
    report.max_stretch = std::max(report.max_stretch, stretch);
  }
}

/// Shared per-failure scoring: compares the surviving structure against the
/// surviving full network (both already swept into scratches).
void score_drill(const Graph& g, const BfsScratch& in_g,
                 const BfsScratch& in_h, Vertex skip, DrillReport& report,
                 double& dist_sum, std::int64_t& dist_count) {
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v == skip) continue;
    score_pair(in_g.dist(v), in_h.dist(v), report, dist_sum, dist_count);
  }
}

/// The edge storm: `num_failures` fault-prone edges (everything except E'),
/// sampled without replacement when possible. One sampler for both the
/// structure-served and session-served drills, so identical seeds always
/// mean identical storms.
std::vector<EdgeId> sample_edge_storm(const FtBfsStructure& h,
                                      std::int64_t num_failures,
                                      std::uint64_t seed) {
  const Graph& g = h.graph();
  std::vector<EdgeId> prone;
  prone.reserve(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!h.is_reinforced(e)) prone.push_back(e);
  }
  Rng rng(seed);
  rng.shuffle(prone);
  if (static_cast<std::int64_t>(prone.size()) > num_failures) {
    prone.resize(static_cast<std::size_t>(num_failures));
  }
  return prone;
}

/// The vertex storm: `num_failures` non-source routers, sampled without
/// replacement when possible.
std::vector<Vertex> sample_vertex_storm(const FtBfsStructure& h,
                                        std::int64_t num_failures,
                                        std::uint64_t seed) {
  const Graph& g = h.graph();
  std::vector<Vertex> prone;
  prone.reserve(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex x = 0; x < g.num_vertices(); ++x) {
    if (x != h.source()) prone.push_back(x);
  }
  Rng rng(seed);
  rng.shuffle(prone);
  if (static_cast<std::int64_t>(prone.size()) > num_failures) {
    prone.resize(static_cast<std::size_t>(num_failures));
  }
  return prone;
}

}  // namespace

namespace {

/// The dual storm: `num_failures` unordered failure PAIRS drawn from the
/// full universe (every edge, every non-source router), deterministically
/// from `seed`. Shared by the structure- and session-served dual drills.
std::vector<std::pair<DualSite, DualSite>> sample_pair_storm(
    const FtBfsStructure& h, std::int64_t num_failures, std::uint64_t seed) {
  const Graph& g = h.graph();
  std::vector<DualSite> universe;
  universe.reserve(static_cast<std::size_t>(g.num_edges()) +
                   static_cast<std::size_t>(g.num_vertices()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    universe.push_back(DualSite{FaultClass::kEdge, e});
  }
  for (Vertex x = 0; x < g.num_vertices(); ++x) {
    if (x != h.source()) universe.push_back(DualSite{FaultClass::kVertex, x});
  }
  Rng rng(seed);
  std::vector<std::pair<DualSite, DualSite>> storm;
  storm.reserve(static_cast<std::size_t>(num_failures));
  for (std::int64_t i = 0; i < num_failures; ++i) {
    DualSite a = universe[rng.next_below(universe.size())];
    DualSite b = universe[rng.next_below(universe.size())];
    if (b < a) std::swap(a, b);
    storm.emplace_back(a, b);
  }
  return storm;
}

}  // namespace

/// Dual-failure drill against the structure alone: every sampled pair is
/// played build-then-verify style — brute-force two-failure BFS of the
/// surviving network vs BFS of the surviving structure.
DrillReport run_dual_failure_drill(const FtBfsStructure& h,
                                   std::int64_t num_failures,
                                   std::uint64_t seed) {
  const Graph& g = h.graph();
  const Vertex s = h.source();
  const auto storm = sample_pair_storm(h, num_failures, seed);

  DrillReport report;
  double dist_sum = 0;
  std::int64_t dist_count = 0;
  BfsScratch in_g, in_h;
  for (const auto& [f1, f2] : storm) {
    ++report.drills;
    dual_bruteforce_bfs(g, s, f1, f2, in_g);
    dual_structure_bfs(h, f1, f2, in_h);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if ((f1.kind == FaultClass::kVertex && v == f1.id) ||
          (f2.kind == FaultClass::kVertex && v == f2.id)) {
        continue;  // destroyed router
      }
      score_pair(in_g.dist(v), in_h.dist(v), report, dist_sum, dist_count);
    }
  }
  report.avg_distance =
      dist_count > 0 ? dist_sum / static_cast<double>(dist_count) : 0.0;
  return report;
}

DrillReport run_failure_drill(const FtBfsStructure& h,
                              std::int64_t num_failures, std::uint64_t seed) {
  const Graph& g = h.graph();
  const Vertex s = h.source();
  const std::vector<EdgeId> prone = sample_edge_storm(h, num_failures, seed);

  DrillReport report;
  double dist_sum = 0;
  std::int64_t dist_count = 0;
  BfsScratch in_g, in_h;  // reused across drills — zero per-drill allocation
  for (const EdgeId failed : prone) {
    ++report.drills;
    BfsBans bans;
    bans.banned_edge = failed;
    bfs_run(g, s, bans, in_g);
    h.distances_avoiding(failed, in_h);
    score_drill(g, in_g, in_h, kInvalidVertex, report, dist_sum, dist_count);
  }
  report.avg_distance =
      dist_count > 0 ? dist_sum / static_cast<double>(dist_count) : 0.0;
  return report;
}

DrillReport run_vertex_failure_drill(const FtBfsStructure& h,
                                     std::int64_t num_failures,
                                     std::uint64_t seed) {
  const Graph& g = h.graph();
  const Vertex s = h.source();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const std::vector<Vertex> prone =
      sample_vertex_storm(h, num_failures, seed);

  DrillReport report;
  double dist_sum = 0;
  std::int64_t dist_count = 0;
  BfsScratch in_g, in_h;
  std::vector<std::uint8_t> banned(n, 0);
  for (const Vertex failed : prone) {
    ++report.drills;
    banned[static_cast<std::size_t>(failed)] = 1;
    BfsBans g_bans;
    g_bans.banned_vertex = &banned;
    bfs_run(g, s, g_bans, in_g);
    BfsBans h_bans;
    h_bans.banned_vertex = &banned;
    h_bans.banned_edge_mask = &h.complement_mask();
    bfs_run(g, s, h_bans, in_h);
    banned[static_cast<std::size_t>(failed)] = 0;
    score_drill(g, in_g, in_h, failed, report, dist_sum, dist_count);
  }
  report.avg_distance =
      dist_count > 0 ? dist_sum / static_cast<double>(dist_count) : 0.0;
  return report;
}

namespace {

/// Merges two storms into one report (query-weighted average distance).
DrillReport merge_reports(DrillReport rep, const DrillReport& vrep) {
  const std::int64_t q = rep.reachable_queries + vrep.reachable_queries;
  rep.avg_distance =
      q > 0 ? (rep.avg_distance * static_cast<double>(rep.reachable_queries) +
               vrep.avg_distance *
                   static_cast<double>(vrep.reachable_queries)) /
                  static_cast<double>(q)
            : 0.0;
  rep.drills += vrep.drills;
  rep.reachable_queries = q;
  rep.violations += vrep.violations;
  rep.disconnections += vrep.disconnections;
  rep.max_stretch = std::max(rep.max_stretch, vrep.max_stretch);
  rep.pair_traversals += vrep.pair_traversals;
  rep.site_oracle_hits += vrep.site_oracle_hits;
  rep.pair_cache_hits += vrep.pair_cache_hits;
  rep.pair_cache_misses += vrep.pair_cache_misses;
  return rep;
}

/// Folds one batched response's serving-plane counters into the report.
void absorb_plane_counters(DrillReport& report,
                           const api::QueryResponse& resp) {
  report.pair_traversals += resp.pair_traversals;
  report.site_oracle_hits += resp.site_oracle_hits;
  report.pair_cache_hits += resp.pair_cache_hits;
  report.pair_cache_misses += resp.pair_cache_misses;
}

}  // namespace

DrillReport run_failure_drill(const FtBfsStructure& h, FaultClass model,
                              std::int64_t num_failures, std::uint64_t seed) {
  switch (model) {
    case FaultClass::kEdge:
      return run_failure_drill(h, num_failures, seed);
    case FaultClass::kVertex:
      return run_vertex_failure_drill(h, num_failures, seed);
    case FaultClass::kEither:
      return merge_reports(run_failure_drill(h, num_failures, seed),
                           run_vertex_failure_drill(h, num_failures, seed));
    case FaultClass::kDual:
      return run_dual_failure_drill(h, num_failures, seed);
  }
  return {};
}

// ---------------------------------------------------------------------------
// Session-served drills: the surviving-graph side of every comparison is a
// batched in-model query (the FT contract pins it to dist(s,·,G\{fault}),
// an O(1) table lookup), so each drill costs one literal traversal (the
// surviving structure) instead of two.

namespace {

/// Storms are chunked so the in-flight batch (queries + results) stays
/// bounded regardless of drill count or graph size — big enough that the
/// plane's grouping still has plenty to chew on per call.
constexpr std::size_t kMaxBatchQueries = std::size_t{1} << 20;

/// The shared session-drill loop: per chunk, one batched in-model query()
/// call answers the surviving-graph side of every (failure, vertex)
/// comparison; `sweep_h(fault, in_h)` sweeps the surviving STRUCTURE for
/// one drill. EdgeId and Vertex share one integer type, so one body serves
/// both storms; the vertex storm skips the destroyed router itself.
template <class SweepH>
DrillReport run_session_storm(const api::Session& session, FaultClass kind,
                              std::span<const std::int32_t> prone,
                              SweepH&& sweep_h) {
  const Graph& g = session.graph();
  const Vertex n = g.num_vertices();
  const std::size_t chunk = std::max<std::size_t>(
      1, kMaxBatchQueries / std::max<std::size_t>(
                                1, static_cast<std::size_t>(n)));
  const bool skip_failed = kind == FaultClass::kVertex;

  DrillReport report;
  double dist_sum = 0;
  std::int64_t dist_count = 0;
  BfsScratch in_h;
  std::vector<api::Query> batch;
  for (std::size_t begin = 0; begin < prone.size(); begin += chunk) {
    const std::size_t end = std::min(prone.size(), begin + chunk);
    batch.clear();
    for (std::size_t i = begin; i < end; ++i) {
      for (Vertex v = 0; v < n; ++v) {
        api::Query q;
        q.v = v;
        q.kind = kind;
        q.fault = prone[i];
        batch.push_back(q);
      }
    }
    const api::QueryResponse resp = session.query(batch);
    FTB_CHECK_MSG(resp.refused == 0,
                  "session refused in-model drill queries — storm does not "
                  "match the session's fault model");
    absorb_plane_counters(report, resp);
    std::size_t qi = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::int32_t failed = prone[i];
      ++report.drills;
      sweep_h(failed, in_h);
      for (Vertex v = 0; v < n; ++v, ++qi) {
        if (skip_failed && v == failed) continue;  // destroyed router
        score_pair(resp.results[qi].dist, in_h.dist(v), report, dist_sum,
                   dist_count);
      }
    }
  }
  report.avg_distance =
      dist_count > 0 ? dist_sum / static_cast<double>(dist_count) : 0.0;
  return report;
}

DrillReport run_session_edge_drill(const api::Session& session,
                                   std::int64_t num_failures,
                                   std::uint64_t seed) {
  const FtBfsStructure& h = session.structure();
  return run_session_storm(
      session, FaultClass::kEdge, sample_edge_storm(h, num_failures, seed),
      [&](EdgeId failed, BfsScratch& in_h) {
        h.distances_avoiding(failed, in_h);
      });
}

DrillReport run_session_vertex_drill(const api::Session& session,
                                     std::int64_t num_failures,
                                     std::uint64_t seed) {
  const FtBfsStructure& h = session.structure();
  const Graph& g = h.graph();
  std::vector<std::uint8_t> banned(
      static_cast<std::size_t>(g.num_vertices()), 0);
  return run_session_storm(
      session, FaultClass::kVertex,
      sample_vertex_storm(h, num_failures, seed),
      [&](Vertex failed, BfsScratch& in_h) {
        banned[static_cast<std::size_t>(failed)] = 1;
        BfsBans h_bans;
        h_bans.banned_vertex = &banned;
        h_bans.banned_edge_mask = &h.complement_mask();
        bfs_run(g, h.source(), h_bans, in_h);
        banned[static_cast<std::size_t>(failed)] = 0;
      });
}

/// Dual-failure drill through the session plane: the surviving-network
/// side of every comparison is one batched IN-MODEL pair query (grouped by
/// distinct pair — the production serving path), the surviving-structure
/// side a literal two-failure BFS of H. Build-then-verify: any
/// disagreement is a violation in the report.
DrillReport run_session_dual_drill(const api::Session& session,
                                   std::int64_t num_failures,
                                   std::uint64_t seed) {
  const FtBfsStructure& h = session.structure();
  const Graph& g = session.graph();
  const Vertex n = g.num_vertices();
  const auto storm = sample_pair_storm(h, num_failures, seed);
  const std::size_t chunk = std::max<std::size_t>(
      1, kMaxBatchQueries / std::max<std::size_t>(
                                1, static_cast<std::size_t>(n)));

  DrillReport report;
  double dist_sum = 0;
  std::int64_t dist_count = 0;
  BfsScratch in_h;
  std::vector<api::Query> batch;
  for (std::size_t begin = 0; begin < storm.size(); begin += chunk) {
    const std::size_t end = std::min(storm.size(), begin + chunk);
    batch.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const auto& [f1, f2] = storm[i];
      for (Vertex v = 0; v < n; ++v) {
        api::Query q;
        q.v = v;
        q.kind = f1.kind;
        q.fault = f1.id;
        q.kind2 = f2.kind;
        q.fault2 = f2.id;
        batch.push_back(q);
      }
    }
    const api::QueryResponse resp = session.query(batch);
    FTB_CHECK_MSG(resp.refused == 0,
                  "session refused in-model dual drill queries — storm does "
                  "not match the session's fault model");
    absorb_plane_counters(report, resp);
    std::size_t qi = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto& [f1, f2] = storm[i];
      ++report.drills;
      dual_structure_bfs(h, f1, f2, in_h);
      for (Vertex v = 0; v < n; ++v, ++qi) {
        if ((f1.kind == FaultClass::kVertex && v == f1.id) ||
            (f2.kind == FaultClass::kVertex && v == f2.id)) {
          continue;  // destroyed router
        }
        score_pair(resp.results[qi].dist, in_h.dist(v), report, dist_sum,
                   dist_count);
      }
    }
  }
  report.avg_distance =
      dist_count > 0 ? dist_sum / static_cast<double>(dist_count) : 0.0;
  return report;
}

}  // namespace

DrillReport run_failure_drill(const api::Session& session, FaultClass storm,
                              std::int64_t num_failures, std::uint64_t seed) {
  const FaultClass model = session.fault_model();
  const bool covers_edge = model != FaultClass::kVertex;
  const bool covers_vertex = model != FaultClass::kEdge;
  switch (storm) {
    case FaultClass::kEdge:
      FTB_CHECK_MSG(covers_edge,
                    "edge storm on a vertex-model session — drill the "
                    "structure overload instead");
      return run_session_edge_drill(session, num_failures, seed);
    case FaultClass::kVertex:
      FTB_CHECK_MSG(covers_vertex,
                    "vertex storm on an edge-model session — drill the "
                    "structure overload instead");
      return run_session_vertex_drill(session, num_failures, seed);
    case FaultClass::kEither:
      FTB_CHECK_MSG(covers_edge && covers_vertex,
                    "either storm needs a session covering both kinds");
      return merge_reports(
          run_session_edge_drill(session, num_failures, seed),
          run_session_vertex_drill(session, num_failures, seed));
    case FaultClass::kDual:
      FTB_CHECK_MSG(model == FaultClass::kDual,
                    "dual-failure storm needs a dual-model session");
      return run_session_dual_drill(session, num_failures, seed);
  }
  return {};
}

// ---------------------------------------------------------------------------
// The chaos drill: corrupt, reload, degrade, serve, verify.

std::string ChaosDrillReport::to_string() const {
  std::ostringstream os;
  os << "ChaosDrillReport(" << (healthy() ? "healthy" : "UNHEALTHY")
     << ", corrupted=" << artifact_corrupted
     << ", degraded=" << reload_degraded << ", dropped=" << dropped_sections
     << ", fsck=" << (fsck_ok ? "ok" : "FAILED") << "/" << fsck_checks
     << ", compared=" << compared_queries << ", mismatches=" << mismatches
     << ", " << drill.to_string() << ")";
  return os.str();
}

ChaosDrillReport run_chaos_drill(const Graph& g, const api::BuildSpec& spec,
                                 const std::string& scratch_path,
                                 std::int64_t num_failures,
                                 std::uint64_t seed) {
  FTB_CHECK_MSG(spec.fault_model == FaultClass::kDual,
                "chaos drill corrupts the pair-table section — it needs a "
                "dual-model spec");
  ChaosDrillReport rep;
  const api::Session fresh = api::Session::open(g, spec);
  fresh.save_v5(scratch_path);

  // Flip one seeded bit inside the pair-table payload ON DISK. The v5
  // frame declares the payload's CRC-32C, which catches every single-bit
  // error, so the tolerant reload is guaranteed to see the damage.
  std::string bytes;
  {
    std::ifstream f(scratch_path, std::ios::binary);
    FTB_CHECK_MSG(f.good(),
                  "chaos drill cannot reopen artifact " << scratch_path);
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  const std::size_t hdr = bytes.find("section pair-tables ");
  FTB_CHECK_MSG(hdr != std::string::npos,
                "v5 artifact carries no pair-table section to corrupt");
  const std::size_t payload = bytes.find('\n', hdr);
  FTB_CHECK_MSG(payload != std::string::npos && payload + 1 < bytes.size(),
                "v5 pair-table section carries no payload to corrupt");
  Rng rng(seed);
  const std::size_t pos =
      payload + 1 + rng.next_below(bytes.size() - (payload + 1));
  bytes[static_cast<std::size_t>(pos)] ^=
      static_cast<char>(1u << rng.next_below(8));
  rep.artifact_corrupted = true;
  {
    std::ofstream f(scratch_path, std::ios::binary | std::ios::trunc);
    f << bytes;
    FTB_CHECK_MSG(f.good(),
                  "chaos drill cannot rewrite artifact " << scratch_path);
  }

  // Tolerant reload: the damaged section must be dropped (recorded in the
  // LoadReport), never crash the load, and the session must come up in
  // degraded mode with recomputed tables.
  {
    io::ReadOptions opts;
    opts.tolerate_pair_tables = true;
    io::LoadReport lr;
    std::vector<Vertex> srcs;
    std::vector<DualSiteTable> tbls;
    (void)io::load_structure(g, scratch_path, &srcs, &tbls, opts, &lr);
    rep.dropped_sections = static_cast<std::int64_t>(lr.dropped.size());
  }
  api::SessionConfig cfg;
  cfg.weight_seed = spec.weight_seed;
  cfg.pool = spec.pool;
  const api::Session degraded = api::Session::load(g, scratch_path, cfg);
  rep.reload_degraded = degraded.degraded();
  const api::FsckReport fsck = degraded.fsck();
  rep.fsck_ok = fsck.ok;
  rep.fsck_checks = fsck.checks;

  // Serve the pair storm through BOTH sessions: every degraded answer must
  // be bit-identical to the fresh session's, and correct against
  // brute-force two-failure BFS of the surviving network.
  const FtBfsStructure& h = fresh.structure();
  const Vertex n = g.num_vertices();
  const auto storm = sample_pair_storm(h, num_failures, seed);
  const std::size_t chunk = std::max<std::size_t>(
      1, kMaxBatchQueries / std::max<std::size_t>(
                                1, static_cast<std::size_t>(n)));
  double dist_sum = 0;
  std::int64_t dist_count = 0;
  BfsScratch in_g;
  std::vector<api::Query> batch;
  for (std::size_t begin = 0; begin < storm.size(); begin += chunk) {
    const std::size_t end = std::min(storm.size(), begin + chunk);
    batch.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const auto& [f1, f2] = storm[i];
      for (Vertex v = 0; v < n; ++v) {
        api::Query q;
        q.v = v;
        q.kind = f1.kind;
        q.fault = f1.id;
        q.kind2 = f2.kind;
        q.fault2 = f2.id;
        batch.push_back(q);
      }
    }
    const api::QueryResponse a = fresh.query(batch);
    const api::QueryResponse b = degraded.query(batch);
    for (std::size_t qi = 0; qi < batch.size(); ++qi) {
      ++rep.compared_queries;
      const api::QueryResult& ra = a.results[qi];
      const api::QueryResult& rb = b.results[qi];
      // A degraded session re-tags in-model pair answers kDegraded; the
      // distances themselves must not move.
      const bool outcome_ok =
          ra.outcome == rb.outcome ||
          (ra.outcome == api::QueryOutcome::kInModel &&
           rb.outcome == api::QueryOutcome::kDegraded);
      if (ra.dist != rb.dist || !outcome_ok) ++rep.mismatches;
    }
    std::size_t qi = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto& [f1, f2] = storm[i];
      ++rep.drill.drills;
      dual_bruteforce_bfs(g, h.source(), f1, f2, in_g);
      for (Vertex v = 0; v < n; ++v, ++qi) {
        if ((f1.kind == FaultClass::kVertex && v == f1.id) ||
            (f2.kind == FaultClass::kVertex && v == f2.id)) {
          continue;  // destroyed router
        }
        if (b.results[qi].outcome == api::QueryOutcome::kRefused) {
          continue;  // pair names the source router — refused, not served
        }
        score_pair(in_g.dist(v), b.results[qi].dist, rep.drill, dist_sum,
                   dist_count);
      }
    }
  }
  rep.drill.avg_distance =
      dist_count > 0 ? dist_sum / static_cast<double>(dist_count) : 0.0;
  return rep;
}

}  // namespace ftb

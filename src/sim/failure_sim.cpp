#include "src/sim/failure_sim.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>

#include "src/api/ftbfs_api.hpp"
#include "src/core/verifier.hpp"
#include "src/graph/bfs_kernel.hpp"

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

using Failure = std::pair<DualSite, DualSite>;

/// Storms are chunked so the in-flight batch (queries + results) stays
/// bounded regardless of drill count or graph size — big enough that the
/// plane's grouping still has plenty to chew on per call.
constexpr std::size_t kMaxBatchQueries = std::size_t{1} << 20;

/// One (surviving-graph, surviving-structure) distance comparison folded
/// into the report — the single scoring rule every drill shares.
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

/// Does the failure take router `x` down?
bool names(const Failure& f, Vertex x) {
  return (f.first.kind == FaultClass::kVertex && f.first.id == x) ||
         (f.second.kind == FaultClass::kVertex && f.second.id == x);
}

/// The storm universe: the verifier's failure universe of h.source(),
/// then, in their order, the elements the other sources' universes add
/// (the routers that are in-model for some source but not h.source()'s).
/// A single-source universe is exactly h.source()'s.
std::vector<DualSite> storm_universe(const FtBfsStructure& h,
                                     std::span<const Vertex> sources,
                                     FaultClass model) {
  std::vector<DualSite> universe =
      failure_universe(h.graph(), h.source(), model, h.reinforced());
  std::vector<DualSite> seen = universe;
  std::sort(seen.begin(), seen.end());
  for (const Vertex s : sources) {
    for (const DualSite f :
         failure_universe(h.graph(), s, model, h.reinforced())) {
      const auto at = std::lower_bound(seen.begin(), seen.end(), f);
      if (at != seen.end() && *at == f) continue;
      seen.insert(at, f);
      universe.push_back(f);
    }
  }
  return universe;
}

/// The one storm sampler, over storm_universe. Single-fault models shuffle
/// each kind's universe from `seed` and keep `num_failures` of it (either
/// plays the edge storm, then the vertex storm); dual draws `num_failures`
/// unordered pairs. Identical seeds always mean identical storms,
/// whichever side serves the drill.
std::vector<Failure> sample_storm(const FtBfsStructure& h,
                                  std::span<const Vertex> sources,
                                  FaultClass model, std::int64_t num_failures,
                                  std::uint64_t seed) {
  std::vector<Failure> storm;
  if (model == FaultClass::kDual) {
    const std::vector<DualSite> universe = storm_universe(h, sources, model);
    Rng rng(seed);
    for (std::int64_t i = 0; i < num_failures; ++i) {
      DualSite a = universe[rng.next_below(universe.size())];
      DualSite b = universe[rng.next_below(universe.size())];
      if (b < a) std::swap(a, b);
      storm.emplace_back(a, b);
    }
    return storm;
  }
  for (const FaultClass kind : {FaultClass::kEdge, FaultClass::kVertex}) {
    if (model != FaultClass::kEither && model != kind) continue;
    std::vector<DualSite> prone = storm_universe(h, sources, kind);
    Rng rng(seed);
    rng.shuffle(prone);
    if (static_cast<std::int64_t>(prone.size()) > num_failures) {
      prone.resize(static_cast<std::size_t>(num_failures));
    }
    for (const DualSite f : prone) storm.emplace_back(f, DualSite{});
  }
  return storm;
}

/// The one scoring loop: every failure of `storm`, from every source, every
/// surviving vertex. The surviving-STRUCTURE side is structure_bfs; the
/// surviving-network side is the kernel's brute-force BFS, or — with a
/// `session` — one batched in-model query() per chunk, which `on_batch`
/// also sees (the chaos drill's bit-identity audit).
template <class OnBatch>
DrillReport drill_storm(const FtBfsStructure& h,
                        std::span<const Vertex> sources,
                        std::span<const Failure> storm,
                        const api::Session* session, OnBatch&& on_batch) {
  const Graph& g = h.graph();
  const Vertex n = g.num_vertices();
  const std::size_t chunk =
      session == nullptr
          ? std::max<std::size_t>(1, storm.size())
          : std::max<std::size_t>(
                1, kMaxBatchQueries /
                       std::max<std::size_t>(
                           1, static_cast<std::size_t>(n) * sources.size()));

  DrillReport report;
  double dist_sum = 0;
  std::int64_t dist_count = 0;
  BfsScratch in_g, in_h;
  std::vector<api::Query> batch;
  api::QueryResponse resp;
  for (std::size_t begin = 0; begin < storm.size(); begin += chunk) {
    const std::size_t end = std::min(storm.size(), begin + chunk);
    if (session != nullptr) {
      batch.clear();
      for (std::size_t i = begin; i < end; ++i) {
        const auto& [f1, f2] = storm[i];
        for (std::size_t si = 0; si < sources.size(); ++si) {
          if (names(storm[i], sources[si])) continue;
          for (Vertex v = 0; v < n; ++v) {
            api::Query q;
            q.v = v;
            q.kind = f1.kind;
            q.fault = f1.id;
            q.kind2 = f2.kind;
            q.fault2 = f2.id;
            q.source_index = static_cast<std::int32_t>(si);
            batch.push_back(q);
          }
        }
      }
      resp = session->query(batch);
      FTB_CHECK_MSG(resp.refused == 0,
                    "session refused in-model drill queries — storm does "
                    "not match the session's fault model");
      report.pair_traversals += resp.pair_traversals;
      report.site_oracle_hits += resp.site_oracle_hits;
      report.pair_cache_hits += resp.pair_cache_hits;
      report.pair_cache_misses += resp.pair_cache_misses;
      on_batch(batch, resp);
    }
    std::size_t qi = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto& [f1, f2] = storm[i];
      ++report.drills;
      for (const Vertex s : sources) {
        if (names(storm[i], s)) continue;  // the querying router itself
        if (session == nullptr) dual_bruteforce_bfs(g, s, f1, f2, in_g);
        structure_bfs(h, s, f1, f2, in_h);
        for (Vertex v = 0; v < n; ++v) {
          const std::int32_t dg =
              session != nullptr ? resp.results[qi++].dist : in_g.dist(v);
          if (names(storm[i], v)) continue;  // destroyed router
          score_pair(dg, in_h.dist(v), report, dist_sum, dist_count);
        }
      }
    }
  }
  report.avg_distance =
      dist_count > 0 ? dist_sum / static_cast<double>(dist_count) : 0.0;
  return report;
}

void no_audit(const std::vector<api::Query>&, const api::QueryResponse&) {}

}  // namespace

DrillReport run_failure_drill(const FtBfsStructure& h, FaultClass model,
                              std::int64_t num_failures, std::uint64_t seed,
                              std::span<const Vertex> sources) {
  const Vertex self = h.source();
  if (sources.empty()) sources = std::span(&self, 1);
  return drill_storm(h, sources,
                     sample_storm(h, sources, model, num_failures, seed),
                     nullptr, no_audit);
}

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
      break;
    case FaultClass::kVertex:
      FTB_CHECK_MSG(covers_vertex,
                    "vertex storm on an edge-model session — drill the "
                    "structure overload instead");
      break;
    case FaultClass::kEither:
      FTB_CHECK_MSG(covers_edge && covers_vertex,
                    "either storm needs a session covering both kinds");
      break;
    case FaultClass::kDual:
      FTB_CHECK_MSG(model == FaultClass::kDual,
                    "dual-failure storm needs a dual-model session");
      break;
  }
  const FtBfsStructure& h = session.structure();
  return drill_storm(
      h, session.sources(),
      sample_storm(h, session.sources(), storm, num_failures, seed),
      &session, no_audit);
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

  // Flip one seeded bit inside the pair-table payload ON DISK — within its
  // declared length, so the damage never lands in a later (site-dist)
  // section. The v5 frame declares the payload's CRC-32C, which catches
  // every single-bit error, so the tolerant reload is guaranteed to see it.
  std::string bytes;
  {
    std::ifstream f(scratch_path, std::ios::binary);
    FTB_CHECK_MSG(f.good(),
                  "chaos drill cannot reopen artifact " << scratch_path);
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  const std::string frame = "section pair-tables ";
  const std::size_t hdr = bytes.find(frame);
  FTB_CHECK_MSG(hdr != std::string::npos,
                "v5 artifact carries no pair-table section to corrupt");
  const std::size_t payload = bytes.find('\n', hdr);
  std::uint64_t len = 0;
  std::istringstream(bytes.substr(hdr + frame.size(), 20)) >> len;
  FTB_CHECK_MSG(payload != std::string::npos && len > 0 &&
                    payload + len < bytes.size(),
                "v5 pair-table section carries no payload to corrupt");
  Rng rng(seed);
  const std::size_t pos = payload + 1 + rng.next_below(len);
  bytes[static_cast<std::size_t>(pos)] ^=
      static_cast<char>(1u << rng.next_below(8));
  rep.artifact_corrupted = true;
  {
    std::ofstream f(scratch_path, std::ios::binary | std::ios::trunc);
    f << bytes;
    FTB_CHECK_MSG(f.good(),
                  "chaos drill cannot rewrite artifact " << scratch_path);
  }

  // Tolerant reload: the damaged section must be dropped (fsck names it),
  // never crash the load, and the session must come up in degraded mode
  // with recomputed tables.
  api::SessionConfig cfg;
  cfg.weight_seed = spec.weight_seed;
  cfg.pool = spec.pool;
  const api::Session degraded = api::Session::load(g, scratch_path, cfg);
  rep.reload_degraded = degraded.degraded();
  const api::FsckReport fsck = degraded.fsck();
  rep.fsck_ok = fsck.ok;
  rep.fsck_checks = fsck.checks;
  rep.dropped_sections =
      static_cast<std::int64_t>(fsck.dropped_sections.size());

  // Serve the pair storm through the degraded session, scored against the
  // surviving structure; every batch is replayed through the fresh session
  // too, whose answers the degraded ones must match bit for bit.
  const FtBfsStructure& h = fresh.structure();
  rep.drill = drill_storm(
      h, degraded.sources(),
      sample_storm(h, degraded.sources(), FaultClass::kDual, num_failures,
                   seed),
      &degraded,
      [&](const std::vector<api::Query>& batch,
          const api::QueryResponse& b) {
        const api::QueryResponse a = fresh.query(batch);
        for (std::size_t qi = 0; qi < batch.size(); ++qi) {
          ++rep.compared_queries;
          const api::QueryResult& ra = a.results[qi];
          const api::QueryResult& rb = b.results[qi];
          // A degraded session re-tags in-model pair answers kDegraded;
          // the distances themselves must not move.
          const bool outcome_ok =
              ra.outcome == rb.outcome ||
              (ra.outcome == api::QueryOutcome::kInModel &&
               rb.outcome == api::QueryOutcome::kDegraded);
          if (ra.dist != rb.dist || !outcome_ok) ++rep.mismatches;
        }
      });
  return rep;
}

}  // namespace ftb

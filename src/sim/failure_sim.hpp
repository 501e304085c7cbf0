// failure_sim.hpp — operational failure drills against a deployed
// (b,r) FT-BFS structure, for either fault model.
//
// The simulator plays the role of the network operator from the paper's
// introduction: links or routers fail one at a time (reinforced edges never
// fail, by assumption of the edge model; the source router never fails);
// after each failure it measures the service level of the surviving
// structure — distance stretch vs. the surviving *full* network — and
// aggregates a report. A correct structure always reports stretch 1 and
// zero SLA violations; the integration tests assert exactly that, and the
// failure_drill example prints the report.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/structure.hpp"
#include "src/util/rng.hpp"

namespace ftb::api {
class Session;
struct BuildSpec;
}  // namespace ftb::api

namespace ftb {

struct DrillReport {
  std::int64_t drills = 0;              // failures injected
  std::int64_t reachable_queries = 0;   // (failure, vertex) pairs compared
  std::int64_t violations = 0;          // dist_H > dist_G events
  std::int64_t disconnections = 0;      // vertices cut off by the failure
                                        // (in G as well — not a violation)
  double max_stretch = 1.0;             // max dist_H / dist_G observed
  double avg_distance = 0.0;            // mean surviving distance in H

  // Serving-plane counters, summed over the drill's batched query() calls.
  // Populated by the session-served overload only (a structure-served
  // drill never touches the query plane — all four stay zero).
  std::int64_t pair_traversals = 0;     // site-restricted dual traversals
  std::int64_t site_oracle_hits = 0;    // pairs answered O(1) by site-dist
  std::int64_t pair_cache_hits = 0;     // leased-arena traversal reuse
  std::int64_t pair_cache_misses = 0;

  std::string to_string() const;
};

/// Simulates `num_failures` failures of `model` against the structure
/// alone, scored from every one of `sources` (empty = {h.source()}: an
/// FT-MBFS artifact passes its whole source set). The storm is drawn from
/// the verifier's failure universes (verifier.hpp) of h.source() and then
/// of the other sources, deterministically from `seed`:
///   * edge / vertex — that many fault-prone edges (everything except E')
///     or routers that are not every drilled source (so with several
///     sources, each source's router can fail for the others), sampled
///     without replacement when possible;
///   * either — both single-fault storms (`num_failures` each);
///   * dual — that many unordered failure PAIRS.
/// Each failure is scored build-then-verify style: literal BFS of the
/// surviving network vs BFS of the surviving structure, per source (a
/// failure naming that source itself is skipped for it). A correct
/// structure reports zero violations.
DrillReport run_failure_drill(const FtBfsStructure& h, FaultClass model,
                              std::int64_t num_failures, std::uint64_t seed,
                              std::span<const Vertex> sources = {});

/// Session-served drill: same storm, same report shape and the same
/// violation semantics as the structure overload over every source of the
/// session, but the surviving-graph side of every comparison comes from
/// ONE batched in-model query() call per chunk (O(1) per query off the
/// replacement tables; one site-restricted traversal per distinct dual
/// pair) instead of a literal BFS of G \ F per drill — halving the
/// traversals per drill and exercising the production query plane.
/// `storm` must be covered by the session's fault model (CheckError
/// otherwise).
DrillReport run_failure_drill(const api::Session& session, FaultClass storm,
                              std::int64_t num_failures, std::uint64_t seed);

/// What one chaos drill observed end to end (docs/robustness.md walks the
/// scenario). `drill` is the storm as served by the DEGRADED session; a
/// healthy stack reports artifact_corrupted && reload_degraded && fsck_ok
/// && mismatches == 0 && drill.violations == 0.
struct ChaosDrillReport {
  /// The injected corruption landed in the artifact's pair-table bytes.
  bool artifact_corrupted = false;
  /// The tolerant reload dropped the damaged section and downgraded
  /// instead of refusing (Session::degraded()).
  bool reload_degraded = false;
  /// Sections the reload had to drop (FsckReport::dropped_sections).
  std::int64_t dropped_sections = 0;
  /// Session::fsck() verdict on the degraded session.
  bool fsck_ok = false;
  std::int64_t fsck_checks = 0;
  /// Per-query comparison degraded session vs freshly built session over
  /// the whole storm batch: answers must be bit-identical.
  std::int64_t compared_queries = 0;
  std::int64_t mismatches = 0;
  /// The storm replayed through the degraded session, scored against
  /// literal two-failure BFS of the surviving structure.
  DrillReport drill;

  bool healthy() const {
    return artifact_corrupted && reload_degraded && fsck_ok &&
           mismatches == 0 && drill.violations == 0;
  }
  std::string to_string() const;
};

/// The chaos scenario, end to end: build a session from `spec` (dual model
/// required — the degradation path under test is the pair-table section),
/// save the checksummed v5 artifact to `scratch_path`, flip one seeded bit
/// inside the pair-table payload's declared length ON DISK, reload
/// tolerantly (a site-dist section drops with the tables it indexes),
/// fsck, then replay a `num_failures`-pair storm through the degraded
/// session — verifying every answer against the fresh session
/// (bit-identity) and against literal BFS of the surviving structure.
/// Deterministic given `seed`. The scratch file is left on disk
/// (corrupted) for post-mortem; callers own its cleanup. Throws CheckError
/// on a non-dual spec or an unwritable path.
ChaosDrillReport run_chaos_drill(const Graph& g, const api::BuildSpec& spec,
                                 const std::string& scratch_path,
                                 std::int64_t num_failures,
                                 std::uint64_t seed);

}  // namespace ftb

// bench_construction_time — Experiment E8 ("a polynomial time algorithm").
//
// google-benchmark wall times for the full constructions as n grows:
// engine (Phase S0), ESA'13 baseline, ε FT-BFS (S0+S1+S2) — on dense
// random and adversarial workloads. The empirical scaling should track the
// engine's O(n·m) core.
//
// Before the registered benchmarks run, main() performs the kernel
// speedup measurement (reference queue-BFS engine vs direction-optimizing
// scratch-arena engine) for BOTH fault models of the unified S0 engine,
// asserts that reference and optimized kernels produce byte-identical
// FT-BFS edge sets on every bench seed (edge AND vertex structures), and
// writes the machine-readable BENCH_construction.json — including a
// per-seed vertex-fault row — for cross-PR perf tracking.
// FTBFS_N scales the measurement (default 2000); FTBFS_SKIP_SPEEDUP=1
// skips it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/api/ftbfs_api.hpp"
#include "src/core/dual_fault.hpp"
#include "src/core/epsilon_ftbfs.hpp"
#include "src/core/ftbfs.hpp"
#include "src/core/replacement.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/graph/bfs_kernel.hpp"
#include "src/graph/canonical_bfs.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/lower_bound.hpp"
#include "src/io/binary_io.hpp"
#include "src/io/structure_io.hpp"
#include "src/util/rng.hpp"
#include "tests/referee.hpp"

using namespace ftb;

namespace {

void BM_EngineBuild(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 3);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 3);
  const BfsTree tree(g, w, 0);
  for (auto _ : state) {
    ReplacementPathEngine engine(tree);
    benchmark::DoNotOptimize(engine.stats().pairs_total);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n) * g.num_edges());
  state.counters["n"] = static_cast<double>(n);
  state.counters["m"] = static_cast<double>(g.num_edges());
}
BENCHMARK(BM_EngineBuild)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

void BM_VertexEngineBuild(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 3);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 3);
  const BfsTree tree(g, w, 0);
  for (auto _ : state) {
    VertexReplacementEngine engine(tree);
    benchmark::DoNotOptimize(engine.stats().pairs_total);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n) * g.num_edges());
  state.counters["n"] = static_cast<double>(n);
  state.counters["m"] = static_cast<double>(g.num_edges());
}
BENCHMARK(BM_VertexEngineBuild)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

void BM_EngineBuildReferenceKernel(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 3);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 3);
  const BfsTree tree(g, w, 0);
  ReplacementPathEngine::Config cfg;
  cfg.reference_kernel = true;
  for (auto _ : state) {
    ReplacementPathEngine engine(tree, cfg);
    benchmark::DoNotOptimize(engine.stats().pairs_total);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["m"] = static_cast<double>(g.num_edges());
}
BENCHMARK(BM_EngineBuildReferenceKernel)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_BaselineFtBfs(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 5);
  for (auto _ : state) {
    const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
    benchmark::DoNotOptimize(h.num_edges());
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_BaselineFtBfs)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_EpsilonFtBfs(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 7);
  api::BuildSpec spec;
  spec.eps = 1.0 / 3.0;
  for (auto _ : state) {
    const api::BuildResult res = api::build(g, spec);
    benchmark::DoNotOptimize(res.structure.num_edges());
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_EpsilonFtBfs)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_EpsilonFtBfsAdversarial(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const auto lb = lb::build_single_source(n, 1.0 / 3.0);
  api::BuildSpec spec;
  spec.sources = {lb.source};
  spec.eps = 1.0 / 3.0;
  for (auto _ : state) {
    const api::BuildResult res = api::build(lb.graph, spec);
    benchmark::DoNotOptimize(res.structure.num_edges());
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["m"] = static_cast<double>(lb.graph.num_edges());
}
BENCHMARK(BM_EpsilonFtBfsAdversarial)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// ---- kernel speedup report + BENCH_construction.json -----------------------

/// Times one engine build and returns (seconds, stats).
double time_engine(const BfsTree& tree, bool reference,
                   ReplacementPathEngine::Stats* stats_out) {
  ReplacementPathEngine::Config cfg;
  cfg.collect_detours = true;
  cfg.reference_kernel = reference;
  Timer t;
  const ReplacementPathEngine engine(tree, cfg);
  const double sec = t.seconds();
  if (stats_out != nullptr) *stats_out = engine.stats();
  return sec;
}

// ---- gates -----------------------------------------------------------------

/// A section's gates, one {name, kind, ok} row each in its JSON `gates`
/// array; every tripped gate also prints one `!!! [kind]` line. kind is
/// "hard" (bit-identity, work counters, size budgets: deterministic, any
/// failure is a regression) or "statistical" (a timing with an explicit
/// margin, best-of-k where the section repeats).
struct GateList {
  bench::JsonArray rows;
  bool all_ok = true;

  void add(const char* name, const char* kind, bool ok) {
    bench::JsonObject row;
    row.set("name", std::string(name))
        .set("kind", std::string(kind))
        .set("ok", ok);
    rows.push(row);
    all_ok = all_ok && ok;
  }
};

// ---- the serving plane: QPS, tail latency, and the speedup/oracle gates ---

/// Percentile (0..1) of per-batch service times, in microseconds.
double percentile_us(std::vector<double> lats, double p) {
  std::sort(lats.begin(), lats.end());
  const auto idx = std::min(
      lats.size() - 1, static_cast<std::size_t>(
                           p * static_cast<double>(lats.size())));
  return lats[idx] * 1e6;
}

/// The "millions of users" acceptance for the Session read path. Five
/// storms, each with its own regression gate. Every gate carries a kind:
/// "hard" (bit-identity, traversal counts: deterministic, any failure is a
/// regression) or "statistical" (best-of-k timing with an explicit margin),
/// in the JSON `gates` array and in its printed `!!! [kind]` line.
///
///  1. closed-loop in-model singles through a dual session at batch sizes
///     {64, 512, 4096, 32768}, against a serial server looping query_one
///     over the same stream. GATES: speedup_in_model > 1 at EVERY batch
///     size (statistical) — one query() call must beat a query_one loop
///     on the same calling thread, however large the batch — and
///     bit-identical answers (hard).
///  2. an open-loop mix on an edge-model session — independent 64-query
///     request batches, ~10% what-if traversals — for p50/p99 service
///     latency under traversal pressure (latency reported, not gated;
///     answers spot-checked against query_one, hard).
///  3. an interleaved what-if storm on the same ε < 1 edge session: every
///     reinforced edge plus a spread of router failures, arriving
///     fault-interleaved. The serial server keeps a one-slot cache of the
///     last literal BFS on H \ {fault}, so it pays a traversal on almost
///     every query; the batched plane pays one per distinct failure.
///     GATE: every answer identical to the serial server (hard). Its
///     speedup feeds the top-level speedup_query_batched_vs_serial
///     (reported, not gated).
///  3b. what-if failure PAIRS on an edge session over the lower-bound
///     family at ε = 0.05 (n = 300, which reinforces; an edge session
///     covers single failures only, so every pair is a what-if):
///     reinforced edges with router vertices, and router-vertex pairs —
///     failures whose T0 subtrees nest and failures whose subtrees are
///     disjoint. GATE what_if_pair_storm_identical: every answer identical
///     to a serial one-slot BFS server on H \ {f1, f2} (hard).
///  4. a dual-pair storm through a site_dist_oracle session. GATES: zero
///     pair traversals and site_oracle_hits > 0 (hard), and every answer
///     identical to the traversing (plain dual) session (hard).
///
/// Every storm is served by one calling thread (query() never dispatches
/// to the pool, which only builds the sessions). FTBFS_QPS_N resizes the workload (default 192; < 8 skips, gates pass
/// vacuously). Returns false when any gate trips (non-zero bench exit).
bool run_query_qps_report(bench::JsonObject* out, double* headline) {
  const Vertex n = [] {
    const char* env = std::getenv("FTBFS_QPS_N");
    return env != nullptr ? static_cast<Vertex>(std::atoi(env))
                          : Vertex{192};
  }();
  if (n < 8) {
    std::cout << "query qps: skipped (FTBFS_QPS_N < 8)\n";
    out->set("skipped", true);
    return true;
  }
  constexpr std::size_t kThreads = 8;  // the build pool (JSON "threads")
  const Graph g = bench::dense_random(n, 3);
  ThreadPool pool(kThreads);

  api::BuildSpec dspec;
  dspec.fault_model = FaultClass::kDual;
  dspec.pool = &pool;
  const api::Session dual = api::Session::open(g, dspec);
  api::BuildSpec ospec = dspec;
  ospec.site_dist_oracle = true;
  const api::Session fast = api::Session::open(g, ospec);
  api::BuildSpec espec;
  espec.pool = &pool;
  const api::Session edge = api::Session::open(g, espec);

  bool identical = true;
  bool cutover_ok = true;

  // Storm 1: in-model singles (edge and router faults interleaved) on the
  // dual session, closed loop at each batch size. Best-of-3 on both sides
  // so the gate compares steady-state service rates, not scheduler noise.
  std::vector<api::Query> singles;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (Vertex v = 1; v < n; v += 11) {
      api::Query q;
      q.v = v;
      q.kind = FaultClass::kEdge;
      q.fault = e;
      singles.push_back(q);
      api::Query r = q;
      r.kind = FaultClass::kVertex;
      r.fault = std::max<Vertex>(1, v / 2);
      singles.push_back(r);
    }
  }
  const std::size_t kTarget = std::size_t{1} << 16;
  bench::JsonArray rows;
  Table tb("query qps: batched Session vs serial query_one loop, one "
           "caller (n=" + std::to_string(n) + ")");
  tb.columns({"batch", "queries", "serial_qps", "batched_qps",
              "speedup_in_model", "p50_us", "p99_us"});
  double best_qps = 0;
  for (const std::size_t bsz :
       {std::size_t{64}, std::size_t{512}, std::size_t{4096},
        std::size_t{32768}}) {
    // Pre-cut the request stream so the timers see serving, not copying.
    std::vector<std::vector<api::Query>> slices;
    std::size_t total = 0, at = 0;
    while (total < kTarget) {
      std::vector<api::Query>& s = slices.emplace_back();
      s.reserve(bsz);
      for (std::size_t k = 0; k < bsz; ++k) {
        s.push_back(singles[at]);
        at = at + 1 == singles.size() ? 0 : at + 1;
      }
      total += bsz;
    }
    double serial_s = 1e300, batched_s = 1e300;
    // Per-rep serial/batched ratios, recorded (not gated) so a margin can
    // later be set from the measured spread.
    double min_rep_ratio = 1e300, max_rep_ratio = 0;
    int reps = 0;
    std::int64_t serial_sum = 0, batched_sum = 0;
    // Best-of-N on both sides, extending past 3 reps (up to 8) until the
    // margin clears 1.05 — the gate asserts a steady-state property and
    // should not trip on a scheduler burst in a shared CI container. Each
    // timed region covers serve + drain of the WHOLE stream, with the
    // serial server materializing the same per-request response vector
    // the batched plane hands back: server-to-server, not
    // server-to-summing-loop.
    for (int rep = 0; rep < 8; ++rep) {
      std::int64_t sum = 0;
      Timer t;
      for (const std::vector<api::Query>& s : slices) {
        std::vector<api::QueryResult> o;
        o.reserve(s.size());
        for (const api::Query& q : s) o.push_back(dual.query_one(q));
        for (const api::QueryResult& r : o) sum += r.dist;
      }
      const double serial_rep = t.seconds();
      serial_s = std::min(serial_s, serial_rep);
      serial_sum = sum;

      sum = 0;
      t.restart();
      for (const std::vector<api::Query>& s : slices) {
        const api::QueryResponse resp = dual.query(s);
        for (const api::QueryResult& r : resp.results) sum += r.dist;
      }
      const double batched_rep = t.seconds();
      batched_s = std::min(batched_s, batched_rep);
      batched_sum = sum;
      ++reps;
      min_rep_ratio = std::min(min_rep_ratio, serial_rep / batched_rep);
      max_rep_ratio = std::max(max_rep_ratio, serial_rep / batched_rep);
      if (rep >= 2 && serial_s / batched_s > 1.05) break;
    }
    // Per-request latency sampled in a separate pass so the gate's timer
    // never pays the per-slice clock reads.
    std::vector<double> lats;
    lats.reserve(slices.size());
    for (const std::vector<api::Query>& s : slices) {
      Timer bt;
      const api::QueryResponse resp = dual.query(s);
      benchmark::DoNotOptimize(resp.results.data());
      lats.push_back(bt.seconds());
    }
    if (batched_sum != serial_sum) {
      identical = false;
      std::cout << "!!! [hard] query qps: batched in-model answers diverge "
                   "from "
                   "query_one at batch size "
                << bsz << "\n";
    }
    const double speedup = serial_s / batched_s;
    if (!(speedup > 1.0)) {
      cutover_ok = false;
      std::cout << "!!! [statistical] query qps: speedup_in_model "
                << speedup
                << " <= 1 at batch size " << bsz
                << " — batching lost to a query_one loop\n";
    }
    const double qps = static_cast<double>(total) / batched_s;
    best_qps = std::max(best_qps, qps);
    const double p50 = percentile_us(lats, 0.5);
    const double p99 = percentile_us(lats, 0.99);
    tb.row(static_cast<long long>(bsz), static_cast<long long>(total),
           static_cast<double>(total) / serial_s, qps, speedup, p50, p99);
    bench::JsonObject row;
    row.set("batch", static_cast<std::int64_t>(bsz))
        .set("queries", static_cast<std::int64_t>(total))
        .set("serial_qps", static_cast<double>(total) / serial_s)
        .set("batched_qps", qps)
        .set("speedup_in_model", speedup)
        .set("reps", static_cast<std::int64_t>(reps))
        .set("rep_ratio_min", min_rep_ratio)
        .set("rep_ratio_max", max_rep_ratio)
        .set("p50_us", p50)
        .set("p99_us", p99);
    rows.push(row);
  }
  tb.print(std::cout);

  // Storm 2: open-loop mix on the edge session — independent 64-query
  // request batches with ~10% what-if (router) traffic woven in.
  const FtBfsStructure& eh = edge.structure();
  std::vector<api::Query> mixed;
  {
    std::vector<api::Query> inm;
    for (const EdgeId e : eh.tree_edges()) {
      if (eh.is_reinforced(e)) continue;
      for (Vertex v = 1; v < n; v += 13) {
        api::Query q;
        q.v = v;
        q.fault = e;
        inm.push_back(q);
      }
    }
    std::vector<api::Query> wifs;
    const Vertex wstride = std::max<Vertex>(1, n / 24);
    for (Vertex x = 1; x < n; x += wstride) {
      for (Vertex v = 0; v < n; v += 16) {
        api::Query q;
        q.v = v;
        q.kind = FaultClass::kVertex;
        q.fault = x;
        q.allow_what_if = true;
        wifs.push_back(q);
      }
    }
    std::size_t wi = 0;
    for (std::size_t i = 0; i < inm.size(); ++i) {
      mixed.push_back(inm[i]);
      if (i % 9 == 8) {
        mixed.push_back(wifs[wi]);
        wi = wi + 1 == wifs.size() ? 0 : wi + 1;
      }
    }
  }
  constexpr std::size_t kRequest = 64;
  double mixed_s = 1e300;
  std::vector<double> mixed_lats;
  std::int64_t mixed_what_if = 0, mixed_in_model = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> l;
    std::int64_t wif = 0, inmod = 0;
    for (std::size_t lo = 0; lo < mixed.size(); lo += kRequest) {
      const std::size_t hi = std::min(mixed.size(), lo + kRequest);
      const api::QueryBatch req(mixed.data() + lo, hi - lo);
      Timer bt;
      const api::QueryResponse resp = edge.query(req);
      l.push_back(bt.seconds());
      wif += resp.what_if;
      inmod += resp.in_model;
    }
    double b = 0;
    for (const double x : l) b += x;
    if (b < mixed_s) {
      mixed_s = b;
      mixed_lats = std::move(l);
      mixed_what_if = wif;
      mixed_in_model = inmod;
    }
  }
  for (std::size_t i = 0; i < mixed.size(); i += 37) {
    // Spot referee: the open-loop batches must agree with query_one.
    const api::QueryResult one = edge.query_one(mixed[i]);
    const std::size_t lo = (i / kRequest) * kRequest;
    const std::size_t hi = std::min(mixed.size(), lo + kRequest);
    const api::QueryResponse resp =
        edge.query(api::QueryBatch(mixed.data() + lo, hi - lo));
    if (resp.results[i - lo].dist != one.dist) {
      identical = false;
      std::cout << "!!! [hard] query qps: open-loop mix diverges from "
                   "query_one at "
                << i << "\n";
    }
  }
  const double mixed_qps = static_cast<double>(mixed.size()) / mixed_s;

  // Storm 3: the interleaved what-if storm on the edge session. Best-of-3
  // on both sides; the serial server materializes one answer per query.
  std::vector<std::pair<FaultClass, std::int32_t>> faults;
  for (const EdgeId e : eh.reinforced()) {
    faults.emplace_back(FaultClass::kEdge, e);
  }
  const Vertex fstride = std::max<Vertex>(1, n / 48);
  for (Vertex x = 1; x < n; x += fstride) {
    faults.emplace_back(FaultClass::kVertex, x);
  }
  std::vector<api::Query> storm;
  for (Vertex v = 0; v < n; v += 8) {
    for (const auto& [kind, fault] : faults) {
      api::Query q;
      q.v = v;
      q.kind = kind;
      q.fault = fault;
      q.allow_what_if = true;
      storm.push_back(q);
    }
  }
  double storm_serial_s = 1e300, storm_batched_s = 1e300;
  std::int64_t storm_traversals = 0;
  bool storm_identical = true;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::int32_t> serial;
    serial.reserve(storm.size());
    Timer t;
    BfsScratch scratch;
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(n), 0);
    const api::Query* cached = nullptr;  // the one-slot cache's fault
    for (const api::Query& q : storm) {
      if (cached == nullptr || cached->kind != q.kind ||
          cached->fault != q.fault) {
        if (cached != nullptr && cached->kind == FaultClass::kVertex) {
          mask[static_cast<std::size_t>(cached->fault)] = 0;
        }
        BfsBans bans;
        bans.banned_edge_mask = &eh.complement_mask();
        if (q.kind == FaultClass::kVertex) {
          mask[static_cast<std::size_t>(q.fault)] = 1;
          bans.banned_vertex = &mask;
        } else {
          bans.banned_edge = q.fault;
        }
        bfs_run(g, 0, bans, scratch);
        cached = &q;
      }
      serial.push_back(q.kind == FaultClass::kVertex && q.v == q.fault
                           ? kInfHops
                           : scratch.dist(q.v));
    }
    storm_serial_s = std::min(storm_serial_s, t.seconds());
    t.restart();
    const api::QueryResponse resp = edge.query(storm);
    storm_batched_s = std::min(storm_batched_s, t.seconds());
    storm_traversals = resp.what_if_traversals;
    for (std::size_t i = 0; i < storm.size(); ++i) {
      if (resp.results[i].dist != serial[i]) {
        if (storm_identical) {
          std::cout << "!!! [hard] query qps: what-if storm diverges from "
                       "the serial one-slot BFS server at "
                    << i << "\n";
        }
        storm_identical = false;
      }
    }
  }
  const double storm_speedup = storm_serial_s / storm_batched_s;

  // Storm 3b: what-if failure pairs, interleaved, on their own edge
  // session over the lower-bound family at ε = 0.05 (fixed n = 300). The
  // dense workload above reinforces nothing, and there almost every vertex
  // keeps its depth under any failure, so a mis-swept slice would not show
  // in its answers; this structure reinforces, and its deep paths detour
  // far around a failure.
  const lb::SingleSourceLb lbg = lb::build_single_source(300, 0.5);
  api::BuildSpec lspec;
  lspec.sources = {lbg.source};
  lspec.eps = 0.05;
  lspec.pool = &pool;
  const api::Session lsession = api::Session::open(lbg.graph, lspec);
  const FtBfsStructure& lh = lsession.structure();
  const Vertex ln = lbg.graph.num_vertices();
  std::vector<std::pair<DualSite, DualSite>> wpairs;
  {
    // Routers are T0's internal vertices: a leaf's failure moves no other
    // vertex, so only these exercise the sweep.
    const EdgeWeights lw =
        EdgeWeights::uniform_random(lbg.graph, lspec.weight_seed);
    const BfsTree lt(lbg.graph, lw, lbg.source);
    std::vector<Vertex> routers;
    for (const Vertex x : lt.preorder()) {
      if (x != lbg.source && lt.subtree_size(x) > 1) routers.push_back(x);
    }
    for (const EdgeId e : lh.reinforced()) {
      for (const Vertex x : routers) {
        wpairs.emplace_back(DualSite{FaultClass::kEdge, e},
                            DualSite{FaultClass::kVertex, x});
      }
    }
    for (std::size_t i = 0; i < routers.size(); ++i) {
      for (std::size_t j = i + 1; j < routers.size(); j += 2) {
        wpairs.emplace_back(DualSite{FaultClass::kVertex, routers[i]},
                            DualSite{FaultClass::kVertex, routers[j]});
      }
    }
  }
  std::vector<api::Query> pair_storm;
  for (Vertex v = 0; v < ln; v += 8) {
    for (const auto& [a, b] : wpairs) {
      api::Query q;
      q.v = v;
      q.kind = a.kind;
      q.fault = a.id;
      q.kind2 = b.kind;
      q.fault2 = b.id;
      q.allow_what_if = true;
      pair_storm.push_back(q);
    }
  }
  double pstorm_serial_s = 1e300, pstorm_batched_s = 1e300;
  std::int64_t pstorm_traversals = 0;
  bool pair_storm_identical = true;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::int32_t> serial;
    serial.reserve(pair_storm.size());
    Timer t;
    BfsScratch scratch;
    std::vector<std::uint8_t> mask;
    const api::Query* cached = nullptr;  // the one-slot cache's pair
    for (const api::Query& q : pair_storm) {
      const DualSite a{q.kind, q.fault}, b{q.kind2, q.fault2};
      if (cached == nullptr || cached->fault != q.fault ||
          cached->kind != q.kind || cached->fault2 != q.fault2 ||
          cached->kind2 != q.kind2) {
        BfsBans bans;
        bans.banned_edge_mask = &lh.complement_mask();
        const PairBans ban(a, b, mask, static_cast<std::size_t>(ln), bans);
        bfs_run(lbg.graph, lbg.source, bans, scratch);
        cached = &q;
      }
      const bool destroyed =
          (a.kind == FaultClass::kVertex && a.id == q.v) ||
          (b.kind == FaultClass::kVertex && b.id == q.v);
      serial.push_back(destroyed ? kInfHops : scratch.dist(q.v));
    }
    pstorm_serial_s = std::min(pstorm_serial_s, t.seconds());
    t.restart();
    const api::QueryResponse resp = lsession.query(pair_storm);
    pstorm_batched_s = std::min(pstorm_batched_s, t.seconds());
    pstorm_traversals = resp.what_if_traversals;
    for (std::size_t i = 0; i < pair_storm.size(); ++i) {
      if (resp.results[i].dist != serial[i] ||
          resp.results[i].outcome != api::QueryOutcome::kWhatIf) {
        if (pair_storm_identical) {
          std::cout << "!!! [hard] query qps: what-if pair storm diverges "
                       "from the serial one-slot BFS server at "
                    << i << "\n";
        }
        pair_storm_identical = false;
      }
    }
  }

  // Storm 4: the dual-pair plane — plain (traversing) session vs the
  // site-dist oracle session over the same storm, bit-identity enforced.
  std::vector<api::Query> pairs;
  const auto& te = dual.structure().tree_edges();
  for (std::size_t i = 0; i + 1 < te.size(); i += 2) {
    for (Vertex v = 0; v < n; v += 5) {
      api::Query q;
      q.v = v;
      q.kind = FaultClass::kEdge;
      q.fault = te[i];
      q.kind2 = FaultClass::kEdge;
      q.fault2 = te[i + 1];
      pairs.push_back(q);
      api::Query m = q;
      m.kind2 = FaultClass::kVertex;
      m.fault2 = std::max<Vertex>(1, v);
      pairs.push_back(m);
    }
  }
  Timer pt;
  const api::QueryResponse plain_resp = dual.query(pairs);
  const double pair_plain_s = pt.seconds();
  double pair_fast_s = 1e300;
  std::int64_t pair_traversals = 0, oracle_hits = 0;
  constexpr std::size_t kPairBatch = 4096;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<api::QueryResponse> resps;
    double b = 0;
    std::int64_t trav = 0, hits = 0;
    for (std::size_t lo = 0; lo < pairs.size(); lo += kPairBatch) {
      const std::size_t hi = std::min(pairs.size(), lo + kPairBatch);
      Timer bt;
      resps.push_back(fast.query(api::QueryBatch(pairs.data() + lo, hi - lo)));
      b += bt.seconds();
      trav += resps.back().pair_traversals;
      hits += resps.back().site_oracle_hits;
    }
    pair_fast_s = std::min(pair_fast_s, b);
    pair_traversals = trav;
    oracle_hits = hits;
    if (rep == 0) {
      std::size_t at2 = 0;
      for (const api::QueryResponse& resp : resps) {
        for (const api::QueryResult& r : resp.results) {
          if (r.dist != plain_resp.results[at2].dist) {
            identical = false;
            std::cout << "!!! [hard] query qps: oracle pair storm diverges "
                         "from the "
                         "traversing plane at "
                      << at2 << "\n";
          }
          ++at2;
        }
      }
    }
  }
  const bool oracle_ok = pair_traversals == 0 && oracle_hits > 0;
  if (!oracle_ok) {
    std::cout << "!!! [hard] query qps: oracle pair storm paid "
              << pair_traversals
              << " traversals (site_oracle_hits=" << oracle_hits
              << ") — expected a traversal-free plane\n";
  }
  const double pair_qps = static_cast<double>(pairs.size()) / pair_fast_s;
  std::cout << "open-loop mix: " << mixed_qps << " qps, p50 "
            << percentile_us(mixed_lats, 0.5) << "us, p99 "
            << percentile_us(mixed_lats, 0.99) << "us ("
            << mixed_what_if << " what-if / " << mixed_in_model
            << " in-model)\n"
            << "oracle pair storm: " << pair_qps << " qps ("
            << pair_plain_s / pair_fast_s << "x over the traversing plane, "
            << oracle_hits << " oracle hits, " << pair_traversals
            << " traversals)\n"
            << "what-if storm: " << storm.size() << " queries over "
            << faults.size() << " distinct faults, " << storm_speedup
            << "x over the serial one-slot BFS server (" << storm_traversals
            << " traversals batched)\n"
            << "what-if pair storm: " << pair_storm.size()
            << " queries over " << wpairs.size() << " distinct pairs, "
            << pstorm_serial_s / pstorm_batched_s
            << "x over the serial one-slot BFS server (" << pstorm_traversals
            << " traversals batched)\n";

  GateList gates;
  gates.add("answers_identical", "hard", identical);
  gates.add("what_if_storm_identical", "hard", storm_identical);
  gates.add("what_if_pair_storm_identical", "hard", pair_storm_identical);
  gates.add("oracle_traversal_free", "hard", oracle_ok);
  gates.add("cutover_speedup_ok", "statistical", cutover_ok);

  bench::JsonObject qq;
  qq.set("threads", static_cast<std::int64_t>(kThreads))
      .set("n", static_cast<std::int64_t>(n))
      .set("m", static_cast<std::int64_t>(g.num_edges()))
      .set_raw("in_model_per_batch", rows.str(2))
      .set("in_model_best_qps", best_qps)
      .set("mixed_queries", static_cast<std::int64_t>(mixed.size()))
      .set("mixed_open_loop_qps", mixed_qps)
      .set("mixed_p50_us", percentile_us(mixed_lats, 0.5))
      .set("mixed_p99_us", percentile_us(mixed_lats, 0.99))
      .set("mixed_what_if", mixed_what_if)
      .set("mixed_in_model", mixed_in_model)
      .set("pair_storm_pairs", static_cast<std::int64_t>(pairs.size()))
      .set("pair_storm_qps", pair_qps)
      .set("pair_storm_traversing_qps",
           static_cast<double>(pairs.size()) / pair_plain_s)
      .set("pair_traversals", pair_traversals)
      .set("site_oracle_hits", oracle_hits)
      .set("what_if_queries", static_cast<std::int64_t>(storm.size()))
      .set("what_if_distinct_faults",
           static_cast<std::int64_t>(faults.size()))
      .set("what_if_traversals", storm_traversals)
      .set("what_if_serial_s", storm_serial_s)
      .set("what_if_batched_s", storm_batched_s)
      .set("speedup_what_if_storm", storm_speedup)
      .set("what_if_pair_n", static_cast<std::int64_t>(ln))
      .set("what_if_pair_queries",
           static_cast<std::int64_t>(pair_storm.size()))
      .set("what_if_distinct_pairs",
           static_cast<std::int64_t>(wpairs.size()))
      .set("what_if_pair_traversals", pstorm_traversals)
      .set("what_if_pair_serial_s", pstorm_serial_s)
      .set("what_if_pair_batched_s", pstorm_batched_s)
      .set("speedup_what_if_pair_storm", pstorm_serial_s / pstorm_batched_s)
      .set_raw("gates", gates.rows.str(2));
  *out = qq;
  *headline = storm_speedup;
  return gates.all_ok;
}

// ---- the dual-failure pipeline: build timing + brute-force identity -------

/// Pruned-vs-unpruned build timing at a size where the unpruned referee is
/// too slow to verify pair-by-pair: records the build times, the speedup
/// and both structure sizes (the acceptance trajectory for the Parter
/// pruning + prefix reuse). Gates: the pruned structure must stay strictly
/// below the unpruned size and the speedup at or above 3× — non-zero exit
/// otherwise. FTBFS_DUAL_SCALE_N resizes it (the CI smoke runs the gates
/// at 300; 0 skips entirely; the committed BENCH_construction.json
/// carries the full n=1000 measurement).
bool run_dual_scale_report(bench::JsonObject* out) {
  Vertex n = 1000;
  if (const char* env = std::getenv("FTBFS_DUAL_SCALE_N")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 0) {
      // A typo'd override must not silently skip the acceptance gates.
      std::cout << "!!! FTBFS_DUAL_SCALE_N invalid (" << env << ")\n";
      out->set("invalid_env", true);
      return false;
    }
    n = static_cast<Vertex>(parsed);
  }
  if (n < 8) {  // 0 = explicit skip
    out->set("skipped", true);
    return true;
  }
  const Graph g = bench::dense_random(n, 3);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  Timer t;
  const api::BuildResult pruned = api::build(g, spec);
  const double pruned_s = t.seconds();
  t.restart();
  const api::BuildResult unpruned =
      test::referee_build(g, spec, {.unpruned = true});
  const double unpruned_s = t.seconds();
  const double speedup = unpruned_s / pruned_s;
  const bool size_ok =
      pruned.structure.num_edges() < unpruned.structure.num_edges();
  const bool speed_ok = speedup >= 3.0;
  // The pruned structure still honors the dual contract on a seeded pair
  // sample at this size, under the unpruned size budget.
  const std::int64_t violations =
      verify_dual_structure(pruned.structure, /*max_pairs=*/200, /*seed=*/3,
                            nullptr, unpruned.structure.num_edges() - 1);
  out->set("n", static_cast<std::int64_t>(n))
      .set("m", static_cast<std::int64_t>(g.num_edges()))
      .set("edges_in_H_pruned", pruned.structure.num_edges())
      .set("edges_in_H_unpruned", unpruned.structure.num_edges())
      .set("build_s_pruned", pruned_s)
      .set("build_s_unpruned", unpruned_s)
      .set("speedup_build", speedup)
      .set("verify_violations", violations);
  std::cout << "dual scale (n=" << n << "): pruned "
            << pruned.structure.num_edges() << " edges in " << pruned_s
            << "s, unpruned " << unpruned.structure.num_edges()
            << " edges in " << unpruned_s << "s — " << speedup
            << "x build speedup\n";
  if (!size_ok) {
    std::cout << "!!! [hard] pruned dual structure is not smaller than the "
                 "unpruned referee at n=" << n << "\n";
  }
  if (!speed_ok) {
    std::cout << "!!! [statistical] pruned dual build speedup below 3x at n="
              << n << "\n";
  }
  if (violations != 0) {
    std::cout << "!!! [hard] pruned dual structure fails verification at n="
              << n << "\n";
  }
  GateList gates;
  gates.add("pruned_strictly_smaller", "hard", size_ok);
  gates.add("verify_clean", "hard", violations == 0);
  gates.add("speedup_build_3x", "statistical", speed_ok);
  out->set_raw("gates", gates.rows.str(2)).set("gates_ok", gates.all_ok);
  return gates.all_ok;
}

/// The single-source (vertex 0) dual build under the independent-rebase
/// referee schedule; `work` receives its rebase-seam work.
api::BuildResult independent_rebase(const Graph& g, bool site_dist,
                                    SweepWorkStats* work) {
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.site_dist_oracle = site_dist;
  return test::referee_build(g, spec, {.dfs_schedule = false}, work);
}

/// The host's CPU model name ("unknown" when /proc/cpuinfo has none).
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// The host the timings were taken on: {nproc, cpu_model}.
bench::JsonObject hardware_json() {
  bench::JsonObject hw;
  hw.set("nproc", static_cast<std::int64_t>(
                      std::max(1u, std::thread::hardware_concurrency())))
      .set("cpu_model", cpu_model());
  return hw;
}

/// DFS-order ancestor-sweep sharing (the production dual build) vs the
/// independent-rebase referee of tests/referee.hpp. Three gates, non-zero
/// exit on failure:
///   * bit-identity — structures, pair tables AND site-dist rows must be
///     byte-identical under both schedules on every identity seed (the
///     oracle is harvested so its rows are part of the referee);
///   * work — the rebase-seam counter (label writes + sweep visits) must
///     be strictly below the independent schedule's on every run: the
///     production build's punctured-tree overlay relabels only each
///     site's subtree where the referee pays a full O(n) label copy per
///     site;
///   * wall-clock — interleaved best-of-3 production build at least 2×
///     faster than the independent build at the n = 4096 tier (which
///     materializes every punctured tree as a full BfsTree: O(n + m) per
///     site); above 1× at smaller tiers.
/// It also reports, ungated, the production build's best-of-3 seconds on
/// R-MAT at n/4, n/2 and n with their least-squares growth exponent, and
/// the host (nproc, CPU model) the timings were taken on.
/// FTBFS_DUAL_DFS_SCALE_N resizes the timing tier (rounded down to a power
/// of two for the R-MAT workload; < 8 skips).
bool run_dual_dfs_schedule_report(bench::JsonObject* out) {
  Vertex n = 4096;
  if (const char* env = std::getenv("FTBFS_DUAL_DFS_SCALE_N")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 0) {
      // A typo'd override must not silently skip the acceptance gates.
      std::cout << "!!! FTBFS_DUAL_DFS_SCALE_N invalid (" << env << ")\n";
      out->set("invalid_env", true);
      return false;
    }
    n = static_cast<Vertex>(parsed);
  }
  if (n < 8) {  // 0 = explicit skip
    out->set("skipped", true);
    return true;
  }

  // Identity tier: moderate n across three seeds, oracle on. Every derived
  // byte must agree between the schedules.
  bool identical = true;
  bool work_ok = true;
  bench::JsonArray rows;
  const Vertex id_n = std::min<Vertex>(n, 384);
  for (const std::uint64_t seed : {3ULL, 5ULL, 7ULL}) {
    const Graph g = bench::dense_random(id_n, seed);
    DualFtBfsOptions opts;
    opts.site_dist_oracle = true;
    const EdgeWeights w = EdgeWeights::uniform_random(g, kDefaultWeightSeed);
    const DualBuildResult dfs =
        detail::build_dual_failure_ftbfs_impl(BfsTree(g, w, 0), opts);
    SweepWorkStats ind_work;
    const api::BuildResult ind =
        independent_rebase(g, /*site_dist=*/true, &ind_work);
    const bool same =
        dfs.structure.edges() == ind.structure.edges() &&
        dfs.structure.reinforced() == ind.structure.reinforced() &&
        test::same_tables(dfs.tables, ind.dual_tables.front()) &&
        test::same_site_dist(dfs.site_dist, ind.dual_site_dist.front());
    const bool lower = dfs.sweep_work.total() < ind_work.total();
    if (!same) {
      std::cout << "!!! [hard] dual dfs schedule diverges from the "
                   "independent referee at n="
                << id_n << " seed=" << seed << "\n";
    }
    if (!lower) {
      std::cout << "!!! [hard] dual dfs schedule work not strictly below "
                   "the independent referee at n=" << id_n << " seed=" << seed
                << " (" << dfs.sweep_work.total() << " vs "
                << ind_work.total() << ")\n";
    }
    identical = identical && same;
    work_ok = work_ok && lower;
    bench::JsonObject row;
    row.set("seed", static_cast<std::int64_t>(seed))
        .set("n", static_cast<std::int64_t>(id_n))
        .set("identical", same)
        .set("work_dfs", dfs.sweep_work.total())
        .set("work_independent", ind_work.total());
    rows.push(row);
  }

  // Timing tier: R-MAT at the largest power of two ≤ n — the regime where
  // the independent schedule's per-site O(n) label copies and fresh-tree
  // allocations dominate the subtree-volume sweeps. Best-of-repeats per
  // leg de-noises the gate; the leg ORDER alternates per rep so neither
  // schedule systematically inherits the warmer allocator state.
  Vertex scale = 3;
  while ((Vertex{1} << (scale + 1)) <= n) ++scale;
  const Vertex tn = Vertex{1} << scale;
  const Graph big =
      gen::rmat_connected(scale, 3 * static_cast<std::int64_t>(tn), 1);
  double dfs_s = 1e300;
  double ind_s = 1e300;
  std::int64_t big_work_dfs = 0;
  std::int64_t big_work_ind = 0;
  bool big_identical = true;
  // Each leg returns (structure edges, pair-table edge pool) for the
  // identity check.
  const auto timed_leg = [&](bool dfs_leg) {
    Timer t;
    if (dfs_leg) {
      const DualFtBfsOptions opts;
      const EdgeWeights w =
          EdgeWeights::uniform_random(big, kDefaultWeightSeed);
      DualBuildResult r =
          detail::build_dual_failure_ftbfs_impl(BfsTree(big, w, 0), opts);
      dfs_s = std::min(dfs_s, t.seconds());
      big_work_dfs = r.sweep_work.total();
      return std::make_pair(r.structure.edges(), std::move(r.tables.edge_pool));
    }
    SweepWorkStats work;
    api::BuildResult r = independent_rebase(big, /*site_dist=*/false, &work);
    ind_s = std::min(ind_s, t.seconds());
    big_work_ind = work.total();
    return std::make_pair(r.structure.edges(),
                          std::move(r.dual_tables.front().edge_pool));
  };
  for (int rep = 0; rep < 3; ++rep) {
    const bool dfs_first = rep % 2 == 0;
    const auto a = timed_leg(dfs_first);
    const auto b = timed_leg(!dfs_first);
    big_identical = big_identical && a == b;
  }
  const double speedup = ind_s / dfs_s;
  const bool big_work_ok = big_work_dfs < big_work_ind;
  const double speed_gate = tn >= 4096 ? 2.0 : 1.0;
  const bool speed_ok =
      tn >= 4096 ? speedup >= speed_gate : speedup > speed_gate;
  identical = identical && big_identical;
  work_ok = work_ok && big_work_ok;
  if (!big_identical) {
    std::cout << "!!! [hard] dual dfs schedule diverges from the "
                 "independent referee at the timing tier (n=" << tn << ")\n";
  }
  if (!big_work_ok) {
    std::cout << "!!! [hard] dual dfs schedule work not strictly below the "
                 "independent referee at n=" << tn << "\n";
  }
  if (!speed_ok) {
    std::cout << "!!! [statistical] dual dfs schedule wall-clock speedup "
              << speedup
              << "x below the " << speed_gate << "x gate at n=" << tn
              << "\n";
  }
  std::cout << "dual dfs schedule (n=" << tn << "): dfs " << dfs_s
            << "s, independent " << ind_s << "s — " << speedup
            << "x, work " << big_work_dfs << " vs " << big_work_ind << "\n";

  // Growth (ungated): the production build, best of 3, on R-MAT at n/4,
  // n/2 and n; the exponent is the least-squares slope of log(seconds)
  // over log(n).
  bench::JsonArray growth_rows;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int points = 0;
  for (Vertex gs = std::max<Vertex>(3, scale - 2); gs <= scale; ++gs) {
    const Vertex gn = Vertex{1} << gs;
    const Graph gg =
        gen::rmat_connected(gs, 3 * static_cast<std::int64_t>(gn), 1);
    const DualFtBfsOptions opts;
    const EdgeWeights w = EdgeWeights::uniform_random(gg, kDefaultWeightSeed);
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      Timer t;
      (void)detail::build_dual_failure_ftbfs_impl(BfsTree(gg, w, 0), opts);
      best = std::min(best, t.seconds());
    }
    const double x = std::log(static_cast<double>(gn));
    const double y = std::log(best);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++points;
    bench::JsonObject row;
    row.set("n", static_cast<std::int64_t>(gn))
        .set("m", static_cast<std::int64_t>(gg.num_edges()))
        .set("build_s", best);
    growth_rows.push(row);
  }
  const double growth_exponent =
      points >= 2 ? (points * sxy - sx * sy) / (points * sxx - sx * sx) : 0;
  std::cout << "dual build growth exponent over n = " << (tn >> 2) << ".."
            << tn << ": " << growth_exponent << "\n";

  out->set_raw("identity_per_seed", rows.str(2))
      .set("timing_n", static_cast<std::int64_t>(tn))
      .set("timing_m", static_cast<std::int64_t>(big.num_edges()))
      .set("build_s_dfs", dfs_s)
      .set("build_s_independent", ind_s)
      .set("speedup_build", speedup)
      .set("speedup_gate", speed_gate)
      .set("work_dfs", big_work_dfs)
      .set("work_independent", big_work_ind)
      .set_raw("growth", growth_rows.str(2))
      .set("growth_exponent", growth_exponent)
      .set_raw("hardware", hardware_json().str(2))
      .set("bit_identical", identical)
      .set("work_strictly_lower", work_ok);
  GateList gates;
  gates.add("bit_identical", "hard", identical);
  gates.add("work_strictly_lower", "hard", work_ok);
  gates.add("speedup_build", "statistical", speed_ok);
  out->set_raw("gates", gates.rows.str(2)).set("gates_ok", gates.all_ok);
  return gates.all_ok;
}

/// Builds the dual-failure structure per bench seed — pruned AND the
/// unpruned PR 4 referee — serves a pair storm through the batched Session
/// plane and checks every answer bit-identical against brute-force
/// two-failure BFS and the referee session (the acceptance gate: non-zero
/// exit on divergence). The per-seed rows carry the new
/// `edges_in_H_pruned` column next to the PR 4 `edges_in_H` baseline; a
/// pruned size at or above the baseline, or over the referee budget in
/// verify_dual_structure, also trips the gate. Also times the batched
/// plane against the naive serve-every-pair-with-a-full-G-BFS baseline.
bool run_dual_report(bench::JsonObject* out) {
  const Vertex n = [] {
    const char* env = std::getenv("FTBFS_DUAL_N");
    const int parsed = env != nullptr ? std::atoi(env) : 0;
    return parsed >= 8 ? static_cast<Vertex>(parsed) : Vertex{96};
  }();
  constexpr std::int64_t kPairsPerSeed = 400;

  bool identical = true;      // every answer, both referees
  bool sizes_ok = true;       // pruned strictly below the unpruned size
  bool budgets_ok = true;     // verification under the per-seed budget
  bench::JsonArray rows;
  double build_s_last = 0;
  for (const std::uint64_t seed : {3ULL, 5ULL, 7ULL}) {
    const Graph g = bench::dense_random(n, seed);
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    Timer t;
    const api::BuildResult res = api::build(g, spec);
    const double build_s = t.seconds();
    build_s_last = build_s;

    // The unpruned PR 4 recursion: the differential referee and the
    // per-seed size budget.
    t.restart();
    const api::BuildResult ref =
        test::referee_build(g, spec, {.unpruned = true});
    const double build_unpruned_s = t.seconds();
    const bool size_ok = res.structure.num_edges() < ref.structure.num_edges();
    if (!size_ok) {
      sizes_ok = false;
      std::cout << "!!! [hard] pruned dual structure not strictly below the "
                   "unpruned baseline at seed " << seed << "\n";
    }
    // Size-regression referee: the pruned structure must verify under the
    // recorded per-seed bound (the unpruned size minus one — strictness).
    if (verify_dual_structure(res.structure, /*max_pairs=*/300,
                              /*seed=*/seed, nullptr,
                              ref.structure.num_edges() - 1) != 0) {
      budgets_ok = false;
      std::cout << "!!! [hard] pruned dual structure fails verification "
                   "under the per-seed budget at seed " << seed << "\n";
    }
    const api::Session ref_session = api::Session::deploy(g, ref);
    const api::Session session = api::Session::deploy(g, res);
    const Vertex src = spec.sources.front();

    // The pair storm: every query of every sampled pair, batched. Same
    // universe rule as verify_dual_structure: every edge, every
    // non-source vertex.
    std::vector<DualSite> universe;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      universe.push_back(DualSite{FaultClass::kEdge, e});
    }
    for (Vertex x = 0; x < g.num_vertices(); ++x) {
      if (x != src) universe.push_back(DualSite{FaultClass::kVertex, x});
    }
    Rng rng(seed);
    std::vector<std::pair<DualSite, DualSite>> pairs;
    for (std::int64_t i = 0; i < kPairsPerSeed; ++i) {
      pairs.emplace_back(universe[rng.next_below(universe.size())],
                         universe[rng.next_below(universe.size())]);
    }
    // Interleaved, vertex-major: consecutive queries name DIFFERENT
    // pairs (the production arrival shape), so any one-slot cache on the
    // serial side misses nearly every query while the batched plane
    // regroups the storm by pair.
    std::vector<api::Query> storm;
    for (Vertex v = 0; v < n; v += 2) {
      for (const auto& [a, b] : pairs) {
        api::Query q;
        q.v = v;
        q.kind = a.kind;
        q.fault = a.id;
        q.kind2 = b.kind;
        q.fault2 = b.id;
        storm.push_back(q);
      }
    }
    t.restart();
    const api::QueryResponse resp = session.query(storm);
    const double batched_s = t.seconds();

    // The unpruned referee must agree with the pruned session on every
    // answer — the unpruned referee exists for exactly this check.
    bool agree = resp.refused == 0;
    {
      const api::QueryResponse ref_resp = ref_session.query(storm);
      for (std::size_t i = 0; i < storm.size(); ++i) {
        if (resp.results[i].dist != ref_resp.results[i].dist) {
          agree = false;
          break;
        }
      }
      if (!agree) {
        std::cout << "!!! [hard] pruned dual answers diverge from the "
                     "unpruned referee at seed " << seed << "\n";
      }
    }

    // Naive baseline: one full-G brute-force BFS per query pair (one-slot
    // cached, like the serial single-fault path) — and simultaneously the
    // bit-identity referee for every batched answer.
    t.restart();
    {
      BfsScratch truth;
      std::size_t qi = 0;
      std::pair<DualSite, DualSite> cached{{FaultClass::kEdge, -1},
                                           {FaultClass::kEdge, -1}};
      for (Vertex v = 0; v < n; v += 2) {
        for (const auto& pr : pairs) {
          if (!(pr == cached)) {
            dual_bruteforce_bfs(g, 0, pr.first, pr.second, truth);
            cached = pr;
          }
          const bool destroyed =
              (pr.first.kind == FaultClass::kVertex && pr.first.id == v) ||
              (pr.second.kind == FaultClass::kVertex && pr.second.id == v);
          const std::int32_t want = destroyed ? kInfHops : truth.dist(v);
          if (resp.results[qi].dist != want) agree = false;
          ++qi;
        }
      }
    }
    const double serial_s = t.seconds();
    if (!agree) {
      identical = false;
      std::cout << "!!! [hard] dual answers diverge from brute-force "
                   "two-failure BFS at seed "
                << seed << "\n";
    }

    bench::JsonObject row;
    row.set("seed", static_cast<std::int64_t>(seed))
        .set("n", static_cast<std::int64_t>(n))
        .set("m", static_cast<std::int64_t>(g.num_edges()))
        .set("sites",
             static_cast<std::int64_t>(res.dual_tables.front().num_sites()))
        .set("edges_in_H", ref.structure.num_edges())  // the PR 4 baseline
        .set("edges_in_H_pruned", res.structure.num_edges())
        .set("size_strictly_below_baseline", size_ok)
        .set("build_s", build_s)
        .set("build_s_unpruned", build_unpruned_s)
        .set("speedup_build", build_unpruned_s / build_s)
        .set("pairs", kPairsPerSeed)
        .set("queries", static_cast<std::int64_t>(storm.size()))
        .set("pair_traversals", resp.pair_traversals)
        .set("batched_s", batched_s)
        .set("serial_bruteforce_s", serial_s)
        .set("speedup_vs_bruteforce", serial_s / batched_s)
        .set("answers_identical", agree);
    rows.push(row);
  }

  GateList gates;
  gates.add("answers_identical", "hard", identical);
  gates.add("size_strictly_below_baseline", "hard", sizes_ok);
  gates.add("verify_within_budget", "hard", budgets_ok);
  bench::JsonObject dual;
  dual.set("n", static_cast<std::int64_t>(n))
      .set("build_s", build_s_last)
      .set_raw("per_seed", rows.str(2))
      .set("answers_identical", identical)
      .set_raw("gates", gates.rows.str(2));
  *out = dual;
  std::cout << "dual-failure pipeline (n=" << n << "): answers "
            << (identical ? "bit-identical to" : "DIVERGE from")
            << " brute-force two-failure BFS across seeds {3,5,7}\n";
  return gates.all_ok;
}

/// Times the zero-trust artifact plane on a dual session: checksummed v5
/// save, strict reload (every section CRC-verified + per-line validation),
/// and Session::fsck() over the reloaded session. Gates are semantic plus
/// a generous wall-clock ceiling: the reload must serve bit-identical
/// answers on a pair sweep, fsck must come back clean (not degraded), and
/// the whole save+load+fsck round trip must stay under 30 s — artifact
/// integrity is supposed to be effectively free next to the build.
bool run_io_integrity_report(bench::JsonObject* out) {
  const Vertex n = 96;
  const Graph g = bench::dense_random(n, 3);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session session = api::Session::open(g, spec);

  const std::string path = "BENCH_io_scratch.ftbfs";
  Timer t;
  session.save_v5(path);
  const double save_s = t.seconds();
  std::int64_t artifact_bytes = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    artifact_bytes = static_cast<std::int64_t>(in.tellg());
  }

  api::SessionConfig cfg;
  cfg.tolerate_corruption = false;  // strict: every checksum must hold
  t.restart();
  const api::Session reloaded = api::Session::load(g, path, cfg);
  const double load_s = t.seconds();

  t.restart();
  const api::FsckReport rep = reloaded.fsck();
  const double fsck_s = t.seconds();

  // Bit-identity sweep: a spread of in-model failure pairs through both
  // sessions.
  bool identical = true;
  std::vector<api::Query> sweep;
  for (Vertex v = 1; v < n; v += 5) {
    api::Query q;
    q.v = v;
    q.kind = FaultClass::kVertex;
    q.fault = (v + 7) % n != 0 ? (v + 7) % n : 1;
    q.kind2 = FaultClass::kEdge;
    q.fault2 = static_cast<std::int32_t>(v % g.num_edges());
    sweep.push_back(q);
  }
  const api::QueryResponse a = session.query(sweep);
  const api::QueryResponse b = reloaded.query(sweep);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (a.results[i].dist != b.results[i].dist ||
        a.results[i].outcome != b.results[i].outcome) {
      identical = false;
    }
  }
  std::remove(path.c_str());

  const double total_s = save_s + load_s + fsck_s;
  GateList gates;
  gates.add("reload_answers_identical", "hard", identical);
  gates.add("fsck_clean", "hard", rep.ok && !rep.degraded);
  gates.add("round_trip_under_30s", "statistical", total_s < 30.0);
  const bool ok = gates.all_ok;
  out->set("n", static_cast<std::int64_t>(n))
      .set("artifact_bytes", artifact_bytes)
      .set("save_v5_s", save_s)
      .set("load_strict_s", load_s)
      .set("fsck_s", fsck_s)
      .set("fsck_checks", rep.checks)
      .set("fsck_ok", rep.ok)
      .set("degraded", rep.degraded)
      .set("reload_answers_identical", identical)
      .set_raw("gates", gates.rows.str(2))
      .set("gates_ok", ok);
  std::cout << "io integrity (n=" << n << "): v5 save " << save_s
            << "s, strict load " << load_s << "s, fsck " << fsck_s << "s ("
            << rep.checks << " checks) — "
            << (ok ? "ok" : "GATE FAILED") << "\n";
  if (!identical) {
    std::cout << "!!! [hard] reloaded v5 session diverges from the live "
                 "session\n";
  }
  if (!rep.ok || rep.degraded) {
    std::cout << "!!! [hard] fsck on a clean v5 reload: " << rep.to_string()
              << "\n";
  }
  if (!(total_s < 30.0)) {
    std::cout << "!!! [statistical] v5 save + strict load + fsck took "
              << total_s << "s, over the 30s ceiling\n";
  }
  return ok;
}

// ---- the binary artifact plane at real-graph scale -------------------------

/// Builds ONE dual structure on an R-MAT workload (the real-graph tier:
/// skewed degrees, community structure), persists it in both the v5 text
/// framing and the v6 binary container, and measures the deployment path:
/// v5 text load vs v6 mmap attach (directory + per-section CRC audit,
/// zero-copy section views) vs v6 full decode — plus the first pair query
/// through a freshly loaded Session on each format. Gates (non-zero bench
/// exit when tripped):
///
///  * the v6 mmap attach must beat the v5 text load by >= 10x at
///    n >= 50000 (>= 2x under smaller overrides, where the constant-cost
///    floor compresses the ratio);
///  * a dual pair-query storm served by the v5-loaded and the v6-loaded
///    Sessions must be bit-identical, answer by answer;
///  * re-encoding the decoded v6 artifact must reproduce the on-disk
///    bytes exactly — the container's canonical-fixed-point contract,
///    checked at scale, not just on the unit-test toys.
///
/// FTBFS_ARTIFACT_SCALE_N sizes the workload (default 50000, rounded up
/// to the R-MAT power of two; < 8 skips; an invalid override trips the
/// gate). The dual build at the default size is ~10 minutes of
/// single-core work — the CI smoke turns the knob down and the committed
/// BENCH_construction.json carries the full-scale numbers.
bool run_artifact_plane_report(bench::JsonObject* out) {
  Vertex n = 50000;
  if (const char* env = std::getenv("FTBFS_ARTIFACT_SCALE_N")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 0) {
      std::cout << "!!! FTBFS_ARTIFACT_SCALE_N invalid (" << env << ")\n";
      out->set("invalid_env", true);
      return false;
    }
    n = static_cast<Vertex>(parsed);
  }
  if (n < 8) {  // 0 = explicit skip
    std::cout << "artifact plane: skipped (FTBFS_ARTIFACT_SCALE_N < 8)\n";
    out->set("skipped", true);
    return true;
  }
  Vertex scale = 3;
  while ((Vertex{1} << scale) < n) ++scale;
  const Vertex n_rmat = Vertex{1} << scale;
  const Graph g = gen::rmat_connected(scale, 3 * std::int64_t{n_rmat}, 5);

  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  Timer t;
  const api::BuildResult res = api::build(g, spec);
  const double build_s = t.seconds();

  const std::string v5_path = "BENCH_artifact_scratch.v5";
  const std::string v6_path = "BENCH_artifact_scratch.v6";
  t.restart();
  io::save_structure_v5(res.structure, res.sources, res.dual_tables,
                        res.dual_site_dist, v5_path);
  const double v5_save_s = t.seconds();
  t.restart();
  io::save_structure_v6(res.structure, res.sources, res.dual_tables,
                        res.dual_site_dist, v6_path);
  const double v6_save_s = t.seconds();
  const auto bytes_of = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary | std::ios::ate);
    return static_cast<std::int64_t>(in.tellg());
  };
  const std::int64_t v5_bytes = bytes_of(v5_path);
  const std::int64_t v6_bytes = bytes_of(v6_path);

  // The deployment race, best-of-3 per lane. The v5 lane is the full text
  // parse a pre-v6 host pays before serving; the v6 attach lane is what a
  // deployment host pays to audit + map the container (zero-copy views,
  // no decode); the v6 decode lane rebuilds the in-memory tables from the
  // mapped bytes — the ceiling a recompute-free cold start pays.
  double v5_load_s = 1e300, v6_attach_s = 1e300, v6_decode_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    t.restart();
    std::vector<Vertex> s;
    std::vector<DualSiteTable> tb;
    std::vector<DualSiteDistTable> sd;
    const FtBfsStructure h = io::load_structure(g, v5_path, &s, &tb, {},
                                                nullptr, &sd);
    v5_load_s = std::min(v5_load_s, t.seconds());
    benchmark::DoNotOptimize(h.num_edges());

    t.restart();
    const io::MappedArtifact art = io::MappedArtifact::map(v6_path);
    v6_attach_s = std::min(v6_attach_s, t.seconds());
    benchmark::DoNotOptimize(art.bytes().data());

    t.restart();
    std::vector<Vertex> s6;
    std::vector<DualSiteTable> tb6;
    std::vector<DualSiteDistTable> sd6;
    const FtBfsStructure h6 = io::load_structure_v6(g, v6_path, &s6, &tb6,
                                                    {}, nullptr, &sd6);
    v6_decode_s = std::min(v6_decode_s, t.seconds());
    benchmark::DoNotOptimize(h6.num_edges());
  }
  const double attach_speedup = v5_load_s / v6_attach_s;
  const double want_speedup = n_rmat >= 50000 ? 10.0 : 2.0;
  const bool speed_ok = attach_speedup >= want_speedup;
  if (!speed_ok) {
    std::cout << "!!! [statistical] artifact plane: v6 mmap attach only "
              << attach_speedup
              << "x over the v5 text load (gate " << want_speedup
              << "x at n=" << n_rmat << ")\n";
  }

  // Canonical fixed point at scale: decode the on-disk container,
  // re-encode, compare byte-for-byte.
  bool resave_identical = false;
  {
    std::ifstream in(v6_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string disk = buf.str();
    std::vector<Vertex> s6;
    std::vector<DualSiteTable> tb6;
    std::vector<DualSiteDistTable> sd6;
    const FtBfsStructure h6 = io::read_structure_v6(
        g, std::as_bytes(std::span<const char>(disk.data(), disk.size())),
        &s6, &tb6, {}, nullptr, &sd6);
    resave_identical =
        io::write_structure_v6_bytes(h6, s6, tb6, sd6) == disk;
    if (!resave_identical) {
      std::cout << "!!! [hard] artifact plane: v6 decode + re-encode is not "
                   "byte-identical to the on-disk artifact\n";
    }
  }

  // Serving bit-identity: cold Sessions from each artifact answer the
  // same dual pair storm; every (dist, outcome) must match. The first
  // query is timed separately per lane — the end-to-end "deploy to first
  // answer" latency a failover host cares about.
  api::SessionConfig cfg;
  cfg.tolerate_corruption = false;
  t.restart();
  const api::Session via_v5 = api::Session::load(g, v5_path, cfg);
  const double v5_session_s = t.seconds();
  t.restart();
  const api::Session via_v6 = api::Session::load(g, v6_path, cfg);
  const double v6_session_s = t.seconds();

  std::vector<api::Query> storm;
  const auto& te = via_v6.structure().tree_edges();
  Rng rng(5);
  for (int i = 0; i < 512; ++i) {
    api::Query q;
    q.v = static_cast<Vertex>(
        rng.next_below(static_cast<std::uint64_t>(n_rmat)));
    q.kind = FaultClass::kEdge;
    q.fault = te[rng.next_below(te.size())];
    q.kind2 = FaultClass::kVertex;
    q.fault2 = static_cast<std::int32_t>(
        1 + rng.next_below(static_cast<std::uint64_t>(n_rmat - 1)));
    storm.push_back(q);
  }
  t.restart();
  const api::QueryResult first_v6 = via_v6.query_one(storm.front());
  const double first_query_v6_us = t.seconds() * 1e6;
  t.restart();
  const api::QueryResult first_v5 = via_v5.query_one(storm.front());
  const double first_query_v5_us = t.seconds() * 1e6;
  bool identical = first_v5.dist == first_v6.dist &&
                   first_v5.outcome == first_v6.outcome;
  const api::QueryResponse a = via_v5.query(storm);
  const api::QueryResponse b = via_v6.query(storm);
  for (std::size_t i = 0; i < storm.size(); ++i) {
    if (a.results[i].dist != b.results[i].dist ||
        a.results[i].outcome != b.results[i].outcome) {
      identical = false;
    }
  }
  if (!identical) {
    std::cout << "!!! [hard] artifact plane: v5- and v6-loaded sessions "
                 "diverge on the pair storm\n";
  }
  std::remove(v5_path.c_str());
  std::remove(v6_path.c_str());

  GateList gates;
  gates.add("answers_identical", "hard", identical);
  gates.add("resave_identical", "hard", resave_identical);
  gates.add("attach_speedup", "statistical", speed_ok);
  const bool ok = gates.all_ok;
  out->set("n", static_cast<std::int64_t>(n_rmat))
      .set("m", static_cast<std::int64_t>(g.num_edges()))
      .set("rmat_scale", static_cast<std::int64_t>(scale))
      .set("build_s", build_s)
      .set("v5_bytes", v5_bytes)
      .set("artifact_bytes", v6_bytes)
      .set("mmap", true)
      .set("v5_save_s", v5_save_s)
      .set("v6_save_s", v6_save_s)
      .set("v5_load_s", v5_load_s)
      .set("v6_attach_s", v6_attach_s)
      .set("v6_decode_s", v6_decode_s)
      .set("attach_speedup_vs_v5", attach_speedup)
      .set("attach_speedup_gate", want_speedup)
      .set("session_load_v5_s", v5_session_s)
      .set("session_load_v6_s", v6_session_s)
      .set("first_query_v5_us", first_query_v5_us)
      .set("first_query_v6_us", first_query_v6_us)
      .set("storm_queries", static_cast<std::int64_t>(storm.size()))
      .set("answers_identical", identical)
      .set("resave_identical", resave_identical)
      .set_raw("gates", gates.rows.str(2))
      .set("gates_ok", ok);
  std::cout << "artifact plane (n=" << n_rmat << ", m=" << g.num_edges()
            << "): v5 load " << v5_load_s << "s, v6 mmap attach "
            << v6_attach_s << "s (" << attach_speedup
            << "x), v6 decode " << v6_decode_s << "s — "
            << (ok ? "ok" : "GATE FAILED") << "\n";
  return ok;
}

// ---- canonical trees: production kernel vs the two-pass reference --------

/// Times σ per-source canonical trees the way the pipelines build them,
/// BfsTree(g, w, s) on the fused canonical kernel, against the referee's
/// trees on the two-pass canonical_sp (tests/referee.hpp), at
/// σ ∈ {1, 8, 64}; each leg is its best of three passes. One hard gate,
/// trees_identical: every label vector of every production tree equals
/// canonical_sp's whole, unreachable entries included — non-zero exit
/// otherwise. The speedup is reported, not gated. FTBFS_MSK_SCALE_N
/// resizes it (the CI smoke runs it at 512; 0 skips entirely; the
/// committed BENCH_construction.json carries the full n=2000 run).
bool run_canonical_trees_report(bench::JsonObject* out) {
  Vertex n = 2000;
  if (const char* env = std::getenv("FTBFS_MSK_SCALE_N")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 0) {
      // A typo'd override must not silently skip the acceptance gates.
      std::cout << "!!! FTBFS_MSK_SCALE_N invalid (" << env << ")\n";
      out->set("invalid_env", true);
      return false;
    }
    n = static_cast<Vertex>(parsed);
  }
  if (n < 128) {  // 0 = explicit skip; the σ = 64 row needs the sources
    out->set("skipped", true);
    return true;
  }
  const Graph g = bench::dense_random(n, 3);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 3);

  bool all_identical = true;
  bench::JsonArray rows;
  for (const Vertex sigma : {1, 8, 64}) {
    double reference_s = 1e300, production_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      Timer t;
      for (Vertex s = 0; s < sigma; ++s) {
        const BfsTree tree(g, w, s, canonical_sp(g, w, s));
      }
      reference_s = std::min(reference_s, t.seconds());
      t.restart();
      for (Vertex s = 0; s < sigma; ++s) {
        const BfsTree tree(g, w, s);
      }
      production_s = std::min(production_s, t.seconds());
    }

    bool identical = true;
    for (Vertex s = 0; s < sigma; ++s) {
      const BfsTree tree(g, w, s);
      const CanonicalSp& got = tree.sp();
      const CanonicalSp ref = canonical_sp(g, w, s);
      identical = identical && got.hops == ref.hops &&
                  got.wsum == ref.wsum && got.parent == ref.parent &&
                  got.parent_edge == ref.parent_edge &&
                  got.first_hop == ref.first_hop && got.order == ref.order;
    }
    if (!identical) {
      all_identical = false;
      std::cout << "!!! [hard] canonical trees: production trees diverge "
                   "from canonical_sp at sigma="
                << sigma << "\n";
    }

    bench::JsonObject row;
    row.set("sigma", static_cast<std::int64_t>(sigma))
        .set("reference_s", reference_s)
        .set("production_s", production_s)
        .set("speedup", reference_s / production_s)
        .set("trees_identical", identical);
    rows.push(row);
    std::cout << "canonical trees (n=" << n << ", sigma=" << sigma
              << "): two-pass " << reference_s << "s, production "
              << production_s << "s — " << reference_s / production_s
              << "x\n";
  }
  GateList gates;
  gates.add("trees_identical", "hard", all_identical);
  out->set("n", static_cast<std::int64_t>(n))
      .set("m", static_cast<std::int64_t>(g.num_edges()))
      .set_raw("per_sigma", rows.str(2))
      .set_raw("gates", gates.rows.str(2))
      .set("gates_ok", gates.all_ok);
  return gates.all_ok;
}

/// Returns false when any reference-vs-optimized edge-set comparison
/// disagrees (CI fails on that).
bool run_speedup_report() {
  const Vertex n = [] {
    const char* env = std::getenv("FTBFS_N");
    const int parsed = env != nullptr ? std::atoi(env) : 2000;
    if (parsed < 2) {
      std::cout << "FTBFS_N invalid (" << (env ? env : "")
                << "), using 2000\n";
      return Vertex{2000};
    }
    return static_cast<Vertex>(parsed);
  }();
  const double eps = 1.0 / 3.0;

  bench::header("E8k", "direction-optimizing kernel vs reference",
                "dense_random n=" + std::to_string(n) + ", eps=1/3");

  // Byte-identical structure check on every seed the benches in this
  // harness use, at a size where the reference is still fast — for BOTH
  // fault models, so the unified engine's two instantiations are each
  // pinned to their reference kernels. Per-seed vertex rows feed the JSON
  // trajectory below.
  bool identical = true;
  bench::JsonArray vertex_rows;
  for (const std::uint64_t seed : {3ULL, 5ULL, 7ULL, 11ULL, 13ULL}) {
    const Graph g = bench::dense_random(512, seed);
    EpsilonOptions opts;
    opts.eps = eps;
    const EdgeWeights seed_w =
        EdgeWeights::uniform_random(g, kDefaultWeightSeed);
    const BfsTree seed_tree(g, seed_w, 0);
    const EpsilonResult a =
        test::referee_epsilon(seed_tree, opts, /*reference_kernel=*/true);
    const EpsilonResult b = detail::build_epsilon_ftbfs_impl(seed_tree, opts);
    if (a.structure.edges() != b.structure.edges() ||
        a.structure.reinforced() != b.structure.reinforced()) {
      identical = false;
      std::cout << "!!! edge-set mismatch at seed " << seed << "\n";
    }
    Timer vt;
    const FtBfsStructure va =
        test::referee_vertex(seed_tree, nullptr, /*reference_kernel=*/true);
    const double vsec_ref = vt.seconds();
    vt.restart();
    const FtBfsStructure vb =
        detail::build_vertex_ftbfs_impl(seed_tree, nullptr);
    const double vsec_opt = vt.seconds();
    const bool videntical = va.edges() == vb.edges();
    if (!videntical) {
      identical = false;
      std::cout << "!!! vertex edge-set mismatch at seed " << seed << "\n";
    }
    bench::JsonObject row;
    row.set("seed", static_cast<std::int64_t>(seed))
        .set("edges_in_H", vb.num_edges())
        .set("reference_s", vsec_ref)
        .set("optimized_s", vsec_opt)
        .set("edge_sets_identical", videntical);
    vertex_rows.push(row);
  }
  std::cout << "edge+vertex structures identical across seeds "
               "{3,5,7,11,13}: "
            << (identical ? "yes" : "NO") << "\n";

  // The headline measurement.
  const Graph g = bench::dense_random(n, 3);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 3);
  const BfsTree tree(g, w, 0);

  // Discarded warm-up: pages in the graph/tree and grows the per-thread
  // arenas so the reference (timed first) isn't charged the cold-start.
  time_engine(tree, /*reference=*/false, nullptr);

  ReplacementPathEngine::Stats ref_stats, opt_stats;
  const double sec_ref = time_engine(tree, /*reference=*/true, &ref_stats);
  const double sec_opt = time_engine(tree, /*reference=*/false, &opt_stats);

  // The vertex-fault instantiation of the same engine, on the same tree.
  const auto time_vertex_engine = [&](bool reference) {
    VertexReplacementEngine::Config cfg;
    cfg.reference_kernel = reference;
    Timer vt;
    const VertexReplacementEngine engine(tree, cfg);
    const double sec = vt.seconds();
    benchmark::DoNotOptimize(engine.stats().pairs_total);
    return sec;
  };
  const double vsec_ref = time_vertex_engine(/*reference=*/true);
  const double vsec_opt = time_vertex_engine(/*reference=*/false);

  // The full ε pipeline on the default-seed canonical tree (the tree is
  // built once, outside both timings).
  EpsilonOptions full_opts;
  full_opts.eps = eps;
  const EdgeWeights full_w = EdgeWeights::uniform_random(g, kDefaultWeightSeed);
  const BfsTree full_tree(g, full_w, 0);
  Timer t;
  const EpsilonResult full_ref =
      test::referee_epsilon(full_tree, full_opts, /*reference_kernel=*/true);
  const double sec_full_ref = t.seconds();
  t.restart();
  const EpsilonResult full_opt =
      detail::build_epsilon_ftbfs_impl(full_tree, full_opts);
  const double sec_full_opt = t.seconds();
  const bool full_identical =
      full_ref.structure.edges() == full_opt.structure.edges() &&
      full_ref.structure.reinforced() == full_opt.structure.reinforced();

  Table tb("E8k kernel speedup (n=" + std::to_string(n) +
           ", m=" + std::to_string(g.num_edges()) + ")");
  tb.columns({"phase", "ref_s", "opt_s", "speedup"});
  tb.row("engine_total", sec_ref, sec_opt, sec_ref / sec_opt);
  tb.row("dist_tables", ref_stats.seconds_dist_tables,
         opt_stats.seconds_dist_tables,
         ref_stats.seconds_dist_tables / opt_stats.seconds_dist_tables);
  tb.row("detours", ref_stats.seconds_detours, opt_stats.seconds_detours,
         ref_stats.seconds_detours / opt_stats.seconds_detours);
  tb.row("vertex_engine", vsec_ref, vsec_opt, vsec_ref / vsec_opt);
  tb.row("eps_construction", sec_full_ref, sec_full_opt,
         sec_full_ref / sec_full_opt);
  tb.print(std::cout);

  bench::JsonObject phases;
  phases.set("engine_reference_s", sec_ref)
      .set("engine_optimized_s", sec_opt)
      .set("dist_tables_reference_s", ref_stats.seconds_dist_tables)
      .set("dist_tables_optimized_s", opt_stats.seconds_dist_tables)
      .set("detours_reference_s", ref_stats.seconds_detours)
      .set("detours_optimized_s", opt_stats.seconds_detours)
      .set("vertex_engine_reference_s", vsec_ref)
      .set("vertex_engine_optimized_s", vsec_opt)
      .set("construction_reference_s", sec_full_ref)
      .set("construction_optimized_s", sec_full_opt)
      .set("s1_s", full_opt.stats.seconds_s1)
      .set("s2_s", full_opt.stats.seconds_s2)
      .set("interference_s", full_opt.stats.seconds_interference);

  // The dual-failure pipeline: per-seed build + brute-force identity.
  bench::JsonObject dual_report;
  const bool dual_agrees = run_dual_report(&dual_report);

  // Pruned-vs-unpruned at scale (FTBFS_DUAL_SCALE_N, default 1000): the
  // build-speedup and size gates of the pruning.
  bench::JsonObject dual_scale;
  const bool dual_scale_ok = run_dual_scale_report(&dual_scale);

  // DFS-order ancestor-sweep sharing vs the independent-rebase referee
  // (FTBFS_DUAL_DFS_SCALE_N, default 4096): bit-identity, strict work
  // reduction and the wall-clock gate.
  bench::JsonObject dual_dfs;
  const bool dual_dfs_ok = run_dual_dfs_schedule_report(&dual_dfs);

  // The zero-trust artifact plane: v5 save + strict reload + fsck timing.
  bench::JsonObject io_integrity;
  const bool io_ok = run_io_integrity_report(&io_integrity);

  // The binary artifact plane at R-MAT scale: v6 mmap attach vs v5 text
  // load, serving bit-identity, canonical re-encode.
  bench::JsonObject artifact_plane;
  const bool artifact_ok = run_artifact_plane_report(&artifact_plane);

  // The serving-plane acceptance: QPS + tail latency per batch size, the
  // batching speedup gate, the what-if storm against a serial
  // server (the headline speedup) and the traversal-free pair oracle.
  bench::JsonObject query_qps;
  double query_speedup = 0;
  const bool qps_ok = run_query_qps_report(&query_qps, &query_speedup);

  // Per-source canonical trees: the production kernel vs the two-pass
  // reference (FTBFS_MSK_SCALE_N, default 2000), every tree bit-identical.
  bench::JsonObject trees_report;
  const bool trees_ok = run_canonical_trees_report(&trees_report);

  bench::JsonObject report;
  report.set("bench", std::string("construction_time"))
      .set("workload", std::string("dense_random"))
      .set("n", static_cast<std::int64_t>(n))
      .set("m", static_cast<std::int64_t>(g.num_edges()))
      .set("eps", eps)
      .set_raw("hardware", hardware_json().str(2))
      .set_raw("seconds", phases.str(2))
      .set("edges_in_H", full_opt.stats.structure_edges)
      .set("backup_edges", full_opt.stats.backup)
      .set("reinforced_edges", full_opt.stats.reinforced)
      .set("speedup_engine", sec_ref / sec_opt)
      .set("speedup_vertex_engine", vsec_ref / vsec_opt)
      .set("speedup_construction", sec_full_ref / sec_full_opt)
      .set_raw("vertex_per_seed", vertex_rows.str(2))
      .set_raw("dual", dual_report.str(2))
      .set_raw("dual_scale", dual_scale.str(2))
      .set_raw("dual_dfs_schedule", dual_dfs.str(2))
      .set_raw("io_integrity", io_integrity.str(2))
      .set_raw("artifact_plane", artifact_plane.str(2))
      .set_raw("query_qps", query_qps.str(2))
      .set_raw("canonical_trees", trees_report.str(2))
      .set("speedup_query_batched_vs_serial", query_speedup)
      .set("edge_sets_identical",
           identical && full_identical && dual_agrees && dual_scale_ok &&
               dual_dfs_ok && io_ok && artifact_ok && qps_ok && trees_ok);
  bench::write_json_file("BENCH_construction.json", report);
  std::cout << "engine speedup: " << sec_ref / sec_opt
            << "x (edge), " << vsec_ref / vsec_opt
            << "x (vertex), construction speedup: "
            << sec_full_ref / sec_full_opt
            << "x, batched what-if storm: " << query_speedup
            << "x vs serial  (BENCH_construction.json written)\n\n";
  return identical && full_identical && dual_agrees &&
         dual_scale_ok && dual_dfs_ok && io_ok && artifact_ok && qps_ok &&
         trees_ok;
}

}  // namespace

int main(int argc, char** argv) {
  // The speedup report costs a full reference-engine build; skip it when
  // the user is only listing benchmarks, targeting specific ones, or opted
  // out via env. "--benchmark_filter=NONE" (the CI spelling for "report
  // only") keeps the report.
  bool skip_report = std::getenv("FTBFS_SKIP_SPEEDUP") != nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--benchmark_list_tests" ||
        arg == "--benchmark_list_tests=true") {
      skip_report = true;
    }
    if (arg.starts_with("--benchmark_filter=") &&
        arg != "--benchmark_filter=NONE") {
      skip_report = true;
    }
  }
  bool edge_sets_ok = true;
  if (!skip_report) edge_sets_ok = run_speedup_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Non-zero exit on a reference/optimized divergence so CI trips.
  return edge_sets_ok ? 0 : 1;
}

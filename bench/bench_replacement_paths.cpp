// bench_replacement_paths — Experiment E10 (engine micro-throughput; the
// replacement-path machinery of refs [9]/[17] as realized here).
//
// Isolates the engine's sub-phases: per-tree-edge BFS (distance tables),
// per-vertex off-path detour BFS, O(1) replacement-distance queries, and
// the interference index build.
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/core/interference.hpp"
#include "src/core/replacement.hpp"
#include "src/graph/bfs_kernel.hpp"

using namespace ftb;

namespace {

void BM_DistTablesOnly(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 11);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 11);
  const BfsTree tree(g, w, 0);
  for (auto _ : state) {
    // collect_detours=false still builds tables + pairs; the tables
    // dominate. Report per-failure BFS throughput.
    ReplacementPathEngine::Config cfg;
    cfg.collect_detours = false;
    ReplacementPathEngine engine(tree, cfg);
    benchmark::DoNotOptimize(engine.stats().pairs_total);
  }
  state.counters["failures/s"] = benchmark::Counter(
      static_cast<double>(tree.tree_edges().size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_DistTablesOnly)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_DistTablesReferenceKernel(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 11);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 11);
  const BfsTree tree(g, w, 0);
  for (auto _ : state) {
    ReplacementPathEngine::Config cfg;
    cfg.collect_detours = false;
    cfg.reference_kernel = true;
    ReplacementPathEngine engine(tree, cfg);
    benchmark::DoNotOptimize(engine.stats().pairs_total);
  }
  state.counters["failures/s"] = benchmark::Counter(
      static_cast<double>(tree.tree_edges().size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_DistTablesReferenceKernel)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Single-traversal micro throughput: the wrapper (materializing BfsResult),
// the raw kernel on a reused scratch, and the naive reference.
void BM_SingleBfsReference(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 29);
  for (auto _ : state) {
    const BfsResult r = plain_bfs_reference(g, 0);
    benchmark::DoNotOptimize(r.order.size());
  }
}
BENCHMARK(BM_SingleBfsReference)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_SingleBfsKernel(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 29);
  BfsScratch scratch;
  for (auto _ : state) {
    bfs_run(g, 0, {}, scratch);
    benchmark::DoNotOptimize(scratch.order().size());
  }
}
BENCHMARK(BM_SingleBfsKernel)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_CanonicalSpReference(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 31);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 31);
  for (auto _ : state) {
    const CanonicalSp sp = canonical_sp(g, w, 0);
    benchmark::DoNotOptimize(sp.order.size());
  }
}
BENCHMARK(BM_CanonicalSpReference)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_CanonicalSpKernel(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 31);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 31);
  CanonicalSpScratch scratch;
  for (auto _ : state) {
    canonical_sp_run(g, w, 0, {}, scratch);
    benchmark::DoNotOptimize(scratch.order().size());
  }
}
BENCHMARK(BM_CanonicalSpKernel)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_OracleQueries(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 13);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 13);
  const BfsTree tree(g, w, 0);
  const ReplacementPathEngine engine(tree);
  std::uint64_t x = 0;
  Rng rng(17);
  std::vector<std::pair<Vertex, EdgeId>> queries;
  for (int i = 0; i < 4096; ++i) {
    queries.emplace_back(
        static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n))),
        static_cast<EdgeId>(
            rng.next_below(static_cast<std::uint64_t>(g.num_edges()))));
  }
  for (auto _ : state) {
    for (const auto& [v, e] : queries) {
      x += static_cast<std::uint64_t>(engine.replacement_dist(v, e));
    }
    benchmark::DoNotOptimize(x);
  }
  state.counters["queries/s"] = benchmark::Counter(
      static_cast<double>(queries.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_OracleQueries)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_InterferenceIndex(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const auto lbg = lb::build_single_source(n, 1.0 / 3.0);
  const EdgeWeights w = EdgeWeights::uniform_random(lbg.graph, 19);
  const BfsTree tree(lbg.graph, w, lbg.source);
  const ReplacementPathEngine engine(tree);
  for (auto _ : state) {
    InterferenceIndex ifx(engine);
    benchmark::DoNotOptimize(ifx.stats());
  }
  state.counters["pairs"] =
      static_cast<double>(engine.stats().pairs_uncovered);
}
BENCHMARK(BM_InterferenceIndex)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_PathReconstruction(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const auto lbg = lb::build_single_source(n, 0.4);
  const EdgeWeights w = EdgeWeights::uniform_random(lbg.graph, 23);
  const BfsTree tree(lbg.graph, w, lbg.source);
  const ReplacementPathEngine engine(tree);
  const auto& pairs = engine.uncovered_pairs();
  if (pairs.empty()) {
    state.SkipWithError("no uncovered pairs");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = pairs[i++ % pairs.size()];
    const auto path = engine.replacement_path(p.v, p.e);
    benchmark::DoNotOptimize(path.size());
  }
}
BENCHMARK(BM_PathReconstruction)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

// bench_baseline_ftbfs — Experiment E3 (ref. [14]: FT-BFS is Θ(n^{3/2})).
//
// Sweep n on (a) the ESA'13-style adversarial family (Theorem 5.1 graph at
// ε = 1/2, where the bipartite core forces ~n^{3/2} last edges) and (b)
// dense random graphs (far below the worst case). Report |H| / n^{3/2}:
// flat-ish on (a), decaying on (b).
//
//   ./bench_baseline_ftbfs [--ns=256,...] [--seed=1]
#include "bench/bench_util.hpp"
#include "src/api/ftbfs_api.hpp"

using namespace ftb;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const std::vector<long long> ns =
      opt.get_int_list("ns", {256, 512, 1024, 2048, 4096});
  const std::uint64_t seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));

  bench::header("E3", "[14] baseline: FT-BFS structures have Theta(n^{3/2}) "
                      "edges",
                "Theorem 5.1 graph at eps=1/2 (adversarial) vs dense random");

  Table t("E3 baseline FT-BFS size");
  t.columns({"family", "n", "m", "|H|", "|H|/n^1.5", "certified_min",
             "sec"});
  std::vector<double> xs, hs;
  for (const long long n : ns) {
    const auto lb = lb::build_single_source(static_cast<Vertex>(n), 0.5);
    Timer timer;
    const FtBfsStructure h =
        api::build(lb.graph, {.sources = {lb.source}, .eps = 1.0}).structure;
    const double sec = timer.seconds();
    t.row("adversarial", n, lb.graph.num_edges(), h.num_edges(),
          static_cast<double>(h.num_edges()) /
              std::pow(static_cast<double>(n), 1.5),
          lb.certified_min_backup(0), sec);
    xs.push_back(static_cast<double>(n));
    hs.push_back(static_cast<double>(h.num_edges()));
  }
  for (const long long n : ns) {
    const Graph g = bench::dense_random(static_cast<Vertex>(n), seed);
    Timer timer;
    const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
    const double sec = timer.seconds();
    t.row("dense-random", n, g.num_edges(), h.num_edges(),
          static_cast<double>(h.num_edges()) /
              std::pow(static_cast<double>(n), 1.5),
          0, sec);
  }
  t.print(std::cout);
  std::cout << "measured |H| exponent on the adversarial family: "
            << bench::fit_exponent(xs, hs) << "  (theorem: 1.5)\n"
            << "shape check: |H|/n^1.5 flat on the adversarial family, "
               "decaying on random graphs.\n";
  return 0;
}

// bench_lower_bound — Experiment E4 (Theorem 5.1: Ω(n^{1+eps}) backup edges
// under reinforcement budget ⌊n^{1-eps}/6⌋).
//
// For each ε: build the adversarial graph G_ε, compute the *certified*
// combinatorial lower bound (Claim 5.3 counting: every unreinforced costly
// edge forces its |X_i| bipartite edges), then run our ε FT-BFS and place
// its measured (b, r) against the bound — the construction must land above
// the certified floor and below the Theorem 3.1 ceiling.
//
//   ./bench_lower_bound [--n=2048] [--eps=0.2,0.25,0.333,0.4,0.5]
#include "bench/bench_util.hpp"
#include "src/api/ftbfs_api.hpp"

using namespace ftb;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const Vertex n = static_cast<Vertex>(opt.get_int("n", 2048));
  const std::vector<double> eps_grid =
      opt.get_double_list("eps", {0.2, 0.25, 1.0 / 3.0, 0.4, 0.5});

  bench::header("E4", "Theorem 5.1: r <= n^{1-eps}/6 forces "
                      "b = Omega(n^{1+eps})",
                "adversarial G_eps, n=" + std::to_string(n));

  Table t("E4 certified floor vs measured structure");
  t.columns({"eps", "d", "k", "|Pi|", "|X_min|", "budget", "certified_b",
             "n^{1+eps}", "our_b", "our_r", "floor<=b", "ceil_norm"});
  for (const double eps : eps_grid) {
    const auto lb = lb::build_single_source(n, eps);
    api::BuildSpec spec;
    spec.eps = eps;
    spec.sources = {lb.source};
    const EpsilonStats st = api::build(lb.graph, spec).per_source.front();
    const std::int64_t budget = lb.theorem_budget();
    const std::int64_t certified = lb.certified_min_backup(budget);
    const double n_pow = std::pow(static_cast<double>(n), 1.0 + eps);
    // Our structure's own consistency: its b must exceed the floor implied
    // by its own reinforcement count.
    const bool floor_ok =
        st.backup >= lb.certified_min_backup(st.reinforced);
    t.row(eps, lb.d, lb.k, static_cast<long long>(lb.pi_edges.size()),
          lb.min_x_size(), budget, certified, n_pow, st.backup,
          st.reinforced, floor_ok ? "yes" : "NO",
          static_cast<double>(st.backup) /
              theorem_backup_bound(n, eps));
  }
  t.print(std::cout);
  std::cout << "\nshape check: certified_b tracks n^{1+eps} (same exponent, "
               "constant-factor gap from\n  the d=n^eps/4 and budget/6 "
               "constants); our_b always sits above its own certified "
               "floor.\n";
  return 0;
}

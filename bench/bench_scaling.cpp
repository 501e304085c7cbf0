// bench_scaling — Experiment E2 (Theorem 3.1 growth exponents in n).
//
// Two fits, both on the Theorem 5.1 family:
//   (a) backup exponent: run the algorithm at ε_A = ε_G on G_{ε_G}; the
//       structure swallows the Θ(n^{1+ε}) bipartite core, so the fitted
//       exponent of b(n) must approach 1 + ε;
//   (b) reinforcement exponent: run a *small* ε_A on the deep ε_G = 1/2
//       family; the heavy costly-path edges get reinforced and r(n) grows
//       like the path length Θ(n^{1/2}) — inside the theorem's
//       Õ(n^{1-ε_A}) envelope.
//
//   ./bench_scaling [--ns=256,...,4096] [--eps=0.2,0.333] [--eps_r=0.15]
#include "bench/bench_util.hpp"
#include "src/api/ftbfs_api.hpp"

using namespace ftb;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const std::vector<long long> ns =
      opt.get_int_list("ns", {256, 512, 1024, 2048, 4096});
  const std::vector<double> eps_grid =
      opt.get_double_list("eps", {0.2, 1.0 / 3.0});
  const double eps_r = opt.get_double("eps_r", 0.15);

  bench::header("E2", "Theorem 3.1 scaling: b ~ n^{1+eps}, r within "
                      "O(1/eps n^{1-eps} lg n)",
                "Theorem 5.1 graphs");

  // (a) backup exponent at ε_A = ε_G.
  for (const double eps : eps_grid) {
    Table t("E2a backup scaling at eps=" + std::to_string(eps));
    t.columns({"n", "m", "b(n)", "r(n)", "b_norm", "sec"});
    std::vector<double> xs, bs;
    for (const long long n : ns) {
      const auto lb = lb::build_single_source(static_cast<Vertex>(n), eps);
      api::BuildSpec spec;
      spec.eps = eps;
      spec.sources = {lb.source};
      const EpsilonStats st = api::build(lb.graph, spec).per_source.front();
      t.row(n, lb.graph.num_edges(), st.backup, st.reinforced,
            static_cast<double>(st.backup) /
                theorem_backup_bound(n, eps),
            st.seconds_total);
      xs.push_back(static_cast<double>(n));
      bs.push_back(
          static_cast<double>(std::max<std::int64_t>(1, st.backup)));
    }
    t.print(std::cout);
    std::cout << "measured exponent of b(n): " << bench::fit_exponent(xs, bs)
              << "  (theorem: " << 1.0 + eps
              << "; small-n constants bite below n=1024)\n\n";
  }

  // (b) reinforcement growth: deep family, small ε_A.
  {
    Table t("E2b reinforcement scaling (eps_G=0.5, eps_A=" +
            std::to_string(eps_r) + ")");
    t.columns({"n", "m", "b(n)", "r(n)", "r_envelope", "sec"});
    std::vector<double> xs, rs;
    for (const long long n : ns) {
      const auto lb = lb::build_single_source(static_cast<Vertex>(n), 0.5);
      api::BuildSpec spec;
      spec.eps = eps_r;
      spec.sources = {lb.source};
      const EpsilonStats st = api::build(lb.graph, spec).per_source.front();
      t.row(n, lb.graph.num_edges(), st.backup, st.reinforced,
            theorem_reinforce_bound(n, eps_r), st.seconds_total);
      xs.push_back(static_cast<double>(n));
      rs.push_back(static_cast<double>(
          std::max<std::int64_t>(1, st.reinforced)));
    }
    t.print(std::cout);
    std::cout << "measured exponent of r(n): " << bench::fit_exponent(xs, rs)
              << "  (small counts — noisy; stays far inside the theorem "
                 "envelope r_envelope = 1/eps n^{1-eps} lg n, slope "
              << 1.0 - eps_r << " + lg-slack)\n";
  }
  return 0;
}

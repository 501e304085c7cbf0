#include "src/core/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "src/core/validate.hpp"
#include "src/graph/bfs_tree.hpp"

namespace ftb {

double predicted_optimal_eps(std::int64_t n, const CostParams& prices) {
  FTB_CHECK_MSG(prices.backup_price > 0 && prices.reinforce_price > 0,
                "prices must be positive");
  const double ratio = prices.ratio();
  if (ratio <= 1.0 || n < 2) return 0.0;
  const double eps = std::log(ratio) / (2.0 * std::log(static_cast<double>(n)));
  return std::clamp(eps, 0.0, 0.5);
}

double predicted_cost(std::int64_t n, double eps, const CostParams& prices) {
  return prices.backup_price * theorem_backup_bound(n, eps) +
         prices.reinforce_price * theorem_reinforce_bound(n, eps);
}

namespace {

/// Validates the sweep inputs the way ftb::api::build does (one source, each
/// grid ε) before any construction runs.
void check_sweep(const Graph& g, Vertex source,
                 std::span<const double> eps_grid) {
  FTB_CHECK_MSG(!eps_grid.empty(), "empty eps grid");
  const Vertex one[] = {source};
  detail::check_sources(g, one);
  for (const double eps : eps_grid) detail::check_epsilon(eps);
}

/// Builds and prices the ε FT-BFS structure for every grid ε, all on the
/// one canonical tree.
DesignSweep sweep_tree(const BfsTree& tree, const CostParams& prices,
                       std::span<const double> eps_grid,
                       const EpsilonOptions& base) {
  DesignSweep sweep;
  sweep.points.reserve(eps_grid.size());
  for (const double eps : eps_grid) {
    EpsilonOptions opts = base;
    opts.eps = eps;
    const EpsilonResult res = detail::build_epsilon_ftbfs_impl(tree, opts);
    DesignPoint pt;
    pt.eps = eps;
    pt.backup = res.structure.num_backup();
    pt.reinforced = res.structure.num_reinforced();
    pt.edges = res.structure.num_edges();
    pt.cost = res.structure.cost(prices.backup_price, prices.reinforce_price);
    sweep.points.push_back(pt);
  }
  sweep.best_index = 0;
  for (std::size_t i = 1; i < sweep.points.size(); ++i) {
    if (sweep.points[i].cost < sweep.points[sweep.best_index].cost) {
      sweep.best_index = i;
    }
  }
  return sweep;
}

}  // namespace

DesignSweep design_sweep(const Graph& g, Vertex source,
                         const CostParams& prices,
                         std::span<const double> eps_grid,
                         const EpsilonOptions& base) {
  check_sweep(g, source, eps_grid);
  const EdgeWeights weights = EdgeWeights::uniform_random(g, base.weight_seed);
  return sweep_tree(BfsTree(g, weights, source), prices, eps_grid, base);
}

EpsilonResult design_cheapest(const Graph& g, Vertex source,
                              const CostParams& prices,
                              std::span<const double> eps_grid,
                              const EpsilonOptions& base) {
  check_sweep(g, source, eps_grid);
  const EdgeWeights weights = EdgeWeights::uniform_random(g, base.weight_seed);
  const BfsTree tree(g, weights, source);
  EpsilonOptions opts = base;
  opts.eps = sweep_tree(tree, prices, eps_grid, base).best().eps;
  return detail::build_epsilon_ftbfs_impl(tree, opts);
}

}  // namespace ftb

// cost_model.hpp — the economic reading of the tradeoff (paper §1, §Discussion).
//
// With backup price B and reinforcement price R the total cost of a (b,r)
// FT-BFS structure is B·b(n) + R·r(n) = Õ(B·n^{1+ε} + R·n^{1-ε}), minimized
// at ε* ≈ log(R/B) / (2·log n) — the paper states ε = O(log(R/B)/log n);
// balancing the two terms exactly gives the factor-2 refinement we use as
// the analytic predictor, clamped into [0, 1/2].
//
// design_sweep() is the empirical counterpart: it builds the structure on a
// grid of ε values and returns the measured cost curve plus its argmin —
// the tool a network planner would actually run (examples/network_planning).
#pragma once

#include <span>
#include <vector>

#include "src/core/epsilon_ftbfs.hpp"

namespace ftb {

/// Unit prices: B for a fault-prone backup edge, R ≥ B for a reinforced one.
struct CostParams {
  double backup_price = 1.0;
  double reinforce_price = 100.0;

  double ratio() const { return reinforce_price / backup_price; }
};

/// Analytic predictor ε* = clamp(log(R/B) / (2 ln n), 0, 1/2).
double predicted_optimal_eps(std::int64_t n, const CostParams& prices);

/// Theorem 3.1 envelope cost at ε: B·b_bound(ε) + R·r_bound(ε).
double predicted_cost(std::int64_t n, double eps, const CostParams& prices);

/// One measured point of the ε grid.
struct DesignPoint {
  double eps = 0;
  std::int64_t backup = 0;
  std::int64_t reinforced = 0;
  std::int64_t edges = 0;
  double cost = 0;
};

/// A measured cost curve with its argmin.
struct DesignSweep {
  std::vector<DesignPoint> points;
  std::size_t best_index = 0;

  const DesignPoint& best() const { return points[best_index]; }
};

/// Builds the ε FT-BFS structure for every ε in `eps_grid`, prices each and
/// returns the curve. `base` supplies seed/pool/ablation options (its eps
/// field is overridden per grid point); every grid point runs on the one
/// canonical tree of base.weight_seed. A bad source or grid ε throws the
/// "invalid BuildSpec" CheckError before anything is built.
DesignSweep design_sweep(const Graph& g, Vertex source,
                         const CostParams& prices,
                         std::span<const double> eps_grid,
                         const EpsilonOptions& base = {});

/// Convenience: sweep + rebuild of the winning design.
EpsilonResult design_cheapest(const Graph& g, Vertex source,
                              const CostParams& prices,
                              std::span<const double> eps_grid,
                              const EpsilonOptions& base = {});

}  // namespace ftb

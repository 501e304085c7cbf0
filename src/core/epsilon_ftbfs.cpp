#include "src/core/epsilon_ftbfs.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/core/ftbfs.hpp"
#include "src/core/interference.hpp"
#include "src/core/replacement.hpp"
#include "src/graph/heavy_path.hpp"
#include "src/util/timer.hpp"

namespace ftb {

namespace {

constexpr std::int32_t kMaxRounds = 64;

/// Tracks H's edge set during construction (tree edges preloaded).
class EdgeAccumulator {
 public:
  EdgeAccumulator(const Graph& g, const std::vector<EdgeId>& tree_edges)
      : in_h_(static_cast<std::size_t>(g.num_edges()), 0) {
    for (const EdgeId e : tree_edges) {
      in_h_[static_cast<std::size_t>(e)] = 1;
      edges_.push_back(e);
    }
  }

  /// Returns true if the edge was new.
  bool add(EdgeId e) {
    auto& flag = in_h_[static_cast<std::size_t>(e)];
    if (flag) return false;
    flag = 1;
    edges_.push_back(e);
    return true;
  }

  bool contains(EdgeId e) const {
    return in_h_[static_cast<std::size_t>(e)] != 0;
  }

  std::vector<EdgeId> take_edges() { return std::move(edges_); }

 private:
  std::vector<std::uint8_t> in_h_;
  std::vector<EdgeId> edges_;
};

/// A (∼)-set: pair ids, ascending (so grouped by terminal, positions
/// ascending within each terminal — the engine's canonical order).
using PairSet = std::vector<std::int32_t>;

/// Iterates over the maximal runs of equal-terminal pairs inside a sorted
/// pair-id set; calls fn(v, span_of_ids).
template <typename Fn>
void for_each_terminal_run(const PairSet& set,
                           const std::vector<UncoveredPair>& pairs, Fn&& fn) {
  std::size_t i = 0;
  while (i < set.size()) {
    std::size_t j = i;
    const Vertex v = pairs[static_cast<std::size_t>(set[i])].v;
    while (j < set.size() && pairs[static_cast<std::size_t>(set[j])].v == v) {
      ++j;
    }
    fn(v, std::span<const std::int32_t>(set.data() + i, j - i));
    i = j;
  }
}

/// Exponential-halving decomposition of a length-L source path into edge-
/// position boundaries (Sub-Phase S2.2): segment j covers positions
/// [b[j-1], b[j]), with |π_j| ≈ L/2^j and the O(1) tail merged into the
/// last segment. Returns the boundary vector b (b.front()=0, b.back()=L).
std::vector<std::int32_t> halving_boundaries(std::int32_t L) {
  std::vector<std::int32_t> b{0};
  if (L <= 0) return b;
  const std::int32_t k = std::max<std::int32_t>(
      1, static_cast<std::int32_t>(std::floor(std::log2(static_cast<double>(L)))));
  double acc = 0;
  for (std::int32_t j = 1; j <= k; ++j) {
    acc += static_cast<double>(L) / std::pow(2.0, j);
    const std::int32_t pos =
        std::min<std::int32_t>(L, static_cast<std::int32_t>(std::ceil(acc)));
    if (pos > b.back()) b.push_back(pos);
  }
  if (b.back() != L) b.back() = L;  // merge the tail into the last segment
  return b;
}

}  // namespace

double theorem_backup_bound(std::int64_t n, double eps) {
  const double nd = static_cast<double>(n);
  const double pow_branch =
      (eps > 0) ? (1.0 / eps) * std::pow(nd, 1.0 + eps) * std::log2(nd)
                : nd;  // ε = 0: the tree alone
  const double sqrt_branch = std::pow(nd, 1.5);
  return std::min(pow_branch, sqrt_branch);
}

double theorem_reinforce_bound(std::int64_t n, double eps) {
  const double nd = static_cast<double>(n);
  if (eps <= 0) return nd;
  if (eps >= 0.5) return 0;  // baseline branch needs no reinforcement
  return (1.0 / eps) * std::pow(nd, 1.0 - eps) * std::log2(nd);
}

namespace {

/// ε = 0: the whole tree reinforced, no backup at all.
EpsilonResult reinforce_tree(const BfsTree& tree, double eps) {
  const Graph& g = tree.graph();
  Timer total_timer;
  EpsilonStats st;
  st.n = g.num_vertices();
  st.m = g.num_edges();
  st.eps = eps;
  FtBfsStructure h(g, tree.source(), tree.tree_edges(), tree.tree_edges(),
                   tree.tree_edges());
  st.structure_edges = h.num_edges();
  st.backup = h.num_backup();
  st.reinforced = h.num_reinforced();
  st.seconds_total = total_timer.seconds();
  return EpsilonResult{std::move(h), st};
}

/// Theorem 3.1 takes the ESA'13 n^{3/2} branch, which reads no detours.
bool takes_baseline(const EpsilonOptions& opts) {
  return opts.eps >= 0.5 && opts.baseline_for_large_eps;
}

}  // namespace

EpsilonResult detail::build_epsilon_ftbfs_impl(const BfsTree& tree,
                                               const EpsilonOptions& opts) {
  if (opts.eps == 0.0) return reinforce_tree(tree, opts.eps);
  Timer total_timer;
  ReplacementPathEngine::Config cfg;
  cfg.collect_detours = !takes_baseline(opts);
  cfg.pool = opts.pool;
  const ReplacementPathEngine engine(tree, cfg);
  const double seconds_engine = total_timer.seconds();
  EpsilonResult res = build_epsilon_ftbfs(engine, opts);
  res.stats.seconds_engine = seconds_engine;
  res.stats.seconds_total = total_timer.seconds();
  return res;
}

EpsilonResult build_epsilon_ftbfs(const ReplacementPathEngine& engine,
                                  const EpsilonOptions& opts) {
  const BfsTree& tree = engine.tree();
  if (opts.eps == 0.0) return reinforce_tree(tree, opts.eps);
  const Graph& g = tree.graph();
  const Vertex source = tree.source();
  Timer total_timer;
  EpsilonStats st;
  st.n = g.num_vertices();
  st.m = g.num_edges();
  st.eps = opts.eps;
  st.pairs_total = engine.stats().pairs_total;
  st.pairs_covered = engine.stats().pairs_covered;
  st.pairs_uncovered = engine.stats().pairs_uncovered;
  st.detour_traversal_arcs = engine.stats().detour_traversal_arcs;
  st.detour_boundary_arcs = engine.stats().detour_boundary_arcs;
  st.detour_source_probes = engine.stats().detour_source_probes;
  st.seconds_dist_tables = engine.stats().seconds_dist_tables;
  st.seconds_detours = engine.stats().seconds_detours;

  if (takes_baseline(opts)) {
    st.used_baseline = true;
    FtBfsStructure h = build_ftbfs(engine);
    st.structure_edges = h.num_edges();
    st.backup = h.num_backup();
    st.reinforced = h.num_reinforced();
    st.seconds_total = total_timer.seconds();
    return EpsilonResult{std::move(h), st};
  }

  Timer phase_timer;
  const InterferenceIndex interference(engine);
  st.seconds_interference = phase_timer.seconds();
  st.interference_truncated_buckets = interference.stats().truncated_buckets;

  const auto& pairs = engine.uncovered_pairs();
  const std::size_t np = pairs.size();

  const std::int64_t threshold = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(std::pow(static_cast<double>(st.n), opts.eps) *
                       opts.threshold_scale)));
  st.threshold = threshold;
  const std::int32_t K =
      opts.k_rounds_override > 0
          ? opts.k_rounds_override
          : std::min<std::int32_t>(
                kMaxRounds,
                static_cast<std::int32_t>(std::ceil(1.0 / opts.eps)) + 2);
  st.k_rounds = K;

  EdgeAccumulator H(g, tree.tree_edges());

  // ---------------------------------------------------------------- S1 --
  phase_timer.restart();
  PairSet P = interference.i1();
  std::vector<PairSet> csets;
  csets.push_back(interference.i2());
  st.i1_size = static_cast<std::int64_t>(P.size());
  st.i2_size = static_cast<std::int64_t>(csets[0].size());

  std::vector<std::uint8_t> in_p(np, 0);
  for (const std::int32_t p : P) in_p[static_cast<std::size_t>(p)] = 1;

  for (std::int32_t round = 1; round <= K && !P.empty(); ++round) {
    // Type A: π-intersects some (≁)-interfering pair inside P (Eq. (2)).
    // Type B: not A, but (≁)-interferes with a non-A pair inside P (Eq. (3)).
    // Type C → deferred to Phase S2 as a (∼)-set (Observation 4.11).
    enum : std::uint8_t { kC, kA, kB };
    std::vector<std::uint8_t> type(np, kC);
    for (const std::int32_t p : P) {
      const auto pi = interference.pi_partners(p);
      if (std::any_of(pi.begin(), pi.end(), [&](std::int32_t q) {
            return in_p[static_cast<std::size_t>(q)] != 0;
          })) {
        type[static_cast<std::size_t>(p)] = kA;
      }
    }
    for (const std::int32_t p : P) {
      if (type[static_cast<std::size_t>(p)] == kC &&
          interference.any_partner(p, [&](std::int32_t q) {
            return in_p[static_cast<std::size_t>(q)] &&
                   type[static_cast<std::size_t>(q)] != kA;
          })) {
        type[static_cast<std::size_t>(p)] = kB;
      }
    }
    PairSet typed[3];  // by type, each ascending
    for (const std::int32_t p : P) {
      typed[type[static_cast<std::size_t>(p)]].push_back(p);
    }
    if (!typed[kC].empty()) csets.push_back(std::move(typed[kC]));

    // Per vertex and type J ∈ {A,B}: walk v's type-J pairs by increasing
    // distance of the failing edge from v (deepest edges first) and add
    // last edges until ⌈n^ε⌉ distinct ones were seen.
    for (const PairSet* t : {&typed[kA], &typed[kB]}) {
      for_each_terminal_run(
          *t, pairs, [&](Vertex, std::span<const std::int32_t> run) {
            std::unordered_set<EdgeId> distinct;
            // run is position-ascending; walk it deepest-first.
            for (auto it = run.rbegin(); it != run.rend(); ++it) {
              const EdgeId le =
                  pairs[static_cast<std::size_t>(*it)].last_edge;
              if (distinct.insert(le).second) {
                if (H.add(le)) ++st.s1_added_edges;
                if (static_cast<std::int64_t>(distinct.size()) >= threshold) {
                  break;
                }
              }
            }
          });
    }

    // P_{i+1} = type-A/B pairs whose last edge is still missing from H.
    PairSet next;
    for (const std::int32_t p : P) {
      if (type[static_cast<std::size_t>(p)] != kC &&
          !H.contains(pairs[static_cast<std::size_t>(p)].last_edge)) {
        next.push_back(p);
      }
      in_p[static_cast<std::size_t>(p)] = 0;
    }
    for (const std::int32_t p : next) in_p[static_cast<std::size_t>(p)] = 1;
    P = std::move(next);
  }
  // Lemma 4.10 predicts emptiness; leftovers (if any) merely stay
  // uncovered and surface as extra reinforcement below.
  st.s1_leftover_pairs = static_cast<std::int64_t>(P.size());
  st.num_csets = static_cast<std::int64_t>(csets.size());
  st.seconds_s1 = phase_timer.seconds();

  // ---------------------------------------------------------------- S2 --
  phase_timer.restart();
  const HeavyPathDecomposition hld(tree);

  // S2.1: last edges protecting the glue edges E−(TD), for every terminal.
  for (const UncoveredPair& p : pairs) {
    if (!hld.is_path_edge(p.e)) {
      if (H.add(p.last_edge)) ++st.s2_glue_added;
    }
  }

  // S2.2 + S2.3, per (∼)-set and terminal.
  for (const PairSet& cset : csets) {
    for_each_terminal_run(
        cset, pairs, [&](Vertex v, std::span<const std::int32_t> run) {
          const std::int32_t L = tree.depth(v);
          const std::vector<std::int32_t> bounds = halving_boundaries(L);
          const std::size_t num_segs = bounds.size() - 1;

          // Positions of the run's pairs are ascending; map to segments.
          auto seg_of = [&](std::int32_t pos) -> std::size_t {
            const auto it =
                std::upper_bound(bounds.begin(), bounds.end(), pos);
            return static_cast<std::size_t>(it - bounds.begin()) - 1;
          };

          // --- S2.2: light-segment flush + per-segment first pairs. -----
          std::size_t run_at = 0;
          for (std::size_t seg = 0; seg < num_segs; ++seg) {
            [[maybe_unused]] const std::int32_t lo = bounds[seg];
            const std::int32_t hi = bounds[seg + 1];
            const std::size_t seg_begin = run_at;
            std::unordered_set<EdgeId> distinct;
            while (run_at < run.size()) {
              const UncoveredPair& p =
                  pairs[static_cast<std::size_t>(run[run_at])];
              if (p.edge_pos >= hi) break;
              FTB_DCHECK(p.edge_pos >= lo);
              distinct.insert(p.last_edge);
              ++run_at;
            }
            if (seg_begin == run_at) continue;  // no pairs in this segment
            // e*_j: the pair protecting the upmost edge of the segment.
            if (H.add(pairs[static_cast<std::size_t>(run[seg_begin])]
                          .last_edge)) {
              ++st.s2_added_edges;
            }
            const bool light =
                static_cast<std::int64_t>(distinct.size()) < threshold;
            if (light && !opts.disable_s2_light_flush) {
              for (std::size_t i = seg_begin; i < run_at; ++i) {
                if (H.add(pairs[static_cast<std::size_t>(run[i])].last_edge)) {
                  ++st.s2_added_edges;
                }
              }
            }
          }

          // --- S2.3: tree-decomposition crossings. ----------------------
          if (opts.disable_s2_crossings) return;
          for (const auto& cr : hld.crossings(v)) {
            const HeavyPath& psi = hld.path(cr.path_id);
            const std::int32_t a = tree.depth(psi.vertices.front());
            const std::int32_t b = a + cr.deepest_pos;  // positions [a, b)
            if (a >= b) continue;  // intersection has no edges

            // Pairs of v (in this cset) with edge position in [a, b).
            const auto first = std::lower_bound(
                run.begin(), run.end(), a,
                [&](std::int32_t id, std::int32_t val) {
                  return pairs[static_cast<std::size_t>(id)].edge_pos < val;
                });
            const auto last = std::lower_bound(
                run.begin(), run.end(), b,
                [&](std::int32_t id, std::int32_t val) {
                  return pairs[static_cast<std::size_t>(id)].edge_pos < val;
                });
            if (first == last) continue;

            // e*: upmost protected edge of ψ ∩ π(s,v).
            if (H.add(pairs[static_cast<std::size_t>(*first)].last_edge)) {
              ++st.s2_added_edges;
            }

            // π_U / π_L: the first / last halving segment that meets the
            // crossing without being contained in it.
            const std::size_t seg_a = seg_of(a);
            const std::size_t seg_b = seg_of(b - 1);
            for (const std::size_t seg : {seg_a, seg_b}) {
              const std::int32_t lo = bounds[seg], hi = bounds[seg + 1];
              if (lo >= a && hi <= b) continue;  // π_j ⊆ ψ — skip
              const std::int32_t olo = std::max(lo, a);
              const std::int32_t ohi = std::min(hi, b);
              if (olo >= ohi) continue;
              const auto ofirst = std::lower_bound(
                  run.begin(), run.end(), olo,
                  [&](std::int32_t id, std::int32_t val) {
                    return pairs[static_cast<std::size_t>(id)].edge_pos < val;
                  });
              const auto olast = std::lower_bound(
                  run.begin(), run.end(), ohi,
                  [&](std::int32_t id, std::int32_t val) {
                    return pairs[static_cast<std::size_t>(id)].edge_pos < val;
                  });
              if (ofirst == olast) continue;
              // e*_U / e*_L.
              if (H.add(pairs[static_cast<std::size_t>(*ofirst)].last_edge)) {
                ++st.s2_added_edges;
              }
              std::unordered_set<EdgeId> distinct;
              for (auto it = ofirst; it != olast; ++it) {
                distinct.insert(pairs[static_cast<std::size_t>(*it)].last_edge);
              }
              if (static_cast<std::int64_t>(distinct.size()) <= threshold) {
                for (auto it = ofirst; it != olast; ++it) {
                  if (H.add(
                          pairs[static_cast<std::size_t>(*it)].last_edge)) {
                    ++st.s2_added_edges;
                  }
                }
              }
            }
          }
        });
  }
  st.seconds_s2 = phase_timer.seconds();

  // ----------------------------------------------------------- finalize --
  // Reinforce every tree edge that some terminal still cannot re-reach
  // through a stored last edge. Observation 2.2 makes everything else
  // provably protected.
  std::vector<std::uint8_t> unprotected(static_cast<std::size_t>(g.num_edges()),
                                        0);
  for (const UncoveredPair& p : pairs) {
    if (!H.contains(p.last_edge)) {
      unprotected[static_cast<std::size_t>(p.e)] = 1;
    }
  }
  std::vector<EdgeId> reinforced;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (unprotected[static_cast<std::size_t>(e)]) reinforced.push_back(e);
  }

  FtBfsStructure h(g, source, H.take_edges(), std::move(reinforced),
                   tree.tree_edges());
  st.structure_edges = h.num_edges();
  st.backup = h.num_backup();
  st.reinforced = h.num_reinforced();
  st.seconds_total = total_timer.seconds();
  return EpsilonResult{std::move(h), st};
}

}  // namespace ftb

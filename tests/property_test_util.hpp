// property_test_util.hpp — the seeded property-test harness.
//
// The dual-failure and fault-model suites used to hand-roll their family
// loops; this header replaces them with one reseedable generator set:
//
//  * four graph families (dense random, sparse random, long path with
//    chords, perturbed grid — the adversarial shapes differ in where
//    replacement paths can run), each deterministic in (n, seed);
//  * seeded fault-set samplers over the failure universe (every edge,
//    every non-source vertex) for single faults and unordered pairs;
//  * per-case seed reporting: every case knows the exact incantation that
//    reproduces it, tests install it via FTB_PROPERTY_TRACE so a CI
//    failure under `ctest --output-on-failure` prints ONE command
//    (FTBFS_PROPERTY_SEED=<seed> ctest -R <suite> --output-on-failure)
//    that replays the failing case locally.
//
// The base seed is fixed per suite but overridable through the
// FTBFS_PROPERTY_SEED environment variable — that is the reseed knob CI
// echoes back and soak runs can sweep.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/core/verifier.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/graph.hpp"
#include "src/util/rng.hpp"

namespace ftb::test {

/// The suite's base seed: FTBFS_PROPERTY_SEED when set (the CI repro
/// knob), else the caller's default.
inline std::uint64_t property_base_seed(std::uint64_t fallback = 1) {
  if (const char* env = std::getenv("FTBFS_PROPERTY_SEED")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return v;
  }
  return fallback;
}

/// The four graph families of the dual-failure property suites.
enum class GraphFamily : int {
  kDenseRandom = 0,  // random connected, m ≈ n^{1.35} (bench workload shape)
  kSparseRandom,     // random connected, m ≈ 2n — long detours, few of them
  kLongPath,         // path spine + seeded chords — the deep-tree adversary
  kGrid,             // 2-D grid + seeded diagonals — high-girth detours
};

inline const char* family_name(GraphFamily f) {
  switch (f) {
    case GraphFamily::kDenseRandom: return "dense_random";
    case GraphFamily::kSparseRandom: return "sparse_random";
    case GraphFamily::kLongPath: return "long_path";
    case GraphFamily::kGrid: return "grid";
  }
  return "unknown";
}

inline constexpr GraphFamily kAllFamilies[] = {
    GraphFamily::kDenseRandom, GraphFamily::kSparseRandom,
    GraphFamily::kLongPath, GraphFamily::kGrid};

/// Deterministic family instance: same (family, n, seed) — same graph.
inline Graph make_family_graph(GraphFamily f, Vertex n, std::uint64_t seed) {
  switch (f) {
    case GraphFamily::kDenseRandom: {
      const auto extra = static_cast<std::int64_t>(
          std::pow(static_cast<double>(n), 1.35));
      return gen::random_connected(n, extra, seed);
    }
    case GraphFamily::kSparseRandom:
      return gen::random_connected(n, 2 * static_cast<std::int64_t>(n), seed);
    case GraphFamily::kLongPath: {
      // Path spine with a few seeded chords: deep trees whose replacement
      // paths must run far around the failure.
      GraphBuilder b(n);
      for (Vertex v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
      Rng rng(seed ^ 0x10A6'0001ULL);
      const std::int64_t chords = std::max<std::int64_t>(2, n / 8);
      for (std::int64_t i = 0; i < chords; ++i) {
        const auto u = static_cast<Vertex>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        const auto v = static_cast<Vertex>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        if (u != v) b.add_edge(u, v);
      }
      return b.build();
    }
    case GraphFamily::kGrid: {
      // rows×cols ≈ n grid plus seeded diagonals.
      const auto rows = std::max<Vertex>(
          2, static_cast<Vertex>(std::sqrt(static_cast<double>(n))));
      const Vertex cols = std::max<Vertex>(2, n / rows);
      const Vertex nn = rows * cols;
      GraphBuilder b(nn);
      const auto id = [&](Vertex r, Vertex c) { return r * cols + c; };
      for (Vertex r = 0; r < rows; ++r) {
        for (Vertex c = 0; c < cols; ++c) {
          if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
          if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
        }
      }
      Rng rng(seed ^ 0x6121'0002ULL);
      const std::int64_t diags = std::max<std::int64_t>(1, nn / 10);
      for (std::int64_t i = 0; i < diags; ++i) {
        const auto r = static_cast<Vertex>(
            rng.next_below(static_cast<std::uint64_t>(rows - 1)));
        const auto c = static_cast<Vertex>(
            rng.next_below(static_cast<std::uint64_t>(cols - 1)));
        b.add_edge(id(r, c), id(r + 1, c + 1));
      }
      return b.build();
    }
  }
  return gen::path_graph(2);
}

/// One generated property case, carrying everything a failure report needs.
struct PropertyCase {
  GraphFamily family = GraphFamily::kDenseRandom;
  Vertex n = 0;           // requested size (grid may round)
  std::uint64_t seed = 0; // the exact per-case seed (derived from base)
  /// The sweep's base seed — what FTBFS_PROPERTY_SEED must be set to so
  /// property_cases() regenerates THIS case (per-case seeds are derived,
  /// so echoing `seed` itself would not round-trip).
  std::uint64_t base_seed = 0;
  Vertex source = 0;
  Graph graph;
  /// Optional explicit label (suites folding outside fixtures in set it);
  /// empty = derived from (family, n, seed, source).
  std::string label;

  std::string name() const {
    if (!label.empty()) return label;
    return std::string(family_name(family)) + "_n" + std::to_string(n) +
           "_s" + std::to_string(seed) +
           (source != 0 ? "_src" + std::to_string(source) : "");
  }
  /// The one-command reproduction CI failures echo (see FTB_PROPERTY_TRACE).
  /// Echoes the BASE seed: re-running the suite with it regenerates the
  /// whole sweep, this case included.
  std::string repro(const char* suite) const {
    return "property case " + name() + " (source " +
           std::to_string(source) + ") — reproduce with: FTBFS_PROPERTY_SEED=" +
           std::to_string(base_seed) + " ctest -R " + suite +
           " --output-on-failure";
  }
};

/// The sweep set: `seeds_per_family` cases of each family at size ~n, with
/// per-case seeds derived from `base_seed` (so FTBFS_PROPERTY_SEED shifts
/// the whole sweep). Sources vary with the seed to cover non-root anchors.
inline std::vector<PropertyCase> property_cases(
    Vertex n, int seeds_per_family,
    std::uint64_t base_seed = property_base_seed()) {
  std::vector<PropertyCase> out;
  for (const GraphFamily f : kAllFamilies) {
    for (int k = 0; k < seeds_per_family; ++k) {
      PropertyCase pc;
      pc.family = f;
      pc.n = n;
      pc.seed = base_seed + 1000 * static_cast<std::uint64_t>(k) +
                static_cast<std::uint64_t>(f);
      pc.base_seed = base_seed;
      pc.graph = make_family_graph(f, n, pc.seed);
      // Every case anchors at 0; odd seeds also exercise an interior
      // source on a second copy below.
      pc.source = 0;
      out.push_back(std::move(pc));
      if (k % 2 == 1) {
        PropertyCase mid = out.back();
        mid.source = mid.graph.num_vertices() / 2;
        out.push_back(std::move(mid));
      }
    }
  }
  return out;
}

/// Seeded sampler over the dual failure universe of (graph, source):
/// every edge, every non-source vertex — the verifier's failure_universe.
/// Deterministic in its seed.
class FaultSampler {
 public:
  FaultSampler(const Graph& g, Vertex source, std::uint64_t seed)
      : rng_(seed),
        universe_(failure_universe(g, source, FaultClass::kDual)) {}

  std::size_t universe_size() const { return universe_.size(); }
  const std::vector<DualSite>& universe() const { return universe_; }

  /// One uniformly sampled failure site.
  DualSite next_site() {
    return universe_[rng_.next_below(universe_.size())];
  }
  /// One unordered failure pair (doubled elements allowed — they exercise
  /// the single-failure degenerate on purpose).
  std::pair<DualSite, DualSite> next_pair() {
    DualSite a = next_site();
    DualSite b = next_site();
    if (b < a) std::swap(a, b);
    return {a, b};
  }
  /// A seeded batch of `count` pairs.
  std::vector<std::pair<DualSite, DualSite>> sample_pairs(std::int64_t count) {
    std::vector<std::pair<DualSite, DualSite>> out;
    out.reserve(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) out.push_back(next_pair());
    return out;
  }

 private:
  Rng rng_;
  std::vector<DualSite> universe_;
};

/// Installs the case's reproduction line into the gtest trace so any
/// assertion failing below it prints the one-command repro under
/// `ctest --output-on-failure`.
#define FTB_PROPERTY_TRACE(pc, suite) SCOPED_TRACE((pc).repro(suite))

}  // namespace ftb::test

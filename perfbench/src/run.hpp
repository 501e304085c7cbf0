// run.hpp — what one benchmark run hands from its end-to-end phases to the
// traced per-layer measurements, and the metric list both fill.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

struct RunState {
  const Workload* w = nullptr;
  bool tiny = false;
  std::uint64_t seed = 0;
  ftb::ThreadPool* pool = nullptr;
  const Inputs* in = nullptr;
  ftb::api::BuildSpec spec;
  /// The v6 artifact this run wrote and served from.
  std::string artifact;
  const ftb::api::Session* session = nullptr;
  /// Per timed build: the ε pipeline's stats summed over the sources.
  std::vector<ftb::EpsilonStats> eps_stats;
  /// Per setup repetition.
  std::vector<double> load_s, first_batch_s;
  /// Serving-plane counters summed over the serve phase.
  std::int64_t what_if_traversals = 0, pair_traversals = 0;
  std::int64_t pair_cache_hits = 0, pair_cache_misses = 0;
};

/// Times one call into each library layer (graph kernels, fault-model
/// engines, ε pipeline, dual site work, binary io, session, query plane,
/// thread pool) and appends the per-layer metrics. Layers the workload
/// itself bypasses (the ε pipeline's S1/S2 on dual_rmat and mbfs_whatif,
/// the dual site work on eps_rmat and mbfs_whatif) are timed on a small
/// probe graph instead, so every metric is always measured.
void measure_layers(const RunState& st, Tracer& tr, Metrics& out);

}  // namespace perfbench

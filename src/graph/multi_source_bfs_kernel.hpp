// multi_source_bfs_kernel.hpp — one canonical label set per source, as a
// loop over the fused canonical kernel (canonical_sp_run in bfs_kernel.hpp).
// It serves the end-to-end benchmark's multi-source layer probe
// (perfbench/src/layers.cpp includes this header by path). Library code
// builds each source's tree directly as BfsTree(g, weights, source): a
// bit-parallel multi-source sweep measured slower than σ runs of that
// kernel (docs/perf.md §4), so no kernel fuses the sources.
#pragma once

#include <span>
#include <vector>

#include "src/graph/bfs_kernel.hpp"
#include "src/graph/canonical_bfs.hpp"
#include "src/graph/graph.hpp"

namespace ftb {

/// One source of a multi-source canonical build.
struct BfsLane {
  Vertex source = kInvalidVertex;
};

/// One materialized canonical label set per lane: element i equals
/// canonical_sp(g, weights, lanes[i].source) field for field. A loop over
/// canonical_sp_fused; it exists for the benchmark's layer probe.
inline std::vector<CanonicalSp> ms_canonical_sp(const Graph& g,
                                                const EdgeWeights& weights,
                                                std::span<const BfsLane> lanes) {
  std::vector<CanonicalSp> out;
  out.reserve(lanes.size());
  for (const BfsLane& lane : lanes) {
    out.push_back(canonical_sp_fused(g, weights, lane.source));
  }
  return out;
}

}  // namespace ftb

// validate.hpp — the one place build inputs are checked.
//
// Every build entry point — the ftb::api facade (and through it the CLI)
// and the cost-model sweep — funnels its (ε, source set) inputs through
// these helpers, so a bad input produces the SAME CheckError message shape
// everywhere:
//
//   invalid BuildSpec: <what is wrong> (got <value>)
//
// Historically each entry point failed differently (the ε builder had its
// own range text, the multi-source builders only checked emptiness, NaN
// slipped through the < comparisons with a misleading message downstream).
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/util/check.hpp"

namespace ftb::detail {

/// ε must be a finite value in [0, 1]. Rejects NaN explicitly (NaN fails
/// every comparison, which used to surface as a confusing range message).
inline void check_epsilon(double eps) {
  FTB_CHECK_MSG(std::isfinite(eps),
                "invalid BuildSpec: eps must be a finite value in [0, 1] "
                "(got a non-finite value)");
  FTB_CHECK_MSG(eps >= 0.0 && eps <= 1.0,
                "invalid BuildSpec: eps must be a finite value in [0, 1] "
                "(got " << eps << ")");
}

/// The source set must be non-empty, in range, and duplicate-free.
inline void check_sources(const Graph& g, std::span<const Vertex> sources) {
  FTB_CHECK_MSG(!sources.empty(),
                "invalid BuildSpec: source set must not be empty");
  for (const Vertex s : sources) {
    FTB_CHECK_MSG(s >= 0 && s < g.num_vertices(),
                  "invalid BuildSpec: source out of range [0, "
                      << g.num_vertices() << ") (got " << s << ")");
  }
  std::vector<Vertex> sorted(sources.begin(), sources.end());
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  FTB_CHECK_MSG(dup == sorted.end(),
                "invalid BuildSpec: duplicate source (got "
                    << (dup == sorted.end() ? Vertex{0} : *dup) << ")");
}

}  // namespace ftb::detail

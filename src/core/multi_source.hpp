// multi_source.hpp — verifiers of (b, r) FT-MBFS structures: one subgraph
// serving every source s ∈ S (paper §5, multiple-sources part).
//
// ftb::api::build makes them as the union of the per-source structures —
// the construction the paper measures its Theorem 5.4 lower bound
// against. An edge is reinforced in the union if *any* source requires it
// reinforced (a reinforced edge never fails, so this only helps the other
// sources); the contract checked here is
//
//   dist(s, v, H \ {e}) = dist(s, v, G \ {e})
//                       ∀ s ∈ S, ∀ v ∈ V, ∀ e ∈ E(G) \ E'.
#pragma once

#include <cstdint>
#include <span>

#include "src/core/structure.hpp"

namespace ftb {

/// Verifies the multi-source edge contract of `h` (per-source
/// verify_structure on its edge set, for each of `sources`). Returns the
/// number of violations (0 = correct).
std::int64_t verify_multi_source(const FtBfsStructure& h,
                                 std::span<const Vertex> sources,
                                 std::int64_t max_failures_per_source = -1);

/// Vertex-fault analog: per-source verify_vertex_structure on the edge set
/// of `h`. Returns the number of violations (0 = correct).
std::int64_t verify_vertex_multi_source(
    const FtBfsStructure& h, std::span<const Vertex> sources,
    std::int64_t max_failures_per_source = -1);

}  // namespace ftb

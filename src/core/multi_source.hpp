// multi_source.hpp — (b, r) FT-MBFS structures: one ε FT-BFS per source
// s ∈ S inside a single subgraph (paper §5, multiple-sources part).
//
// Upper bound: the union of the per-source structures — the construction
// the paper measures its Theorem 5.4 lower bound against. An edge is
// reinforced in the union if *any* source requires it reinforced (a
// reinforced edge never fails, so this only helps the other sources); the
// contract is
//
//   dist(s, v, H \ {e}) = dist(s, v, G \ {e})
//                       ∀ s ∈ S, ∀ v ∈ V, ∀ e ∈ E(G) \ E'.
#pragma once

#include <span>
#include <vector>

#include "src/core/epsilon_ftbfs.hpp"
#include "src/core/structure.hpp"
#include "src/core/vertex_ftbfs.hpp"

namespace ftb {

/// The ε union over a source set: one shared structure plus the
/// per-source ε pipeline stats.
struct MultiSourceResult {
  /// Union structure; `structure.source()` is the first source (the
  /// distance contract is enforced per source by verify_multi_source).
  FtBfsStructure structure;
  /// Per-source construction stats, aligned with the source set.
  std::vector<EpsilonStats> per_source;
};

namespace detail {
/// The union pipelines ftb::api::build dispatches to, for every σ ≥ 1 (a
/// single source's structure is returned as built). Validate through
/// validate.hpp.
MultiSourceResult build_epsilon_ftmbfs_impl(const Graph& g,
                                            const std::vector<Vertex>& sources,
                                            const EpsilonOptions& opts);
/// The vertex-fault union (§5's union pattern applied to the ESA'13 vertex
/// baseline): for every s ∈ S and every failing vertex x ∉ {s},
/// dist(s,v,H\{x}) = dist(s,v,G\{x}).
FtBfsStructure build_vertex_ftmbfs_impl(const Graph& g,
                                        const std::vector<Vertex>& sources,
                                        const VertexFtBfsOptions& opts);
/// The multi-source "either" union: per-source edge ∪ vertex single-fault
/// structures, all merged (§5's union pattern applied to both kinds at
/// once), tagged FaultClass::kEither.
FtBfsStructure build_either_ftmbfs_impl(const Graph& g,
                                        const std::vector<Vertex>& sources,
                                        const VertexFtBfsOptions& opts);
}  // namespace detail

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

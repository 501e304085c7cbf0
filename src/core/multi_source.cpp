#include "src/core/multi_source.hpp"

#include "src/core/verifier.hpp"
#include "src/core/vertex_ftbfs.hpp"

namespace ftb {

std::int64_t verify_multi_source(const FtBfsStructure& h,
                                 std::span<const Vertex> sources,
                                 std::int64_t max_failures_per_source) {
  std::int64_t violations = 0;
  for (const Vertex s : sources) {
    // Re-anchor the union structure at source s: same edge partition, but
    // the per-source tree must be recomputed, so verify against the union
    // edge set directly through a fresh per-source view.
    // (The union contains each per-source T0, so the tree_edges of the
    // merged structure are a superset of any single tree; we hand the
    // verifier the union's tree list — every tree edge of every source is
    // in it, so all relevant failures are covered.)
    FtBfsStructure view(h.graph(), s, h.edges(), h.reinforced(),
                        h.tree_edges());
    VerifyOptions vo;
    vo.max_failures = max_failures_per_source;
    const VerifyReport rep = verify_structure(view, vo);
    violations += rep.violations;
  }
  return violations;
}

std::int64_t verify_vertex_multi_source(const FtBfsStructure& h,
                                        std::span<const Vertex> sources,
                                        std::int64_t max_failures_per_source) {
  std::int64_t violations = 0;
  for (const Vertex s : sources) {
    // Same re-anchoring as the edge verifier: the union edge set viewed
    // from source s; verify_vertex_structure sweeps every failing vertex
    // x ≠ s against literal BFS.
    FtBfsStructure view(h.graph(), s, h.edges(), h.reinforced(),
                        h.tree_edges(), FaultClass::kVertex);
    violations += verify_vertex_structure(view, max_failures_per_source);
  }
  return violations;
}

}  // namespace ftb

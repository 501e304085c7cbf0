// vertex_ftbfs.hpp — FT-BFS structures against single VERTEX failures.
//
// The companion setting of ref. [14] (Parter–Peleg ESA'13 treats both edge
// and vertex faults; this paper's model extends the same way): a subgraph
// H ⊆ G such that for every failing vertex x ≠ s,
//
//   dist(s, v, H \ {x}) = dist(s, v, G \ {x})       for every v ∈ V.
//
// The whole edge-fault engine carries over with two policy changes (proofs
// mirror the edge case; see DESIGN.md and fault_model.hpp):
//   * distance tables come from one BFS of G \ {x} per internal tree
//     vertex x, stored for the vertices of subtree(x);
//   * for a pair ⟨v, x⟩ with x = u_i on π(s,v), divergence candidates are
//     u_j with j ≤ i−1 (strictly above the failed vertex), and the same
//     off-path detour table detlen(j) applies verbatim — an uncovered
//     pair's shortest replacement path never re-touches π(s,v) below x
//     (same exchange argument as for edges).
// Those two decisions ARE the VertexFault policy of fault_model.hpp; the
// engine body is shared with the edge model. The structure
// H = T0 ∪ {last edges} is then correct by the vertex analog of
// Observation 2.2, which verify_structure() (verifier.hpp) re-checks
// exhaustively against literal BFS.
#pragma once

#include "src/core/fault_model.hpp"
#include "src/core/structure.hpp"

namespace ftb {

/// Phase-S0 engine for vertex faults (the shared engine under the
/// VertexFault policy).
using VertexReplacementEngine = FaultReplacementEngine<VertexFault>;

namespace detail {
/// Pipeline implementations the ftb::api facade dispatches to, one per
/// source on an already-built canonical tree (its source and weights);
/// `pool` = nullptr runs on the global pool.
FtBfsStructure build_vertex_ftbfs_impl(const BfsTree& tree, ThreadPool* pool);
/// The "either" union: one structure surviving ONE failure of either kind
/// (edge FT-BFS ∪ vertex FT-BFS, both halves on this one tree), tagged
/// FaultClass::kEither. This is what pre-dual releases called the dual
/// model; the two-simultaneous-failure pipeline lives in dual_fault.hpp.
FtBfsStructure build_either_ftbfs_impl(const BfsTree& tree, ThreadPool* pool);
}  // namespace detail

/// The O(n^{3/2}) vertex-fault FT-BFS baseline
/// H = T0 ∪ {LastE(P_{v,x}) : ⟨v,x⟩ uncovered}, reusing an already-built
/// vertex-fault engine: the S0-reuse composition point internal pipelines
/// build on. (A graph-level build is ftb::api::build(graph, BuildSpec) with
/// fault_model = kVertex.)
FtBfsStructure build_vertex_ftbfs(const VertexReplacementEngine& engine);

/// The either structure from its two halves on one tree: `edge_half` =
/// build_ftbfs(edge engine), `vertex_half` = build_vertex_ftbfs(vertex
/// engine), merged and tagged FaultClass::kEither. The composition point
/// build_either_ftbfs_impl and the differential referees share.
FtBfsStructure build_either_ftbfs(const FtBfsStructure& edge_half,
                                  const FtBfsStructure& vertex_half);

}  // namespace ftb

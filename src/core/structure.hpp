// structure.hpp — the (b, r) FT-BFS structure H, the object every
// construction in this library emits.
//
// H is a subgraph of G given by an edge subset, partitioned into
//   * reinforced edges E' (assumed to never fail; the r(n) of the paper),
//   * backup edges E(H) \ E' (fault-prone; the b(n) of the paper),
// together with the BFS tree T0 ⊆ H it was built around. The contract
// (Definition 2.1) is:
//
//   dist(s, v, H \ {e}) = dist(s, v, G \ {e})   ∀ v ∈ V, ∀ e ∈ E(G) \ E'.
//
// Use core/verifier.hpp to check the contract exhaustively.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.hpp"

namespace ftb {

/// The failure model a structure was built to survive.
///   * kEdge   — Definition 2.1 verbatim: one edge failure.
///   * kVertex — the companion ESA'13 analog: one vertex failure
///               (dist(s,v,H\{x}) = dist(s,v,G\{x}) for every x ≠ s).
///   * kEither — ONE failure of either kind (the edge ∪ vertex union;
///               this is what the pre-dual releases called "dual").
///   * kDual   — TWO simultaneous failures, each an edge or a vertex
///               (Parter, arXiv:1505.00692; Gupta–Khan, arXiv:1704.06907):
///               dist(s,v,H\{f1,f2}) = dist(s,v,G\{f1,f2}) for every pair
///               {f1,f2} with no failing source vertex.
/// The tag travels with the serialized artifact so the serving stack
/// (oracle, simulator, CLI) picks the right verifier/drill.
enum class FaultClass : std::uint8_t {
  kEdge = 0,
  kVertex = 1,
  kDual = 2,
  kEither = 3,
};

/// "edge" / "vertex" / "dual" / "either".
const char* to_string(FaultClass fc);
/// Inverse of to_string. Throws CheckError on anything else. (structure_io
/// additionally maps the tag "dual" in pre-v4 artifacts to kEither, which
/// is what those files meant.)
FaultClass parse_fault_class(const std::string& tag);

/// An FT-BFS structure (see file comment). Immutable after construction.
class FtBfsStructure {
 public:
  /// `edges` is E(H) (must include all of `tree_edges`); `reinforced` is
  /// E' ⊆ E(H). All vectors are deduplicated and sorted internally.
  FtBfsStructure(const Graph& g, Vertex source, std::vector<EdgeId> edges,
                 std::vector<EdgeId> reinforced,
                 std::vector<EdgeId> tree_edges,
                 FaultClass fault_class = FaultClass::kEdge);

  const Graph& graph() const { return *g_; }
  Vertex source() const { return source_; }
  /// The failure model this structure protects against.
  FaultClass fault_class() const { return fault_class_; }

  /// E(H), sorted ascending.
  const std::vector<EdgeId>& edges() const { return edges_; }
  /// E' ⊆ E(H), sorted ascending.
  const std::vector<EdgeId>& reinforced() const { return reinforced_; }
  /// The BFS tree T0 the structure was built around (⊆ E(H)).
  const std::vector<EdgeId>& tree_edges() const { return tree_edges_; }

  bool contains(EdgeId e) const {
    return in_h_[static_cast<std::size_t>(e)] != 0;
  }
  bool is_reinforced(EdgeId e) const {
    return is_reinf_[static_cast<std::size_t>(e)] != 0;
  }

  std::int64_t num_edges() const {
    return static_cast<std::int64_t>(edges_.size());
  }
  /// r(n).
  std::int64_t num_reinforced() const {
    return static_cast<std::int64_t>(reinforced_.size());
  }
  /// b(n) = |E(H)| − r(n).
  std::int64_t num_backup() const { return num_edges() - num_reinforced(); }

  /// Total monetary cost under prices (B, R) — the paper's B·b + R·r.
  double cost(double backup_price, double reinforce_price) const {
    return backup_price * static_cast<double>(num_backup()) +
           reinforce_price * static_cast<double>(num_reinforced());
  }

  /// Hop distances from the source inside H \ {failed} (pass kInvalidEdge
  /// for the failure-free structure). O(n + m).
  std::vector<std::int32_t> distances_avoiding(EdgeId failed) const;

  /// Edge-membership mask over E(G): 1 where the edge is *outside* H.
  /// (Shape required by BfsBans::banned_edge_mask.)
  const std::vector<std::uint8_t>& complement_mask() const {
    return out_of_h_;
  }

  /// "FtBfs(n=…, |H|=…, b=…, r=…)".
  std::string summary() const;

 private:
  const Graph* g_;
  Vertex source_;
  FaultClass fault_class_;
  std::vector<EdgeId> edges_;
  std::vector<EdgeId> reinforced_;
  std::vector<EdgeId> tree_edges_;
  std::vector<std::uint8_t> in_h_;      // per EdgeId
  std::vector<std::uint8_t> is_reinf_;  // per EdgeId
  std::vector<std::uint8_t> out_of_h_;  // per EdgeId (== !in_h_)
};

}  // namespace ftb

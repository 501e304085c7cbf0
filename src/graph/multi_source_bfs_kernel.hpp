// multi_source_bfs_kernel.hpp — the bit-parallel multi-source BFS kernel
// and its epoch-stamped lane scratch.
//
// The FT-MBFS unions, Session's tree rebuilds, and the unpruned dual
// referee's punctured rebuilds all run σ independent BFS traversals whose
// frontiers overlap heavily. This kernel fuses them (MS-BFS, Then et al.,
// VLDB'14 / the masked-SpMV idiom): each vertex carries a σ-wide frontier
// bitset — one uint64_t lane word for σ ≤ 64, ⌈σ/64⌉ striped words
// beyond — and one level-synchronous sweep over the CSR advances every
// lane at once, so up to 64 sources pay a single pass over the adjacency
// arrays.
//
// Determinism contract: per lane, the extracted (dist, parent, parent_edge,
// order) labels are bit-identical to a scalar bfs_run of that lane's
// (source, bans). The scalar rule — order lists the source then each
// level's vertices ascending by id; parent[v] is the minimum-id admissible
// neighbor of v in the previous level — is preserved because every lane's
// source sits at level 0 (so all lanes share the global level counter), the
// fused frontier is expanded in ascending vertex order, and a lane claims a
// vertex on the first admissible arc that reaches it: the minimum-id
// previous-level neighbor of that lane.
//
// Bans are honored per lane (bans differ per punctured run): the scalar
// bans of each lane (banned_edge / banned_edge2 / banned_vertex_one) are
// compiled into σ-wide mask words keyed by edge/vertex, and the rare
// pointer-mask bans fall back to a per-lane check on the claiming arc.
//
// Like BfsScratch, the kernel is an epoch-stamped arena: per-vertex lane
// words are validated by stamp_[v] == epoch_ and lazily zeroed on first
// touch, so a steady-state run allocates nothing. It is default-
// constructible and reusable, i.e. FreeListPool-compatible — a process-wide
// pool (multi_source_kernel_pool) keeps warm kernels circulating.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/graph/bfs_kernel.hpp"
#include "src/graph/canonical_bfs.hpp"
#include "src/graph/graph.hpp"
#include "src/util/free_list_pool.hpp"

namespace ftb {

/// One lane of a fused run: the (source, bans) pair the equivalent scalar
/// bfs_run would have been called with. Lanes may share a source (the dual
/// pipeline batches same-source punctured runs with different bans).
struct BfsLane {
  Vertex source = kInvalidVertex;
  BfsBans bans;
};

class MultiSourceBfsKernel {
 public:
  /// Fused level-synchronous sweep over all lanes. Results are readable
  /// until the next run on the same kernel; a steady-state run allocates
  /// nothing. Checks per lane that the source is valid and not banned in
  /// its own lane (same contract as bfs_run).
  void run(const Graph& g, std::span<const BfsLane> lanes);

  std::size_t num_lanes() const { return num_lanes_; }

  /// Per-lane accessors, mirroring BfsScratch.
  bool visited(std::size_t lane, Vertex v) const {
    const std::size_t vi = static_cast<std::size_t>(v);
    return stamp_[vi] == epoch_ &&
           ((visited_[vi * words_ + (lane >> 6)] >> (lane & 63)) & 1u) != 0;
  }
  std::int32_t dist(std::size_t lane, Vertex v) const {
    return visited(lane, v) ? dist_[static_cast<std::size_t>(v) * num_lanes_ + lane]
                            : kInfHops;
  }
  Vertex parent(std::size_t lane, Vertex v) const {
    return visited(lane, v) ? parent_[static_cast<std::size_t>(v) * num_lanes_ + lane]
                            : kInvalidVertex;
  }
  EdgeId parent_edge(std::size_t lane, Vertex v) const {
    return visited(lane, v)
               ? parent_edge_[static_cast<std::size_t>(v) * num_lanes_ + lane]
               : kInvalidEdge;
  }
  /// Lane's visited vertices: source first, then level by level ascending
  /// by id — bit-identical to the scalar kernel's order.
  std::span<const Vertex> order(std::size_t lane) const {
    return order_[lane];
  }

  const BfsKernelStats& stats() const { return stats_; }

  /// Test hook: fast-forward the epoch counter to just before wraparound so
  /// the wrap path (full stamp reset) can be exercised.
  void debug_set_epoch_near_wrap();

 private:
  /// Bumps the epoch and (re)sizes the per-vertex/per-lane arrays;
  /// O(σ) steady-state.
  void prepare(std::size_t n, std::size_t sigma);
  /// Lazily zeroes v's visited words on first touch this epoch. front_ and
  /// next_ need no stamp: they hold an all-zero-between-runs invariant (the
  /// consume/commit phases zero exactly what a run sets), so the hot loops
  /// read them unguarded.
  void touch(std::size_t vi) {
    if (stamp_[vi] == epoch_) return;
    stamp_[vi] = epoch_;
    const std::size_t base = vi * words_;
    for (std::size_t w = 0; w < words_; ++w) visited_[base + w] = 0;
  }
  /// Compiles the lanes' bans into σ-wide mask words.
  void build_ban_tables(std::span<const BfsLane> lanes);
  /// σ-wide ban mask for edge e / vertex v, or nullptr when no lane bans it.
  const std::uint64_t* edge_ban_words(EdgeId e) const {
    const auto it = edge_ban_.find(e);
    return it == edge_ban_.end() ? nullptr : ban_words_.data() + it->second;
  }
  const std::uint64_t* vertex_ban_words(Vertex v) const {
    const auto it = vertex_ban_.find(v);
    return it == vertex_ban_.end() ? nullptr : ban_words_.data() + it->second;
  }

  std::size_t n_ = 0;          // vertices of the last run
  std::size_t num_lanes_ = 0;  // σ of the last run
  std::size_t words_ = 0;      // ⌈σ/64⌉ lane words per vertex

  std::vector<std::uint32_t> stamp_;  // lane words valid iff == epoch_
  std::uint32_t epoch_ = 0;
  std::vector<std::uint64_t> visited_;  // [v * words_ + w]
  std::vector<std::uint64_t> front_;    // current level's frontier bits
  std::vector<std::uint64_t> next_;     // next level's claims
  std::vector<Vertex> cur_list_;        // vertices with any front_ bit
  std::vector<Vertex> next_list_;       // vertices with any next_ bit
  std::vector<std::uint64_t> need_;     // bottom-up: lanes still wanting v

  // Vertex-major labels (all lanes of a vertex share cache lines — claims
  // cluster by vertex), valid only where the visited bit is set.
  std::vector<std::int32_t> dist_;    // [v * num_lanes_ + lane]
  std::vector<Vertex> parent_;        // [v * num_lanes_ + lane]
  std::vector<EdgeId> parent_edge_;   // [v * num_lanes_ + lane]
  std::vector<std::vector<Vertex>> order_;

  // Compiled per-lane bans: scalar bans become σ-wide mask words keyed by
  // edge/vertex; pointer-mask bans (rare) are checked per claiming arc.
  struct PtrBanLane {
    std::size_t word;
    std::uint64_t bit;
    const std::vector<std::uint8_t>* edge_mask;    // may be null
    const std::vector<std::uint8_t>* vertex_mask;  // may be null
  };
  std::unordered_map<EdgeId, std::size_t> edge_ban_;     // -> ban_words_ off
  std::unordered_map<Vertex, std::size_t> vertex_ban_;   // -> ban_words_ off
  std::vector<std::uint64_t> ban_words_;
  std::vector<PtrBanLane> ptr_bans_;
  bool has_edge_bans_ = false;
  bool has_vertex_bans_ = false;

  BfsKernelStats stats_;
};

/// Fused multi-source canonical shortest paths: one bit-parallel hop sweep
/// over all lanes, then the shared canonical parent rule
/// (pick_canonical_parent) replayed per lane in layer order. Element i is
/// bit-identical to canonical_sp(g, weights, lanes[i].source,
/// lanes[i].bans) — the fusion seam the multi-source pipelines build their
/// trees from.
std::vector<CanonicalSp> ms_canonical_sp(const Graph& g,
                                         const EdgeWeights& weights,
                                         std::span<const BfsLane> lanes,
                                         MultiSourceBfsKernel& kernel);

/// Same, leasing a kernel from the process-wide pool.
std::vector<CanonicalSp> ms_canonical_sp(const Graph& g,
                                         const EdgeWeights& weights,
                                         std::span<const BfsLane> lanes);

/// THE canonical-tree builder of every multi-source pipeline: one canonical
/// label set per source, element i bit-identical to
/// canonical_sp(g, weights, sources[i]). σ ≥ 2 sources fuse into one
/// ms_canonical_sp sweep; a single source runs the scalar canonical_sp.
std::vector<CanonicalSp> canonical_source_sps(const Graph& g,
                                              const EdgeWeights& weights,
                                              std::span<const Vertex> sources);

/// Process-wide pool of warm kernels (lock-free; see free_list_pool.hpp).
const FreeListPool<MultiSourceBfsKernel>& multi_source_kernel_pool();

using MsKernelLease = PoolLease<MultiSourceBfsKernel>;

}  // namespace ftb

// fault_model.cpp — the replacement table and the S0 engine bodies,
// instantiated once per fault model. This is the file the two historical
// engines (replacement.cpp and the engine half of vertex_ftbfs.cpp)
// collapsed into; the policy hooks in fault_model.hpp are the only thing
// that differs between the models.
#include "src/core/fault_model.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <span>
#include <type_traits>

#include "src/core/dist_sweep.hpp"
#include "src/graph/bfs_kernel.hpp"
#include "src/util/free_list_pool.hpp"
#include "src/util/timer.hpp"

namespace ftb {

namespace {

/// Per-divergence-candidate detour summary (see build_pairs).
struct DetourCandidate {
  std::int32_t hops = kInfHops;      // detour length from u_j to v
  std::uint64_t wsum = 0;            // tie-break weight of the detour
  Vertex entry = kInvalidVertex;     // last vertex before v
  EdgeId last_edge = kInvalidEdge;   // edge (entry, v)
  Vertex via = kInvalidVertex;       // first off-path vertex (v for direct)

  bool valid() const { return hops < kInfHops; }

  /// Lexicographic (hops, wsum, entry, last_edge, via) order: a total
  /// order on one u_j's candidates (each via gives at most one), so the
  /// winner does not depend on the order they are enumerated in.
  bool better_than(const DetourCandidate& o) const {
    if (hops != o.hops) return hops < o.hops;
    if (wsum != o.wsum) return wsum < o.wsum;
    if (entry != o.entry) return entry < o.entry;
    if (last_edge != o.last_edge) return last_edge < o.last_edge;
    return via < o.via;
  }
};

/// Whether `Tree` materializes every derived array (preorder() included),
/// as the full engine's site enumeration needs.
template <class Tree>
constexpr bool kFullTree = std::is_same_v<Tree, BfsTree>;

/// Row v holds the failures of the positions [kFirstPos, depth(v)) of
/// π(s,v) — depth(v) rows for edge faults, depth(v)−1 for vertex faults
/// (the source and the terminal itself never seed a row).
template <class Model, class Tree>
std::int32_t row_count(const Tree& tree, Vertex v) {
  const std::int32_t d = tree.depth(v);
  return d >= kInfHops ? 0 : std::max<std::int32_t>(0, d - Model::kFirstPos);
}

}  // namespace

namespace detail {

struct RestrictedIndex {
  std::vector<std::uint32_t> row_stamp;   // == epoch: vertex has rows
  std::vector<std::uint32_t> site_stamp;  // == epoch: sweep site collected
  std::vector<std::int64_t> row_offset;   // first row of a row vertex
  std::vector<std::int64_t> pairs_offset;  // n + 1, valid at terminals v, v+1
  std::uint32_t epoch = 0;

  /// Opens a fresh epoch over n vertices; grows (and zero-fills) only when
  /// n exceeds every earlier lease of this object.
  void begin(std::size_t n) {
    if (row_stamp.size() < n) {
      row_stamp.assign(n, 0);
      site_stamp.assign(n, 0);
      row_offset.resize(n);
      pairs_offset.resize(n + 1);
      epoch = 0;
    }
    if (epoch == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(row_stamp.begin(), row_stamp.end(), 0);
      std::fill(site_stamp.begin(), site_stamp.end(), 0);
      epoch = 0;
    }
    ++epoch;
  }
};

namespace {
const FreeListPool<RestrictedIndex>& restricted_index_pool() {
  static const FreeListPool<RestrictedIndex> pool;
  return pool;
}
}  // namespace

void RestrictedIndexRelease::operator()(RestrictedIndex* index) const {
  restricted_index_pool().release(std::unique_ptr<RestrictedIndex>(index));
}

}  // namespace detail

template <class Model, class Tree>
ReplacementTable<Model, Tree>::ReplacementTable(const Tree& tree,
                                                const Config& cfg)
    : tree_(&tree) {
  FTB_CHECK_MSG(kFullTree<Tree> || !cfg.restrict_terminals.empty(),
                "a punctured-tree overlay serves restricted tables only");
  // Ambient-failure preconditions: at most one punctured element, and the
  // tree must actually be the canonical tree of that punctured graph —
  // otherwise every table row would answer for a different G'.
  FTB_CHECK_MSG(cfg.ambient_banned_edge == kInvalidEdge ||
                    cfg.ambient_banned_vertex == kInvalidVertex,
                "at most one ambient failure per table");
  FTB_CHECK_MSG(cfg.ambient_banned_vertex == kInvalidVertex ||
                    !tree.reachable(cfg.ambient_banned_vertex),
                "ambient vertex is reachable — the tree is not the "
                "punctured graph's canonical tree");
  FTB_CHECK_MSG(cfg.ambient_banned_edge == kInvalidEdge ||
                    !tree.is_tree_edge(cfg.ambient_banned_edge),
                "ambient edge is a tree edge — the tree is not the "
                "punctured graph's canonical tree");
  const Timer t;
  build_dist_tables(cfg, cfg.pool != nullptr ? *cfg.pool : ThreadPool::global());
  seconds_ = t.seconds();
}

template <class Model, class Tree>
FaultReplacementEngine<Model, Tree>::FaultReplacementEngine(const Tree& tree,
                                                            Config cfg)
    : cfg_(cfg), table_(tree, cfg_) {
  stats_.pairs_total = table_.pairs_total();
  stats_.seconds_dist_tables = table_.seconds();
  const Timer t;
  build_pairs(cfg_.pool != nullptr ? *cfg_.pool : ThreadPool::global());
  stats_.seconds_detours = t.seconds();
}

template <class Model, class Tree>
void ReplacementTable<Model, Tree>::build_dist_tables(const Config& cfg,
                                                      ThreadPool& pool) {
  const Graph& g = tree_->graph();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());

  // Terminal restriction, on the leased index (epoch-stamped, so nothing
  // here is filled over n):
  //  * row vertices — vertices whose table rows the restricted
  //    classification reads: the terminals themselves plus their tree
  //    parents (children of a restricted terminal are restricted too — the
  //    set is children-closed). Only they get rows, so the table costs the
  //    restriction's volume, not Σ_v depth(v).
  //  * sweep_sites — fault sites with a restricted terminal in their
  //    subtree (the terminals' ancestors-or-selves): the only sweeps whose
  //    rows anyone reads, collected by path walks below.
  const bool restricted = !cfg.restrict_terminals.empty();
  std::vector<Vertex> row_vertices;  // restricted: the vertices with rows
  std::vector<Vertex> sweep_sites;   // restricted: exactly the needed sites
  detail::RestrictedIndex* index = nullptr;
  if (restricted) {
    index_.reset(detail::restricted_index_pool().acquire().release());
    index = index_.get();
    index->begin(n);
    const auto need_row = [&](Vertex v) {
      std::uint32_t& stamp = index->row_stamp[static_cast<std::size_t>(v)];
      if (stamp == index->epoch) return;
      stamp = index->epoch;
      row_vertices.push_back(v);
    };
    for (const Vertex v : cfg.restrict_terminals) {
      if (!tree_->reachable(v)) continue;
      need_row(v);
      const Vertex p = tree_->parent(v);
      if (p != kInvalidVertex) need_row(p);
      // Collect the terminal's tree path to the source, stopping at the
      // first vertex a previous walk already claimed: the union of the
      // walks is exactly the ancestor-or-equal closure of the terminals —
      // the only sweep sites whose rows anyone reads — and its total cost
      // is the closure's size, not an O(n) reverse-preorder sweep. That
      // keeps a restricted engine's site scan at the restriction's volume
      // (the pruned dual build constructs two engines per first-failure
      // site, so an O(n) scan here turns the whole build quadratic).
      for (Vertex u = v; u != kInvalidVertex; u = tree_->parent(u)) {
        std::uint32_t& stamp = index->site_stamp[static_cast<std::size_t>(u)];
        if (stamp == index->epoch) break;
        stamp = index->epoch;
        sweep_sites.push_back(u);
      }
    }
  }

  std::span<const Vertex> sites;
  if (restricted) {
    // Only the restriction's rows are allocated, and only their offsets
    // are written.
    std::int64_t total = 0;
    for (const Vertex v : row_vertices) {
      index->row_offset[static_cast<std::size_t>(v)] = total;
      total += row_count<Model>(*tree_, v);
    }
    row_off_ = index->row_offset.data();
    rows_.assign(static_cast<std::size_t>(total), kInfHops);
    sites = sweep_sites;
  } else if constexpr (kFullTree<Tree>) {
    // One slot per vertex: the tree fields a lookup reads, and the first
    // row as a prefix sum of the row counts.
    slots_.resize(n);
    std::int64_t total = 0;
    for (Vertex v = 0; v < static_cast<Vertex>(n); ++v) {
      slots_[static_cast<std::size_t>(v)] = {
          tree_->tin(v), tree_->tout(v), tree_->depth(v),
          static_cast<std::int32_t>(total)};
      total += row_count<Model>(*tree_, v);
    }
    FTB_CHECK_MSG(total <= std::numeric_limits<std::int32_t>::max(),
                  "a full replacement table of " << total
                                                 << " rows exceeds the "
                                                    "slots' int32 row index");
    rows_.assign(static_cast<std::size_t>(total), kInfHops);
    sites = tree_->preorder();
  }

  // One replacement-distance computation per fault site; fill the row slot
  // of every vertex below the fault. Sites are the non-source preorder
  // vertices u: the edge model fails u's parent edge, the vertex model
  // fails u itself (skipping leaves, which have no strict descendants).
  // Rows of different faults write disjoint slots, so the loop is safely
  // parallel. The per-thread scratch arenas make a steady-state iteration
  // allocation-free.
  pool.parallel_for(sites.size(), [&](std::size_t idx) {
    const Vertex u = sites[idx];
    if (u == tree_->source()) return;
    if (!Model::site_active(*tree_, u)) return;
    const FaultId fault = Model::site_fault(*tree_, u);
    const std::int32_t row = tree_->depth(u) - 1;  // == pos − kFirstPos
    const auto affected = tree_->subtree(u);
    auto row_slot = [&](Vertex v) -> std::int32_t& {
      return rows_[static_cast<std::size_t>(first_row(v) + row)];
    };
    // Vertices without an allocated row (restriction) must not be written.
    const auto has_row = [&](Vertex v) {
      return !restricted ||
             index->row_stamp[static_cast<std::size_t>(v)] == index->epoch;
    };
    if (cfg.reference_kernel) {
      thread_local std::vector<std::uint8_t> mask;
      BfsBans bans;
      Model::ban(fault, bans, mask, n);
      bans.banned_edge2 = cfg.ambient_banned_edge;
      bans.banned_vertex_one = cfg.ambient_banned_vertex;
      const BfsResult res = plain_bfs_reference(g, tree_->source(), bans);
      for (const Vertex v : affected) {
        if (Model::kSkipFailedSite && v == u) continue;
        if (!has_row(v)) continue;
        row_slot(v) = res.dist[static_cast<std::size_t>(v)];
      }
      Model::unban(fault, mask);
    } else {
      thread_local ReplacementSweepScratch sweep;
      replacement_dist_sweep(*tree_, Model::sweep_banned_edge(fault),
                             Model::sweep_banned_vertex(fault), affected,
                             sweep, cfg.ambient_banned_edge,
                             cfg.ambient_banned_vertex);
      for (const Vertex v : affected) {
        if (Model::kSkipFailedSite && v == u) continue;
        if (!has_row(v)) continue;
        row_slot(v) = sweep.dist(v);
      }
    }
  });
}

template <class Model, class Tree>
std::int32_t ReplacementTable<Model, Tree>::replacement_dist(
    Vertex v, FaultId fault) const {
  Model::validate_query(*tree_, fault);
  if constexpr (kFullTree<Tree>) {
    if (row_off_ == nullptr) return TableReader<Model>(*this).dist(v, fault);
  }
  if (!tree_->reachable(v)) return kInfHops;
  if (Model::hits_terminal(v, fault)) return kInfHops;
  if (!Model::on_path(*tree_, fault, v)) {
    return tree_->depth(v);  // π(s,v) survives the failure
  }
  return table_dist(v, Model::fault_pos(*tree_, fault));
}

namespace {

/// Shared per-vertex computation result before flattening.
template <class Pair>
struct VertexPairs {
  std::vector<Pair> pairs;             // ordered by fault position
  std::vector<Vertex> detour_storage;  // concatenated detours
  std::int64_t covered = 0;
  std::int64_t infinite = 0;
};

}  // namespace

std::vector<EdgeId> source_arc_index(const Graph& g, Vertex s) {
  std::vector<EdgeId> index(static_cast<std::size_t>(g.num_vertices()),
                            kInvalidEdge);
  for (const Arc& a : g.neighbors(s)) {
    index[static_cast<std::size_t>(a.to)] = a.edge;
  }
  return index;
}

template <class Model, class Tree>
void FaultReplacementEngine<Model, Tree>::build_pairs(ThreadPool& pool) {
  const Graph& g = graph();
  const EdgeWeights& W = tree().weights();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());

  // Restricted engines size every per-terminal structure by the
  // restriction, not by n — the pruned dual build constructs two engines
  // per first-failure site, so any O(n) term here multiplies into an
  // O(n²) floor for the whole build.
  const std::span<const Vertex> restricted = cfg_.restrict_terminals;
  const bool restrict_mode = !restricted.empty();
  const std::size_t terminal_count = restrict_mode ? restricted.size() : n;

  std::vector<VertexPairs<Pair>> per_vertex(terminal_count);
  // Detour-work totals (Stats::detour_traversal_arcs /
  // detour_boundary_arcs / detour_source_probes), added once per processed
  // terminal.
  std::atomic<std::int64_t> traversal_arcs{0};
  std::atomic<std::int64_t> boundary_arcs{0};
  std::atomic<std::int64_t> source_probes{0};

  // u_0 = s is the one path vertex every terminal shares: its candidate
  // edges are read from the source-arc index, one load per ball vertex.
  // The index also filters the capped traversals' last level down to the
  // source's neighbours. Restricted engines take the index from their
  // caller, so none fills O(n) per engine.
  std::vector<EdgeId> own_source_arcs;
  std::span<const EdgeId> source_arcs = cfg_.source_arcs;
  if (source_arcs.empty()) {
    FTB_CHECK_MSG(!restrict_mode,
                  "a restricted engine needs Config::source_arcs");
    own_source_arcs = source_arc_index(g, tree().source());
    source_arcs = own_source_arcs;
  }
  FTB_CHECK_MSG(source_arcs.size() == n,
                "source-arc index size " << source_arcs.size() << " != n="
                                         << n);
#ifndef NDEBUG
  for (const Arc& a : g.neighbors(tree().source())) {
    FTB_DCHECK(source_arcs[static_cast<std::size_t>(a.to)] == a.edge);
  }
#endif

  // Pre-classification: covered / infinite tests touch only the phase-1
  // distance tables, so they run before (and usually instead of) the
  // per-vertex off-path BFS — a vertex whose pairs are all covered or
  // disconnecting skips the O(n + m) canonical traversal entirely.
  auto classify = [&](Vertex v, std::int32_t k, VertexPairs<Pair>& out,
                      std::vector<std::int32_t>& uncovered_pos) {
    uncovered_pos.clear();
    for (std::int32_t i = Model::kFirstPos; i < k; ++i) {
      const std::int32_t rd = table_.table_dist(v, i);
      if (rd >= kInfHops) {
        ++out.infinite;
        continue;
      }
      // Covered test: some surviving T0-neighbor u of v with
      // dist_f(u) + 1 == dist_f(v). The parent row exists (and the parent
      // survives) exactly when the fault sits strictly above position k−1
      // — for edges that means the fault is not v's parent edge, for
      // vertices that it is not the parent itself.
      bool is_covered = false;
      const Vertex parent = tree().parent(v);
      if (parent != kInvalidVertex && i + 1 < k) {
        if (table_.table_dist(parent, i) + 1 == rd) is_covered = true;
      }
      if (!is_covered) {
        for (const Vertex c : tree().children(v)) {
          if (table_.table_dist(c, i) + 1 == rd) {
            is_covered = true;
            break;
          }
        }
      }
      if (is_covered) {
        ++out.covered;
      } else {
        uncovered_pos.push_back(i);
      }
    }
  };

  // The per-vertex detour body, generic over the canonical-SP view
  // (reference or scratch kernel) so both code paths share one
  // implementation.
  auto process = [&](Vertex v, VertexPairs<Pair>& out,
                     const std::vector<Vertex>& path,
                     const std::vector<std::int32_t>& uncovered_pos,
                     const auto& dv) {
    // detlen(j): cheapest detour from u_j to v through off-path space,
    // excluding the tree edge (u_{k-1}, v) (which can only be proposed when
    // it is itself the failing edge; see DESIGN.md — and which is
    // unreachable anyway for vertex faults, where j ≤ i−1 ≤ k−2).
    // Candidates are only ever consumed at divergence depths ≤
    // max_diverge(deepest uncovered position).
    const std::int32_t jmax = uncovered_pos.back() - Model::kDivergeGap;
    const EdgeId parent_e = tree().parent_edge(v);
    thread_local std::vector<DetourCandidate> det;
    det.assign(static_cast<std::size_t>(jmax) + 1, DetourCandidate{});
    // Offers the edge e = (uj, x) as a divergence candidate of `best`. A
    // path vertex or the ambient vertex is never reached by dv, so the
    // reachability test keeps x off both.
    const auto offer = [&](DetourCandidate& best, Vertex uj, Vertex x,
                           EdgeId e) {
      // Punctured-graph mode: the ambient edge exists in G's CSR but not
      // in G', so it is never a detour candidate.
      if (e == cfg_.ambient_banned_edge) return;
      DetourCandidate cand;
      if (x == v) {
        if (e == parent_e) return;  // never a detour edge
        cand.hops = 1;
        cand.wsum = W[e];
        cand.entry = uj;
        cand.last_edge = e;
        cand.via = v;
      } else {
        if (!dv.reachable(x)) return;
        cand.hops = 1 + dv.hops(x);
        cand.wsum = W[e] + dv.wsum(x);
        // dv is rooted at v, so first_hop(x) is the vertex adjacent to v on
        // the canonical v→x path — i.e. the entry point of the reversed
        // detour, and its parent edge is the edge into v.
        cand.entry = dv.first_hop(x);
        cand.last_edge = dv.parent_edge(cand.entry);
        cand.via = x;
      }
      if (!best.valid() || cand.better_than(best)) best = cand;
    };
    if constexpr (requires { dv.boundary(); }) {
      // The capped traversal dropped every arc from an expanded ball vertex
      // into the path: those are u_1..u_jmax's candidates, each offered to
      // the path position of its banned end (the tree depth; the ambient
      // vertex is unreachable in the tree and falls out of the range).
      // Candidates through a last-level ball vertex x are missing, but for
      // j ≥ 1 they would need j + 1 + hops(x) > max_rd hops, more than any
      // failing position consumes, and they lose to every shorter one. The
      // same bound makes the filtered last level lose nothing: an arc from
      // hops max_rd − 2 into u_j gives j + max_rd − 1 hops, which only
      // j = 1 can match, and u_1 is a source neighbour.
      for (const BoundaryArc& b : dv.boundary()) {
        const std::int32_t j = tree().depth(b.banned);
        if (j < 1 || j > jmax) continue;
        offer(det[static_cast<std::size_t>(j)], b.banned, b.reached, b.edge);
      }
      // u_0 = s needs every ball vertex adjacent to it, last level included
      // (the filter kept exactly those there). That level is in discovery
      // order; the candidate order is total, so the winner does not move.
      const Vertex s = path.front();
      for (const Vertex x : dv.order()) {
        const EdgeId e = source_arcs[static_cast<std::size_t>(x)];
        if (e != kInvalidEdge) offer(det[0], s, x, e);
      }
      traversal_arcs.fetch_add(dv.arcs_read(), std::memory_order_relaxed);
      boundary_arcs.fetch_add(static_cast<std::int64_t>(dv.boundary().size()),
                              std::memory_order_relaxed);
      source_probes.fetch_add(static_cast<std::int64_t>(dv.order().size()),
                              std::memory_order_relaxed);
    } else {
      // The reference enumeration: scan every u_j's adjacency.
      for (std::int32_t j = 0; j <= jmax; ++j) {
        const Vertex uj = path[static_cast<std::size_t>(j)];
        for (const Arc& a : g.neighbors(uj)) {
          offer(det[static_cast<std::size_t>(j)], uj, a.to, a.edge);
        }
      }
    }

    // Positions ascending for the deterministic pair order (classification
    // already filtered the covered / disconnecting ones).
    for (const std::int32_t i : uncovered_pos) {
      const std::int32_t rd = table_.table_dist(v, i);

      // New-ending pair: divergence point as close to s as possible.
      std::int32_t jstar = -1;
      for (std::int32_t j = 0; j <= i - Model::kDivergeGap; ++j) {
        const DetourCandidate& c = det[static_cast<std::size_t>(j)];
        if (c.valid() && j + c.hops == rd) {
          jstar = j;
          break;
        }
      }
      FTB_CHECK_MSG(jstar >= 0,
                    "engine invariant violated: no divergence point matches "
                    "replacement distance (v="
                        << v << ", pos=" << i << ", rd=" << rd << ")");
      const DetourCandidate& c = det[static_cast<std::size_t>(jstar)];

      Pair p;
      p.v = v;
      Model::set_fault(p, Model::fault_at(tree(), path, i), i);
      p.rep_dist = rd;
      p.diverge = path[static_cast<std::size_t>(jstar)];
      p.diverge_depth = jstar;
      p.last_edge = c.last_edge;
      p.detour_len = c.hops;
      FTB_DCHECK(p.last_edge != kInvalidEdge);

      if (cfg_.collect_detours) {
        p.detour_begin = static_cast<std::int64_t>(out.detour_storage.size());
        out.detour_storage.push_back(p.diverge);
        if (c.via == v) {
          out.detour_storage.push_back(v);
        } else {
          for (Vertex w = c.via; w != v; w = dv.parent(w)) {
            out.detour_storage.push_back(w);
          }
          out.detour_storage.push_back(v);
        }
        p.detour_end = static_cast<std::int64_t>(out.detour_storage.size());
        FTB_DCHECK(p.detour_end - p.detour_begin ==
                   static_cast<std::int64_t>(p.detour_len) + 1);
      }
      out.pairs.push_back(p);
    }
  };

  // Terminal restriction: only the listed terminals get classified and
  // (when uncovered) pay an off-path traversal; per_vertex is indexed by
  // position in the restriction (or by vertex id when unrestricted) and
  // the flatten below re-establishes ascending vertex id.
  pool.parallel_for(terminal_count, [&](std::size_t ti) {
    const Vertex v = restrict_mode ? restricted[ti] : static_cast<Vertex>(ti);
    const std::int32_t k = tree().depth(v);
    // No failing positions: source/too-shallow or unreachable terminals.
    if (k <= Model::kFirstPos || k >= kInfHops) return;
    VertexPairs<Pair>& out = per_vertex[ti];

    // π(s,v) = u_0..u_k into a reusable buffer.
    thread_local std::vector<Vertex> path;
    path.clear();
    for (Vertex u = v; u != kInvalidVertex; u = tree().parent(u)) {
      path.push_back(u);
    }
    std::reverse(path.begin(), path.end());

    thread_local std::vector<std::int32_t> uncovered_pos;
    if (!cfg_.reference_kernel) {
      classify(v, k, out, uncovered_pos);
      if (uncovered_pos.empty()) return;  // no off-path BFS needed
    }

    // Off-path graph H_v = G \ (V(π(s,v)) \ {v}). The mask is reused
    // across calls; only the O(k) touched entries are reset below.
    thread_local std::vector<std::uint8_t> banned;
    if (banned.size() < n) banned.assign(n, 0);
    for (std::int32_t j = 0; j < k; ++j) {
      banned[static_cast<std::size_t>(path[static_cast<std::size_t>(j)])] = 1;
    }
    BfsBans bans;
    bans.banned_vertex = &banned;
    bans.banned_edge2 = cfg_.ambient_banned_edge;
    bans.banned_vertex_one = cfg_.ambient_banned_vertex;

    if (cfg_.reference_kernel) {
      // Seed pipeline order: one unconditional off-path BFS per vertex.
      const CanonicalSp dv = canonical_sp(g, W, v, bans);
      classify(v, k, out, uncovered_pos);
      if (!uncovered_pos.empty()) {
        process(v, out, path, uncovered_pos, CanonicalSpRefView{&dv});
      }
    } else {
      // Detour labels beyond max_rd − 1 hops can never match a failing
      // fault's replacement distance, so the off-path traversal is capped
      // there, and its last level keeps only the source's neighbours (see
      // canonical_sp_run and the candidate loops in process).
      std::int32_t max_rd = 0;
      for (const std::int32_t i : uncovered_pos) {
        max_rd = std::max(max_rd, table_.table_dist(v, i));
      }
      thread_local CanonicalSpScratch sps;
      canonical_sp_run(g, W, v, bans, sps, max_rd - 1, source_arcs);
      process(v, out, path, uncovered_pos, CanonicalSpScratchView{&sps});
    }

    // Reset the thread-local mask for the next vertex on this thread.
    for (std::int32_t j = 0; j < k; ++j) {
      banned[static_cast<std::size_t>(path[static_cast<std::size_t>(j)])] = 0;
    }
  });

  // Deterministic flatten: vertices in ascending id order, pairs already
  // position-ordered within each vertex. A restricted engine visits only
  // its terminals (sorted into id order here — the restriction span is a
  // preorder slice, not id-sorted); the per-vertex CSR then costs one
  // prefix-sum over plain ints instead of an O(n) vector-of-vectors walk.
  std::vector<std::uint32_t> flatten_order;
  if (restrict_mode) {
    flatten_order.resize(terminal_count);
    std::iota(flatten_order.begin(), flatten_order.end(), 0u);
    std::sort(flatten_order.begin(), flatten_order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return restricted[a] < restricted[b];
              });
  }
  pairs_.clear();
  pair_ids_.clear();
  detour_arena_.clear();
  // Full engines own an n + 1 CSR; restricted engines write only their
  // terminals' entries v and v + 1 of the leased one — terminals flatten in
  // ascending id with contiguous pair ranges, so a terminal's end offset
  // and the next terminal's start offset never disagree.
  std::int64_t* offsets = nullptr;
  if (restrict_mode) {
    offsets = table_.index_->pairs_offset.data();
  } else {
    pairs_offset_.assign(n + 1, 0);
    offsets = pairs_offset_.data();
  }
  for (std::size_t t = 0; t < terminal_count; ++t) {
    const std::size_t slot = restrict_mode ? flatten_order[t] : t;
    const std::size_t vi = static_cast<std::size_t>(
        restrict_mode ? restricted[slot] : static_cast<Vertex>(t));
    const VertexPairs<Pair>& src = per_vertex[slot];
    stats_.pairs_covered += src.covered;
    stats_.pairs_infinite += src.infinite;
    const std::int64_t arena_base =
        static_cast<std::int64_t>(detour_arena_.size());
    if (restrict_mode) {
      offsets[vi] = static_cast<std::int64_t>(pairs_.size());
    }
    for (Pair p : src.pairs) {
      p.detour_begin += arena_base;
      p.detour_end += arena_base;
      pair_ids_.push_back(static_cast<std::int32_t>(pairs_.size()));
      pairs_.push_back(p);
    }
    detour_arena_.insert(detour_arena_.end(), src.detour_storage.begin(),
                         src.detour_storage.end());
    if (restrict_mode) {
      offsets[vi + 1] = static_cast<std::int64_t>(pairs_.size());
    } else {
      offsets[vi + 1] = static_cast<std::int64_t>(src.pairs.size());
    }
  }
  if (!restrict_mode) {
    for (std::size_t vi = 0; vi < n; ++vi) offsets[vi + 1] += offsets[vi];
  }
  pair_off_ = offsets;
  stats_.pairs_uncovered = static_cast<std::int64_t>(pairs_.size());
  stats_.detour_traversal_arcs = traversal_arcs.load();
  stats_.detour_boundary_arcs = boundary_arcs.load();
  stats_.detour_source_probes = source_probes.load();
  stats_.detour_vertices = static_cast<std::int64_t>(detour_arena_.size());
}

template <class Model, class Tree>
std::span<const std::int32_t> FaultReplacementEngine<Model, Tree>::uncovered_of(
    Vertex v) const {
  const std::size_t vi = static_cast<std::size_t>(v);
  return {pair_ids_.data() + pair_off_[vi],
          pair_ids_.data() + pair_off_[vi + 1]};
}

template <class Model, class Tree>
std::span<const Vertex> FaultReplacementEngine<Model, Tree>::detour(
    const Pair& p) const {
  FTB_CHECK_MSG(cfg_.collect_detours, "detours were not collected");
  return {detour_arena_.data() + p.detour_begin,
          detour_arena_.data() + p.detour_end};
}

template <class Model, class Tree>
bool FaultReplacementEngine<Model, Tree>::covered(Vertex v, FaultId fault) const {
  FTB_CHECK(tree().reachable(v) && !Model::hits_terminal(v, fault) &&
            Model::on_path(tree(), fault, v));
  const std::int32_t pos = Model::fault_pos(tree(), fault);
  const std::int32_t rd = table_.table_dist(v, pos);
  FTB_CHECK_MSG(rd < kInfHops, "covered() on a disconnecting failure");
  const std::int32_t k = tree().depth(v);
  const Vertex parent = tree().parent(v);
  if (parent != kInvalidVertex && pos + 1 < k) {
    if (table_.table_dist(parent, pos) + 1 == rd) return true;
  }
  for (const Vertex c : tree().children(v)) {
    if (table_.table_dist(c, pos) + 1 == rd) return true;
  }
  return false;
}

template <class Model, class Tree>
std::vector<Vertex> FaultReplacementEngine<Model, Tree>::replacement_path(
    Vertex v, FaultId fault) const {
  Model::validate_query(tree(), fault);
  FTB_CHECK(tree().reachable(v) && !Model::hits_terminal(v, fault));
  if (!Model::on_path(tree(), fault, v)) {
    return tree().path_from_source(v);  // π(s,v) is itself a replacement path
  }
  const std::int32_t rd = replacement_dist(v, fault);
  FTB_CHECK_MSG(rd < kInfHops, "no replacement path: failure disconnects v");

  // Uncovered pair? Use the stored canonical metadata.
  for (const std::int32_t id : uncovered_of(v)) {
    const Pair& p = pairs_[static_cast<std::size_t>(id)];
    if (Model::fault_of(p) != fault) continue;
    std::vector<Vertex> out = tree().path_from_source(p.diverge);
    const auto det = detour(p);
    out.insert(out.end(), det.begin() + 1, det.end());
    return out;
  }

  // Covered pair: canonical shortest path in G'(v) minus the fault, where
  // G'(v) keeps only v's tree edges among v's incident edges.
  const Graph& g = graph();
  std::vector<std::uint8_t> edge_mask(static_cast<std::size_t>(g.num_edges()),
                                      0);
  for (const Arc& a : g.neighbors(v)) {
    const bool tree_incident =
        a.edge == tree().parent_edge(v) ||
        (tree().is_tree_edge(a.edge) && tree().lower_endpoint(a.edge) == a.to);
    if (!tree_incident) edge_mask[static_cast<std::size_t>(a.edge)] = 1;
  }
  BfsBans bans;
  bans.banned_edge_mask = &edge_mask;
  std::vector<std::uint8_t> vertex_mask;
  Model::ban(fault, bans, vertex_mask,
             static_cast<std::size_t>(g.num_vertices()));
  bans.banned_edge2 = cfg_.ambient_banned_edge;
  bans.banned_vertex_one = cfg_.ambient_banned_vertex;
  const CanonicalSp sp =
      canonical_sp(g, tree().weights(), tree().source(), bans);
  FTB_CHECK_MSG(sp.reachable(v) && sp.hops[static_cast<std::size_t>(v)] == rd,
                "covered pair reconstruction does not match the G'(v) test");
  return sp.path_from_source(v);
}

template <class Model>
RowAudit audit_replacement_rows(const BfsTree& tree,
                                std::span<const std::int32_t> rows) {
  const std::int32_t n = tree.graph().num_vertices();
  RowAudit audit;
  std::size_t total = 0;
  for (Vertex v = 0; v < n; ++v) {
    total += static_cast<std::size_t>(row_count<Model>(tree, v));
  }
  audit.count_ok = total == rows.size();
  if (!audit.count_ok) return audit;
  std::size_t at = 0;
  for (Vertex v = 0; v < n; ++v) {
    const std::int32_t d = tree.depth(v);
    for (std::int32_t r = 0; r < row_count<Model>(tree, v); ++r, ++at) {
      const std::int32_t rd = rows[at];
      if (rd != kInfHops && (rd < d || rd > n - 1)) audit.bounds_ok = false;
    }
  }
  return audit;
}

template <class Model>
bool audit_table_slots(const BfsTree& tree, std::span<const TableSlot> slots) {
  const std::int32_t n = tree.graph().num_vertices();
  if (slots.size() != static_cast<std::size_t>(n)) return false;
  std::int64_t row = 0;
  for (Vertex v = 0; v < n; ++v) {
    const TableSlot& s = slots[static_cast<std::size_t>(v)];
    if (s.tin != tree.tin(v) || s.tout != tree.tout(v) ||
        s.depth != tree.depth(v) || s.row != row) {
      return false;
    }
    row += row_count<Model>(tree, v);
  }
  return true;
}

template bool audit_table_slots<EdgeFault>(const BfsTree&,
                                           std::span<const TableSlot>);
template bool audit_table_slots<VertexFault>(const BfsTree&,
                                             std::span<const TableSlot>);
template RowAudit audit_replacement_rows<EdgeFault>(
    const BfsTree&, std::span<const std::int32_t>);
template RowAudit audit_replacement_rows<VertexFault>(
    const BfsTree&, std::span<const std::int32_t>);

template class ReplacementTable<EdgeFault>;
template class ReplacementTable<VertexFault>;
template class ReplacementTable<EdgeFault, PuncturedTree>;
template class ReplacementTable<VertexFault, PuncturedTree>;
template class FaultReplacementEngine<EdgeFault>;
template class FaultReplacementEngine<VertexFault>;
template class FaultReplacementEngine<EdgeFault, PuncturedTree>;
template class FaultReplacementEngine<VertexFault, PuncturedTree>;

}  // namespace ftb

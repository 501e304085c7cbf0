#include "src/graph/bfs_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <type_traits>

namespace ftb {

namespace {

inline bool test_bit(const std::vector<std::uint64_t>& bits, Vertex v) {
  return (bits[static_cast<std::size_t>(v) >> 6] >>
          (static_cast<std::size_t>(v) & 63)) &
         1u;
}

inline void set_bit(std::vector<std::uint64_t>& bits, Vertex v) {
  bits[static_cast<std::size_t>(v) >> 6] |=
      std::uint64_t{1} << (static_cast<std::size_t>(v) & 63);
}

inline void clear_bit(std::vector<std::uint64_t>& bits, Vertex v) {
  bits[static_cast<std::size_t>(v) >> 6] &=
      ~(std::uint64_t{1} << (static_cast<std::size_t>(v) & 63));
}

}  // namespace

void BfsScratch::finalize_level_segment(std::size_t next_begin,
                                        std::size_t n) {
  const std::size_t f = order_.size() - next_begin;
  if (f == 0) return;
  // Bitmap extraction costs O(n/64 + f); sorting costs O(f log f). Large
  // fractions of n go through the bitmap, sparse deep levels through sort
  // (so path-like graphs never pay the full-bitmap scan per level).
  if (f >= 8 && f * 256 >= n) {
    std::size_t pos = next_begin;
    for (std::size_t w = 0; w < front_bits_.size(); ++w) {
      std::uint64_t bits = front_bits_[w];
      if (bits == 0) continue;
      front_bits_[w] = 0;
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        order_[pos++] = static_cast<Vertex>(w * 64 + static_cast<std::size_t>(b));
      }
      if (pos == order_.size()) break;
    }
    FTB_DCHECK(pos == order_.size());
  } else {
    std::sort(order_.begin() + static_cast<std::ptrdiff_t>(next_begin),
              order_.end());
    for (std::size_t i = next_begin; i < order_.size(); ++i) {
      clear_bit(front_bits_, order_[i]);
    }
  }
}

void BfsScratch::prepare(std::size_t n) {
  if (stamp_.size() < n) {
    stamp_.assign(n, 0);
    dist_.resize(n);
    parent_.resize(n);
    parent_edge_.resize(n);
    front_bits_.resize((n + 63) / 64);
    epoch_ = 0;
  }
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 0;
  }
  ++epoch_;
  order_.clear();
  stats_ = BfsKernelStats{};
}

void BfsScratch::debug_set_epoch_near_wrap() {
  epoch_ = std::numeric_limits<std::uint32_t>::max() - 1;
  // Invalidate stale stamps that could collide with the fast-forwarded
  // epoch; real code never jumps, so this is test-only.
  std::fill(stamp_.begin(), stamp_.end(), 0);
}

void bfs_run(const Graph& g, Vertex src, const BfsBans& bans,
             BfsScratch& s, const BfsKernelConfig& cfg) {
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  FTB_CHECK(g.valid_vertex(src));
  FTB_CHECK_MSG(!bans.vertex_banned(src), "source is banned");
  s.prepare(n);

  s.mark(src, 0, kInvalidVertex, kInvalidEdge);
  s.order_.push_back(src);

  // Scouting state for the alpha/beta switch: arcs out of the current
  // frontier vs arcs out of still-unvisited vertices (both counts treat
  // bans as ordinary arcs — the heuristic only picks a direction, never
  // changes the result).
  std::int64_t unexplored_arcs =
      2 * static_cast<std::int64_t>(g.num_edges()) - g.degree(src);
  std::int64_t frontier_arcs = g.degree(src);

  std::size_t level_begin = 0;
  std::size_t level_end = 1;
  std::int32_t level = 0;

  while (level_begin < level_end) {
    bool bottom_up;
    switch (cfg.mode) {
      case BfsKernelConfig::Mode::kTopDown:
        bottom_up = false;
        break;
      case BfsKernelConfig::Mode::kBottomUp:
        bottom_up = true;
        break;
      default:
        bottom_up =
            static_cast<double>(frontier_arcs) * cfg.alpha >
                static_cast<double>(unexplored_arcs) &&
            static_cast<double>(level_end - level_begin) * cfg.beta >
                static_cast<double>(n);
        break;
    }

    const std::size_t next_begin = level_end;
    std::int64_t next_arcs = 0;

    if (bottom_up) {
      ++s.stats_.bottom_up_levels;
      std::memset(s.front_bits_.data(), 0,
                  s.front_bits_.size() * sizeof(std::uint64_t));
      for (std::size_t i = level_begin; i < level_end; ++i) {
        set_bit(s.front_bits_, s.order_[i]);
      }
      for (Vertex v = 0; v < static_cast<Vertex>(n); ++v) {
        if (s.visited(v)) continue;
        if (bans.vertex_banned(v)) continue;
        for (const Arc& a : g.neighbors(v)) {
          if (!test_bit(s.front_bits_, a.to)) continue;
          if (bans.edge_banned(a.edge)) continue;
          // First admissible frontier neighbor in sorted adjacency ==
          // minimum-id parent: the determinism contract.
          s.mark(v, level + 1, a.to, a.edge);
          s.order_.push_back(v);
          next_arcs += g.degree(v);
          break;
        }
      }
      // Ascending by construction — no reordering needed. Restore the
      // all-zero bitmap invariant the top-down path relies on.
      std::memset(s.front_bits_.data(), 0,
                  s.front_bits_.size() * sizeof(std::uint64_t));
    } else {
      ++s.stats_.top_down_levels;
      for (std::size_t i = level_begin; i < level_end; ++i) {
        const Vertex u = s.order_[i];
        for (const Arc& a : g.neighbors(u)) {
          if (s.visited(a.to)) continue;
          if (bans.edge_banned(a.edge)) continue;
          if (bans.vertex_banned(a.to)) continue;
          s.mark(a.to, level + 1, u, a.edge);
          s.order_.push_back(a.to);
          set_bit(s.front_bits_, a.to);
          next_arcs += g.degree(a.to);
        }
      }
      // The level-sorted order (and with it the minimum-id parent rule on
      // the *next* expansion) requires reordering each discovered segment.
      s.finalize_level_segment(next_begin, n);
    }

    unexplored_arcs -= next_arcs;
    frontier_arcs = next_arcs;
    level_begin = next_begin;
    level_end = s.order_.size();
    ++level;
    ++s.stats_.levels;
  }
  // The final (empty-producing) iteration also counted: levels == number of
  // expansion passes, i.e. eccentricity + 1 of the reached region.
}

void canonical_sp_run(const Graph& g, const EdgeWeights& weights, Vertex src,
                      const BfsBans& bans, CanonicalSpScratch& sp,
                      std::int32_t depth_limit,
                      std::span<const EdgeId> last_level_filter) {
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  FTB_CHECK(g.valid_vertex(src));
  FTB_CHECK_MSG(!bans.vertex_banned(src), "source is banned");
  FTB_CHECK_MSG(weights.w.size() == static_cast<std::size_t>(g.num_edges()),
                "weight table size mismatch");
  FTB_CHECK_MSG(last_level_filter.empty() || last_level_filter.size() == n,
                "last-level filter size " << last_level_filter.size()
                                          << " != n=" << n);
  BfsScratch& s = sp.bfs_;
  s.prepare(n);
  if (sp.wsum_.size() < n) {
    sp.wsum_.resize(n);
    sp.first_hop_.resize(n);
  }
  sp.boundary_.clear();
  sp.arcs_read_ = 0;

  s.mark(src, 0, kInvalidVertex, kInvalidEdge);
  sp.wsum_[static_cast<std::size_t>(src)] = 0;
  sp.first_hop_[static_cast<std::size_t>(src)] = kInvalidVertex;
  s.order_.push_back(src);

  std::size_t level_begin = 0;
  std::size_t level_end = 1;
  std::int32_t level = 0;

  // Expanding the level-sorted frontier in ascending order makes the
  // canonical candidates of each next-level vertex arrive with strictly
  // increasing predecessor id, so keeping the first strict wsum minimum
  // reproduces the reference (wsum, parent id, edge id) tie-break. The
  // filtered expansion drops arcs into filtered-out heads before any other
  // test, and marks no frontier bit: its level is never expanded, so it
  // needs no id order.
  const auto expand = [&](auto filtered) {
    for (std::size_t i = level_begin; i < level_end; ++i) {
      const Vertex u = s.order_[i];
      const std::uint64_t wu = sp.wsum_[static_cast<std::size_t>(u)];
      const auto arcs = g.neighbors(u);
      sp.arcs_read_ += static_cast<std::int64_t>(arcs.size());
      for (const Arc& a : arcs) {
        const Vertex v = a.to;
        const std::size_t vi = static_cast<std::size_t>(v);
        if constexpr (filtered) {
          if (last_level_filter[vi] == kInvalidEdge) continue;
        }
        if (bans.edge_banned(a.edge)) continue;
        if (s.visited(v)) {
          if (s.dist_[vi] == level + 1) {
            const std::uint64_t cand = wu + weights[a.edge];
            if (cand < sp.wsum_[vi]) {
              sp.wsum_[vi] = cand;
              s.parent_[vi] = u;
              s.parent_edge_[vi] = a.edge;
            }
          }
          continue;
        }
        if (bans.vertex_banned(v)) {
          sp.boundary_.push_back({v, u, a.edge});
          continue;
        }
        s.mark(v, level + 1, u, a.edge);
        sp.wsum_[vi] = wu + weights[a.edge];
        s.order_.push_back(v);
        if constexpr (!filtered) set_bit(s.front_bits_, v);
      }
    }
  };

  while (level_begin < level_end && level < depth_limit) {
    ++s.stats_.levels;
    ++s.stats_.top_down_levels;
    const std::size_t next_begin = level_end;
    if (!last_level_filter.empty() && level + 1 == depth_limit) {
      expand(std::true_type{});
    } else {
      expand(std::false_type{});
      s.finalize_level_segment(next_begin, n);
    }
    // Finalize first_hop once the level's parents can no longer change.
    for (std::size_t i = next_begin; i < s.order_.size(); ++i) {
      const std::size_t vi = static_cast<std::size_t>(s.order_[i]);
      const Vertex p = s.parent_[vi];
      sp.first_hop_[vi] = (p == src)
                              ? s.order_[i]
                              : sp.first_hop_[static_cast<std::size_t>(p)];
    }
    level_begin = next_begin;
    level_end = s.order_.size();
    ++level;
  }
}

CanonicalSp canonical_sp_fused(const Graph& g, const EdgeWeights& weights,
                               Vertex src, const BfsBans& bans) {
  CanonicalSpScratch scratch;
  canonical_sp_run(g, weights, src, bans, scratch);

  // wsum/first_hop hold stale values off the reached set, so copy over
  // order() only and leave the reference's defaults everywhere else.
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  CanonicalSp sp;
  sp.hops.assign(n, kInfHops);
  sp.wsum.assign(n, 0);
  sp.parent.assign(n, kInvalidVertex);
  sp.parent_edge.assign(n, kInvalidEdge);
  sp.first_hop.assign(n, kInvalidVertex);
  const auto order = scratch.order();
  sp.order.assign(order.begin(), order.end());
  for (const Vertex v : order) {
    const std::size_t vi = static_cast<std::size_t>(v);
    sp.hops[vi] = scratch.hops(v);
    sp.wsum[vi] = scratch.wsum(v);
    sp.parent[vi] = scratch.parent(v);
    sp.parent_edge[vi] = scratch.parent_edge(v);
    sp.first_hop[vi] = scratch.first_hop(v);
  }
  return sp;
}

}  // namespace ftb

#include "src/graph/multi_source_bfs_kernel.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace ftb {

void MultiSourceBfsKernel::prepare(std::size_t n, std::size_t sigma) {
  const std::size_t words = (sigma + 63) / 64;
  if (stamp_.size() < n) {
    stamp_.assign(n, 0);
    epoch_ = 0;
  }
  if (visited_.size() < n * words) {
    visited_.resize(n * words);
    front_.resize(n * words);
    next_.resize(n * words);
  }
  if (dist_.size() < sigma * n) {
    dist_.resize(sigma * n);
    parent_.resize(sigma * n);
    parent_edge_.resize(sigma * n);
  }
  if (order_.size() < sigma) order_.resize(sigma);
  for (std::size_t l = 0; l < sigma; ++l) order_[l].clear();
  n_ = n;
  num_lanes_ = sigma;
  words_ = words;
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 0;
  }
  ++epoch_;
  cur_list_.clear();
  next_list_.clear();
  stats_ = BfsKernelStats{};
}

void MultiSourceBfsKernel::debug_set_epoch_near_wrap() {
  epoch_ = std::numeric_limits<std::uint32_t>::max() - 1;
  // Invalidate stale stamps that could collide with the fast-forwarded
  // epoch; real code never jumps, so this is test-only.
  std::fill(stamp_.begin(), stamp_.end(), 0);
}

void MultiSourceBfsKernel::build_ban_tables(std::span<const BfsLane> lanes) {
  edge_ban_.clear();
  vertex_ban_.clear();
  ban_words_.clear();
  ptr_bans_.clear();
  has_edge_bans_ = false;
  has_vertex_bans_ = false;

  const auto add_edge_ban = [&](EdgeId e, std::size_t lane) {
    const auto [it, inserted] = edge_ban_.try_emplace(e, ban_words_.size());
    if (inserted) ban_words_.resize(ban_words_.size() + words_, 0);
    ban_words_[it->second + (lane >> 6)] |= std::uint64_t{1} << (lane & 63);
    has_edge_bans_ = true;
  };
  const auto add_vertex_ban = [&](Vertex v, std::size_t lane) {
    const auto [it, inserted] = vertex_ban_.try_emplace(v, ban_words_.size());
    if (inserted) ban_words_.resize(ban_words_.size() + words_, 0);
    ban_words_[it->second + (lane >> 6)] |= std::uint64_t{1} << (lane & 63);
    has_vertex_bans_ = true;
  };

  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const BfsBans& bans = lanes[l].bans;
    if (bans.banned_edge != kInvalidEdge) add_edge_ban(bans.banned_edge, l);
    if (bans.banned_edge2 != kInvalidEdge) add_edge_ban(bans.banned_edge2, l);
    if (bans.banned_vertex_one != kInvalidVertex) {
      add_vertex_ban(bans.banned_vertex_one, l);
    }
    if (bans.banned_edge_mask != nullptr || bans.banned_vertex != nullptr) {
      ptr_bans_.push_back(PtrBanLane{l >> 6, std::uint64_t{1} << (l & 63),
                                     bans.banned_edge_mask,
                                     bans.banned_vertex});
    }
  }
}

void MultiSourceBfsKernel::run(const Graph& g,
                               std::span<const BfsLane> lanes) {
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t sigma = lanes.size();
  FTB_CHECK_MSG(sigma > 0, "multi-source kernel needs at least one lane");
  prepare(n, sigma);
  build_ban_tables(lanes);
  const std::size_t W = words_;

  // Validate every lane before the first write: a throw must not leave
  // half-seeded frontier bits behind (the front_/next_ arrays keep an
  // all-zero-between-runs invariant instead of an epoch stamp).
  for (const BfsLane& lane : lanes) {
    FTB_CHECK(g.valid_vertex(lane.source));
    FTB_CHECK_MSG(!lane.bans.vertex_banned(lane.source), "source is banned");
  }

  // Seed every lane's source at level 0. Lanes may share a source, so the
  // shared frontier list is deduplicated after seeding.
  for (std::size_t l = 0; l < sigma; ++l) {
    const Vertex src = lanes[l].source;
    const std::size_t vi = static_cast<std::size_t>(src);
    touch(vi);
    const std::uint64_t bit = std::uint64_t{1} << (l & 63);
    visited_[vi * W + (l >> 6)] |= bit;
    front_[vi * W + (l >> 6)] |= bit;
    dist_[vi * num_lanes_ + l] = 0;
    parent_[vi * num_lanes_ + l] = kInvalidVertex;
    parent_edge_[vi * num_lanes_ + l] = kInvalidEdge;
    order_[l].push_back(src);
    cur_list_.push_back(src);
  }
  std::sort(cur_list_.begin(), cur_list_.end());
  cur_list_.erase(std::unique(cur_list_.begin(), cur_list_.end()),
                  cur_list_.end());

  // Aggregate scouting state for the alpha/beta direction switch — the same
  // heuristic as the scalar kernel, summed over lanes. The direction only
  // picks how claims are discovered, never what is claimed: top-down's
  // ascending-frontier first claim and bottom-up's first-admissible-arc scan
  // both select each lane's (min parent id, min edge id) previous-level
  // neighbor.
  const BfsKernelConfig cfg;
  std::int64_t frontier_arcs = 0;
  for (const BfsLane& lane : lanes) frontier_arcs += g.degree(lane.source);
  std::int64_t unexplored_arcs =
      static_cast<std::int64_t>(sigma) * 2 *
          static_cast<std::int64_t>(g.num_edges()) -
      frontier_arcs;
  std::int64_t frontier_pairs = static_cast<std::int64_t>(sigma);
  if (need_.size() < W) need_.resize(W);
  const std::uint64_t tail_mask =
      (sigma & 63) != 0
          ? (std::uint64_t{1} << (sigma & 63)) - 1
          : ~std::uint64_t{0};

  std::int32_t level = 0;
  while (!cur_list_.empty()) {
    ++stats_.levels;
    next_list_.clear();
    std::int64_t next_arcs = 0;
    std::int64_t next_pairs = 0;
    const bool bottom_up =
        static_cast<double>(frontier_arcs) * cfg.alpha >
            static_cast<double>(unexplored_arcs) &&
        static_cast<double>(frontier_pairs) * cfg.beta >
            static_cast<double>(sigma) * static_cast<double>(n);

    if (bottom_up) {
      ++stats_.bottom_up_levels;
      // Pull phase: each still-unclaimed (vertex, lane) pair scans the
      // vertex's sorted adjacency and takes its first admissible
      // previous-level neighbor — per lane exactly the scalar bottom-up
      // claim, so the minimum-id parent rule is preserved.
      for (Vertex v = 0; v < static_cast<Vertex>(n); ++v) {
        const std::size_t vi = static_cast<std::size_t>(v);
        touch(vi);
        const std::size_t base = vi * W;
        std::uint64_t remaining = 0;
        for (std::size_t w = 0; w < W; ++w) {
          std::uint64_t nd = ~visited_[base + w];
          if (w == W - 1) nd &= tail_mask;
          need_[w] = nd;
          remaining |= nd;
        }
        if (remaining == 0) continue;
        if (has_vertex_bans_) {
          if (const std::uint64_t* vban = vertex_ban_words(v)) {
            remaining = 0;
            for (std::size_t w = 0; w < W; ++w) {
              need_[w] &= ~vban[w];
              remaining |= need_[w];
            }
          }
        }
        if (!ptr_bans_.empty()) {
          for (const PtrBanLane& pb : ptr_bans_) {
            if (pb.vertex_mask != nullptr && (*pb.vertex_mask)[vi] != 0) {
              need_[pb.word] &= ~pb.bit;
            }
          }
          remaining = 0;
          for (std::size_t w = 0; w < W; ++w) remaining |= need_[w];
        }
        if (remaining == 0) continue;
        bool claimed_any = false;
        for (const Arc& a : g.neighbors(v)) {
          const std::uint64_t* fu =
              front_.data() + static_cast<std::size_t>(a.to) * W;
          const std::uint64_t* eban =
              has_edge_bans_ ? edge_ban_words(a.edge) : nullptr;
          for (std::size_t w = 0; w < W; ++w) {
            std::uint64_t m = need_[w] & fu[w];
            if (m == 0) continue;
            if (eban != nullptr) m &= ~eban[w];
            if (m != 0 && !ptr_bans_.empty()) {
              for (const PtrBanLane& pb : ptr_bans_) {
                if (pb.word != w || (m & pb.bit) == 0) continue;
                if (pb.edge_mask != nullptr &&
                    (*pb.edge_mask)[static_cast<std::size_t>(a.edge)] != 0) {
                  m &= ~pb.bit;
                }
              }
            }
            if (m == 0) continue;
            need_[w] &= ~m;
            next_[base + w] |= m;
            next_pairs += std::popcount(m);
            next_arcs +=
                static_cast<std::int64_t>(g.degree(v)) * std::popcount(m);
            std::uint64_t bits = m;
            while (bits != 0) {
              const std::size_t l =
                  w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
              bits &= bits - 1;
              dist_[vi * num_lanes_ + l] = level + 1;
              parent_[vi * num_lanes_ + l] = a.to;
              parent_edge_[vi * num_lanes_ + l] = a.edge;
            }
            claimed_any = true;
          }
          if (claimed_any) {
            remaining = 0;
            for (std::size_t w = 0; w < W; ++w) remaining |= need_[w];
            if (remaining == 0) break;
          }
        }
        if (claimed_any) next_list_.push_back(v);
      }
    } else {
      ++stats_.top_down_levels;
      // Ascending expansion of the fused frontier: per lane, the first
      // admissible arc to claim a vertex comes from that lane's minimum-id
      // previous-level neighbor — the scalar determinism contract.
      for (const Vertex u : cur_list_) {
        const std::uint64_t* fu =
            front_.data() + static_cast<std::size_t>(u) * W;
        for (const Arc& a : g.neighbors(u)) {
          const Vertex v = a.to;
          const std::size_t vi = static_cast<std::size_t>(v);
          touch(vi);
          const std::size_t base = vi * W;
          const std::uint64_t* eban =
              has_edge_bans_ ? edge_ban_words(a.edge) : nullptr;
          const std::uint64_t* vban =
              has_vertex_bans_ ? vertex_ban_words(v) : nullptr;
          bool claimed_any = false;
          std::uint64_t had_next = 0;
          for (std::size_t w = 0; w < W; ++w) {
            const std::uint64_t nx = next_[base + w];
            had_next |= nx;
            std::uint64_t m = fu[w] & ~visited_[base + w] & ~nx;
            if (m == 0) continue;
            if (eban != nullptr) m &= ~eban[w];
            if (vban != nullptr) m &= ~vban[w];
            if (m != 0 && !ptr_bans_.empty()) {
              for (const PtrBanLane& pb : ptr_bans_) {
                if (pb.word != w || (m & pb.bit) == 0) continue;
                if ((pb.edge_mask != nullptr &&
                     (*pb.edge_mask)[static_cast<std::size_t>(a.edge)] != 0) ||
                    (pb.vertex_mask != nullptr &&
                     (*pb.vertex_mask)[vi] != 0)) {
                  m &= ~pb.bit;
                }
              }
            }
            if (m == 0) continue;
            next_[base + w] |= m;
            next_pairs += std::popcount(m);
            next_arcs +=
                static_cast<std::int64_t>(g.degree(v)) * std::popcount(m);
            std::uint64_t bits = m;
            while (bits != 0) {
              const std::size_t l =
                  w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
              bits &= bits - 1;
              dist_[vi * num_lanes_ + l] = level + 1;
              parent_[vi * num_lanes_ + l] = u;
              parent_edge_[vi * num_lanes_ + l] = a.edge;
            }
            claimed_any = true;
          }
          // Push on the all-zero → nonzero transition only: next_list_
          // stays duplicate-free, so the per-level sort is over distinct
          // vertices, not claiming arcs.
          if (claimed_any && had_next == 0) next_list_.push_back(v);
        }
      }
    }

    // Consume the current frontier before installing the next one (a vertex
    // can sit in both when lanes reach it at different depths).
    for (const Vertex u : cur_list_) {
      const std::size_t base = static_cast<std::size_t>(u) * W;
      for (std::size_t w = 0; w < W; ++w) front_[base + w] = 0;
    }

    if (!bottom_up) {  // bottom-up discovers ascending and unique already
      std::sort(next_list_.begin(), next_list_.end());
      next_list_.erase(std::unique(next_list_.begin(), next_list_.end()),
                       next_list_.end());
    }
    unexplored_arcs -= next_arcs;
    frontier_arcs = next_arcs;
    frontier_pairs = next_pairs;

    // Commit claims: visited |= claims, claims become the next frontier,
    // and each lane's order extends ascending — the per-level sorted
    // segment of the scalar contract.
    for (const Vertex v : next_list_) {
      const std::size_t base = static_cast<std::size_t>(v) * W;
      for (std::size_t w = 0; w < W; ++w) {
        std::uint64_t word = next_[base + w];
        visited_[base + w] |= word;
        front_[base + w] = word;
        next_[base + w] = 0;
        while (word != 0) {
          const std::size_t l =
              w * 64 + static_cast<std::size_t>(std::countr_zero(word));
          word &= word - 1;
          order_[l].push_back(v);
        }
      }
    }
    std::swap(cur_list_, next_list_);
    ++level;
  }
}

std::vector<CanonicalSp> ms_canonical_sp(const Graph& g,
                                         const EdgeWeights& weights,
                                         std::span<const BfsLane> lanes,
                                         MultiSourceBfsKernel& kernel) {
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  FTB_CHECK_MSG(weights.w.size() == static_cast<std::size_t>(g.num_edges()),
                "weight table size mismatch");
  // Pass 1, fused: one bit-parallel sweep labels every lane's hop
  // distances and layer order.
  kernel.run(g, lanes);

  std::vector<CanonicalSp> out(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const Vertex src = lanes[l].source;
    const BfsBans& bans = lanes[l].bans;
    CanonicalSp& sp = out[l];
    sp.hops.assign(n, kInfHops);
    sp.wsum.assign(n, 0);
    sp.parent.assign(n, kInvalidVertex);
    sp.parent_edge.assign(n, kInvalidEdge);
    sp.first_hop.assign(n, kInvalidVertex);
    const auto order = kernel.order(l);
    sp.order.assign(order.begin(), order.end());
    for (const Vertex v : sp.order) {
      sp.hops[static_cast<std::size_t>(v)] = kernel.dist(l, v);
    }

    // Pass 2, per lane: the canonical parent rule in layer order — the
    // same loop as canonical_sp, so the result is bit-identical to the
    // scalar two-pass reference.
    for (const Vertex v : sp.order) {
      if (v == src) continue;
      const std::int32_t hv = sp.hops[static_cast<std::size_t>(v)];
      const CanonicalParentChoice best = pick_canonical_parent(
          g, weights, v, hv,
          [&](const Arc& a) {
            return !bans.edge_banned(a.edge) && !bans.vertex_banned(a.to);
          },
          [&](Vertex u) { return sp.hops[static_cast<std::size_t>(u)]; },
          [&](Vertex u) { return sp.wsum[static_cast<std::size_t>(u)]; });
      FTB_DCHECK(best.parent != kInvalidVertex);
      sp.wsum[static_cast<std::size_t>(v)] = best.wsum;
      sp.parent[static_cast<std::size_t>(v)] = best.parent;
      sp.parent_edge[static_cast<std::size_t>(v)] = best.edge;
      sp.first_hop[static_cast<std::size_t>(v)] =
          (best.parent == src)
              ? v
              : sp.first_hop[static_cast<std::size_t>(best.parent)];
    }
  }
  return out;
}

const FreeListPool<MultiSourceBfsKernel>& multi_source_kernel_pool() {
  static const FreeListPool<MultiSourceBfsKernel> pool;
  return pool;
}

std::vector<CanonicalSp> ms_canonical_sp(const Graph& g,
                                         const EdgeWeights& weights,
                                         std::span<const BfsLane> lanes) {
  MsKernelLease lease(multi_source_kernel_pool());
  return ms_canonical_sp(g, weights, lanes, *lease);
}

std::vector<CanonicalSp> canonical_source_sps(
    const Graph& g, const EdgeWeights& weights,
    std::span<const Vertex> sources) {
  if (sources.size() == 1) {
    std::vector<CanonicalSp> out;
    out.push_back(canonical_sp(g, weights, sources.front()));
    return out;
  }
  std::vector<BfsLane> lanes(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    lanes[i].source = sources[i];
  }
  return ms_canonical_sp(g, weights, lanes);
}

}  // namespace ftb

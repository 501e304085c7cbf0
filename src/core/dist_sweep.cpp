#include "src/core/dist_sweep.hpp"

#include <algorithm>
#include <limits>

namespace ftb {

void ReplacementSweepScratch::prepare(std::size_t n) {
  if (stamp_.size() < n) {
    stamp_.assign(n, 0);
    dist_.resize(n);
    epoch_ = 0;
  }
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 0;
  }
  ++epoch_;
}

namespace {

/// Seed buffer of the Dial sweep, one per thread for every Tree
/// instantiation.
std::vector<std::pair<std::int32_t, Vertex>>& sweep_seeds() {
  thread_local std::vector<std::pair<std::int32_t, Vertex>> seeds;
  return seeds;
}

}  // namespace

template <class Tree, class Admit>
void replacement_dist_sweep(const Tree& tree, EdgeId banned_edge,
                            Vertex banned_vertex,
                            std::span<const Vertex> affected,
                            ReplacementSweepScratch& s, EdgeId ambient_edge,
                            Vertex ambient_vertex, SweepWorkStats* work,
                            std::span<const Vertex> affected2, Admit admit) {
  const Graph& g = tree.graph();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  s.prepare(n);
  FTB_DCHECK(!affected.empty() || affected2.empty());
  if (affected.empty()) return;

  // All replacement distances of A sit at or below no key smaller than the
  // depth of the shallowest slice root (dist' ≥ depth ≥ depth(root)), so
  // the bucket queue can be based there.
  const std::int32_t base = tree.depth(affected.front());
  FTB_DCHECK(affected2.empty() || tree.depth(affected2.front()) >= base);
  const auto for_each_affected = [&](auto&& body) {
    for (const Vertex v : affected) body(v);
    for (const Vertex v : affected2) body(v);
  };
  const auto steps = [&](const Arc& a) {
    return a.edge != banned_edge && a.edge != ambient_edge && admit(a.edge) &&
           a.to != banned_vertex && a.to != ambient_vertex;
  };

  // Mark A first so the seeding pass can tell inside from outside.
  for_each_affected([&](Vertex v) {
    if (v == banned_vertex || v == ambient_vertex) return;
    const std::size_t vi = static_cast<std::size_t>(v);
    s.stamp_[vi] = s.epoch_;
    s.dist_[vi] = kInfHops;
  });

  // Seed c_out(v): the best admissible step from an unaffected vertex.
  std::int32_t max_seed_rel = -1;
  std::int64_t visits = 0;
  std::vector<std::pair<std::int32_t, Vertex>>& seeds = sweep_seeds();
  seeds.clear();
  for_each_affected([&](Vertex v) {
    if (v == banned_vertex || v == ambient_vertex) return;
    ++visits;
    std::int32_t best = kInfHops;
    for (const Arc& a : g.neighbors(v)) {
      if (!steps(a) || s.in_set(a.to)) continue;
      const std::int32_t du = tree.depth(a.to);
      if (du >= kInfHops) continue;  // unreachable even in G
      best = std::min(best, du + 1);
    }
    if (best >= kInfHops) return;
    FTB_DCHECK(best >= base);
    const std::int32_t rel = best - base;
    seeds.emplace_back(rel, v);
    max_seed_rel = std::max(max_seed_rel, rel);
  });
  if (max_seed_rel < 0) {  // fault disconnects the whole subtree
    if (work != nullptr) work->sweep_visits += visits;
    return;
  }

  // Every relaxation step adds one hop per processed level, so no key can
  // exceed max_seed_rel + |A|. Sizing the bucket array up front keeps the
  // relaxation loop free of reallocation (bucket capacity is retained
  // across sweeps, so this is a steady-state no-op).
  const std::size_t num_buckets = static_cast<std::size_t>(max_seed_rel) +
                                  affected.size() + affected2.size() + 2;
  if (s.buckets_.size() < num_buckets) s.buckets_.resize(num_buckets);
  for (const auto& [rel, v] : seeds) {
    s.dist_[static_cast<std::size_t>(v)] = base + rel;
    s.buckets_[static_cast<std::size_t>(rel)].push_back(v);
  }

  // Dial relaxation: all arcs have weight 1, keys only grow, so the first
  // non-stale pop of a vertex is final.
  std::int32_t max_rel = max_seed_rel;
  for (std::int32_t k = 0; k <= max_rel; ++k) {
    auto& bucket = s.buckets_[static_cast<std::size_t>(k)];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const Vertex v = bucket[i];
      if (s.dist_[static_cast<std::size_t>(v)] != base + k) continue;  // stale
      ++visits;
      for (const Arc& a : g.neighbors(v)) {
        const Vertex u = a.to;
        if (!steps(a) || !s.in_set(u)) continue;
        auto& du = s.dist_[static_cast<std::size_t>(u)];
        if (du > base + k + 1) {
          du = base + k + 1;
          FTB_DCHECK(static_cast<std::size_t>(k) + 1 < s.buckets_.size());
          s.buckets_[static_cast<std::size_t>(k) + 1].push_back(u);
          max_rel = std::max(max_rel, k + 1);
        }
      }
    }
    bucket.clear();  // capacity retained for the next sweep
  }
  if (work != nullptr) work->sweep_visits += visits;
}

template void replacement_dist_sweep(const BfsTree&, EdgeId, Vertex,
                                     std::span<const Vertex>,
                                     ReplacementSweepScratch&, EdgeId, Vertex,
                                     SweepWorkStats*, std::span<const Vertex>,
                                     AnyEdge);
template void replacement_dist_sweep(const PuncturedTree&, EdgeId, Vertex,
                                     std::span<const Vertex>,
                                     ReplacementSweepScratch&, EdgeId, Vertex,
                                     SweepWorkStats*, std::span<const Vertex>,
                                     AnyEdge);
template void replacement_dist_sweep(const BfsTree&, EdgeId, Vertex,
                                     std::span<const Vertex>,
                                     ReplacementSweepScratch&, EdgeId, Vertex,
                                     SweepWorkStats*, std::span<const Vertex>,
                                     EdgesOfH);

namespace {

void check_puncture_args(const BfsTree& base, EdgeId banned_edge,
                         Vertex banned_vertex) {
  FTB_CHECK_MSG((banned_edge == kInvalidEdge) !=
                    (banned_vertex == kInvalidVertex),
                "rebase_punctured_tree: exactly one failed element");
  if (banned_edge != kInvalidEdge) {
    FTB_CHECK_MSG(base.is_tree_edge(banned_edge),
                  "rebase_punctured_tree: banned edge is not a tree edge — "
                  "the base tree already IS the punctured canonical tree");
  } else {
    FTB_CHECK_MSG(banned_vertex != base.source() &&
                      base.reachable(banned_vertex),
                  "rebase_punctured_tree: banned vertex must be a reachable "
                  "non-source vertex");
  }
}

Vertex affected_top(const BfsTree& base, EdgeId banned_edge,
                    Vertex banned_vertex) {
  return banned_edge != kInvalidEdge ? base.lower_endpoint(banned_edge)
                                     : banned_vertex;
}

/// Phase 2 of the punctured rebase — THE one implementation both
/// rebase_punctured_tree and PuncturedWorkspace::puncture run, so the
/// label identity between the referee and the overlay hangs on a single
/// piece of code. Precondition: `sweep` holds the phase-1 punctured hop
/// distances of `affected` (the base-tree preorder slice below the fault).
/// On return `out` holds the punctured canonical labels of the slice
/// (indexed by tin0(v) − tin0(top)) and `by_level` the slice in ascending
/// (punctured hops, id) order, disconnected vertices last. Labels outside
/// the slice are T0's and are read straight from `base`.
void relabel_slice(const BfsTree& base, EdgeId banned_edge,
                   Vertex banned_vertex, std::span<const Vertex> affected,
                   const ReplacementSweepScratch& sweep,
                   std::vector<Vertex>& by_level, detail::SliceLabels& out,
                   SweepWorkStats* work) {
  const Graph& g = base.graph();
  const EdgeWeights& W = base.weights();
  const CanonicalSp& bsp = base.sp();
  const Vertex src = base.source();
  const std::int32_t lo = base.tin(affected.front());
  const std::size_t a = affected.size();

  // The affected subtree is a contiguous preorder (tin) interval of the
  // base tree, so membership is two comparisons.
  const auto slot = [&](Vertex u) -> std::int32_t {
    const std::int32_t i = base.tin(u) - lo;
    return static_cast<std::size_t>(static_cast<std::uint32_t>(i)) < a ? i
                                                                       : -1;
  };
  // Authoritative punctured hops: sweep output inside the affected set,
  // unchanged labels outside.
  const auto hops_of = [&](Vertex u) {
    return slot(u) >= 0 ? sweep.dist(u) : base.depth(u);
  };
  const auto wsum_of = [&](Vertex u) {
    const std::int32_t i = slot(u);
    return i >= 0 ? out.wsum[static_cast<std::size_t>(i)]
                  : bsp.wsum[static_cast<std::size_t>(u)];
  };

  out.hops.resize(a);
  out.wsum.resize(a);
  out.parent.resize(a);
  out.parent_edge.resize(a);
  out.first_hop.resize(a);

  // Canonical labels in ascending (new hops, id) order — the ONE parent
  // rule (pick_canonical_parent, shared with canonical_sp pass 2).
  // Predecessor labels are final when consumed: unaffected ones never
  // change, affected ones sit one level up and were processed earlier.
  by_level.assign(affected.begin(), affected.end());
  std::sort(by_level.begin(), by_level.end(), [&](Vertex x, Vertex y) {
    const std::int32_t hx = sweep.dist(x), hy = sweep.dist(y);
    return hx != hy ? hx < hy : x < y;
  });
  for (const Vertex v : by_level) {
    const std::size_t i = static_cast<std::size_t>(slot(v));
    const std::int32_t hv = sweep.dist(v);
    if (hv >= kInfHops) {  // destroyed or disconnected by the fault
      out.hops[i] = kInfHops;
      out.wsum[i] = 0;
      out.parent[i] = kInvalidVertex;
      out.parent_edge[i] = kInvalidEdge;
      out.first_hop[i] = kInvalidVertex;
      continue;
    }
    const CanonicalParentChoice best = pick_canonical_parent(
        g, W, v, hv,
        [&](const Arc& arc) {
          return arc.edge != banned_edge && arc.to != banned_vertex;
        },
        hops_of, wsum_of);
    FTB_DCHECK(best.parent != kInvalidVertex);
    out.hops[i] = hv;
    out.wsum[i] = best.wsum;
    out.parent[i] = best.parent;
    out.parent_edge[i] = best.edge;
    if (best.parent == src) {
      out.first_hop[i] = v;
    } else {
      const std::int32_t pi = slot(best.parent);
      out.first_hop[i] =
          pi >= 0 ? out.first_hop[static_cast<std::size_t>(pi)]
                  : bsp.first_hop[static_cast<std::size_t>(best.parent)];
    }
  }
  if (work != nullptr) {
    work->label_writes += static_cast<std::int64_t>(a);
  }
}

}  // namespace

BfsTree rebase_punctured_tree(const BfsTree& base, EdgeId banned_edge,
                              Vertex banned_vertex, SweepWorkStats* work) {
  check_puncture_args(base, banned_edge, banned_vertex);
  const Graph& g = base.graph();
  const std::span<const Vertex> affected =
      base.subtree(affected_top(base, banned_edge, banned_vertex));

  // Phase 1: punctured hop distances for the affected subtree, seeded from
  // the unaffected boundary (whose depths are final — their tree paths
  // avoid the fault). Phase 2: the slice's canonical labels.
  thread_local ReplacementSweepScratch sweep;
  replacement_dist_sweep(base, banned_edge, banned_vertex, affected, sweep,
                         kInvalidEdge, kInvalidVertex, work);
  thread_local std::vector<Vertex> by_level;
  thread_local detail::SliceLabels slice;
  relabel_slice(base, banned_edge, banned_vertex, affected, sweep, by_level,
                slice, work);

  // Everything outside the affected subtree keeps its labels verbatim —
  // at the price the overlay exists to avoid: a full O(n) copy.
  CanonicalSp sp = base.sp();
  if (work != nullptr) {
    work->label_writes += static_cast<std::int64_t>(g.num_vertices());
  }
  for (std::size_t i = 0; i < affected.size(); ++i) {
    const std::size_t v = static_cast<std::size_t>(affected[i]);
    sp.hops[v] = slice.hops[i];
    sp.wsum[v] = slice.wsum[i];
    sp.parent[v] = slice.parent[i];
    sp.parent_edge[v] = slice.parent_edge[i];
    sp.first_hop[v] = slice.first_hop[i];
  }

  // Phase 3: finalization order = reachable vertices by (hops, id). The
  // base order already is that sequence for the unaffected vertices; merge
  // the relabeled subtree back in. by_level is (hops, id)-sorted with
  // kInfHops largest, so the vertices the fault disconnects form its tail;
  // they leave the order entirely.
  const std::vector<Vertex>& base_order = base.sp().order;
  std::vector<Vertex> order;
  order.reserve(base_order.size());
  const std::size_t a_end = [&] {
    std::size_t e = by_level.size();
    while (e > 0 && sweep.dist(by_level[e - 1]) >= kInfHops) --e;
    return e;
  }();
  const Vertex top = affected.front();
  std::size_t ai = 0;
  for (const Vertex u : base_order) {
    if (base.is_ancestor_or_equal(top, u)) continue;  // merged from by_level
    const std::int32_t hu = sp.hops[static_cast<std::size_t>(u)];
    while (ai < a_end) {
      const Vertex x = by_level[ai];
      const std::int32_t hx = sp.hops[static_cast<std::size_t>(x)];
      if (hx < hu || (hx == hu && x < u)) {
        order.push_back(x);
        ++ai;
      } else {
        break;
      }
    }
    order.push_back(u);
  }
  while (ai < a_end) order.push_back(by_level[ai++]);
  sp.order = std::move(order);

  return BfsTree(g, base.weights(), base.source(), std::move(sp));
}

// ---------------------------------------------------------------------------
// PuncturedTree

std::span<const Vertex> PuncturedTree::children(Vertex v) const {
  const std::int32_t i = slot(v);
  FTB_DCHECK(i >= 0);
  const std::size_t si = static_cast<std::size_t>(i);
  return {child_list_.data() + child_offsets_[si],
          child_list_.data() + child_offsets_[si + 1]};
}

std::span<const Vertex> PuncturedTree::subtree_or_empty(Vertex v) const {
  const std::int32_t i = slot(v);
  if (i >= 0) {
    const std::size_t si = static_cast<std::size_t>(i);
    if (tin_[si] < 0) return {};  // disconnected by the fault
    return {preorder_.data() + tin_[si], preorder_.data() + tout_[si]};
  }
  // An outer T_f ancestor of A_f: its slice of the outer blocks.
  FTB_DCHECK(v != source() && base_->reachable(v));
  return {outer_preorder_.data() +
              outer_at_[static_cast<std::size_t>(base_->tin(v))],
          outer_preorder_.data() +
              outer_at_[static_cast<std::size_t>(base_->tout(v))]};
}

bool PuncturedTree::is_ancestor_or_equal(Vertex a, Vertex d) const {
  const std::int32_t ia = slot(a);
  const std::int32_t id = slot(d);
  if (id < 0) {
    // Outer vertices keep their T0 paths, and those avoid A_f entirely.
    return base_->is_ancestor_or_equal(a, d);
  }
  const std::size_t sd = static_cast<std::size_t>(id);
  if (ia >= 0) {
    const std::size_t sa = static_cast<std::size_t>(ia);
    return tin_[sa] <= tin_[sd] && tout_[sd] <= tout_[sa];
  }
  // d's T_f path leaves A_f at its exit and follows T0 from there.
  const Vertex x = exit_[sd];
  return x != kInvalidVertex && base_->is_ancestor_or_equal(a, x);
}

std::vector<Vertex> PuncturedTree::path_from_source(Vertex v) const {
  FTB_DCHECK(reachable(v));
  std::vector<Vertex> path;
  for (Vertex u = v; u != kInvalidVertex; u = parent(u)) path.push_back(u);
  std::reverse(path.begin(), path.end());
  return path;
}

void PuncturedTree::derive(
    std::span<const Vertex> by_level, std::vector<Vertex>& roots,
    std::vector<std::pair<std::int32_t, std::int32_t>>& stack) {
  const BfsTree& base = *base_;
  const std::size_t a = static_cast<std::size_t>(size_);

  // Exits and forest roots, parents first (by_level ascends in T_f hops).
  // Children per affected parent are counted into child_offsets_[parent].
  exit_.resize(a);
  child_offsets_.assign(a + 1, 0);
  roots.clear();
  for (const Vertex v : by_level) {
    const std::size_t i = static_cast<std::size_t>(slot(v));
    const Vertex p = labels_.parent[i];
    if (p == kInvalidVertex) {
      exit_[i] = kInvalidVertex;
      continue;
    }
    const std::int32_t pi = slot(p);
    if (pi >= 0) {
      exit_[i] = exit_[static_cast<std::size_t>(pi)];
      ++child_offsets_[static_cast<std::size_t>(pi)];
    } else {
      exit_[i] = p;
      roots.push_back(v);
    }
  }

  // Children CSR: inclusive prefix sums give each parent's range END, and
  // a reverse by_level pass fills ranges back to front, leaving every
  // offset at its range start. Within one level by_level ascends by id, so
  // each child list comes out id-sorted.
  for (std::size_t i = 1; i < a; ++i) child_offsets_[i] += child_offsets_[i - 1];
  child_offsets_[a] = a > 0 ? child_offsets_[a - 1] : 0;
  child_list_.resize(static_cast<std::size_t>(child_offsets_[a]));
  for (auto it = by_level.rbegin(); it != by_level.rend(); ++it) {
    const Vertex p = labels_.parent[static_cast<std::size_t>(slot(*it))];
    if (p == kInvalidVertex) continue;
    const std::int32_t pi = slot(p);
    if (pi < 0) continue;
    child_list_[static_cast<std::size_t>(
        --child_offsets_[static_cast<std::size_t>(pi)])] = *it;
  }

  // Forest preorder, roots grouped by their exit's T0 position so the
  // forests hanging off one outer vertex form one contiguous run.
  const auto exit_pos = [&](Vertex r) {
    return base.tin(exit_[static_cast<std::size_t>(slot(r))]);
  };
  std::sort(roots.begin(), roots.end(), [&](Vertex x, Vertex y) {
    const std::int32_t px = exit_pos(x), py = exit_pos(y);
    return px != py ? px < py : x < y;
  });
  tin_.assign(a, -1);
  tout_.assign(a, -1);
  preorder_.clear();
  std::int32_t clock = 0;
  for (const Vertex r : roots) {
    const std::int32_t ri = slot(r);
    tin_[static_cast<std::size_t>(ri)] = clock++;
    preorder_.push_back(r);
    stack.clear();
    stack.emplace_back(ri, child_offsets_[static_cast<std::size_t>(ri)]);
    while (!stack.empty()) {
      auto& [i, next] = stack.back();
      if (next < child_offsets_[static_cast<std::size_t>(i) + 1]) {
        const Vertex c = child_list_[static_cast<std::size_t>(next++)];
        const std::int32_t ci = slot(c);
        tin_[static_cast<std::size_t>(ci)] = clock++;
        preorder_.push_back(c);
        stack.emplace_back(ci, child_offsets_[static_cast<std::size_t>(ci)]);
      } else {
        tout_[static_cast<std::size_t>(i)] = clock;
        stack.pop_back();
      }
    }
  }

  // Outer blocks: every outer T_f ancestor u of A_f other than the source
  // is a T0 ancestor-or-self of some exit, so it lies in the T0 subtree of
  // that exit's top-level vertex (first_hop). Walk each such block in T0
  // preorder, skip the A_f interval, and splice each exit's forests in
  // right after it: the result is a T_f preorder of the block in which
  // every outer u's T_f subtree is the contiguous run from u's T0 position
  // to its T0 subtree end. outer_at_ records where each T0 position lands.
  const std::span<const Vertex> pre0 = base.preorder();
  const std::vector<Vertex>& first_hop0 = base.sp().first_hop;
  outer_preorder_.clear();
  const auto cur = [&] {
    return static_cast<std::int32_t>(outer_preorder_.size());
  };
  const std::int32_t hi = lo_ + size_;
  std::size_t next_root = 0;
  Vertex block = kInvalidVertex;
  for (const Vertex r : roots) {
    const Vertex x = exit_[static_cast<std::size_t>(slot(r))];
    if (x == base.source()) continue;  // the source is no sweep site
    const Vertex b = first_hop0[static_cast<std::size_t>(x)];
    if (b == block) continue;  // roots ascend by exit position: same block
    block = b;
    std::int32_t t = base.tin(b);
    const std::int32_t end = base.tout(b);
    while (next_root < roots.size() && exit_pos(roots[next_root]) < t) {
      ++next_root;  // forests hanging off the source
    }
    while (t < end) {
      outer_at_[static_cast<std::size_t>(t)] = cur();
      if (t == lo_) {
        t = hi;
        continue;
      }
      outer_preorder_.push_back(pre0[static_cast<std::size_t>(t)]);
      while (next_root < roots.size() && exit_pos(roots[next_root]) == t) {
        const std::size_t fi =
            static_cast<std::size_t>(slot(roots[next_root++]));
        outer_preorder_.insert(outer_preorder_.end(),
                               preorder_.begin() + tin_[fi],
                               preorder_.begin() + tout_[fi]);
      }
      ++t;
    }
    outer_at_[static_cast<std::size_t>(end)] = cur();
  }
}

// ---------------------------------------------------------------------------
// PuncturedWorkspace

void PuncturedWorkspace::bind(const BfsTree& base) {
  tree_.base_ = &base;
  tree_.lo_ = 0;
  tree_.size_ = 0;
  // One slot per T0 preorder position plus the end sentinel; entries are
  // written per puncture, never filled.
  const std::size_t positions =
      static_cast<std::size_t>(base.graph().num_vertices()) + 1;
  if (tree_.outer_at_.size() < positions) tree_.outer_at_.resize(positions);
}

const PuncturedTree& PuncturedWorkspace::puncture(EdgeId banned_edge,
                                                  Vertex banned_vertex) {
  FTB_CHECK_MSG(tree_.base_ != nullptr,
                "PuncturedWorkspace::puncture before bind()");
  const BfsTree& base = *tree_.base_;
  check_puncture_args(base, banned_edge, banned_vertex);
  const Vertex top = affected_top(base, banned_edge, banned_vertex);
  const std::span<const Vertex> affected = base.subtree(top);

  tree_.lo_ = base.tin(top);
  tree_.size_ = static_cast<std::int32_t>(affected.size());
  replacement_dist_sweep(base, banned_edge, banned_vertex, affected, sweep_,
                         kInvalidEdge, kInvalidVertex, &stats_);
  relabel_slice(base, banned_edge, banned_vertex, affected, sweep_, by_level_,
                tree_.labels_, &stats_);
  tree_.derive(by_level_, roots_, stack_);
  return tree_;
}

}  // namespace ftb

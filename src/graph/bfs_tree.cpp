#include "src/graph/bfs_tree.hpp"

#include <algorithm>

#include "src/graph/bfs_kernel.hpp"

namespace ftb {

BfsTree::BfsTree(const Graph& g, const EdgeWeights& weights, Vertex source)
    : BfsTree(g, weights, source, BfsBans{}) {}

BfsTree::BfsTree(const Graph& g, const EdgeWeights& weights, Vertex source,
                 const BfsBans& bans)
    : BfsTree(g, weights, source,
              canonical_sp_fused(g, weights, source, bans)) {}

BfsTree::BfsTree(const Graph& g, const EdgeWeights& weights, Vertex source,
                 CanonicalSp sp)
    : g_(&g), weights_(&weights), source_(source), sp_(std::move(sp)) {
  build_derived();
}

void BfsTree::build_derived() {
  const Graph& g = *g_;
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t m = static_cast<std::size_t>(g.num_edges());

  // Children CSR. Parents point up; invert. Children come out sorted by id
  // because we scan vertices in id order.
  child_offsets_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const Vertex p = sp_.parent[v];
    if (p != kInvalidVertex) ++child_offsets_[static_cast<std::size_t>(p) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) child_offsets_[i + 1] += child_offsets_[i];
  child_list_.resize(static_cast<std::size_t>(child_offsets_[n]));
  // Fill with each parent's start offset as its cursor, which leaves it at
  // the parent's end — the next parent's start — so one shift restores the
  // starts without a separate cursor array.
  for (std::size_t v = 0; v < n; ++v) {
    const Vertex p = sp_.parent[v];
    if (p != kInvalidVertex) {
      child_list_[static_cast<std::size_t>(
          child_offsets_[static_cast<std::size_t>(p)]++)] =
          static_cast<Vertex>(v);
    }
  }
  for (std::size_t i = n; i > 0; --i) child_offsets_[i] = child_offsets_[i - 1];
  child_offsets_[0] = 0;

  // Iterative preorder DFS with tin/tout and subtree sizes.
  tin_.assign(n, -1);
  tout_.assign(n, -1);
  subtree_size_.assign(n, 0);
  preorder_.clear();
  if (sp_.reachable(source_)) {
    std::vector<std::pair<Vertex, std::size_t>> stack;  // (vertex, child idx)
    stack.emplace_back(source_, 0);
    std::int32_t clock = 0;
    tin_[idx(source_)] = clock++;
    preorder_.push_back(source_);
    while (!stack.empty()) {
      auto& [u, ci] = stack.back();
      const auto kids = children(u);
      if (ci < kids.size()) {
        const Vertex c = kids[ci++];
        tin_[idx(c)] = clock++;
        preorder_.push_back(c);
        stack.emplace_back(c, 0);
      } else {
        tout_[idx(u)] = clock;
        stack.pop_back();
      }
    }
  }
  num_reachable_ = static_cast<std::int32_t>(preorder_.size());
  // Subtree sizes in reverse preorder (children before parents).
  for (auto it = preorder_.rbegin(); it != preorder_.rend(); ++it) {
    std::int32_t sz = 1;
    for (const Vertex c : children(*it)) sz += subtree_size_[idx(c)];
    subtree_size_[idx(*it)] = sz;
  }

  // Tree edge table, ordered by preorder of the lower endpoint so that
  // "edges by increasing subtree position" enumerations are deterministic.
  lower_.assign(m, kInvalidVertex);
  tree_edges_.clear();
  tree_edges_.reserve(preorder_.size());
  for (const Vertex v : preorder_) {
    const EdgeId pe = sp_.parent_edge[idx(v)];
    if (pe != kInvalidEdge) {
      lower_[eidx(pe)] = v;
      tree_edges_.push_back(pe);
    }
  }
}

std::span<const Vertex> BfsTree::children(Vertex v) const {
  FTB_DCHECK(g_->valid_vertex(v));
  return {child_list_.data() + child_offsets_[idx(v)],
          child_list_.data() + child_offsets_[idx(v) + 1]};
}

std::span<const Vertex> BfsTree::subtree(Vertex v) const {
  FTB_DCHECK(reachable(v));
  const std::int32_t from = tin_[idx(v)];
  const std::int32_t to = tout_[idx(v)];
  return {preorder_.data() + from, preorder_.data() + to};
}

}  // namespace ftb

#include "workloads.hpp"

#include <algorithm>
#include <tuple>

#include "src/core/dual_fault.hpp"
#include "src/graph/bfs_kernel.hpp"
#include "src/graph/generators.hpp"

namespace perfbench {

using ftb::BfsTree;
using ftb::EdgeId;
using ftb::FaultClass;
using ftb::FtBfsStructure;
using ftb::Rng;
using ftb::Vertex;
using ftb::api::Query;

namespace {

// Why these three (README.md has the long form):
//   eps_rmat     the paper's tradeoff pipeline (S0, interference, S1/S2)
//                and the O(1) read path;
//   dual_rmat    the per-site dual build and site-restricted pair
//                traversals;
//   mbfs_whatif  fused multi-source trees, eight engines per load and
//                what-if grouping.
// Batch sizes keep a batch at 7-15 ms of work, so a cache-contention
// burst of a millisecond moves one batch by a few percent, while a 20 s
// serve still answers over 1000 batches. A dual batch holds 64 pairs, so
// one costly pair moves its batch little and the tail does not hinge on
// the few costliest batches a seed happens to draw.
constexpr Workload kWorkloads[] = {
    {"eps_rmat", FaultClass::kEdge, 1.0 / 3.0, 16, 9, 1, 1, 1 << 18, 6, 1},
    {"dual_rmat", FaultClass::kDual, 0.0, 12, 8, 2, 1, 1024, 8, 3},
    {"mbfs_whatif", FaultClass::kEdge, 0.5, 14, 9, 3, 8, 1 << 14, 8, 1},
};

Vertex random_vertex(const ftb::Graph& g, Rng& rng) {
  return static_cast<Vertex>(
      rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
}

/// A vertex other than `a` and `b`.
Vertex random_vertex_except(const ftb::Graph& g, Vertex a, Vertex b,
                            Rng& rng) {
  for (;;) {
    const Vertex v = random_vertex(g, rng);
    if (v != a && v != b) return v;
  }
}

/// The vertex `k` tree hops above `v`.
Vertex ancestor(const BfsTree& t, Vertex v, std::int32_t k) {
  for (std::int32_t j = 0; j < k; ++j) v = t.parent(v);
  return v;
}

/// A random non-reinforced edge of π(s, v), or kInvalidEdge.
EdgeId path_edge(const BfsTree& t, const FtBfsStructure& h, Vertex v,
                 Rng& rng) {
  const std::int32_t d = t.depth(v);
  if (!t.reachable(v) || d <= 0) return ftb::kInvalidEdge;
  for (int tries = 0; tries < 4; ++tries) {
    const auto k = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(d)));
    const EdgeId e = t.parent_edge(ancestor(t, v, k));
    if (!h.is_reinforced(e)) return e;
  }
  return ftb::kInvalidEdge;
}

/// A random non-reinforced tree edge; a non-tree edge (never reinforced)
/// when the draws keep hitting reinforced ones.
EdgeId tree_edge(const BfsTree& t, const FtBfsStructure& h, Rng& rng) {
  const std::vector<EdgeId>& te = t.tree_edges();
  for (int tries = 0; tries < 16; ++tries) {
    const EdgeId e = te[rng.next_below(te.size())];
    if (!h.is_reinforced(e)) return e;
  }
  const ftb::Graph& g = t.graph();
  for (;;) {
    const auto e = static_cast<EdgeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
    if (!h.is_reinforced(e)) return e;
  }
}

/// An in-model single-edge-fault lookup for source `si`: half the faults
/// lie on π(s, v), so the lookup reads a replacement row.
Query edge_lookup(const Inputs& in, const FtBfsStructure& h, int si,
                  Rng& rng) {
  const BfsTree& t = in.trees[static_cast<std::size_t>(si)];
  Query q;
  q.source_index = si;
  q.v = random_vertex_except(*in.g, t.source(), t.source(), rng);
  q.kind = FaultClass::kEdge;
  q.fault = rng.next_bool(0.5) ? path_edge(t, h, q.v, rng) : ftb::kInvalidEdge;
  if (q.fault < 0) q.fault = tree_edge(t, h, rng);
  return q;
}

/// A vertex strictly inside π(s, v) for some v, or a random non-source
/// vertex when the tree is too shallow.
Vertex internal_vertex(const BfsTree& t, Rng& rng, Vertex* v_out) {
  const ftb::Graph& g = t.graph();
  for (int tries = 0; tries < 64; ++tries) {
    const Vertex v = random_vertex(g, rng);
    const std::int32_t d = t.depth(v);
    if (!t.reachable(v) || d < 2) continue;
    *v_out = v;
    return ancestor(t, v,
                    1 + static_cast<std::int32_t>(rng.next_below(
                            static_cast<std::uint64_t>(d - 1))));
  }
  *v_out = random_vertex(g, rng);
  return random_vertex_except(g, t.source(), *v_out, rng);
}

/// A single vertex-fault query for source `si` (in-model on a dual
/// session, a what-if elsewhere when `what_if`).
Query vertex_query(const Inputs& in, int si, bool what_if, Rng& rng) {
  const BfsTree& t = in.trees[static_cast<std::size_t>(si)];
  Query q;
  q.source_index = si;
  q.kind = FaultClass::kVertex;
  q.fault = internal_vertex(t, rng, &q.v);
  if (q.v == q.fault) {
    q.v = random_vertex_except(*in.g, t.source(), q.fault, rng);
  }
  q.allow_what_if = what_if;
  return q;
}

/// A failure pair of two tree edges, with v below the first so the pair
/// matters to the answer.
Query edge_pair(const Inputs& in, const FtBfsStructure& h, Rng& rng) {
  const BfsTree& t = in.trees.front();
  Query q;
  q.kind = FaultClass::kEdge;
  q.fault = tree_edge(t, h, rng);
  const std::span<const Vertex> below = t.subtree(t.lower_endpoint(q.fault));
  q.v = below[rng.next_below(below.size())];
  q.kind2 = FaultClass::kEdge;
  for (int tries = 0; tries < 16 && (q.fault2 < 0 || q.fault2 == q.fault);
       ++tries) {
    q.fault2 = rng.next_bool(0.5) ? path_edge(t, h, q.v, rng)
                                  : tree_edge(t, h, rng);
  }
  if (q.fault2 < 0 || q.fault2 == q.fault) q.fault2 = tree_edge(t, h, rng);
  return q;
}

int random_source(const Inputs& in, Rng& rng) {
  return static_cast<int>(rng.next_below(in.sources.size()));
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

ftb::Graph make_graph(Vertex scale, std::uint64_t seed) {
  return ftb::gen::rmat_connected(
      scale, std::int64_t{8} << static_cast<std::int64_t>(scale), seed);
}

Inputs::Inputs(const ftb::Graph& graph, std::vector<Vertex> srcs,
               std::uint64_t weight_seed)
    : g(&graph),
      sources(std::move(srcs)),
      weights(ftb::EdgeWeights::uniform_random(graph, weight_seed)) {
  trees.reserve(sources.size());
  for (const Vertex s : sources) trees.emplace_back(graph, weights, s);
}

std::vector<Batch> make_batches(const Workload& w, const Inputs& in,
                                const FtBfsStructure& h, int count,
                                Rng& rng) {
  constexpr int kWhatIfPerGroup = 8;
  std::vector<Batch> batches(static_cast<std::size_t>(count));
  for (Batch& b : batches) {
    b.reserve(static_cast<std::size_t>(w.batch));
    if (w.model == FaultClass::kDual) {
      // One failure pair per 16 queries.
      for (int i = 0; i < w.batch / 16; ++i) {
        b.push_back(edge_pair(in, h, rng));
      }
      while (static_cast<int>(b.size()) < w.batch) {
        b.push_back(rng.next_bool(0.5) ? edge_lookup(in, h, 0, rng)
                                       : vertex_query(in, 0, false, rng));
      }
    } else if (w.sigma > 1) {
      // One what-if vertex fault per 1024 queries.
      for (int i = 0; i < w.batch / 1024; ++i) {
        const Query x = vertex_query(in, random_source(in, rng), true, rng);
        const Vertex s = in.sources[static_cast<std::size_t>(x.source_index)];
        for (int j = 0; j < kWhatIfPerGroup; ++j) {
          Query q = x;
          q.v = random_vertex_except(*in.g, s, static_cast<Vertex>(x.fault),
                                     rng);
          b.push_back(q);
        }
      }
      while (static_cast<int>(b.size()) < w.batch) {
        b.push_back(edge_lookup(in, h, random_source(in, rng), rng));
      }
    } else {
      while (static_cast<int>(b.size()) < w.batch) {
        b.push_back(edge_lookup(in, h, 0, rng));
      }
    }
  }
  return batches;
}

Batch make_lookup_batch(const Inputs& in, const FtBfsStructure& h, int size,
                        Rng& rng) {
  Batch b;
  b.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    b.push_back(edge_lookup(in, h, random_source(in, rng), rng));
  }
  return b;
}

Batch make_traversal_batch(const Workload& w, const Inputs& in,
                           const FtBfsStructure& h, int size, Rng& rng) {
  Batch b;
  while (static_cast<int>(b.size()) < size) {
    const Query q = w.model == FaultClass::kDual
                        ? edge_pair(in, h, rng)
                        : vertex_query(in, random_source(in, rng), true, rng);
    const bool repeat = std::any_of(b.begin(), b.end(), [&](const Query& o) {
      return o.source_index == q.source_index && o.fault == q.fault &&
             o.fault2 == q.fault2;
    });
    if (!repeat) b.push_back(q);
  }
  return b;
}

std::int64_t referee_mismatches(const Inputs& in, const FtBfsStructure& h,
                                std::span<const Answer> sample) {
  // One referee BFS per distinct failure: sort the sample by its key.
  const auto key = [](const Answer& a) {
    return std::make_tuple(a.q.allow_what_if, a.q.source_index,
                           static_cast<int>(a.q.kind), a.q.fault,
                           static_cast<int>(a.q.kind2), a.q.fault2);
  };
  std::vector<Answer> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end(),
            [&](const Answer& a, const Answer& b) { return key(a) < key(b); });

  ftb::BfsScratch scratch;
  std::int64_t mismatches = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const Query& q = sorted[i].q;
    if (i == 0 || key(sorted[i]) != key(sorted[i - 1])) {
      const Vertex s = in.sources[static_cast<std::size_t>(q.source_index)];
      const ftb::DualSite f1{q.kind, q.fault};
      if (q.fault2 >= 0) {
        ftb::dual_bruteforce_bfs(*in.g, s, f1, ftb::DualSite{q.kind2, q.fault2},
                                 scratch);
      } else {
        ftb::BfsBans bans;
        if (q.allow_what_if) bans.banned_edge_mask = &h.complement_mask();
        if (q.kind == FaultClass::kEdge) {
          bans.banned_edge = q.fault;
        } else {
          bans.banned_vertex_one = q.fault;
        }
        ftb::bfs_run(*in.g, s, bans, scratch);
      }
    }
    const ftb::api::QueryOutcome want = q.allow_what_if
                                            ? ftb::api::QueryOutcome::kWhatIf
                                            : ftb::api::QueryOutcome::kInModel;
    if (sorted[i].r.outcome != want || sorted[i].r.dist != scratch.dist(q.v)) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace perfbench

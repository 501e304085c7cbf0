// dual_fault.cpp — the dual-failure recursion (one punctured single-fault
// engine pair per first-failure site), the pair-table builder, the serving
// oracle and the brute-force two-failure BFS. See dual_fault.hpp for the
// correctness argument.
#include "src/core/dual_fault.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <type_traits>

#include "src/core/dist_sweep.hpp"
#include "src/util/free_list_pool.hpp"

namespace ftb {

bool DualSiteTable::subset_contains(std::size_t i, EdgeId e) const {
  const auto sub = subset(i);
  return std::binary_search(sub.begin(), sub.end(), e);
}

namespace {

/// The first-failure sites of a tree, in the canonical order every table,
/// artifact and oracle agrees on: tree edges by tree_edges() order (preorder
/// of the lower endpoint), then internal tree vertices by preorder.
std::vector<DualSite> enumerate_sites(const BfsTree& tree) {
  std::vector<DualSite> sites;
  sites.reserve(2 * tree.tree_edges().size());
  for (const EdgeId e : tree.tree_edges()) {
    sites.push_back(DualSite{FaultClass::kEdge, e});
  }
  for (const Vertex u : tree.preorder()) {
    if (u != tree.source() && tree.subtree_size(u) > 1) {
      sites.push_back(DualSite{FaultClass::kVertex, u});
    }
  }
  return sites;
}

void sort_unique(std::vector<EdgeId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// One site's unflattened slice of the DualSiteDistTable, harvested while
/// that site's punctured engines are alive.
struct SiteDistRows {
  std::vector<EdgeId> parent_edge;
  std::vector<std::int32_t> tf_depth;
  std::vector<std::int32_t> rows;
};

/// Walks π_{T_f}(s, v) for every terminal v of A_f and records, per path
/// element x, the engines' replacement_dist(v, x) — by the punctured-engine
/// contract that IS dist(s, v, G \ {f, x}), the true two-failure answer.
/// Valid for restricted engines too: every queried v is a restricted
/// terminal, every queried x an ancestor element of it. `tf` is the
/// punctured tree the engines answer for (a BfsTree or the overlay).
template <class PuncturedT, class EdgeEngine, class VertexEngine>
void harvest_site_dist(const BfsTree& tree, Vertex top, const PuncturedT& tf,
                       const EdgeEngine& ee, const VertexEngine& ve,
                       SiteDistRows& sr) {
  const std::span<const Vertex> terms = tree.subtree(top);
  sr.parent_edge.reserve(terms.size());
  sr.tf_depth.reserve(terms.size());
  for (const Vertex v : terms) {
    if (!tf.reachable(v)) {
      sr.parent_edge.push_back(kInvalidEdge);
      sr.tf_depth.push_back(kInfHops);
      continue;
    }
    const std::int32_t d = tf.depth(v);  // ≥ 1: v ∈ A_f excludes the source
    sr.parent_edge.push_back(tf.parent_edge(v));
    sr.tf_depth.push_back(d);
    Vertex u = v;
    for (std::int32_t j = 0; j < d; ++j) {  // d edge rows, bottom-up
      sr.rows.push_back(ee.replacement_dist(v, tf.parent_edge(u)));
      u = tf.parent(u);
    }
    u = v;
    for (std::int32_t j = 1; j < d; ++j) {  // d-1 vertex rows, bottom-up
      u = tf.parent(u);
      sr.rows.push_back(ve.replacement_dist(v, u));
    }
  }
}

}  // namespace

DualSiteTable detail::build_dual_site_table(const BfsTree& tree,
                                            ThreadPool* pool_ptr,
                                            bool reference_kernel,
                                            std::vector<EdgeId>* edges_out,
                                            bool unpruned,
                                            DualSiteDistTable* site_dist_out,
                                            bool /*ignored*/,
                                            bool dfs_schedule,
                                            SweepWorkStats* sweep_work) {
  const Graph& g = tree.graph();
  const EdgeWeights& W = tree.weights();
  ThreadPool& pool = pool_ptr != nullptr ? *pool_ptr : ThreadPool::global();

  DualSiteTable table;
  table.sites = enumerate_sites(tree);
  // Every site engine reads u_0's detour candidates from one index of the
  // source's arcs, built here once instead of O(n) per engine.
  const std::vector<EdgeId> source_arcs = source_arc_index(g, tree.source());

  // One punctured single-fault build per site. Iterations write disjoint
  // slots; the engines inside parallelize on the same pool (nested
  // parallel_for is supported — an inner job drains through its caller).
  std::vector<std::vector<EdgeId>> subsets(table.sites.size());
  std::vector<SiteDistRows> site_dist_rows(
      site_dist_out != nullptr ? table.sites.size() : 0);

  const auto site_fault = [&](std::size_t i, EdgeId* fe, Vertex* fv,
                              Vertex* top) {
    const DualSite f = table.sites[i];
    *fe = f.kind == FaultClass::kEdge ? f.id : kInvalidEdge;
    *fv = f.kind == FaultClass::kVertex ? f.id : kInvalidVertex;
    *top = f.kind == FaultClass::kEdge ? tree.lower_endpoint(*fe) : *fv;
  };

  if (unpruned) {
    // Unpruned (the PR 4 referee): full punctured tree build, full
    // engines, subset = T_f ∪ all last edges.
    pool.parallel_for(table.sites.size(), [&](std::size_t i) {
      EdgeId fe;
      Vertex fv, top;
      site_fault(i, &fe, &fv, &top);
      BfsBans bans;
      bans.banned_edge = fe;
      bans.banned_vertex_one = fv;
      const BfsTree tf(g, W, tree.source(), bans);
      FaultReplacementEngine<EdgeFault>::Config ec;
      FaultReplacementEngine<VertexFault>::Config vc;
      ec.collect_detours = vc.collect_detours = false;  // only last edges
      ec.pool = vc.pool = pool_ptr;
      ec.reference_kernel = vc.reference_kernel = reference_kernel;
      ec.ambient_banned_edge = vc.ambient_banned_edge = fe;
      ec.ambient_banned_vertex = vc.ambient_banned_vertex = fv;
      ec.source_arcs = vc.source_arcs = source_arcs;
      const FaultReplacementEngine<EdgeFault> ee(tf, ec);
      const FaultReplacementEngine<VertexFault> ve(tf, vc);
      std::vector<EdgeId>& sub = subsets[i];
      sub = tf.tree_edges();
      for (const UncoveredPair& p : ee.uncovered_pairs()) {
        sub.push_back(p.last_edge);
      }
      for (const VertexFaultPair& p : ve.uncovered_pairs()) {
        sub.push_back(p.last_edge);
      }
      sort_unique(sub);
      if (site_dist_out != nullptr) {
        harvest_site_dist(tree, top, tf, ee, ve, site_dist_rows[i]);
      }
    });
  } else {
    // Pruned (production): the punctured tree is an overlay on T0 (only
    // the affected subtree is relabeled) and the engines are restricted to
    // the affected terminals, so a site costs its subtree's volume; the
    // subset keeps only the segment those terminals consume — their T_f
    // parent edges plus their uncovered-pair last edges (see the file
    // comment's induction for why that is sufficient).
    std::atomic<std::int64_t> label_writes{0};
    std::atomic<std::int64_t> sweep_visits{0};

    // The per-site body both schedules share — everything except how the
    // punctured tree `tf` was produced (the overlay or the referee's full
    // BfsTree; the same engine and harvest code runs on either), so
    // bit-identity between the schedules reduces to label identity of
    // `tf` (pinned at the rebase seam: one shared relabel implementation).
    const auto run_pruned_site = [&](std::size_t i, EdgeId fe, Vertex fv,
                                     Vertex top, const auto& tf) {
      using PuncturedT = std::decay_t<decltype(tf)>;
      typename FaultReplacementEngine<EdgeFault, PuncturedT>::Config ec;
      typename FaultReplacementEngine<VertexFault, PuncturedT>::Config vc;
      ec.collect_detours = vc.collect_detours = false;  // only last edges
      // Sites are the unit of parallelism: a site's engines run on the
      // worker that owns it. Their loops span one subtree's sites and
      // terminals; nesting them in `pool` would wake every idle worker per
      // loop, thousands of times per build, for a few microseconds of work.
      ec.pool = vc.pool = &ThreadPool::caller_only();
      ec.reference_kernel = vc.reference_kernel = reference_kernel;
      ec.ambient_banned_edge = vc.ambient_banned_edge = fe;
      ec.ambient_banned_vertex = vc.ambient_banned_vertex = fv;
      ec.source_arcs = vc.source_arcs = source_arcs;

      std::vector<EdgeId>& sub = subsets[i];
      const std::span<const Vertex> affected = tree.subtree(top);
      ec.restrict_terminals = vc.restrict_terminals = affected;
      const FaultReplacementEngine<EdgeFault, PuncturedT> ee(tf, ec);
      const FaultReplacementEngine<VertexFault, PuncturedT> ve(tf, vc);

      for (const Vertex v : affected) {
        if (tf.reachable(v)) sub.push_back(tf.parent_edge(v));
      }
      for (const UncoveredPair& p : ee.uncovered_pairs()) {
        sub.push_back(p.last_edge);
      }
      for (const VertexFaultPair& p : ve.uncovered_pairs()) {
        sub.push_back(p.last_edge);
      }
      sort_unique(sub);
      if (site_dist_out != nullptr) {
        harvest_site_dist(tree, top, tf, ee, ve, site_dist_rows[i]);
      }
    };

    if (dfs_schedule) {
      // DFS schedule: visit sites by ascending T0 preorder position of
      // their subtree root, chunked per top-level subtree, one
      // PuncturedWorkspace leased per chunk. Each site's punctured tree is
      // an overlay on T0 built over its affected subtree only (see
      // PuncturedTree), so a site pays no per-site O(n + m) label copy or
      // tree rebuild; the DFS order keeps a chunk's sites in one
      // top-level subtree. Iterations still write disjoint slots, so the
      // flatten below is untouched.
      const std::size_t num_sites = table.sites.size();
      std::vector<Vertex> tops(num_sites);
      for (std::size_t i = 0; i < num_sites; ++i) {
        EdgeId fe;
        Vertex fv;
        site_fault(i, &fe, &fv, &tops[i]);
      }
      std::vector<std::uint32_t> dfs_order(num_sites);
      std::iota(dfs_order.begin(), dfs_order.end(), 0);
      // stable: at equal tin (edge into t, then vertex t — identical
      // affected windows) the edge site keeps its lower index.
      std::stable_sort(dfs_order.begin(), dfs_order.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return tree.tin(tops[a]) < tree.tin(tops[b]);
                       });

      // Chunk boundaries prefer top-level subtree changes (first_hop of
      // the site's top names its child-of-source root); a run of sites
      // inside one huge subtree is force-split so it cannot serialize the
      // pool.
      std::vector<std::pair<std::size_t, std::size_t>> chunks;
      const std::size_t target = std::max<std::size_t>(
          1, num_sites / std::max<std::size_t>(1, 8 * pool.thread_count()));
      const auto top_root = [&](std::uint32_t site) {
        return tree.sp().first_hop[static_cast<std::size_t>(tops[site])];
      };
      std::size_t lo = 0;
      for (std::size_t k = 1; k < num_sites; ++k) {
        const bool subtree_break =
            top_root(dfs_order[k]) != top_root(dfs_order[k - 1]);
        if ((k - lo >= target && subtree_break) || k - lo >= 4 * target) {
          chunks.emplace_back(lo, k);
          lo = k;
        }
      }
      if (lo < num_sites) chunks.emplace_back(lo, num_sites);

      FreeListPool<PuncturedWorkspace> ws_pool;
      pool.parallel_for(chunks.size(), [&](std::size_t c) {
        const PoolLease<PuncturedWorkspace> ws(ws_pool);
        ws->bind(tree);
        const SweepWorkStats before = ws->stats();
        for (std::size_t k = chunks[c].first; k < chunks[c].second; ++k) {
          const std::size_t i = dfs_order[k];
          EdgeId fe;
          Vertex fv, top;
          site_fault(i, &fe, &fv, &top);
          run_pruned_site(i, fe, fv, top, ws->puncture(fe, fv));
        }
        const SweepWorkStats after = ws->stats();
        label_writes.fetch_add(after.label_writes - before.label_writes,
                               std::memory_order_relaxed);
        sweep_visits.fetch_add(after.sweep_visits - before.sweep_visits,
                               std::memory_order_relaxed);
      });
    } else {
      // Independent schedule (the differential referee): every site pays
      // its own full rebase from T0 into a materialized BfsTree.
      pool.parallel_for(table.sites.size(), [&](std::size_t i) {
        EdgeId fe;
        Vertex fv, top;
        site_fault(i, &fe, &fv, &top);
        SweepWorkStats w;
        const BfsTree tf = rebase_punctured_tree(tree, fe, fv, &w);
        run_pruned_site(i, fe, fv, top, tf);
        label_writes.fetch_add(w.label_writes, std::memory_order_relaxed);
        sweep_visits.fetch_add(w.sweep_visits, std::memory_order_relaxed);
      });
    }
    if (sweep_work != nullptr) {
      sweep_work->label_writes += label_writes.load();
      sweep_work->sweep_visits += sweep_visits.load();
    }
  }

  // Deterministic flatten (site order is already canonical).
  table.offsets.assign(table.sites.size() + 1, 0);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < subsets.size(); ++i) {
    total += static_cast<std::int64_t>(subsets[i].size());
    table.offsets[i + 1] = total;
  }
  table.edge_pool.reserve(static_cast<std::size_t>(total));
  for (const std::vector<EdgeId>& sub : subsets) {
    table.edge_pool.insert(table.edge_pool.end(), sub.begin(), sub.end());
  }

  if (edges_out != nullptr) {
    std::vector<EdgeId>& edges = *edges_out;
    edges = tree.tree_edges();
    edges.insert(edges.end(), table.edge_pool.begin(), table.edge_pool.end());
    sort_unique(edges);
  }

  if (site_dist_out != nullptr) {
    // Deterministic flatten, mirroring the pair-table layout: site order is
    // canonical, slot order is each subtree's preorder slice.
    DualSiteDistTable& sd = *site_dist_out;
    sd = DualSiteDistTable{};
    sd.site_offsets.assign(table.sites.size() + 1, 0);
    std::int64_t slots = 0, row_total = 0;
    for (std::size_t i = 0; i < site_dist_rows.size(); ++i) {
      slots += static_cast<std::int64_t>(site_dist_rows[i].parent_edge.size());
      row_total += static_cast<std::int64_t>(site_dist_rows[i].rows.size());
      sd.site_offsets[i + 1] = slots;
    }
    sd.parent_edge.reserve(static_cast<std::size_t>(slots));
    sd.tf_depth.reserve(static_cast<std::size_t>(slots));
    sd.row_offsets.reserve(static_cast<std::size_t>(slots) + 1);
    sd.rows.reserve(static_cast<std::size_t>(row_total));
    sd.row_offsets.push_back(0);
    for (const SiteDistRows& sr : site_dist_rows) {
      sd.parent_edge.insert(sd.parent_edge.end(), sr.parent_edge.begin(),
                            sr.parent_edge.end());
      sd.tf_depth.insert(sd.tf_depth.end(), sr.tf_depth.begin(),
                         sr.tf_depth.end());
      std::int64_t roff = sd.row_offsets.back();
      for (const std::int32_t d : sr.tf_depth) {
        roff += d >= kInfHops ? 0 : 2 * static_cast<std::int64_t>(d) - 1;
        sd.row_offsets.push_back(roff);
      }
      sd.rows.insert(sd.rows.end(), sr.rows.begin(), sr.rows.end());
    }
  }
  return table;
}

DualBuildResult detail::build_dual_failure_ftbfs_impl(
    const BfsTree& tree, const DualFtBfsOptions& opts) {
  std::vector<EdgeId> edges;
  DualSiteDistTable site_dist;
  SweepWorkStats sweep_work;
  DualSiteTable table = detail::build_dual_site_table(
      tree, opts.pool, /*reference_kernel=*/false, &edges, /*unpruned=*/false,
      opts.site_dist_oracle ? &site_dist : nullptr, /*ignored=*/true,
      /*dfs_schedule=*/true, &sweep_work);
  FtBfsStructure h(tree.graph(), tree.source(), std::move(edges),
                   /*reinforced=*/{}, tree.tree_edges(), FaultClass::kDual);
  return DualBuildResult{std::move(h), std::move(table),
                         std::move(site_dist), sweep_work};
}

// ---------------------------------------------------------------------------
// DualFaultOracle

DualFaultOracle::DualFaultOracle(
    const BfsTree& tree, const ReplacementTable<EdgeFault>& edge_table,
    const ReplacementTable<VertexFault>& vertex_table,
    const DualSiteTable& tables)
    : tree_(&tree),
      edge_table_(&edge_table),
      vertex_table_(&vertex_table),
      tables_(&tables) {
  FTB_CHECK_MSG(tables.offsets.size() == tables.sites.size() + 1 &&
                    !tables.offsets.empty() &&
                    tables.offsets.back() ==
                        static_cast<std::int64_t>(tables.edge_pool.size()),
                "malformed dual pair tables");
  // The tables must describe exactly this tree's first-failure sites —
  // anything else means the artifact was built around a different T0
  // (classic cause: serving with a different weight_seed than the build).
  FTB_CHECK_MSG(enumerate_sites(tree) == tables.sites,
                "dual pair tables do not match the session tree "
                "(was the structure built with this weight_seed?)");

  const Graph& g = tree.graph();
  edge_site_.assign(static_cast<std::size_t>(g.num_edges()), -1);
  vertex_site_.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < tables.sites.size(); ++i) {
    const DualSite f = tables.sites[i];
    auto& slot = f.kind == FaultClass::kEdge
                     ? edge_site_[static_cast<std::size_t>(f.id)]
                     : vertex_site_[static_cast<std::size_t>(f.id)];
    slot = static_cast<std::int32_t>(i);
  }
}

std::int32_t DualFaultOracle::site_of(DualSite f) const {
  return f.kind == FaultClass::kEdge
             ? edge_site_[static_cast<std::size_t>(f.id)]
             : vertex_site_[static_cast<std::size_t>(f.id)];
}

std::int32_t DualFaultOracle::single_dist(Vertex v, DualSite f) const {
  if (f.kind == FaultClass::kEdge) {
    return edge_table_->replacement_dist(v, f.id);
  }
  if (v == f.id) return kInfHops;
  return vertex_table_->replacement_dist(v, f.id);
}

bool DualFaultOracle::reducible(DualSite f1, DualSite f2) const {
  if (f2 < f1) std::swap(f1, f2);
  if (f1 == f2) return true;
  const std::int32_t s1 = site_of(f1);
  const std::int32_t s2 = site_of(f2);
  if (s1 < 0 && s2 < 0) return true;
  if (s1 >= 0 && s2 >= 0) return false;  // two sited elements always traverse
  const std::int32_t ps = s1 >= 0 ? s1 : s2;
  const DualSite other = s1 >= 0 ? f2 : f1;
  // A non-sited edge is a non-tree edge; outside C_ps it is absent from
  // the whole serving set T0 ∪ C_ps, so deleting it changes nothing there.
  return other.kind == FaultClass::kEdge &&
         !tables_->subset_contains(static_cast<std::size_t>(ps), other.id);
}

Vertex DualFaultOracle::site_top(std::size_t site) const {
  const DualSite f = tables_->sites[site];
  return f.kind == FaultClass::kEdge ? tree_->lower_endpoint(f.id) : f.id;
}

void DualFaultOracle::attach_site_dist(const DualSiteDistTable* site_dist) {
  if (site_dist == nullptr) {
    site_dist_ = nullptr;
    return;
  }
  const DualSiteDistTable& sd = *site_dist;
  const Graph& g = tree_->graph();
  FTB_CHECK_MSG(
      sd.site_offsets.size() == tables_->num_sites() + 1 &&
          sd.site_offsets.front() == 0 &&
          sd.site_offsets.back() ==
              static_cast<std::int64_t>(sd.num_slots()) &&
          sd.tf_depth.size() == sd.num_slots() &&
          sd.row_offsets.size() == sd.num_slots() + 1 &&
          sd.row_offsets.front() == 0 &&
          sd.row_offsets.back() == static_cast<std::int64_t>(sd.rows.size()),
      "malformed dual site-dist table (offsets do not cover the slots)");
  for (std::size_t i = 0; i < tables_->num_sites(); ++i) {
    const Vertex top = site_top(i);
    const std::span<const Vertex> terms = tree_->subtree(top);
    FTB_CHECK_MSG(sd.site_offsets[i + 1] - sd.site_offsets[i] ==
                      static_cast<std::int64_t>(terms.size()),
                  "malformed dual site-dist table (site "
                      << i << " has " << sd.site_offsets[i + 1] -
                                             sd.site_offsets[i]
                      << " slots for " << terms.size() << " terminals)");
    for (std::size_t k = 0; k < terms.size(); ++k) {
      const auto slot = static_cast<std::size_t>(sd.site_offsets[i]) + k;
      const std::int32_t d = sd.tf_depth[slot];
      const std::int64_t row_len =
          sd.row_offsets[slot + 1] - sd.row_offsets[slot];
      if (d >= kInfHops) {
        FTB_CHECK_MSG(sd.parent_edge[slot] == kInvalidEdge && row_len == 0,
                      "malformed dual site-dist table (unreachable slot "
                      "with a parent edge or rows)");
        continue;
      }
      const EdgeId pe = sd.parent_edge[slot];
      const bool incident =
          g.valid_edge(pe) && (g.edge(pe).first == terms[k] ||
                               g.edge(pe).second == terms[k]);
      FTB_CHECK_MSG(d >= 1 && d < g.num_vertices() && incident &&
                        row_len == 2 * static_cast<std::int64_t>(d) - 1,
                    "malformed dual site-dist table (bad slot for terminal "
                        << terms[k] << " of site " << i << ")");
    }
  }
  site_dist_ = site_dist;
}

bool DualFaultOracle::dist_fast(Vertex v, DualSite f1, DualSite f2,
                                std::int32_t* out,
                                bool* used_site_dist) const {
  if (used_site_dist != nullptr) *used_site_dist = false;
  if (f2 < f1) std::swap(f1, f2);
  // A destroyed terminal is gone under any classification.
  if ((f1.kind == FaultClass::kVertex && f1.id == v) ||
      (f2.kind == FaultClass::kVertex && f2.id == v)) {
    *out = kInfHops;
    return true;
  }
  // A doubled element is a single failure — pure table read.
  if (f1 == f2) {
    *out = single_dist(v, f1);
    return true;
  }

  const std::int32_t s1 = site_of(f1);
  const std::int32_t s2 = site_of(f2);
  if (s1 < 0 && s2 < 0) {
    // Neither element lies on any π(s,·): a non-tree edge is on no tree
    // path and a leaf vertex only on its own, so π(s,v) survives in G and
    // in H and the failure-free depth is exact.
    *out = tree_->depth(v);
    return true;
  }
  if ((s1 >= 0) != (s2 >= 0)) {
    const std::int32_t ps = s1 >= 0 ? s1 : s2;
    const DualSite primary = s1 >= 0 ? f1 : f2;
    const DualSite other = s1 >= 0 ? f2 : f1;
    if (other.kind == FaultClass::kEdge &&
        !tables_->subset_contains(static_cast<std::size_t>(ps), other.id)) {
      // `other` is a non-tree edge outside C_primary, so the serving set
      // T0 ∪ C_primary holds no copy of it: deleting it changes nothing
      // there and the stored single-fault answer is already the
      // two-failure answer (the {f, f} degenerate of the file comment's
      // induction realizes single-fault distances inside T0 ∪ C_f).
      *out = single_dist(v, primary);
      return true;
    }
  }
  if (site_dist_ == nullptr) return false;  // only a traversal can answer

  if (!tree_->reachable(v)) {  // unreachable failure-free stays unreachable
    *out = kInfHops;
    if (used_site_dist != nullptr) *used_site_dist = true;
    return true;
  }
  // Pick a sited element whose subtree holds v as the primary (the deeper
  // top when both do — a shorter walk; ANY containing site is correct). If
  // neither subtree holds v, the T0 path avoids both failures and the
  // failure-free depth is exact.
  std::int32_t ps = -1;
  Vertex top = kInvalidVertex;
  for (const std::int32_t s : {s1, s2}) {
    if (s < 0) continue;
    const Vertex t = site_top(static_cast<std::size_t>(s));
    if (!tree_->is_ancestor_or_equal(t, v)) continue;
    if (ps < 0 || tree_->depth(t) > tree_->depth(top)) {
      ps = s;
      top = t;
    }
  }
  if (ps < 0) {
    *out = tree_->depth(v);
    if (used_site_dist != nullptr) *used_site_dist = true;
    return true;
  }
  const DualSite other = ps == s1 ? f2 : f1;
  const DualSiteDistTable& sd = *site_dist_;
  // A_ps is a contiguous preorder slice, so tin(u) − tin(top) indexes it.
  const std::int64_t base =
      sd.site_offsets[static_cast<std::size_t>(ps)] - tree_->tin(top);
  const auto slot_of = [&](Vertex u) {
    return static_cast<std::size_t>(base + tree_->tin(u));
  };
  const std::size_t slot = slot_of(v);
  const std::int32_t d = sd.tf_depth[slot];
  if (used_site_dist != nullptr) *used_site_dist = true;
  if (d >= kInfHops) {  // gone already under the primary failure alone
    *out = kInfHops;
    return true;
  }
  // Walk π_{T_ps}(s, v) bottom-up: stored T_ps parent edges inside A_ps,
  // T0 parent edges outside (the trees coincide there, and the walk never
  // re-enters A_ps once it leaves — subtrees are parent-closed from below).
  // Match `other` by position: path edge j → edge row j, intermediate
  // vertex after j+1 steps → vertex row d + j. Off the path, the T_ps tree
  // path survives both failures and its length d is the answer.
  const Graph& g = tree_->graph();
  const std::int64_t roff = sd.row_offsets[slot];
  std::int32_t result = d;
  Vertex u = v;
  for (std::int32_t j = 0; j < d; ++j) {
    const EdgeId e = tree_->is_ancestor_or_equal(top, u)
                         ? sd.parent_edge[slot_of(u)]
                         : tree_->parent_edge(u);
    if (other.kind == FaultClass::kEdge && other.id == e) {
      result = sd.rows[static_cast<std::size_t>(roff + j)];
      break;
    }
    const auto [x, y] = g.edge(e);
    u = x == u ? y : x;
    if (j + 1 < d && other.kind == FaultClass::kVertex && other.id == u) {
      result = sd.rows[static_cast<std::size_t>(roff + d + j)];
      break;
    }
  }
  *out = result;
  return true;
}

std::int32_t DualFaultOracle::dist(Vertex v, DualSite f1, DualSite f2,
                                   DualQueryArena& arena,
                                   std::int64_t* traversals) const {
  std::int32_t fast = 0;
  if (dist_fast(v, f1, f2, &fast)) return fast;
  if (f2 < f1) std::swap(f1, f2);
  const std::int32_t s1 = site_of(f1);
  const std::int32_t s2 = site_of(f2);

  // One BFS over (T0 ∪ C_{f1} ∪ C_{f2}) \ {f1, f2}, memoized in the arena
  // (a one-slot cache: any other pair evicts the held traversal).
  const Graph& g = tree_->graph();
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  if (arena.mask_table_ != tables_ || arena.mask_site_a_ != s1 ||
      arena.mask_site_b_ != s2) {
    if (arena.site_ban_.size() < m || arena.mask_table_ != tables_) {
      // Fresh serving-set mask: admit T0's tree edges once; site subsets
      // toggle below.
      arena.site_ban_.assign(m, 1);
      for (const EdgeId e : tree_->tree_edges()) {
        arena.site_ban_[static_cast<std::size_t>(e)] = 0;
      }
    } else {
      // Re-ban the previously admitted subsets instead of an O(m) reset —
      // minus their T0-shared edges, which every serving set admits.
      for (const std::int32_t old :
           {arena.mask_site_a_, arena.mask_site_b_}) {
        if (old < 0) continue;
        for (const EdgeId e :
             arena.mask_table_->subset(static_cast<std::size_t>(old))) {
          if (!tree_->is_tree_edge(e)) {
            arena.site_ban_[static_cast<std::size_t>(e)] = 1;
          }
        }
      }
    }
    for (const std::int32_t site : {s1, s2}) {
      if (site < 0) continue;
      for (const EdgeId e :
           tables_->subset(static_cast<std::size_t>(site))) {
        arena.site_ban_[static_cast<std::size_t>(e)] = 0;
      }
    }
    arena.mask_table_ = tables_;
    arena.mask_site_a_ = s1;
    arena.mask_site_b_ = s2;
    arena.traversal_valid_ = false;
  }
  if (!arena.traversal_valid_ ||
      !(arena.held_f1_ == f1 && arena.held_f2_ == f2)) {
    BfsBans bans;
    bans.banned_edge_mask = &arena.site_ban_;
    const PairBans pair(f1, f2, arena.vertex_ban_,
                        static_cast<std::size_t>(g.num_vertices()), bans);
    bfs_run(g, tree_->source(), bans, arena.bfs_);
    arena.traversal_valid_ = true;
    arena.held_f1_ = f1;
    arena.held_f2_ = f2;
    ++arena.misses_;
    if (traversals != nullptr) ++*traversals;
  } else {
    ++arena.hits_;
  }
  return arena.bfs_.dist(v);
}

// ---------------------------------------------------------------------------
// Pair bans and brute force

PairBans::PairBans(DualSite f1, DualSite f2, std::vector<std::uint8_t>& mask,
                   std::size_t n, BfsBans& bans)
    : mask_(&mask) {
  for (const DualSite f : {f1, f2}) {
    if (f.id < 0) continue;  // absent second element
    if (f.kind == FaultClass::kEdge) {
      (bans.banned_edge == kInvalidEdge ? bans.banned_edge
                                        : bans.banned_edge2) = f.id;
    } else {
      if (mask.size() < n) mask.assign(n, 0);
      mask[static_cast<std::size_t>(f.id)] = 1;
      bans.banned_vertex = &mask;
      masked_[num_masked_++] = f.id;
    }
  }
}

PairBans::~PairBans() {
  for (int i = 0; i < num_masked_; ++i) {
    (*mask_)[static_cast<std::size_t>(masked_[i])] = 0;
  }
}

void dual_bruteforce_bfs(const Graph& g, Vertex s, DualSite f1, DualSite f2,
                         BfsScratch& scratch) {
  thread_local std::vector<std::uint8_t> mask;
  BfsBans bans;
  const PairBans pair(f1, f2, mask,
                      static_cast<std::size_t>(g.num_vertices()), bans);
  bfs_run(g, s, bans, scratch);
}

}  // namespace ftb

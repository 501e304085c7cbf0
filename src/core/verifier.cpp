#include "src/core/verifier.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <sstream>

#include "src/graph/bfs_kernel.hpp"
#include "src/util/rng.hpp"

namespace ftb {

namespace {

void print_site(std::ostream& os, DualSite f) {
  os << (f.kind == FaultClass::kEdge ? "edge " : "vertex ") << f.id;
}

bool names_router(DualSite f1, DualSite f2) {
  return (f1.kind == FaultClass::kVertex && f1.id >= 0) ||
         (f2.kind == FaultClass::kVertex && f2.id >= 0);
}

/// One (source, failure) comparison of the work list.
struct Check {
  Vertex source;
  DualSite f1;
  DualSite f2;
};

}  // namespace

std::string VerifyReport::to_string() const {
  std::ostringstream os;
  os << (ok ? "OK" : "VIOLATED") << " (failures_checked=" << failures_checked
     << ", violations=" << violations << ")";
  for (const auto& v : examples) {
    os << "\n  source=" << v.source << " failed={";
    if (v.f1.id >= 0) print_site(os, v.f1);
    if (v.f2.id >= 0) {
      os << ", ";
      print_site(os, v.f2);
    }
    os << "} vertex=" << v.vertex << " dist_H=" << v.dist_structure
       << " dist_G=" << v.dist_graph;
  }
  return os.str();
}

std::vector<DualSite> failure_universe(const Graph& g, Vertex source,
                                       FaultClass model,
                                       std::span<const EdgeId> reinforced) {
  std::vector<DualSite> universe;
  if (model != FaultClass::kVertex) {
    auto r = reinforced.begin();
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (r != reinforced.end() && *r == e) {
        ++r;
        continue;
      }
      universe.push_back(DualSite{FaultClass::kEdge, e});
    }
  }
  if (model != FaultClass::kEdge) {
    for (Vertex x = 0; x < g.num_vertices(); ++x) {
      if (x != source) universe.push_back(DualSite{FaultClass::kVertex, x});
    }
  }
  return universe;
}

void structure_bfs(const FtBfsStructure& h, Vertex s, DualSite f1,
                   DualSite f2, BfsScratch& scratch) {
  const Graph& g = h.graph();
  thread_local std::vector<std::uint8_t> mask;
  BfsBans bans;
  bans.banned_edge_mask = &h.complement_mask();
  const PairBans pair(f1, f2, mask,
                      static_cast<std::size_t>(g.num_vertices()), bans);
  bfs_run(g, s, bans, scratch);
}

VerifyReport verify_structure(const FtBfsStructure& h,
                              const VerifyOptions& opts) {
  const Graph& g = h.graph();
  const FaultClass model = h.fault_class();
  ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::global();
  const std::vector<Vertex> sources =
      opts.sources.empty() ? std::vector<Vertex>{h.source()} : opts.sources;

  std::vector<std::uint8_t> is_tree(static_cast<std::size_t>(g.num_edges()),
                                    0);
  for (const EdgeId e : h.tree_edges()) {
    is_tree[static_cast<std::size_t>(e)] = 1;
  }

  // The work list, per source: the failure-free check, then the single
  // failures (tree edges only unless check_nontree_failures) or the pairs.
  std::vector<Check> checks;
  for (const Vertex s : sources) {
    checks.push_back(Check{s, DualSite{}, DualSite{}});
    std::vector<DualSite> universe =
        failure_universe(g, s, model, h.reinforced());
    if (model == FaultClass::kDual) {
      const std::size_t u = universe.size();
      if (opts.max_pairs < 0) {
        for (std::size_t i = 0; i < u; ++i) {
          for (std::size_t j = i; j < u; ++j) {
            checks.push_back(Check{s, universe[i], universe[j]});
          }
        }
      } else {
        Rng rng(opts.seed);
        for (std::int64_t k = 0; k < opts.max_pairs; ++k) {
          const DualSite a = universe[rng.next_below(u)];
          checks.push_back(Check{s, a, universe[rng.next_below(u)]});
        }
      }
      continue;
    }
    if (!opts.check_nontree_failures) {
      std::erase_if(universe, [&](DualSite f) {
        return f.kind == FaultClass::kEdge &&
               is_tree[static_cast<std::size_t>(f.id)] == 0;
      });
    }
    if (opts.max_failures >= 0 &&
        static_cast<std::int64_t>(universe.size()) > opts.max_failures) {
      universe.resize(static_cast<std::size_t>(opts.max_failures));
    }
    for (const DualSite f : universe) {
      checks.push_back(Check{s, f, DualSite{}});
    }
  }

  VerifyReport report;
  std::atomic<std::int64_t> violations{0};
  std::atomic<std::int64_t> vertex_violations{0};
  // Counterexamples keyed by check index, so the 16 kept are the first in
  // check order whatever the schedule.
  std::vector<std::pair<std::size_t, VerifyViolation>> found;
  std::mutex mu;
  pool.parallel_for(checks.size(), [&](std::size_t i) {
    const Check& c = checks[i];
    thread_local BfsScratch in_g, in_h;
    dual_bruteforce_bfs(g, c.source, c.f1, c.f2, in_g);
    structure_bfs(h, c.source, c.f1, c.f2, in_h);
    std::int64_t local = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (in_h.dist(v) == in_g.dist(v)) continue;
      if (++local > 16) continue;
      const std::lock_guard<std::mutex> lock(mu);
      found.emplace_back(i, VerifyViolation{c.source, c.f1, c.f2, v,
                                            in_h.dist(v), in_g.dist(v)});
    }
    if (local == 0) return;
    violations.fetch_add(local, std::memory_order_relaxed);
    if (names_router(c.f1, c.f2)) {
      vertex_violations.fetch_add(local, std::memory_order_relaxed);
    }
  });

  report.failures_checked = static_cast<std::int64_t>(checks.size());
  report.vertex_failures_checked = std::count_if(
      checks.begin(), checks.end(),
      [](const Check& c) { return names_router(c.f1, c.f2); });
  report.violations = violations.load();
  report.vertex_violations = vertex_violations.load();
  report.ok = report.violations == 0;
  std::sort(found.begin(), found.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first
                              : a.second.vertex < b.second.vertex;
  });
  for (std::size_t k = 0; k < found.size() && k < 16; ++k) {
    report.examples.push_back(found[k].second);
  }
  return report;
}

}  // namespace ftb

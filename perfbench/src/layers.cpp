// layers.cpp — the traced run's per-layer measurements: one timed call into
// each module's public functions, from the benchmark's own code.
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>
#include <thread>

#include "run.hpp"
#include "src/core/dist_sweep.hpp"
#include "src/core/dual_fault.hpp"
#include "src/core/replacement.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/graph/bfs_kernel.hpp"
#include "src/graph/multi_source_bfs_kernel.hpp"
#include "src/io/binary_io.hpp"

namespace perfbench {

using ftb::BfsTree;
using ftb::FaultClass;
using ftb::Vertex;
namespace api = ftb::api;

namespace {

/// One kernel lane per source.
std::vector<ftb::BfsLane> lanes_of(const std::vector<Vertex>& sources) {
  std::vector<ftb::BfsLane> lanes(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) lanes[i].source = sources[i];
  return lanes;
}

void graph_layer(const RunState& st, Tracer& tr, int reps, Metrics& out) {
  const ftb::Graph& g = *st.in->g;
  const ftb::EdgeWeights& w = st.in->weights;
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    t.push_back(tr.time("graph.tree_build", [&] {
      const BfsTree tree(g, w, st.in->sources.front());
    }));
  }
  out.push_back({"graph.tree_build_ms", median(t) * 1e3, "ms"});

  // Arcs scanned per second: Σ deg(v) over the vertices a BFS reached,
  // divided by its wall time (the Graph500 TEPS convention, both arc
  // directions counted).
  // Sources 0..7 on every workload (the σ of mbfs_whatif), so the fused
  // versus scalar comparison has one shape.
  std::vector<Vertex> eight(8);
  std::iota(eight.begin(), eight.end(), 0);
  ftb::BfsScratch scratch;
  ftb::bfs_run(g, 0, {}, scratch);
  t.clear();
  for (int r = 0; r < reps; ++r) {
    for (const Vertex s : eight) {
      const double sec =
          tr.time("graph.bfs_run", [&] { ftb::bfs_run(g, s, {}, scratch); });
      double arcs = 0;
      for (const Vertex v : scratch.order()) {
        arcs += static_cast<double>(g.neighbors(v).size());
      }
      t.push_back(arcs / sec);
    }
  }
  out.push_back({"graph.bfs_teps", median(t), "1/s"});

  t.clear();
  for (const Vertex s : eight) {
    t.push_back(tr.time("graph.canonical_sp",
                        [&] { (void)ftb::canonical_sp(g, w, s); }));
  }
  out.push_back({"graph.canonical_sp_ms", median(t) * 1e3, "ms"});

  const std::vector<ftb::BfsLane> lanes = lanes_of(eight);
  (void)ftb::ms_canonical_sp(g, w, lanes);  // warms the pooled kernel
  t.clear();
  for (int r = 0; r < reps; ++r) {
    t.push_back(tr.time("graph.ms_canonical_sp",
                        [&] { (void)ftb::ms_canonical_sp(g, w, lanes); }));
  }
  out.push_back({"graph.ms_canonical_sp_ms", median(t) * 1e3, "ms"});
}

/// The ε pipeline's phase times and counts, from a build that ran S1/S2.
void epsilon_layer(const ftb::EpsilonStats& s, Metrics& out) {
  out.push_back({"epsilon.engine_s", s.seconds_engine, "s"});
  out.push_back({"epsilon.interference_s", s.seconds_interference, "s"});
  out.push_back({"epsilon.s1_s", s.seconds_s1, "s"});
  out.push_back({"epsilon.s2_s", s.seconds_s2, "s"});
  out.push_back({"epsilon.pairs_uncovered",
                 static_cast<double>(s.pairs_uncovered), "count"});
  out.push_back({"epsilon.s1_added_edges",
                 static_cast<double>(s.s1_added_edges), "count"});
}

/// Median phase times over the run's timed builds (counts are the same in
/// every build).
ftb::EpsilonStats median_phases(const std::vector<ftb::EpsilonStats>& all) {
  ftb::EpsilonStats s = all.back();
  for (double ftb::EpsilonStats::*field :
       {&ftb::EpsilonStats::seconds_engine,
        &ftb::EpsilonStats::seconds_interference,
        &ftb::EpsilonStats::seconds_s1, &ftb::EpsilonStats::seconds_s2}) {
    std::vector<double> v;
    for (const ftb::EpsilonStats& e : all) v.push_back(e.*field);
    s.*field = median(v);
  }
  return s;
}

/// The dual build's per-site work on one tree: the whole site table, and
/// the punctured-tree production alone in T0 DFS order (as the build's
/// schedule walks it, here on one workspace).
void dual_layer(const BfsTree& t0, const RunState& st, Tracer& tr,
                Metrics& out) {
  ftb::SweepWorkStats work;
  ftb::DualSiteTable table;
  const double site_s = tr.time("dual.site_table", [&] {
    table = ftb::detail::build_dual_site_table(
        t0, st.pool, /*reference_kernel=*/false, nullptr, /*unpruned=*/false,
        nullptr, /*bit_parallel=*/true, /*dfs_schedule=*/true, &work);
  });

  const std::size_t n_sites = table.num_sites();
  std::vector<ftb::EdgeId> fe(n_sites, ftb::kInvalidEdge);
  std::vector<Vertex> fv(n_sites, ftb::kInvalidVertex);
  std::vector<Vertex> top(n_sites);
  for (std::size_t i = 0; i < n_sites; ++i) {
    const ftb::DualSite f = table.sites[i];
    if (f.kind == FaultClass::kEdge) {
      fe[i] = f.id;
      top[i] = t0.lower_endpoint(f.id);
    } else {
      fv[i] = f.id;
      top[i] = f.id;
    }
  }
  std::vector<std::size_t> order(n_sites);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return t0.tin(top[a]) < t0.tin(top[b]);
                   });
  ftb::PuncturedWorkspace ws;
  const double puncture_s = tr.time("dual.puncture", [&] {
    ws.bind(t0);
    for (const std::size_t i : order) (void)ws.puncture(fe[i], fv[i]);
  });

  out.push_back({"dual.site_table_s", site_s, "s"});
  out.push_back({"dual.puncture_s", puncture_s, "s"});
  out.push_back({"dual.puncture_share", puncture_s / site_s, "ratio"});
  out.push_back({"dual.sites", static_cast<double>(n_sites), "count"});
  out.push_back({"dual.sweep_work", static_cast<double>(work.total()),
                 "count"});
}

}  // namespace

void measure_layers(const RunState& st, Tracer& tr, Metrics& out) {
  const ftb::Graph& g = *st.in->g;
  const ftb::EdgeWeights& w = st.in->weights;
  const int reps = st.tiny ? 2 : 5;
  const int layers_id = tr.begin("layers");

  graph_layer(st, tr, reps, out);

  // Engines built the way Session::load builds them: trees first (fused
  // for σ ≥ 2), then one engine per source with collect_detours off.
  std::vector<BfsTree> trees;
  const double trees_s = tr.time("session.trees", [&] {
    if (st.in->sources.size() >= 2) {
      std::vector<ftb::CanonicalSp> sps =
          ftb::ms_canonical_sp(g, w, lanes_of(st.in->sources));
      for (std::size_t i = 0; i < sps.size(); ++i) {
        trees.emplace_back(g, w, st.in->sources[i], std::move(sps[i]));
      }
    } else {
      trees.emplace_back(g, w, st.in->sources.front());
    }
  });
  ftb::ReplacementPathEngine::Config ec;
  ec.collect_detours = false;
  ec.pool = st.pool;
  ftb::VertexReplacementEngine::Config vc;
  vc.collect_detours = false;
  vc.pool = st.pool;
  double edge_s = 0, vertex_s = 0;
  std::int64_t pairs_total = 0;
  for (const BfsTree& t : trees) {
    edge_s += tr.time("fault_model.edge_engine", [&] {
      const ftb::ReplacementPathEngine e(t, ec);
      pairs_total += e.stats().pairs_total;
    });
  }
  for (const BfsTree& t : trees) {
    vertex_s += tr.time("fault_model.vertex_engine",
                        [&] { const ftb::VertexReplacementEngine e(t, vc); });
  }
  out.push_back({"fault_model.edge_engine_s", edge_s, "s"});
  out.push_back({"fault_model.vertex_engine_s", vertex_s, "s"});
  out.push_back({"fault_model.pairs_total", static_cast<double>(pairs_total),
                 "count"});

  // Layers this workload bypasses run on the probe graph.
  const bool own_eps = st.w->model == FaultClass::kEdge && st.w->eps < 0.5;
  const bool own_dual = st.w->model == FaultClass::kDual;
  std::optional<ftb::Graph> probe;
  std::optional<Inputs> probe_in;
  if (!own_eps || !own_dual) {
    probe.emplace(make_graph(st.tiny ? 8 : 12, 4));
    probe_in.emplace(*probe, std::vector<Vertex>{0}, st.spec.weight_seed);
  }
  if (own_eps) {
    epsilon_layer(median_phases(st.eps_stats), out);
  } else {
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kEdge;
    spec.eps = 1.0 / 3.0;
    spec.pool = st.pool;
    ftb::EpsilonStats s;
    tr.time("epsilon.probe_build",
            [&] { s = api::build(*probe, spec).per_source.front(); });
    epsilon_layer(s, out);
  }
  dual_layer(own_dual ? st.in->trees.front() : probe_in->trees.front(), st, tr,
             out);

  // Binary io on this run's artifact.
  std::vector<double> save, attach, decode;
  const std::string copy = st.artifact + ".layer";
  const ftb::api::Session& session = *st.session;
  for (int r = 0; r < reps; ++r) {
    save.push_back(tr.time("io.save_v6", [&] { session.save_v6(copy); }));
    attach.push_back(tr.time("io.attach", [&] {
      const ftb::io::MappedArtifact art =
          ftb::io::MappedArtifact::map(st.artifact);
      (void)art.file_bytes();
    }));
    decode.push_back(tr.time("io.decode", [&] {
      std::vector<Vertex> sources;
      std::vector<ftb::DualSiteTable> tables;
      std::vector<ftb::DualSiteDistTable> site_dist;
      (void)ftb::io::load_structure_v6(g, st.artifact, &sources, &tables, {},
                                       nullptr, &site_dist);
    }));
  }
  std::remove(copy.c_str());
  out.push_back({"io.save_v6_ms", median(save) * 1e3, "ms"});
  out.push_back({"io.attach_ms", median(attach) * 1e3, "ms"});
  out.push_back({"io.decode_ms", median(decode) * 1e3, "ms"});

  // Session: load plus first batch make up setup_s; the coverage says how
  // much of a load the timed layers explain.
  const double load_s = median(st.load_s);
  const double engines_s = edge_s + (own_dual ? vertex_s : 0.0);
  out.push_back({"session.load_s", load_s, "s"});
  out.push_back({"session.first_batch_ms", median(st.first_batch_s) * 1e3,
                 "ms"});
  out.push_back({"session.load_coverage",
                 (median(decode) + trees_s + engines_s) / load_s, "ratio"});

  // Query plane: one lookup batch forced inline, then forced sharded; one
  // batch of distinct traversals.
  ftb::Rng rng(st.seed ^ 0x1A7E45ULL);
  const Batch lookups =
      make_lookup_batch(*st.in, session.structure(), 4096, rng);
  api::BatchOptions inline_opts;
  inline_opts.inline_threshold = std::numeric_limits<std::int32_t>::max();
  api::BatchOptions sharded_opts;
  sharded_opts.inline_threshold = 0;
  (void)session.query(lookups, inline_opts);
  (void)session.query(lookups, sharded_opts);
  std::vector<double> inl, shd;
  for (int r = 0; r < (st.tiny ? 10 : 100); ++r) {
    inl.push_back(tr.time("query.lookup_inline",
                          [&] { (void)session.query(lookups, inline_opts); }));
    shd.push_back(tr.time("query.lookup_sharded",
                          [&] { (void)session.query(lookups, sharded_opts); }));
  }
  const double per_query = 1e9 / static_cast<double>(lookups.size());
  out.push_back({"query.lookup_ns", median(inl) * per_query, "ns"});
  out.push_back({"query.sharded_lookup_ns", median(shd) * per_query, "ns"});

  const Batch traversals =
      make_traversal_batch(*st.w, *st.in, session.structure(), 16, rng);
  std::vector<double> trav;
  for (int r = 0; r < reps; ++r) {
    api::QueryResponse resp;
    const double sec = tr.time("query.traversal_batch",
                               [&] { resp = session.query(traversals); });
    const std::int64_t n = resp.what_if_traversals + resp.pair_traversals;
    if (n > 0) trav.push_back(sec / static_cast<double>(n));
  }
  out.push_back({"query.traversal_ms", median(trav) * 1e3, "ms"});
  out.push_back({"query.what_if_traversals",
                 static_cast<double>(st.what_if_traversals), "count"});
  out.push_back({"query.pair_traversals",
                 static_cast<double>(st.pair_traversals), "count"});
  const std::int64_t lookups_paired = st.pair_cache_hits + st.pair_cache_misses;
  out.push_back({"query.pair_cache_hit_rate",
                 lookups_paired == 0 ? 0.0
                                     : static_cast<double>(st.pair_cache_hits) /
                                           static_cast<double>(lookups_paired),
                 "ratio"});

  // Thread pool: one empty parallel_for over every participant (the
  // workers plus the calling thread), per call. Every workload serves on
  // one thread (README.md: steal makes parallel wall times unrepeatable
  // here), so parallel dispatch and the sharded lookup path are also
  // measured on a pool of nproc-1 workers plus the caller.
  const auto dispatch_us = [&](ftb::ThreadPool& pool, const char* span) {
    const std::size_t width = pool.thread_count() + 1;
    const auto calls = [&] {
      for (int i = 0; i < 100; ++i) {
        pool.parallel_for(width, [](std::size_t) {});
      }
    };
    calls();
    std::vector<double> per_call;
    for (int block = 0; block < 20; ++block) {
      per_call.push_back(tr.time(span, calls) / 100);
    }
    return median(per_call) * 1e6;
  };
  out.push_back(
      {"pool.dispatch_us", dispatch_us(*st.pool, "pool.dispatch_x100"), "us"});
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  ftb::ThreadPool wide(std::max(1u, nproc - 1));
  out.push_back({"pool.parallel_dispatch_us",
                 dispatch_us(wide, "pool.parallel_dispatch_x100"), "us"});
  api::SessionConfig cfg;
  cfg.weight_seed = st.spec.weight_seed;
  cfg.pool = &wide;
  const api::Session wide_session = api::Session::load(g, st.artifact, cfg);
  (void)wide_session.query(lookups, sharded_opts);
  shd.clear();
  for (int r = 0; r < (st.tiny ? 10 : 100); ++r) {
    shd.push_back(tr.time("query.lookup_parallel", [&] {
      (void)wide_session.query(lookups, sharded_opts);
    }));
  }
  out.push_back(
      {"pool.parallel_sharded_lookup_ns", median(shd) * per_query, "ns"});

  tr.end(layers_id);
}

}  // namespace perfbench

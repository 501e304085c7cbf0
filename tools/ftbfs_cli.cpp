// ftbfs_cli — the command-line face of the library, built on the
// ftb::api facade.
//
//   ftbfs_cli generate --family=gnm --n=500 --m=2000 --seed=1 --out=g.edges
//   ftbfs_cli info     --graph=g.edges
//   ftbfs_cli build    --graph=g.edges --source=0 --eps=0.25 --out=h.ftbfs
//   ftbfs_cli build    --graph=g.edges --sources=0,5,10 --out=h.ftbfs
//   ftbfs_cli build    --graph=g.edges --fault-model=vertex --out=h.ftbfs
//   ftbfs_cli build    --graph=g.edges --fault-model=dual --out=h.ftbfs
//   ftbfs_cli verify   --graph=g.edges --structure=h.ftbfs
//   ftbfs_cli drill    --graph=g.edges --structure=h.ftbfs --drills=200
//   ftbfs_cli fsck     --graph=g.edges --structure=h.ftbfs
//   ftbfs_cli frontier --graph=g.edges --source=0
//
// build/verify/drill speak every fault model: --fault-model={edge,vertex,
// either,dual} selects the construction at build time ("either" is the one-
// failure-of-either-kind union, "dual" the two-simultaneous-failure model
// of arXiv:1505.00692 — saved with its pair tables);
// verify and drill default to the model tag stored in the structure file
// and accept the flag as an override. build takes one --source or a comma-separated --sources list
// (FT-MBFS union, preserved in the artifact). drill serves the storm
// through an api::Session — the batched query plane answers the surviving-
// graph side — unless --fault-model overrides the artifact's tag, in which
// case the literal-BFS drill runs.
//
// fsck loads the artifact into a Session (tolerantly: a corrupt pair-table
// section downgrades to degraded service instead of refusing, unless
// --strict) and audits the serving invariants — exit 0 clean, 1 degraded,
// 2 broken. On a v6 binary artifact, fsck first mmaps the container and
// audits the section directory (alignment, padding, per-section CRC-32C)
// before the Session parse. build --out writes the checksummed
// structure_io v5 text framing, --v6 the mmap-able binary container; every
// other command reads v1–v6 (auto-detected by magic).
//
// Graph inputs are text or binary edge lists, auto-detected by magic;
// --graph-format=auto|text|binary pins the parser. convert rewrites
// between the two edge-list encodings (--to=binary|text) and upgrades any
// v1–v5 structure artifact to the v6 container (--structure=... --out=...).
//
// --json switches build/verify/drill/fsck to a machine-readable report on
// stdout (the same ordered-JSON shape BENCH_construction.json uses), so
// the CLI is scriptable:  ftbfs_cli build ... --json | jq .reinforced_edges
// build/fsck surface artifact_bytes and mmap (v6 zero-copy eligibility).
//
// The CLI reads its command line only — no FTBFS_<KEY> environment
// fallback, unlike the benches — and refuses any --key and any positional
// argument its subcommand does not read: usage error, exit 2.
//
// Families for generate: path, cycle, star, complete, grid (rows/cols),
// gnm (n/m), er (n/p), connected (n/extra), pa (n/k), intro (n),
// hypercube (dims), theta (paths/len), lb (n/eps), dumbbell (k/bridge),
// rmat (scale/m), rmat-connected (scale/m). generate --binary emits the
// binary edge-list encoding.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "src/core/cost_model.hpp"
#include "src/core/dual_fault.hpp"
#include "src/core/optimizer.hpp"
#include "src/core/verifier.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/graph/connectivity.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/lower_bound.hpp"
#include "src/io/binary_edge_list.hpp"
#include "src/io/binary_io.hpp"
#include "src/io/edge_list.hpp"
#include "src/io/structure_io.hpp"
#include "src/sim/failure_sim.hpp"
#include "src/util/json.hpp"
#include "src/util/options.hpp"
#include "src/util/table.hpp"

namespace {

using namespace ftb;

int usage() {
  std::cerr
      << "usage: ftbfs_cli "
         "<generate|info|build|verify|drill|fsck|convert|frontier> "
         "[--key=value ...]\n"
         "  generate --family=F --out=PATH [family params] [--binary]\n"
         "  info     --graph=PATH\n"
         "  convert  --graph=PATH --out=PATH [--to=binary|text]\n"
         "           (edge-list re-encode; add --structure=IN to upgrade a\n"
         "            v1-v5 structure artifact to the v6 binary container)\n"
         "  build    --graph=PATH [--source=0 | --sources=0,5,10]\n"
         "           [--eps=0.25] [--out=PATH] [--v6] [--json]\n"
         "           [--fault-model=edge|vertex|either|dual]\n"
         "           [--site-dist]   (dual: harvest the site-local pair\n"
         "                            oracle)\n"
         "  verify   --graph=PATH --structure=PATH [--nontree] [--json]\n"
         "           [--fault-model=...]   (default: the structure's tag)\n"
         "           [--pairs=N]   (dual: failure pairs to check; -1 = all)\n"
         "  drill    --graph=PATH --structure=PATH [--drills=200] [--seed=1]\n"
         "           [--weight-seed=1] [--json]\n"
         "           [--fault-model=...]   (default: the structure's tag)\n"
         "  fsck     --graph=PATH --structure=PATH [--weight-seed=1]\n"
         "           [--strict] [--json]    exit: 0 clean, 1 degraded, 2 broken\n"
         "  frontier --graph=PATH [--source=0] [--points=12]\n"
         "  every --graph consumer also takes "
         "--graph-format=auto|text|binary\n"
         "  keys not listed for a command, and positional arguments, are\n"
         "  refused; options come from the command line only\n";
  return 2;
}

/// Load the --graph edge list honoring --graph-format. `auto` (default)
/// dispatches on the file's magic bytes, so binary graphs work everywhere
/// a text graph does; `text`/`binary` pin the parser (a mismatched pin is
/// a zero-trust rejection, not a fallback).
Graph load_graph(const Options& opt) {
  const std::string path = opt.get_string("graph", "graph.edges");
  const std::string fmt = opt.get_string("graph-format", "auto");
  if (fmt == "auto") return io::load_edge_list_auto(path);
  if (fmt == "text") return io::load_edge_list(path);
  if (fmt == "binary") return io::load_binary_edge_list(path);
  FTB_CHECK_MSG(false, "unknown --graph-format '"
                           << fmt << "' (want auto, text or binary)");
  return gen::path_graph(2);
}

/// Size of a just-written artifact, for the --json reports.
std::int64_t file_bytes_of(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  FTB_CHECK_MSG(f.good(), "cannot stat " << path);
  return static_cast<std::int64_t>(f.tellg());
}

/// The fault model to operate a loaded structure under: the structure's
/// stored tag unless --fault-model overrides it.
FaultClass structure_fault_model(const Options& opt, const FtBfsStructure& h) {
  const std::string flag = opt.get_string("fault-model", "");
  return flag.empty() ? h.fault_class() : parse_fault_class(flag);
}

Graph generate_family(const Options& opt) {
  const std::string family = opt.get_string("family", "gnm");
  const Vertex n = static_cast<Vertex>(opt.get_int("n", 500));
  const std::uint64_t seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  if (family == "path") return gen::path_graph(n);
  if (family == "cycle") return gen::cycle_graph(n);
  if (family == "star") return gen::star_graph(n);
  if (family == "complete") return gen::complete_graph(n);
  if (family == "grid") {
    return gen::grid_graph(static_cast<Vertex>(opt.get_int("rows", 20)),
                           static_cast<Vertex>(opt.get_int("cols", 20)));
  }
  if (family == "gnm") return gen::gnm(n, opt.get_int("m", 4 * n), seed);
  if (family == "er") return gen::erdos_renyi(n, opt.get_double("p", 0.05), seed);
  if (family == "connected") {
    return gen::random_connected(n, opt.get_int("extra", 3 * n), seed);
  }
  if (family == "pa") {
    return gen::preferential_attachment(
        n, static_cast<Vertex>(opt.get_int("k", 3)), seed);
  }
  if (family == "rmat" || family == "rmat-connected") {
    const auto scale = static_cast<Vertex>(opt.get_int("scale", 10));
    const std::int64_t m =
        opt.get_int("m", 8 * (static_cast<std::int64_t>(1) << scale));
    return family == "rmat" ? gen::rmat(scale, m, seed)
                            : gen::rmat_connected(scale, m, seed);
  }
  if (family == "intro") return gen::intro_example(n);
  if (family == "hypercube") {
    return gen::hypercube(static_cast<Vertex>(opt.get_int("dims", 8)));
  }
  if (family == "theta") {
    return gen::theta_graph(static_cast<Vertex>(opt.get_int("paths", 5)),
                            static_cast<Vertex>(opt.get_int("len", 10)));
  }
  if (family == "dumbbell") {
    return gen::dumbbell(static_cast<Vertex>(opt.get_int("k", 20)),
                         static_cast<Vertex>(opt.get_int("bridge", 5)));
  }
  if (family == "lb") {
    return lb::build_single_source(n, opt.get_double("eps", 0.5)).graph;
  }
  FTB_CHECK_MSG(false, "unknown family '" << family << "'");
  return gen::path_graph(2);
}

int cmd_generate(const Options& opt) {
  const Graph g = generate_family(opt);
  const std::string out = opt.get_string("out", "");
  const bool binary = opt.has("binary");
  if (out.empty()) {
    FTB_CHECK_MSG(!binary, "--binary needs --out (no binary to stdout)");
    io::write_edge_list(g, std::cout);
  } else {
    if (binary) {
      io::save_binary_edge_list(g, out);
    } else {
      io::save_edge_list(g, out);
    }
    std::cout << "wrote " << g.summary() << " to " << out
              << (binary ? " (binary)" : "") << "\n";
  }
  return 0;
}

int cmd_info(const Options& opt) {
  const Graph g = load_graph(opt);
  std::cout << g.summary() << "\n";
  const ConnectivityReport conn = analyze_connectivity(g);
  std::cout << "components:        " << conn.num_components << "\n";
  std::cout << "bridges:           " << conn.bridges.size() << "\n";
  std::cout << "cut vertices:      " << conn.cut_vertices.size() << "\n";
  std::int64_t deg_sum = 0;
  std::int32_t deg_max = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    deg_sum += g.degree(v);
    deg_max = std::max(deg_max, g.degree(v));
  }
  std::cout << "avg degree:        "
            << static_cast<double>(deg_sum) /
                   std::max<std::int64_t>(1, g.num_vertices())
            << "\n";
  std::cout << "max degree:        " << deg_max << "\n";
  return 0;
}

/// The build parameterization shared by the facade and this CLI.
api::BuildSpec spec_from_options(const Options& opt) {
  api::BuildSpec spec;
  spec.fault_model = parse_fault_class(opt.get_string("fault-model", "edge"));
  if (opt.has("sources")) {
    spec.sources.clear();
    for (const long long s : opt.get_int_list("sources", {})) {
      spec.sources.push_back(static_cast<Vertex>(s));
    }
  } else {
    spec.sources = {static_cast<Vertex>(opt.get_int("source", 0))};
  }
  if (spec.fault_model == FaultClass::kEdge) {
    spec.eps = opt.get_double("eps", 0.25);
  } else {
    // The vertex / either / dual pipelines have no reinforcement tradeoff
    // — ε does not apply (r = 0 constructions). Refuse a silently-ignored
    // flag rather than ship a plan the operator believes is ε-tuned.
    FTB_CHECK_MSG(!opt.has("eps"),
                  "--eps applies only to --fault-model=edge (the other "
                  "pipelines have no reinforcement tradeoff)");
  }
  spec.weight_seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  if (opt.has("site-dist")) {
    FTB_CHECK_MSG(spec.fault_model == FaultClass::kDual,
                  "--site-dist applies only to --fault-model=dual (the "
                  "site-local oracle accelerates pair queries)");
    spec.site_dist_oracle = true;
  }
  return spec;
}

JsonArray sources_json(std::span<const Vertex> sources) {
  JsonArray arr;
  for (const Vertex s : sources) arr.push_raw(std::to_string(s));
  return arr;
}

int cmd_build(const Options& opt) {
  const Graph g = load_graph(opt);
  const api::BuildSpec spec = spec_from_options(opt);
  const std::string out = opt.get_string("out", "");
  const bool json = opt.has("json");

  const api::BuildResult res = api::build(g, spec);
  const FtBfsStructure& h = res.structure;
  if (!out.empty()) {
    // The checksummed v5 text framing by default (every section carries
    // its length and CRC-32C); --v6 selects the mmap-able binary container
    // over the same logical sections. Both carry the site-dist oracle when
    // harvested.
    if (opt.has("v6")) {
      io::save_structure_v6(h, res.sources, res.dual_tables,
                            res.dual_site_dist, out);
    } else {
      io::save_structure_v5(h, res.sources, res.dual_tables,
                            res.dual_site_dist, out);
    }
  }

  if (json) {
    JsonObject report;
    report.set("command", std::string("build"))
        .set("fault_model", std::string(to_string(spec.fault_model)))
        .set("n", static_cast<std::int64_t>(g.num_vertices()))
        .set("m", static_cast<std::int64_t>(g.num_edges()))
        .set_raw("sources", sources_json(res.sources).str(2));
    if (spec.fault_model == FaultClass::kEdge) report.set("eps", spec.eps);
    if (spec.fault_model == FaultClass::kDual) {
      std::int64_t sites = 0;
      for (const DualSiteTable& t : res.dual_tables) {
        sites += static_cast<std::int64_t>(t.num_sites());
      }
      report.set("pair_sites", sites);
      if (spec.site_dist_oracle) {
        std::int64_t slots = 0;
        for (const DualSiteDistTable& t : res.dual_site_dist) {
          slots += static_cast<std::int64_t>(t.num_slots());
        }
        report.set("site_dist_slots", slots);
      }
    }
    report.set("edges_in_H", h.num_edges())
        .set("backup_edges", h.num_backup())
        .set("reinforced_edges", h.num_reinforced())
        .set("seconds", res.seconds_total);
    JsonArray per_source;
    for (const EpsilonStats& st : res.per_source) {
      JsonObject row;
      row.set("eps", st.eps)
          .set("k_rounds", static_cast<std::int64_t>(st.k_rounds))
          .set("used_baseline", st.used_baseline)
          .set("pairs_total", st.pairs_total)
          .set("pairs_uncovered", st.pairs_uncovered)
          .set("s1_added_edges", st.s1_added_edges)
          .set("s2_added_edges", st.s2_glue_added + st.s2_added_edges)
          .set("structure_edges", st.structure_edges)
          .set("backup_edges", st.backup)
          .set("reinforced_edges", st.reinforced)
          .set("interference_truncated_buckets",
               st.interference_truncated_buckets)
          .set("seconds_engine", st.seconds_engine)
          .set("seconds_interference", st.seconds_interference)
          .set("seconds_s1", st.seconds_s1)
          .set("seconds_s2", st.seconds_s2)
          .set("seconds", st.seconds_total);
      per_source.push(row);
    }
    report.set_raw("per_source", per_source.str(2));
    if (!out.empty()) {
      report.set("out", out)
          .set("artifact_bytes", file_bytes_of(out))
          .set("mmap", opt.has("v6"));  // zero-copy-attachable container?
    }
    std::cout << report.str() << "\n";
    return 0;
  }

  std::cout << h.summary();
  if (spec.fault_model == FaultClass::kEdge) {
    std::cout << "  (eps=" << spec.eps << ", built in " << res.seconds_total
              << "s)";
  }
  std::cout << "\n";
  if (res.sources.size() > 1) {
    std::cout << "serving " << res.sources.size() << " sources (FT-MBFS "
              << "union)\n";
  }
  if (!out.empty()) std::cout << "wrote structure to " << out << "\n";
  return 0;
}

int cmd_verify(const Options& opt) {
  const Graph g = load_graph(opt);
  std::vector<Vertex> sources;
  const FtBfsStructure loaded = io::load_structure(
      g, opt.get_string("structure", "h.ftbfs"), &sources);
  const FaultClass model = structure_fault_model(opt, loaded);
  const bool json = opt.has("json");
  // One verifier for every model: the structure is checked under `model`
  // from EVERY source the artifact claims to serve.
  const FtBfsStructure h(g, loaded.source(), loaded.edges(),
                         loaded.reinforced(), loaded.tree_edges(), model);
  VerifyOptions vo;
  vo.sources = sources;
  vo.check_nontree_failures = opt.has("nontree");
  vo.max_pairs = opt.get_int("pairs", 500);
  vo.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  const VerifyReport rep = verify_structure(h, vo);

  JsonObject report;
  report.set("command", std::string("verify"))
      .set("fault_model", std::string(to_string(model)))
      .set_raw("sources", sources_json(sources).str(2));
  if (model == FaultClass::kDual) {
    if (json) {
      JsonObject dual;
      dual.set("ok", rep.ok)
          .set("pairs_per_source", vo.max_pairs)
          .set("violations", rep.violations);
      report.set_raw("dual", dual.str(2));
    } else {
      std::cout << "dual failures: " << (rep.ok ? "OK" : "BROKEN")
                << " (pairs=";
      if (vo.max_pairs < 0) {
        std::cout << "all";
      } else {
        std::cout << vo.max_pairs;
      }
      std::cout << "/source, sources=" << sources.size()
                << ", violations=" << rep.violations << ")\n";
    }
  }
  if (model == FaultClass::kEdge || model == FaultClass::kEither) {
    const std::int64_t violations = rep.violations - rep.vertex_violations;
    if (json) {
      JsonObject edge;
      edge.set("ok", violations == 0)
          .set("failures_checked",
               rep.failures_checked - rep.vertex_failures_checked)
          .set("violations", violations);
      report.set_raw("edge", edge.str(2));
    } else {
      std::cout << "edge faults:   " << (violations == 0 ? "OK" : "BROKEN")
                << " (sources=" << sources.size() << ", failures_checked="
                << rep.failures_checked - rep.vertex_failures_checked
                << ", violations=" << violations << ")\n";
    }
  }
  if (model == FaultClass::kVertex || model == FaultClass::kEither) {
    // A vertex-model report also owns the failure-free check.
    const std::int64_t violations = model == FaultClass::kVertex
                                        ? rep.violations
                                        : rep.vertex_violations;
    if (json) {
      JsonObject vertex;
      vertex.set("ok", violations == 0).set("violations", violations);
      report.set_raw("vertex", vertex.str(2));
    } else {
      std::cout << "vertex faults: " << (violations == 0 ? "OK" : "BROKEN")
                << " (sources=" << sources.size()
                << ", violations=" << violations << ")\n";
    }
  }
  if (json) {
    report.set("ok", rep.ok);
    std::cout << report.str() << "\n";
  } else {
    // The counterexamples, for every model: the first 16 in check order
    // (the lines after the report's headline).
    const std::string text = rep.to_string();
    const std::size_t nl = text.find('\n');
    if (nl != std::string::npos) std::cout << text.substr(nl + 1) << "\n";
  }
  return rep.ok ? 0 : 1;
}

int cmd_drill(const Options& opt) {
  const Graph g = load_graph(opt);
  const std::string path = opt.get_string("structure", "h.ftbfs");
  std::vector<Vertex> sources;
  std::vector<DualSiteTable> tables;
  std::vector<DualSiteDistTable> site_dist;
  const FtBfsStructure h = io::load_structure(g, path, &sources, &tables, {},
                                              nullptr, &site_dist);
  const FaultClass model = structure_fault_model(opt, h);
  const bool json = opt.has("json");
  const std::int64_t drills = opt.get_int("drills", 200);
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));

  // Serve the drill through the batched query plane whenever the storm
  // matches the artifact's own model. Two ways to land on the literal-BFS
  // drill instead: a --fault-model override asking for a storm the
  // session's tables cannot answer in-model, or an artifact built with a
  // weight seed other than --weight-seed (the rebuilt canonical trees then
  // don't match, and the session refuses to serve wrong answers).
  std::optional<api::Session> session;
  if (model == h.fault_class()) {
    api::BuildSpec spec;
    spec.fault_model = h.fault_class();
    spec.sources = sources;
    spec.weight_seed =
        static_cast<std::uint64_t>(opt.get_int("weight-seed", 1));
    try {
      // An artifact carrying the v5 site-dist section serves its pair
      // storm O(1) — deploy attaches the shipped oracle tables.
      session.emplace(api::Session::deploy(
          g, api::BuildResult{spec, sources, FtBfsStructure(h), {}, tables,
                              std::move(site_dist), 0.0}));
    } catch (const CheckError&) {
      if (!json) {
        std::cout << "note: artifact does not match --weight-seed="
                  << spec.weight_seed
                  << " — drilling with literal BFS instead of the session "
                     "plane\n";
      }
    }
  }
  const bool via_session = session.has_value();
  const DrillReport rep = via_session
                              ? run_failure_drill(*session, model, drills,
                                                  seed)
                              : run_failure_drill(h, model, drills, seed,
                                                  sources);

  if (json) {
    JsonObject report;
    report.set("command", std::string("drill"))
        .set("fault_model", std::string(to_string(model)))
        .set("served_by", std::string(via_session ? "session" : "structure"))
        .set("drills", rep.drills)
        .set("queries", rep.reachable_queries)
        .set("violations", rep.violations)
        .set("disconnections", rep.disconnections)
        .set("max_stretch", rep.max_stretch)
        .set("avg_distance", rep.avg_distance);
    if (via_session) {
      // The serving-plane counters of the batched drill: how the dual
      // pairs were answered (site-dist oracle vs cached traversals).
      report.set("pair_traversals", rep.pair_traversals)
          .set("site_oracle_hits", rep.site_oracle_hits)
          .set("pair_cache_hits", rep.pair_cache_hits)
          .set("pair_cache_misses", rep.pair_cache_misses);
    }
    report.set("ok", rep.violations == 0);
    std::cout << report.str() << "\n";
  } else {
    std::cout << "[" << to_string(model) << " faults] " << rep.to_string()
              << "\n";
  }
  return rep.violations == 0 ? 0 : 1;
}

/// convert: re-encode an edge list between the text and binary forms, or
/// (with --structure) upgrade any v1–v5 structure artifact to the v6
/// binary container. Either direction round-trips bit-identically through
/// the canonical Graph, so text→binary→text is a fixed point.
int cmd_convert(const Options& opt) {
  const std::string out = opt.get_string("out", "");
  FTB_CHECK_MSG(!out.empty(), "convert needs --out=PATH");
  const bool json = opt.has("json");
  const Graph g = load_graph(opt);

  if (opt.has("structure")) {
    // Structure upgrade: decode whatever version the artifact speaks
    // (v1–v6, anchored on --graph) and re-emit the v6 binary container
    // with every section the artifact carried.
    const std::string in = opt.get_string("structure", "h.ftbfs");
    std::vector<Vertex> sources;
    std::vector<DualSiteTable> tables;
    std::vector<DualSiteDistTable> site_dist;
    const FtBfsStructure h = io::load_structure(g, in, &sources, &tables, {},
                                                nullptr, &site_dist);
    io::save_structure_v6(h, sources, tables, site_dist, out);
    const std::int64_t bytes = file_bytes_of(out);
    if (json) {
      JsonObject report;
      report.set("command", std::string("convert"))
          .set("structure", in)
          .set("out", out)
          .set("format", std::string("v6"))
          .set("artifact_bytes", bytes)
          .set("mmap", true);
      std::cout << report.str() << "\n";
    } else {
      std::cout << "wrote v6 artifact (" << bytes << " bytes) to " << out
                << "\n";
    }
    return 0;
  }

  const std::string to = opt.get_string("to", "binary");
  if (to == "binary") {
    io::save_binary_edge_list(g, out);
  } else if (to == "text") {
    io::save_edge_list(g, out);
  } else {
    FTB_CHECK_MSG(false,
                  "unknown --to '" << to << "' (want binary or text)");
  }
  if (json) {
    JsonObject report;
    report.set("command", std::string("convert"))
        .set("out", out)
        .set("format", to)
        .set("n", static_cast<std::int64_t>(g.num_vertices()))
        .set("m", static_cast<std::int64_t>(g.num_edges()))
        .set("artifact_bytes", file_bytes_of(out));
    std::cout << report.str() << "\n";
  } else {
    std::cout << "wrote " << g.summary() << " to " << out << " (" << to
              << ")\n";
  }
  return 0;
}

/// fsck: load the artifact into a Session (tolerantly unless --strict) and
/// audit the serving invariants. Exit 0 clean, 1 degraded-but-correct,
/// 2 broken (an invariant failed or the load itself threw).
///
/// v6 artifacts get an extra file-level pass first: mmap the container and
/// audit the section directory — alignment, padding, declared sizes, every
/// CRC-32C — the way a deployment host would before serving it. A refusal
/// there is reported (and under --strict the Session load will refuse too);
/// under the tolerant default the Session still gets its chance to degrade
/// gracefully on droppable sections.
int cmd_fsck(const Options& opt) {
  const Graph g = load_graph(opt);
  const std::string path = opt.get_string("structure", "h.ftbfs");
  const bool json = opt.has("json");

  const bool is_v6 = io::is_v6_artifact(path);
  bool mmap_ok = false;
  std::int64_t artifact_bytes = -1;
  std::int64_t sections = 0;
  std::string container_error;
  if (is_v6) {
    try {
      const io::MappedArtifact art = io::MappedArtifact::map(path);
      mmap_ok = true;
      artifact_bytes = static_cast<std::int64_t>(art.file_bytes());
      sections = static_cast<std::int64_t>(art.directory().size());
    } catch (const CheckError& e) {
      container_error = e.what();
    }
  }

  api::SessionConfig cfg;
  cfg.weight_seed =
      static_cast<std::uint64_t>(opt.get_int("weight-seed", 1));
  cfg.tolerate_corruption = !opt.has("strict");
  api::FsckReport rep;
  std::string fault_model = "unknown";
  try {
    const api::Session session = api::Session::load(g, path, cfg);
    fault_model = to_string(session.fault_model());
    rep = session.fsck();
  } catch (const CheckError& e) {
    // A refused load IS the broken verdict (exit 2), not the generic
    // CLI error (exit 1, which fsck reserves for degraded-but-correct).
    rep.ok = false;
    rep.errors.push_back(e.what());
  }

  if (json) {
    JsonObject report;
    report.set("command", std::string("fsck"))
        .set("structure", path)
        .set("fault_model", fault_model)
        .set("mmap", mmap_ok);
    if (is_v6) {
      if (artifact_bytes >= 0) report.set("artifact_bytes", artifact_bytes);
      report.set("sections", sections);
      if (!container_error.empty()) {
        report.set("container_error", container_error);
      }
    }
    report.set("ok", rep.ok)
        .set("degraded", rep.degraded)
        .set("checks", rep.checks);
    JsonArray errors;
    for (const std::string& e : rep.errors) {
      errors.push_raw(JsonObject::quote(e));
    }
    report.set_raw("errors", errors.str(2));
    JsonArray notes;
    for (const std::string& n : rep.notes) {
      notes.push_raw(JsonObject::quote(n));
    }
    report.set_raw("notes", notes.str(2));
    std::cout << report.str() << "\n";
  } else {
    if (is_v6) {
      if (mmap_ok) {
        std::cout << "v6 container: ok (" << sections << " sections, "
                  << artifact_bytes << " bytes, directory + CRCs verified)\n";
      } else {
        std::cout << "v6 container: REFUSED — " << container_error << "\n";
      }
    }
    std::cout << rep.to_string() << "\n";
  }
  if (!rep.ok) return 2;
  return rep.degraded ? 1 : 0;
}

int cmd_frontier(const Options& opt) {
  const Graph g = load_graph(opt);
  const Vertex source = static_cast<Vertex>(opt.get_int("source", 0));
  const GreedyFrontier frontier(g, source);
  const auto& pts = frontier.points();
  const std::size_t points =
      std::max<std::size_t>(2, static_cast<std::size_t>(
                                   opt.get_int("points", 12)));
  Table t("greedy reinforcement-backup frontier");
  t.columns({"reinforced_r", "backup_b"});
  const std::size_t step = std::max<std::size_t>(1, pts.size() / points);
  for (std::size_t i = 0; i < pts.size(); i += step) {
    t.row(pts[i].reinforced, pts[i].backup);
  }
  t.row(pts.back().reinforced, pts.back().backup);
  t.print(std::cout);
  return 0;
}

/// One subcommand: its entry point and every key it reads. Any other key,
/// and any positional argument, is a usage error.
struct Command {
  std::string_view name;
  int (*run)(const Options&);
  std::vector<std::string_view> keys;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"generate", cmd_generate,
       {"family", "n", "seed", "rows", "cols", "m", "p", "extra", "k", "scale",
        "dims", "paths", "len", "bridge", "eps", "out", "binary"}},
      {"info", cmd_info, {"graph", "graph-format"}},
      {"build", cmd_build,
       {"graph", "graph-format", "fault-model", "sources", "source", "eps",
        "seed", "site-dist", "out", "v6", "json"}},
      {"verify", cmd_verify,
       {"graph", "graph-format", "structure", "fault-model", "nontree",
        "pairs", "seed", "json"}},
      {"drill", cmd_drill,
       {"graph", "graph-format", "structure", "fault-model", "drills", "seed",
        "weight-seed", "json"}},
      {"fsck", cmd_fsck,
       {"graph", "graph-format", "structure", "weight-seed", "strict",
        "json"}},
      {"convert", cmd_convert,
       {"graph", "graph-format", "structure", "out", "to", "json"}},
      {"frontier", cmd_frontier,
       {"graph", "graph-format", "source", "points"}},
  };
  return table;
}

/// The first argument `cmd` does not read, as a diagnostic; empty if none.
std::string stray_argument(const Command& cmd, const Options& opt) {
  if (!opt.positional().empty()) {
    return "unexpected argument '" + opt.positional().front() + "' for " +
           std::string(cmd.name);
  }
  for (const std::string& key : opt.keys()) {
    if (std::find(cmd.keys.begin(), cmd.keys.end(), key) == cmd.keys.end()) {
      return "unknown option --" + key + " for " + std::string(cmd.name);
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view name = argv[1];
  const ftb::Options opt(argc - 1, argv + 1, /*env_fallback=*/false);
  for (const Command& cmd : commands()) {
    if (cmd.name != name) continue;
    if (const std::string stray = stray_argument(cmd, opt); !stray.empty()) {
      std::cerr << "error: " << stray << "\n";
      return usage();
    }
    try {
      return cmd.run(opt);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  return usage();
}

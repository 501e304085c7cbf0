// main.cpp — the FT-BFS end-to-end benchmark: build → save → load → serve
// for one workload, as a closed loop from one client thread (the next batch
// is sent only after the previous one is answered).
//
//   ftbfs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--tiny] [--artifact-dir DIR] [--trace-out FILE]
//
// Phases: one untimed warm-up (build, v6 save, load, a few batches); rounds
// of a timed build, timed load-to-first-answer repetitions and a serve
// slice, at least `--seconds` and 1000 batches in all; then the
// correctness gate outside every timed region. Every time is scaled to a
// nominal host speed (ReferenceWork in host.hpp). `--trace 1` additionally
// records spans, interleaves untraced rounds to measure the tracing
// overhead, and times each layer (layers.cpp). The last line of stdout is
// one JSON object with `correct`, `attempted`, `failed` and `metrics`.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "host.hpp"
#include "run.hpp"
#include "src/io/binary_io.hpp"
#include "src/util/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using ftb::Vertex;
namespace api = ftb::api;

/// Batches every run answers at least, so its percentiles have at least
/// ten samples beyond p99 (and a hundred beyond p90).
constexpr std::int64_t kServedBatches = 1000;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string artifact_dir = ".";
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    std::size_t used = value.size();  // numeric flags re-measure it
    if (flag == "--workload") {
      a.workload = find_workload(value);
      if (a.workload == nullptr) {
        throw std::invalid_argument("unknown workload '" + value + "'");
      }
    } else if (flag == "--seed") {
      a.seed = std::stoull(value, &used);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value, &used);
      if (!(a.seconds > 0)) {
        throw std::invalid_argument("--seconds must be > 0");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--artifact-dir") {
      a.artifact_dir = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (used != value.size()) {
      throw std::invalid_argument("malformed value for " + flag + ": " + value);
    }
  }
  if (a.workload == nullptr) {
    throw std::invalid_argument("--workload is required");
  }
  return a;
}

/// Nearest-rank percentile of a non-empty sample.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Mean of the middle half of a non-empty sample (ranks n/4 .. 3n/4). When
/// the host switches between a fast and a slow phase, batch times are
/// bimodal: a median jumps to the other mode once the slow share crosses
/// one half, while this moves in proportion to that share.
double interquartile_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = std::max(lo + 1, v.size() - v.size() / 4);
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

std::int64_t failed_in(const api::QueryResponse& r) {
  return r.refused + r.budget_exhausted + r.degraded;
}

/// The correctness gate's sample: seeded (batch, query) positions drawn
/// before serving, each keeping the latest answer served for it. A
/// position that is never answered keeps a refused result and so fails.
class GateSample {
 public:
  GateSample(const std::vector<Batch>& batches, std::size_t from_batches,
             int size, ftb::Rng& rng)
      : at_batch_(batches.size()) {
    for (int i = 0; i < size; ++i) {
      const std::size_t b = rng.next_below(from_batches);
      const std::size_t q = rng.next_below(batches[b].size());
      at_batch_[b].push_back({answers_.size(), q});
      answers_.push_back(Answer{batches[b][q], {}});
    }
  }

  void record(std::size_t b, const api::QueryResponse& resp) {
    for (const auto& [slot, q] : at_batch_[b]) {
      answers_[slot].r = resp.results[q];
    }
  }

  const std::vector<Answer>& answers() const { return answers_; }

 private:
  std::vector<Answer> answers_;
  /// Per batch: (index into answers_, query index in the batch).
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> at_batch_;
};

struct ServeResult {
  std::int64_t batches = 0, queries = 0, failed = 0;
  std::int64_t warm_queries = 0;  // served untimed at the start of a slice
  double wall_s = 0, cpu_s = 0;
  // Per-batch latency on the process CPU clock, which charges work on every
  // thread but not time the hypervisor stole from the vCPU (README.md, "Why
  // every workload is serial"); and on the wall clock, which the host line
  // compares against it.
  std::vector<double> cpu_ms, wall_ms;
  std::int64_t what_if_traversals = 0, pair_traversals = 0;
  std::int64_t pair_cache_hits = 0, pair_cache_misses = 0;

  double qps() const {
    return wall_s > 0 ? static_cast<double>(queries) / wall_s : 0.0;
  }
  void add(const ServeResult& o) {
    batches += o.batches;
    queries += o.queries;
    warm_queries += o.warm_queries;
    failed += o.failed;
    wall_s += o.wall_s;
    cpu_s += o.cpu_s;
    cpu_ms.insert(cpu_ms.end(), o.cpu_ms.begin(), o.cpu_ms.end());
    wall_ms.insert(wall_ms.end(), o.wall_ms.begin(), o.wall_ms.end());
    what_if_traversals += o.what_if_traversals;
    pair_traversals += o.pair_traversals;
    pair_cache_hits += o.pair_cache_hits;
    pair_cache_misses += o.pair_cache_misses;
  }
};

/// One slice of the closed serving loop: answers pool batches from
/// `cursor` on until `seconds` have passed and at least `min_batches` were
/// answered, and adds them to `out`. The slice follows a build that evicted
/// the session's tables from the caches, so its first kWarmSeconds of
/// batches refill them untimed; they still count as served queries.
/// Every kRefEvery seconds, between batches, it times the reference work
/// (the factors are appended to `scales`). The batches between two such
/// probes are scaled by the median of those two and the probes on either
/// side, so one disturbed probe moves no batch.
void serve_slice(const api::Session& s, const std::vector<Batch>& batches,
                 double seconds, std::int64_t min_batches, Tracer& tr,
                 std::size_t& cursor, GateSample& gate, ReferenceWork& ref,
                 std::vector<double>& scales, ServeResult& out) {
  constexpr double kWarmSeconds = 0.1;
  constexpr double kRefEvery = 0.25;
  const int id = tr.begin("serve");
  const Clock::time_point warm0 = Clock::now();
  do {
    const std::size_t b = cursor++ % batches.size();
    const api::QueryResponse resp = s.query(batches[b]);
    out.warm_queries += static_cast<std::int64_t>(batches[b].size());
    out.failed += failed_in(resp);
    gate.record(b, resp);
  } while (seconds_since(warm0) < kWarmSeconds);
  // probe[i] is timed before the batches from window_start[i] on.
  std::vector<double> probe{ref.scale_now()};
  std::vector<std::size_t> window_start{0};
  const Clock::time_point t0 = Clock::now();
  Clock::time_point window_t0 = t0;
  const auto close_window = [&] {
    probe.push_back(ref.scale_now());
    window_start.push_back(out.cpu_ms.size());
    window_t0 = Clock::now();
  };
  for (std::int64_t n = 1;; ++n) {
    const std::size_t b = cursor++ % batches.size();
    api::QueryResponse resp;
    const double cpu = process_cpu_seconds();
    const double wall =
        tr.time("serve.batch", [&] { resp = s.query(batches[b]); });
    out.cpu_ms.push_back((process_cpu_seconds() - cpu) * 1e3);
    out.wall_ms.push_back(wall * 1e3);
    out.queries += static_cast<std::int64_t>(batches[b].size());
    out.failed += failed_in(resp);
    out.what_if_traversals += resp.what_if_traversals;
    out.pair_traversals += resp.pair_traversals;
    out.pair_cache_hits += resp.pair_cache_hits;
    out.pair_cache_misses += resp.pair_cache_misses;
    gate.record(b, resp);
    if (n >= min_batches && seconds_since(t0) >= seconds) {
      close_window();
      out.batches += n;
      break;
    }
    if (seconds_since(window_t0) >= kRefEvery) close_window();
  }
  tr.end(id);
  for (std::size_t i = 0; i + 1 < probe.size(); ++i) {
    const std::size_t lo = i == 0 ? 0 : i - 1;
    const std::size_t hi = std::min(probe.size(), i + 3);
    const double f = median({probe.begin() + static_cast<std::ptrdiff_t>(lo),
                             probe.begin() + static_cast<std::ptrdiff_t>(hi)});
    for (std::size_t b = window_start[i]; b < window_start[i + 1]; ++b) {
      out.cpu_ms[b] *= f;
      out.wall_ms[b] *= f;
      out.cpu_s += out.cpu_ms[b] * 1e-3;
      out.wall_s += out.wall_ms[b] * 1e-3;
    }
  }
  scales.insert(scales.end(), probe.begin(), probe.end());
}

/// What a run keeps of a build: the sizes it reports and a hash of the
/// edge sets, to check that every build of the run made the same structure.
struct Fingerprint {
  std::int64_t backup = 0, reinforced = 0;
  std::uint64_t hash = 0;

  explicit Fingerprint(const ftb::FtBfsStructure& h)
      : backup(h.num_backup()), reinforced(h.num_reinforced()) {
    std::uint64_t x = 14695981039346656037ULL;  // FNV-1a
    const auto mix = [&x](std::int64_t v) {
      x = (x ^ static_cast<std::uint64_t>(v)) * 1099511628211ULL;
    };
    for (const auto* set : {&h.edges(), &h.reinforced(), &h.tree_edges()}) {
      for (const ftb::EdgeId e : *set) mix(e);
      mix(-1);
    }
    hash = x;
  }
  bool operator==(const Fingerprint&) const = default;
};

void save_v6(const api::BuildResult& r, const std::string& path) {
  ftb::io::save_structure_v6(r.structure, r.sources, r.dual_tables,
                             r.dual_site_dist, path);
}

ftb::EpsilonStats summed_eps_stats(const api::BuildResult& r) {
  ftb::EpsilonStats sum;
  for (const ftb::EpsilonStats& s : r.per_source) {
    sum.seconds_engine += s.seconds_engine;
    sum.seconds_interference += s.seconds_interference;
    sum.seconds_s1 += s.seconds_s1;
    sum.seconds_s2 += s.seconds_s2;
    sum.pairs_uncovered += s.pairs_uncovered;
    sum.s1_added_edges += s.s1_added_edges;
  }
  return sum;
}

/// A number with all its digits (ftb::JsonObject keeps six).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  if (v == std::floor(v) && std::fabs(v) < 9e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

/// A JsonObject on one line. Strings are escaped, so every newline in its
/// text is layout.
std::string one_line(const ftb::JsonObject& o) {
  std::string out;
  const std::string s = o.str();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\n') {
      out += s[i];
      continue;
    }
    while (i + 1 < s.size() && s[i + 1] == ' ') ++i;
    if (i + 1 < s.size() && s[i + 1] != '}') out += ' ';
  }
  return out;
}

/// Spans plus a per-name self-time summary, as one JSON document.
void write_trace(const std::string& path, const Tracer& tr, const Args& a,
                 const ftb::JsonObject& host) {
  const std::vector<Span>& spans = tr.spans();
  const std::vector<double> self = tr.self_seconds();
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(self[i]);
  }
  ftb::JsonObject self_s;
  for (const auto& [name, v] : by_name) {
    double total = 0;
    for (const double s : v) total += s;
    ftb::JsonObject row;
    row.set("count", static_cast<std::int64_t>(v.size()))
        .set_raw("total", json_number(total))
        .set_raw("median", json_number(median(v)));
    self_s.set_raw(name, row.str(4));  // span names are plain literals
  }
  ftb::JsonArray rows;
  for (const Span& s : spans) {
    ftb::JsonObject row;
    row.set("name", std::string(s.name))
        .set_raw("start_s", json_number(s.start_s))
        .set_raw("end_s", json_number(s.end_s))
        .set("parent", static_cast<std::int64_t>(s.parent));
    rows.push_raw(one_line(row));
  }
  ftb::JsonObject doc;
  doc.set("workload", std::string(a.workload->name))
      .set("seed", static_cast<std::int64_t>(a.seed))
      .set_raw("host", host.str(2))
      .set_raw("self_s", self_s.str(2))
      .set_raw("spans", rows.str(2));
  std::ofstream os(path);
  os << doc.str() << "\n";
  if (!os) throw std::runtime_error("cannot write trace to " + path);
}

int run(const Args& a) {
  const Workload& w = *a.workload;
  const CpuTicks ticks0 = read_cpu_ticks();
  Tracer tr(a.trace);
  const int root = tr.begin("run");

  // Never the global pool: it starts hardware_concurrency workers and the
  // caller participates too, one runnable thread more than there are CPUs.
  // A one-worker pool runs every parallel_for inline on the caller, so wall
  // time measures the program rather than hypervisor steal (README.md).
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  ftb::ThreadPool pool(1);

  int id = tr.begin("inputs");
  const ftb::Graph g =
      make_graph(a.tiny ? w.tiny_scale : w.scale, w.graph_seed);
  api::BuildSpec spec;
  spec.fault_model = w.model;
  spec.eps = w.eps;
  spec.sources.clear();
  for (int i = 0; i < w.sigma; ++i) spec.sources.push_back(i);
  spec.pool = &pool;
  api::SessionConfig cfg;
  cfg.weight_seed = spec.weight_seed;
  cfg.pool = &pool;
  cfg.tolerate_corruption = false;
  const Inputs in(g, spec.sources, spec.weight_seed);
  tr.end(id);

  std::filesystem::create_directories(a.artifact_dir);
  const std::string artifact = a.artifact_dir + "/" + w.name + "-" +
                               std::to_string(::getpid()) + ".v6";
  // The pool holds 2^18 queries whatever the batch size (at least two
  // batches), so the latency percentiles sample many different traversal
  // mixes while the pool stays a small share of the process's memory.
  const int pool_batches = std::max(2, (1 << 18) / w.batch);

  // Warm-up: the first build, load and batches of a process run 1.5-2x
  // slower than later ones, so none of them is timed. Of the build, the
  // run keeps its artifact, its fingerprint and the query pool drawn
  // against it.
  id = tr.begin("warmup");
  ftb::Rng rng(a.seed);
  std::optional<Fingerprint> want;
  std::vector<Batch> batches;
  {
    const api::BuildResult warm = api::build(g, spec);
    save_v6(warm, artifact);
    want.emplace(warm.structure);
    batches = make_batches(w, in, warm.structure, pool_batches, rng);
  }
  {
    const api::Session s = api::Session::load(g, artifact, cfg);
    for (std::size_t k = 0; k < std::min<std::size_t>(batches.size(), 16);
         ++k) {
      (void)s.query(batches[k]);
    }
  }
  tr.end(id);
  const auto artifact_bytes =
      static_cast<double>(std::filesystem::file_size(artifact));

  // Rounds of build, load-to-first-answer and a serve slice, so every
  // phase samples the whole run rather than one stretch of it: the host's
  // speed drifts by tens of percent over seconds. In traced mode even
  // rounds are traced and odd ones are not, so traced minus untraced gives
  // the tracing overhead.
  const int rounds = a.tiny ? 2 : w.rounds;
  const int setups = a.tiny ? 1 : w.setups_per_round;
  const std::int64_t slice_min_batches = (kServedBatches + rounds - 1) / rounds;
  // At least kServedBatches batches are answered from the cursor's start,
  // so every gate position drawn from them holds a served answer.
  GateSample gate(batches,
                  std::min<std::size_t>(batches.size(), kServedBatches),
                  a.tiny ? 64 : 256, rng);

  // From here on the peak resident set counts what the rounds hold: the
  // inputs, the query pool and, one at a time, a build and a session.
  const bool peak_reset = reset_peak_rss();
  const double baseline_rss_mb = rss_mb();

  RunState st;
  st.w = &w;
  st.tiny = a.tiny;
  st.seed = a.seed;
  st.pool = &pool;
  st.in = &in;
  st.spec = spec;
  st.artifact = artifact;

  // Every timed phase is scaled to the nominal host speed by the mean of
  // the reference work's scale factors just before and just after it
  // (README.md, "Host speed").
  ReferenceWork ref;
  std::vector<double> scales;
  const auto scale_now = [&] {
    scales.push_back(ref.scale_now());
    return scales.back();
  };
  std::int64_t ops = 0, failed = 0;
  std::vector<double> build_s, build_cpu, build_traced, build_plain;
  std::vector<double> setup_s, setup_cpu, setup_traced, setup_plain;
  ServeResult sv, sv_traced, sv_plain;
  std::size_t cursor = 0;
  std::optional<api::Session> session;
  for (int r = 0; r < rounds; ++r) {
    const bool traced = a.trace && r % 2 == 0;
    tr.set_active(traced);
    const int round_id = tr.begin("round");

    session.reset();
    double before = scale_now();
    {
      std::optional<api::BuildResult> built;
      const double cpu0 = process_cpu_seconds();
      const double sec =
          tr.time("build", [&] { built.emplace(api::build(g, spec)); });
      const double cpu = process_cpu_seconds() - cpu0;
      const double after = scale_now();
      const double f = 0.5 * (before + after);
      before = after;
      build_s.push_back(sec * f);
      build_cpu.push_back(cpu * f);
      (traced ? build_traced : build_plain).push_back(sec * f);
      st.eps_stats.push_back(summed_eps_stats(*built));
      ++ops;
      if (!(Fingerprint(built->structure) == *want)) {
        std::cerr << "build of round " << r << " differs from the warm-up\n";
        ++failed;
      }
    }

    for (int k = 0; k < setups; ++k) {
      session.reset();
      const double cpu0 = process_cpu_seconds();
      const int setup_id = tr.begin("setup");
      const Clock::time_point t0 = Clock::now();
      st.load_s.push_back(tr.time("session.load", [&] {
        session.emplace(api::Session::load(g, artifact, cfg));
      }));
      api::QueryResponse first;
      st.first_batch_s.push_back(tr.time(
          "session.first_batch", [&] { first = session->query(batches[0]); }));
      const double sec = seconds_since(t0);
      tr.end(setup_id);
      const double cpu = process_cpu_seconds() - cpu0;
      const double after = scale_now();
      const double f = 0.5 * (before + after);
      before = after;
      setup_s.push_back(sec * f);
      setup_cpu.push_back(cpu * f);
      (traced ? setup_traced : setup_plain).push_back(sec * f);
      ops += static_cast<std::int64_t>(batches[0].size());
      failed += failed_in(first);
      gate.record(0, first);
    }

    ServeResult slice;
    serve_slice(*session, batches, a.seconds / rounds, slice_min_batches, tr,
                cursor, gate, ref, scales, slice);
    sv.add(slice);
    (traced ? sv_traced : sv_plain).add(slice);
    tr.end(round_id);
  }
  tr.set_active(a.trace);
  ops += sv.queries + sv.warm_queries;
  failed += sv.failed;
  const double overhead_qps = sv_traced.qps() - sv_plain.qps();
  st.session = &*session;
  st.what_if_traversals = sv.what_if_traversals;
  st.pair_traversals = sv.pair_traversals;
  st.pair_cache_hits = sv.pair_cache_hits;
  st.pair_cache_misses = sv.pair_cache_misses;
  const double peak_mb = peak_rss_mb();

  // Correctness gate, outside every timed region: the seeded sample of the
  // served answers against the brute-force referees.
  id = tr.begin("gate");
  const std::int64_t mismatches =
      referee_mismatches(in, session->structure(), gate.answers());
  tr.end(id);
  failed += mismatches;

  // CPU to build once, set up once and answer kServedBatches batches: the
  // serve term is charged per query, so a slower query plane reads as more
  // CPU although the serve phase runs for a fixed time.
  const double serve_cpu_s = sv.cpu_s / static_cast<double>(sv.queries) *
                             static_cast<double>(kServedBatches * w.batch);
  Metrics metrics;
  if (a.trace) {
    measure_layers(st, tr, metrics);
    metrics.push_back(
        {"query.batch_p99_ms", percentile(sv.cpu_ms, 0.99), "ms"});
    metrics.push_back({"structure.reinforced_edges",
                       static_cast<double>(want->reinforced), "count"});
    metrics.push_back({"trace.overhead_build_s",
                       median(build_traced) - median(build_plain), "s"});
    metrics.push_back({"trace.overhead_setup_s",
                       median(setup_traced) - median(setup_plain), "s"});
    metrics.push_back({"trace.overhead_qps", overhead_qps, "1/s"});
  } else {
    metrics = {
        {"build_s", median(build_s), "s"},
        {"setup_s", median(setup_s), "s"},
        {"qps", sv.qps(), "1/s"},
        {"iqm_ms", interquartile_mean(sv.cpu_ms), "ms"},
        {"p90_ms", percentile(sv.cpu_ms, 0.90), "ms"},
        {"cpu_s", median(build_cpu) + median(setup_cpu) + serve_cpu_s, "s"},
        {"backup_edges", static_cast<double>(want->backup), "count"},
        {"artifact_bytes", artifact_bytes, "bytes"},
        {"peak_rss_mb", peak_mb, "MiB"},
    };
  }
  tr.end(root);

  // Run health. Wall and CPU latency agree up to the stolen share; a wider
  // gap means batch time the CPU clock does not see (blocking, page-ins).
  const double steal = steal_share(ticks0, read_cpu_ticks());
  const double wall_p50 = percentile(sv.wall_ms, 0.5);
  const double cpu_p50 = percentile(sv.cpu_ms, 0.5);
  const double clock_gap = wall_p50 / cpu_p50 - 1;
  ftb::JsonObject host;
  host.set("nproc", static_cast<std::int64_t>(nproc))
      .set("cpu_model", cpu_model())
      .set("build_type", std::string(PERFBENCH_BUILD_TYPE))
      .set("steal_share", steal)
      .set("process_threads",
           static_cast<std::int64_t>(status_field("Threads")))
      .set("pool_workers", static_cast<std::int64_t>(pool.thread_count()))
      .set("peak_rss_reset", peak_reset)
      .set("baseline_rss_mb", baseline_rss_mb)
      .set("wall_p50_ms", wall_p50)
      .set("cpu_p50_ms", cpu_p50)
      .set("cpu_p99_ms", percentile(sv.cpu_ms, 0.99))
      .set("latency_clock_gap", clock_gap)
      .set("latency_clock_suspect", clock_gap > steal + 0.1)
      .set("time_scale_min", *std::min_element(scales.begin(), scales.end()))
      .set("time_scale_median", median(scales))
      .set("time_scale_max", *std::max_element(scales.begin(), scales.end()));
  if (a.trace) {
    metrics.push_back({"host.steal_frac", steal, "ratio"});
    metrics.push_back({"host.nproc", static_cast<double>(nproc), "count"});
    metrics.push_back(
        {"trace.spans", static_cast<double>(tr.spans().size()), "count"});
    if (!a.trace_out.empty()) write_trace(a.trace_out, tr, a, host);
  }
  std::filesystem::remove(artifact);

  std::cerr << w.name << ": " << sv.batches << " batches, builds";
  for (const double s : build_s) std::cerr << ' ' << s;
  std::cerr << " s, setups";
  for (const double s : setup_s) std::cerr << ' ' << s;
  std::cerr << " s, mismatches " << mismatches << " of "
            << gate.answers().size() << "\n";

  std::cout << "# host: " << one_line(host) << "\n";
  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ops) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    line += (i == 0 ? "" : ", ") + ftb::JsonObject::quote(m.name) +
            ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + ftb::JsonObject::quote(m.unit) + "}";
  }
  std::cout << line << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "ftbfs_perfbench: " << e.what() << "\n";
    return 1;
  }
}

// io_fuzz — corpus fuzzer for structure_io's zero-trust contract.
//
// Starts from one VALID artifact per format version (v1…v5 text plus the
// v6 binary container, each dual flavor with and without the optional
// site-dist accelerator section), applies seeded random mutations (bit
// flips, truncations, byte inserts, slice deletes/duplications, line
// splices — and, on v6, targeted directory-entry corruption,
// section-offset lies and CRC flips) and feeds every mutant to the
// matching reader (io::read_structure / io::read_structure_v6). The only
// acceptable outcomes, asserted per mutant:
//
//   * clean load — and then the parsed structure must round-trip
//     bit-identically (write → parse → write gives the same bytes, in
//     the v5 and v6 framings; the library writes no v1–v4, whose corpus
//     seeds are hand-framed in the documented grammar);
//   * CheckError — whose message must carry the byte-offset context
//     ("at byte") the io layer promises.
//
// Anything else — another exception type, a crash, a hang (CI timeout),
// a silent wrong acceptance — is a fuzz failure: the tool prints the
// version, mutant ordinal and seed (rerun with --seed to reproduce) and
// exits non-zero. Every mutant is additionally parsed in tolerant mode
// (ReadOptions::tolerate_pair_tables + tolerate_site_dist), which must
// obey the same contract.
//
//   io_fuzz [--mutations=10000] [--seed=1]
//
// The CI sanitize job runs this under ASan+UBSan, so out-of-bounds reads
// from unchecked length fields fail loudly rather than probabilistically.
#include <algorithm>
#include <exception>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "src/graph/generators.hpp"
#include "src/io/binary_io.hpp"
#include "src/io/structure_io.hpp"
#include "src/util/options.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace ftb;

struct CorpusEntry {
  int version;
  Graph graph;
  std::string bytes;  // a valid artifact of exactly `version`
};

/// Hand-frames a legacy v1–v4 artifact in the grammar of
/// docs/file_formats.md: the library writes only v5/v6, but the readers
/// keep loading every earlier version. v2–v4 carry the comment lines
/// earlier releases wrote, so these are the bytes those releases emitted.
std::string frame_legacy(int version, const FtBfsStructure& h,
                         std::span<const Vertex> sources,
                         std::span<const DualSiteTable> tables) {
  const Graph& g = h.graph();
  const std::vector<EdgeId>& edges = h.edges();
  std::ostringstream os;
  os << "ftbfs-structure " << version << '\n';
  if (version >= 2) os << "fault-model " << to_string(h.fault_class()) << '\n';
  if (version >= 3) {
    os << "sources " << sources.size();
    for (const Vertex s : sources) os << ' ' << s;
    os << '\n';
  }
  if (version >= 2) os << "# n |E(H)| source\n";
  os << g.num_vertices() << ' ' << h.num_edges() << ' ' << h.source() << '\n';
  if (version >= 2) os << "# u v flags (1=reinforced, 2=tree)\n";
  for (const EdgeId e : edges) {
    const auto [u, v] = g.edge(e);
    int flags = 0;
    if (h.is_reinforced(e)) flags |= 1;
    if (std::binary_search(h.tree_edges().begin(), h.tree_edges().end(), e)) {
      flags |= 2;
    }
    os << u << ' ' << v << ' ' << flags << '\n';
  }
  if (version < 4) return os.str();
  os << "# pair tables: site <e u v|v x> <count> <edge indices>\n"
     << "pair-tables " << tables.size() << '\n';
  for (std::size_t si = 0; si < tables.size(); ++si) {
    const DualSiteTable& t = tables[si];
    os << "source-tables " << sources[si] << ' ' << t.num_sites() << '\n';
    for (std::size_t i = 0; i < t.num_sites(); ++i) {
      const DualSite f = t.sites[i];
      if (f.kind == FaultClass::kEdge) {
        const auto [u, v] = g.edge(f.id);
        os << "site e " << u << ' ' << v;
      } else {
        os << "site v " << f.id;
      }
      const auto sub = t.subset(i);
      os << ' ' << sub.size();
      for (const EdgeId e : sub) {
        os << ' '
           << std::lower_bound(edges.begin(), edges.end(), e) - edges.begin();
      }
      os << '\n';
    }
  }
  return os.str();
}

/// One valid artifact per documented version, over small graphs (the
/// mutation budget goes to coverage of the grammar, not BFS time).
std::vector<CorpusEntry> build_corpus() {
  std::vector<CorpusEntry> corpus;

  // v1: no fault-model line (edge model by definition).
  {
    Graph g = gen::random_connected(24, 60, 7);
    const api::BuildResult res = api::build(g, {});
    std::string bytes = frame_legacy(1, res.structure, {}, {});
    corpus.push_back({1, std::move(g), std::move(bytes)});
  }

  // v2: single-source edge model with the fault-model tag.
  {
    Graph g = gen::random_connected(24, 60, 7);
    api::BuildSpec spec;
    spec.eps = 0.4;
    const api::BuildResult res = api::build(g, spec);
    std::string bytes = frame_legacy(2, res.structure, res.sources, {});
    corpus.push_back({2, std::move(g), std::move(bytes)});
  }

  // v3: multi-source union with a sources line.
  {
    Graph g = gen::random_connected(30, 80, 11);
    api::BuildSpec spec;
    spec.sources = {0, 7, 19};
    const api::BuildResult res = api::build(g, spec);
    std::string bytes = frame_legacy(3, res.structure, res.sources, {});
    corpus.push_back({3, std::move(g), std::move(bytes)});
  }

  // v4: dual-failure structure with its pair tables.
  {
    Graph g = gen::grid_graph(5, 5);
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    const api::BuildResult res = api::build(g, spec);
    std::string bytes =
        frame_legacy(4, res.structure, res.sources, res.dual_tables);
    corpus.push_back({4, std::move(g), std::move(bytes)});
  }

  // v5: the same dual artifact in the checksummed framing.
  {
    Graph g = gen::grid_graph(5, 5);
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    const api::BuildResult res = api::build(g, spec);
    std::ostringstream os;
    io::write_structure_v5(res.structure, res.sources, res.dual_tables, os);
    corpus.push_back({5, std::move(g), os.str()});
  }

  // v5 with the optional site-dist accelerator section: the grammar's
  // largest surface (dterm rows indexed off the pair tables' site order).
  {
    Graph g = gen::grid_graph(5, 5);
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.site_dist_oracle = true;
    const api::BuildResult res = api::build(g, spec);
    std::ostringstream os;
    io::write_structure_v5(res.structure, res.sources, res.dual_tables,
                           res.dual_site_dist, os);
    corpus.push_back({5, std::move(g), os.str()});
  }

  // v6: the dual artifact in the binary container, with and without the
  // site-dist section — the directory/alignment/CRC grammar plus both
  // fixed-width payload grammars.
  for (const bool with_site_dist : {false, true}) {
    Graph g = gen::grid_graph(5, 5);
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.site_dist_oracle = with_site_dist;
    const api::BuildResult res = api::build(g, spec);
    std::string bytes = io::write_structure_v6_bytes(
        res.structure, res.sources, res.dual_tables, res.dual_site_dist);
    corpus.push_back({6, std::move(g), std::move(bytes)});
  }
  return corpus;
}

/// One seeded mutant: 1–3 structural edits of the valid artifact. For the
/// v6 binary container (version >= 6) three extra targeted ops join the
/// pool: directory-entry corruption, section-offset lies and CRC flips —
/// the mutations a generic bit flip rarely lands on because the directory
/// is a tiny fraction of the file.
std::string mutate(const std::string& base, int version, Rng& rng) {
  std::string m = base;
  const std::uint64_t ops = 1 + rng.next_below(3);
  const std::uint64_t op_kinds = version >= 6 ? 9 : 6;
  for (std::uint64_t o = 0; o < ops; ++o) {
    if (m.empty()) break;
    switch (rng.next_below(op_kinds)) {
      case 0: {  // bit flip
        const std::size_t p = rng.next_below(m.size());
        m[p] = static_cast<char>(
            static_cast<unsigned char>(m[p]) ^ (1u << rng.next_below(8)));
        break;
      }
      case 1:  // truncation (storage short write)
        m.resize(rng.next_below(m.size() + 1));
        break;
      case 2: {  // random byte insert
        const std::size_t p = rng.next_below(m.size() + 1);
        m.insert(m.begin() + static_cast<std::ptrdiff_t>(p),
                 static_cast<char>(rng.next_below(256)));
        break;
      }
      case 3: {  // slice delete
        const std::size_t p = rng.next_below(m.size());
        const std::size_t len =
            1 + rng.next_below(std::min<std::size_t>(16, m.size() - p));
        m.erase(p, len);
        break;
      }
      case 4: {  // slice duplication (length lies, duplicate sections)
        const std::size_t p = rng.next_below(m.size());
        const std::size_t len =
            1 + rng.next_below(std::min<std::size_t>(64, m.size() - p));
        m.insert(p, m.substr(p, len));
        break;
      }
      case 5: {  // splice one whole line to the end (trailing garbage /
                 // duplicated section headers)
        const std::size_t p = rng.next_below(m.size());
        std::size_t start = m.rfind('\n', p);
        start = start == std::string::npos ? 0 : start + 1;
        std::size_t end = m.find('\n', p);
        end = end == std::string::npos ? m.size() : end + 1;
        m += m.substr(start, end - start);
        break;
      }
      // v6-only targeted ops. The directory lives at [64, 64 + count*40):
      // per entry {name[16], u64 offset, u64 bytes, u32 crc32c, u32 rsvd}.
      case 6: {  // directory corruption: flip a byte inside the directory
        if (m.size() <= 64) break;
        const std::size_t count =
            static_cast<unsigned char>(m[12]);  // section_count low byte
        const std::size_t dir_end =
            std::min(m.size(), 64 + std::max<std::size_t>(count, 1) * 40);
        const std::size_t p = 64 + rng.next_below(dir_end - 64);
        m[p] = static_cast<char>(
            static_cast<unsigned char>(m[p]) ^ (1u << rng.next_below(8)));
        break;
      }
      case 7: {  // section-offset lie: rewrite one entry's u64 offset
        if (m.size() <= 64) break;
        const std::size_t count =
            std::max<std::size_t>(static_cast<unsigned char>(m[12]), 1);
        const std::size_t entry = rng.next_below(count);
        const std::size_t at = 64 + entry * 40 + 16;  // offset field
        if (at + 8 > m.size()) break;
        // Lies worth telling: swap to another section's offset, point past
        // EOF, or drop the 64-byte alignment.
        std::uint64_t lie = rng.next_below(3) == 0
                                ? m.size() + rng.next_below(4096)
                                : rng.next_below(m.size() + 64);
        for (int b = 0; b < 8; ++b) {
          m[at + static_cast<std::size_t>(b)] =
              static_cast<char>(lie >> (8 * b));
        }
        break;
      }
      case 8: {  // CRC flip: directory-entry crc32c or the directory CRC
        if (m.size() <= 64) break;
        const std::size_t count =
            std::max<std::size_t>(static_cast<unsigned char>(m[12]), 1);
        std::size_t at;
        if (rng.next_below(count + 1) == count) {
          at = 16;  // header's directory_crc
        } else {
          at = 64 + rng.next_below(count) * 40 + 32;  // entry crc32c
        }
        if (at + 4 > m.size()) break;
        const std::size_t p = at + rng.next_below(4);
        m[p] = static_cast<char>(
            static_cast<unsigned char>(m[p]) ^ (1u << rng.next_below(8)));
        break;
      }
    }
  }
  return m;
}

/// Parses `bytes` against `g` with the given options, dispatching to the
/// reader matching the corpus entry's format family (text up to v5, the
/// binary container from v6). Returns true when the load was clean;
/// rejections must be CheckError with offset context (anything else aborts
/// the fuzz run via the caller's catch).
bool parse(int version, const Graph& g, const std::string& bytes,
           const io::ReadOptions& opts, FtBfsStructure* out,
           std::vector<Vertex>* sources, std::vector<DualSiteTable>* tables,
           std::vector<DualSiteDistTable>* site_dist,
           std::string* reject_msg) {
  try {
    io::LoadReport report;
    FtBfsStructure h = [&] {
      if (version >= 6) {
        return io::read_structure_v6(
            g, std::as_bytes(std::span<const char>(bytes.data(),
                                                   bytes.size())),
            sources, tables, opts, &report, site_dist);
      }
      std::istringstream is(bytes);
      return io::read_structure(g, is, sources, tables, opts, &report,
                                site_dist);
    }();
    if (out != nullptr) *out = std::move(h);
    return true;
  } catch (const CheckError& e) {
    *reject_msg = e.what();
    return false;
  }
}

/// The accepted-mutant invariant: write → parse → write is a fixed point
/// in v5 and in the v6 binary container. For a legacy (v1–v4) mutant this
/// is legacy read → v5 write → read → v5 write.
bool roundtrips(const Graph& g, const FtBfsStructure& h,
                const std::vector<Vertex>& sources,
                const std::vector<DualSiteTable>& tables,
                const std::vector<DualSiteDistTable>& site_dist,
                std::string* why) {
  const auto canonical = [&](bool v6, const FtBfsStructure& hh,
                             const std::vector<Vertex>& ss,
                             const std::vector<DualSiteTable>& tt,
                             const std::vector<DualSiteDistTable>& sd) {
    if (v6) return io::write_structure_v6_bytes(hh, ss, tt, sd);
    std::ostringstream os;
    io::write_structure_v5(hh, ss, tt, sd, os);
    return os.str();
  };
  for (const bool v6 : {false, true}) {
    const std::string w1 = canonical(v6, h, sources, tables, site_dist);
    std::vector<Vertex> s2;
    std::vector<DualSiteTable> t2;
    std::vector<DualSiteDistTable> sd2;
    try {
      const FtBfsStructure h2 = [&] {
        if (v6) {
          return io::read_structure_v6(
              g, std::as_bytes(std::span<const char>(w1.data(), w1.size())),
              &s2, &t2, {}, nullptr, &sd2);
        }
        std::istringstream is(w1);
        return io::read_structure(g, is, &s2, &t2, {}, nullptr, &sd2);
      }();
      if (w1 != canonical(v6, h2, s2, t2, sd2)) {
        *why = v6 ? "v6 re-write differs" : "v5 re-write differs";
        return false;
      }
    } catch (const std::exception& e) {
      *why = std::string("canonical bytes rejected: ") + e.what();
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const std::int64_t mutations = opt.get_int("mutations", 10000);
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));

  const std::vector<CorpusEntry> corpus = build_corpus();
  std::int64_t accepted = 0, rejected = 0;

  for (const CorpusEntry& entry : corpus) {
    // The unmutated artifact must load cleanly and round-trip.
    {
      FtBfsStructure h(entry.graph, 0, {}, {}, {});
      std::vector<Vertex> sources;
      std::vector<DualSiteTable> tables;
      std::vector<DualSiteDistTable> site_dist;
      std::string msg;
      if (!parse(entry.version, entry.graph, entry.bytes, {}, &h, &sources,
                 &tables, &site_dist, &msg)) {
        std::cerr << "io_fuzz: v" << entry.version
                  << " corpus artifact rejected: " << msg << "\n";
        return 1;
      }
      std::string why;
      if (!roundtrips(entry.graph, h, sources, tables, site_dist, &why)) {
        std::cerr << "io_fuzz: v" << entry.version
                  << " corpus artifact does not round-trip: " << why << "\n";
        return 1;
      }
    }

    Rng rng(seed ^ (0x10f0f0f0ULL * static_cast<std::uint64_t>(
                                        entry.version)));
    for (std::int64_t i = 0; i < mutations; ++i) {
      const std::string mutant = mutate(entry.bytes, entry.version, rng);
      for (const bool tolerant : {false, true}) {
        io::ReadOptions opts;
        opts.tolerate_pair_tables = tolerant;
        opts.tolerate_site_dist = tolerant;
        FtBfsStructure h(entry.graph, 0, {}, {}, {});
        std::vector<Vertex> sources;
        std::vector<DualSiteTable> tables;
        std::vector<DualSiteDistTable> site_dist;
        std::string msg;
        try {
          if (parse(entry.version, entry.graph, mutant, opts, &h, &sources,
                    &tables, &site_dist, &msg)) {
            ++accepted;
            std::string why;
            if (!roundtrips(entry.graph, h, sources, tables, site_dist,
                            &why)) {
              std::cerr << "io_fuzz: v" << entry.version << " mutant #" << i
                        << " (seed " << seed << ", tolerant=" << tolerant
                        << ") accepted but does not round-trip: " << why
                        << "\n";
              return 1;
            }
          } else {
            ++rejected;
            if (msg.find("at byte") == std::string::npos) {
              std::cerr << "io_fuzz: v" << entry.version << " mutant #" << i
                        << " (seed " << seed << ", tolerant=" << tolerant
                        << ") rejected without byte-offset context: " << msg
                        << "\n";
              return 1;
            }
          }
        } catch (const std::exception& e) {
          std::cerr << "io_fuzz: v" << entry.version << " mutant #" << i
                    << " (seed " << seed << ", tolerant=" << tolerant
                    << ") escaped the CheckError contract: " << e.what()
                    << "\n";
          return 1;
        }
      }
    }
  }

  std::cout << "io_fuzz: " << corpus.size() << " artifacts x " << mutations
            << " mutations (seed " << seed << "): " << accepted
            << " accepted, " << rejected
            << " rejected, every rejection a CheckError with offset "
               "context\n";
  return 0;
}

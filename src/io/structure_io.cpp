#include "src/io/structure_io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/core/validate.hpp"
#include "src/io/artifact_assembly.hpp"
#include "src/io/binary_io.hpp"
#include "src/util/crc32c.hpp"
#include "src/util/fault_inject.hpp"

namespace ftb::io {

namespace {

using namespace detail;

/// The text framings' error-context reader: tracks the byte offset of the
/// line it most recently produced and the name of the artifact section
/// being parsed. Every CheckError leaving read_structure is annotated with
/// context() (via with_context), so a corrupt artifact reports *where* it
/// is corrupt.
class LineReader {
 public:
  LineReader(std::istream& is, std::int64_t base_offset, std::string section)
      : is_(is),
        offset_(base_offset),
        line_offset_(base_offset),
        section_(std::move(section)) {}

  /// Next non-blank, non-comment line ('' at end of input). Records the
  /// byte offset of the returned line's first character.
  std::string next_data_line() {
    std::string line;
    while (std::getline(is_, line)) {
      line_offset_ = offset_;
      offset_ += static_cast<std::int64_t>(line.size());
      if (!is_.eof()) ++offset_;  // getline consumed the '\n'
      const auto pos = line.find_first_not_of(" \t\r");
      if (pos == std::string::npos || line[pos] == '#') continue;
      return line;
    }
    line_offset_ = offset_;
    return {};
  }

  /// Reads exactly out->size() raw payload bytes (v5 framed sections);
  /// returns how many were actually delivered — fewer means the artifact
  /// is truncated mid-payload. Debug builds may inject short reads and
  /// bit flips here (fault::Point::kIoShortRead / kIoBitFlip); both must
  /// surface as the same CheckErrors real corruption raises.
  std::size_t read_raw(std::string* out) {
    line_offset_ = offset_;
    is_.read(out->data(), static_cast<std::streamsize>(out->size()));
    std::size_t got = static_cast<std::size_t>(is_.gcount());
    FTB_INJECT_FAULT(fault::Point::kIoShortRead, got = got / 2);
    FTB_INJECT_FAULT(fault::Point::kIoBitFlip,
                     if (got > 0) (*out)[got / 2] ^= 0x04);
    offset_ += static_cast<std::int64_t>(got);
    return got;
  }

  std::int64_t offset() const { return offset_; }
  void set_section(std::string s) { section_ = std::move(s); }

  std::string context() const { return context_at(line_offset_, section_); }

 private:
  std::istream& is_;
  std::int64_t offset_;
  std::int64_t line_offset_;
  std::string section_;
};

bool parse_crc_hex(const std::string& s, std::uint32_t* out) {
  if (s.empty() || s.size() > 8) return false;
  std::uint32_t v = 0;
  for (const char c : s) {
    int d = -1;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint32_t>(d);
  }
  *out = v;
  return true;
}

// ---------------------------------------------------------------------------
// Shared per-section parsers (v1–v4 read them from the raw stream, v5 from
// checksummed payloads — same grammar either way).

FaultClass parse_fault_model(LineReader& rd, int version) {
  const std::string model_line = rd.next_data_line();
  std::istringstream ms(model_line);
  std::string word, tag;
  ms >> word >> tag;
  FTB_CHECK_MSG(word == "fault-model",
                "expected fault-model line, got '" << model_line << "'");
  FaultClass fault_class = parse_fault_class(tag);
  if (version < 4 && fault_class == FaultClass::kDual) {
    // Pre-v4 artifacts used "dual" for the single-failure edge ∪ vertex
    // union — load them as what they are.
    fault_class = FaultClass::kEither;
  }
  return fault_class;
}

std::vector<Vertex> parse_sources(const Graph& g, LineReader& rd) {
  const std::string sources_line = rd.next_data_line();
  std::istringstream ss(sources_line);
  std::string word;
  long long k = -1;
  ss >> word >> k;
  FTB_CHECK_MSG(word == "sources" && k >= 1,
                "expected sources line, got '" << sources_line << "'");
  FTB_CHECK_MSG(k <= g.num_vertices(),
                "sources count " << k << " exceeds n=" << g.num_vertices());
  std::vector<Vertex> sources;
  fault::maybe_fail_alloc();
  sources.reserve(static_cast<std::size_t>(k));
  for (long long i = 0; i < k; ++i) {
    long long s = -1;
    ss >> s;
    FTB_CHECK_MSG(ss && s >= 0, "bad sources line '" << sources_line << "'");
    sources.push_back(static_cast<Vertex>(s));
  }
  // Same invariants every build entry point enforces: in range, no
  // duplicates (a duplicated source would make Session::load build the
  // same tree and engines twice).
  ftb::detail::check_sources(g, sources);
  return sources;
}

EdgeSection parse_edge_section(const Graph& g, LineReader& rd) {
  const std::string header = rd.next_data_line();
  FTB_CHECK_MSG(!header.empty(), "missing structure header");
  long long n = -1, mh = -1, source = -1;
  {
    std::istringstream hs(header);
    hs >> n >> mh >> source;
  }
  FTB_CHECK_MSG(n == g.num_vertices(),
                "structure built for n=" << n << ", graph has "
                                         << g.num_vertices());
  FTB_CHECK_MSG(mh >= 0 && source >= 0 && source < n, "bad header");
  // Untrusted count: H's edges are a subset of G's, so any larger claim
  // is a length lie — reject before it sizes the read loop.
  FTB_CHECK_MSG(mh <= g.num_edges(), "edge count " << mh
                                                   << " exceeds the graph's "
                                                   << g.num_edges()
                                                   << " edges");
  EdgeSection out;
  out.source = static_cast<Vertex>(source);
  fault::maybe_fail_alloc();
  out.edges.reserve(static_cast<std::size_t>(mh));
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(g.num_edges()), 0);
  for (long long i = 0; i < mh; ++i) {
    const std::string line = rd.next_data_line();
    FTB_CHECK_MSG(!line.empty(),
                  "expected " << mh << " structure edges, got " << i);
    std::istringstream es(line);
    long long u = -1, v = -1;
    int flags = -1;
    es >> u >> v >> flags;
    FTB_CHECK_MSG(u >= 0 && v >= 0 && flags >= 0 && flags <= 3,
                  "bad structure edge line '" << line << "'");
    const EdgeId e =
        g.find_edge(static_cast<Vertex>(u), static_cast<Vertex>(v));
    FTB_CHECK_MSG(e != kInvalidEdge,
                  "structure edge (" << u << "," << v
                                     << ") missing from the graph");
    FTB_CHECK_MSG(!seen[static_cast<std::size_t>(e)],
                  "duplicate structure edge (" << u << "," << v << ")");
    seen[static_cast<std::size_t>(e)] = 1;
    out.edges.push_back(e);
    if (flags & 1) out.reinforced.push_back(e);
    if (flags & 2) out.tree_edges.push_back(e);
  }
  return out;
}

std::vector<DualSiteTable> parse_pair_tables(
    const Graph& g, LineReader& rd, const std::vector<Vertex>& sources,
    const std::vector<EdgeId>& edges) {
  const long long n = g.num_vertices();
  const long long mh = static_cast<long long>(edges.size());
  // Index space of the tables: the edge section sorted ascending (which
  // is also how the writers emit it — but a hand-edited file may
  // not be sorted, so map through an explicitly sorted copy).
  std::vector<EdgeId> sorted_edges = edges;
  std::sort(sorted_edges.begin(), sorted_edges.end());
  const std::string pt = rd.next_data_line();
  std::istringstream ps(pt);
  std::string word;
  long long num_tables = -1;
  ps >> word >> num_tables;
  FTB_CHECK_MSG(word == "pair-tables" && num_tables >= 0,
                "expected pair-tables line, got '" << pt << "'");
  FTB_CHECK_MSG(num_tables == 0 ||
                    num_tables == static_cast<long long>(sources.size()),
                "pair-tables count " << num_tables << " does not match "
                                     << sources.size() << " sources");
  std::vector<DualSiteTable> tables;
  for (long long ti = 0; ti < num_tables; ++ti) {
    const std::string st = rd.next_data_line();
    std::istringstream ss(st);
    std::string w;
    long long src = -1, num_sites = -1;
    ss >> w >> src >> num_sites;
    FTB_CHECK_MSG(w == "source-tables" && num_sites >= 0 &&
                      src == sources[static_cast<std::size_t>(ti)],
                  "expected source-tables line for source "
                      << sources[static_cast<std::size_t>(ti)] << ", got '"
                      << st << "'");
    // Untrusted count: each first-failure site is a distinct structure
    // edge or vertex, so mh + n bounds any honest table.
    FTB_CHECK_MSG(num_sites <= mh + n,
                  "site count " << num_sites << " exceeds the " << mh + n
                                << " possible first-failure sites");
    DualSiteTable table;
    fault::maybe_fail_alloc();
    table.sites.reserve(static_cast<std::size_t>(num_sites));
    table.offsets.push_back(0);
    for (long long i = 0; i < num_sites; ++i) {
      const std::string line = rd.next_data_line();
      FTB_CHECK_MSG(!line.empty(), "expected " << num_sites
                                               << " site lines, got " << i);
      std::istringstream ls(line);
      std::string kw, kind;
      ls >> kw >> kind;
      FTB_CHECK_MSG(kw == "site" && (kind == "e" || kind == "v"),
                    "bad site line '" << line << "'");
      DualSite f;
      if (kind == "e") {
        long long u = -1, v = -1;
        ls >> u >> v;
        FTB_CHECK_MSG(ls && u >= 0 && v >= 0,
                      "bad site line '" << line << "'");
        f.kind = FaultClass::kEdge;
        f.id = g.find_edge(static_cast<Vertex>(u), static_cast<Vertex>(v));
        FTB_CHECK_MSG(f.id != kInvalidEdge,
                      "site edge (" << u << "," << v
                                    << ") missing from the graph");
      } else {
        long long x = -1;
        ls >> x;
        FTB_CHECK_MSG(ls && x >= 0 && x < n,
                      "bad site line '" << line << "'");
        f.kind = FaultClass::kVertex;
        f.id = static_cast<std::int32_t>(x);
      }
      long long cnt = -1;
      ls >> cnt;
      FTB_CHECK_MSG(ls && cnt >= 0, "bad site line '" << line << "'");
      // Untrusted count: a site's punctured structure is a subset of H.
      FTB_CHECK_MSG(cnt <= mh, "site subset size "
                                   << cnt << " exceeds the structure's "
                                   << mh << " edges");
      std::vector<EdgeId> sub;
      fault::maybe_fail_alloc();
      sub.reserve(static_cast<std::size_t>(cnt));
      for (long long k = 0; k < cnt; ++k) {
        long long idx = -1;
        ls >> idx;
        FTB_CHECK_MSG(ls && idx >= 0 && idx < mh,
                      "pair-table edge index out of range in '" << line
                                                                << "'");
        sub.push_back(sorted_edges[static_cast<std::size_t>(idx)]);
      }
      std::sort(sub.begin(), sub.end());
      // Zero-trust: a site's subset is a SET of structure edges. Duplicate
      // indices would survive into the pool and break the canonical
      // strictly-ascending form the v6 binary container pins down.
      FTB_CHECK_MSG(std::adjacent_find(sub.begin(), sub.end()) == sub.end(),
                    "duplicate pair-table edge index in '" << line << "'");
      table.sites.push_back(f);
      table.edge_pool.insert(table.edge_pool.end(), sub.begin(), sub.end());
      table.offsets.push_back(
          static_cast<std::int64_t>(table.edge_pool.size()));
    }
    tables.push_back(std::move(table));
  }
  return tables;
}

/// A framed payload must end where its grammar does.
void expect_section_end(LineReader& rd) {
  const std::string extra = rd.next_data_line();
  FTB_CHECK_MSG(extra.empty(), "trailing data in section: '" << extra << "'");
}

/// The v5 pair-tables payload: the v4 block, and nothing after it.
std::vector<DualSiteTable> parse_framed_pair_tables(
    const Graph& g, LineReader& rd, const std::vector<Vertex>& sources,
    const std::vector<EdgeId>& edges) {
  std::vector<DualSiteTable> tables = parse_pair_tables(g, rd, sources, edges);
  expect_section_end(rd);
  return tables;
}

/// The v5 site-dist payload, trailing-data check included.
std::vector<DualSiteDistTable> parse_site_dist(
    const Graph& g, LineReader& rd, const std::vector<Vertex>& sources,
    const std::vector<DualSiteTable>& tables) {
  const long long n = g.num_vertices();
  const std::string head = rd.next_data_line();
  std::istringstream hs(head);
  std::string word;
  long long num_tables = -1;
  hs >> word >> num_tables;
  FTB_CHECK_MSG(word == "site-dist" &&
                    num_tables == static_cast<long long>(sources.size()),
                "expected 'site-dist " << sources.size() << "', got '" << head
                                       << "'");
  std::vector<DualSiteDistTable> out;
  out.reserve(static_cast<std::size_t>(num_tables));
  for (long long ti = 0; ti < num_tables; ++ti) {
    const std::string st = rd.next_data_line();
    std::istringstream ss(st);
    std::string w;
    long long src = -1, num_sites = -1;
    ss >> w >> src >> num_sites;
    // The slot layout is defined by the pair tables' site order, so the
    // site count must agree exactly with the sibling section.
    const auto sites_expected = static_cast<long long>(
        tables[static_cast<std::size_t>(ti)].num_sites());
    FTB_CHECK_MSG(w == "source-dist" &&
                      src == sources[static_cast<std::size_t>(ti)] &&
                      num_sites == sites_expected,
                  "expected 'source-dist "
                      << sources[static_cast<std::size_t>(ti)] << ' '
                      << sites_expected << "', got '" << st << "'");
    DualSiteDistTable t;
    fault::maybe_fail_alloc();
    t.site_offsets.reserve(static_cast<std::size_t>(num_sites) + 1);
    t.site_offsets.push_back(0);
    t.row_offsets.push_back(0);
    for (long long i = 0; i < num_sites; ++i) {
      const std::string sl = rd.next_data_line();
      std::istringstream sls(sl);
      std::string kw;
      long long slots = -1;
      sls >> kw >> slots;
      // Untrusted count: a site's subtree holds at least its top and at
      // most every vertex.
      FTB_CHECK_MSG(kw == "dsite" && slots >= 1 && slots <= n,
                    "bad dsite line '" << sl << "'");
      for (long long k = 0; k < slots; ++k) {
        const std::string line = rd.next_data_line();
        FTB_CHECK_MSG(!line.empty(),
                      "expected " << slots << " dterm lines, got " << k);
        std::istringstream ls(line);
        std::string dw, first;
        ls >> dw >> first;
        FTB_CHECK_MSG(dw == "dterm" && !first.empty(),
                      "bad dterm line '" << line << "'");
        if (first == "x") {  // unreachable under the first failure alone
          t.parent_edge.push_back(kInvalidEdge);
          t.tf_depth.push_back(kInfHops);
          t.row_offsets.push_back(
              static_cast<std::int64_t>(t.rows.size()));
          continue;
        }
        long long pu = -1, pv = -1, d = -1;
        {
          std::istringstream fs(first);
          fs >> pu;
          FTB_CHECK_MSG(fs && pu >= 0, "bad dterm line '" << line << "'");
        }
        ls >> pv >> d;
        FTB_CHECK_MSG(ls && pv >= 0 && d >= 1 && d < n,
                      "bad dterm line '" << line << "'");
        const EdgeId pe =
            g.find_edge(static_cast<Vertex>(pu), static_cast<Vertex>(pv));
        FTB_CHECK_MSG(pe != kInvalidEdge,
                      "dterm parent edge (" << pu << "," << pv
                                            << ") missing from the graph");
        t.parent_edge.push_back(pe);
        t.tf_depth.push_back(static_cast<std::int32_t>(d));
        for (long long j = 0; j < 2 * d - 1; ++j) {
          long long r = -2;
          ls >> r;
          // Row values are two-failure distances: < n hops, or -1 for
          // "disconnected under that second failure".
          FTB_CHECK_MSG(ls && r >= -1 && r < n,
                        "bad dterm row in '" << line << "'");
          t.rows.push_back(r < 0 ? kInfHops
                                 : static_cast<std::int32_t>(r));
        }
        t.row_offsets.push_back(static_cast<std::int64_t>(t.rows.size()));
      }
      t.site_offsets.push_back(
          static_cast<std::int64_t>(t.parent_edge.size()));
    }
    out.push_back(std::move(t));
  }
  expect_section_end(rd);
  return out;
}

// ---------------------------------------------------------------------------
// v1–v4: line-framed artifacts read straight off the stream.

FtBfsStructure read_legacy(const Graph& g, LineReader& rd, int version,
                           const ReadOptions& opts, const LoadOut& out) {
  // Version 2 added the fault-model tag (version 1 is an edge-model
  // artifact by definition); version 3 added the multi-source line;
  // version 4 the dual-failure model and its pair tables.
  rd.set_section("meta");
  FaultClass fault_class = FaultClass::kEdge;
  if (version >= 2) fault_class = parse_fault_model(rd, version);
  std::vector<Vertex> sources;
  if (version >= 3) sources = parse_sources(g, rd);

  rd.set_section("edges");
  EdgeSection es = parse_edge_section(g, rd);
  if (sources.empty()) sources.push_back(es.source);
  FTB_CHECK_MSG(sources.front() == es.source,
                "sources line disagrees with the header's anchor source");

  std::optional<std::vector<DualSiteTable>> tables(std::in_place);
  if (version >= 4) {
    rd.set_section("pair-tables");
    tables = decode_or_drop("pair-tables", rd, opts, out.report, [&] {
      return parse_pair_tables(g, rd, sources, es.edges);
    });
  }
  // A line-framed stream cannot re-sync past a dropped table, so a drop
  // ends the parse; the caller rebuilds the tables.
  if (tables) {
    rd.set_section("trailer");
    const std::string extra = rd.next_data_line();
    FTB_CHECK_MSG(extra.empty(),
                  "trailing data after the artifact: '" << extra << "'");
  }
  return hand_off(g, fault_class, std::move(sources), std::move(es),
                  std::move(tables).value_or(std::vector<DualSiteTable>{}),
                  {}, out);
}

// ---------------------------------------------------------------------------
// v5: checksummed framed sections.

struct SectionPayload {
  std::string bytes;
  std::int64_t offset = 0;  // byte offset of the payload's first byte
  bool present = false;
  bool dropped = false;  // integrity failure tolerated away

  bool intact() const { return present && !dropped; }
};

FtBfsStructure read_v5(const Graph& g, LineReader& rd,
                       const ReadOptions& opts, const LoadOut& out) {
  rd.set_section("frame");
  SectionPayload meta, edges, pair_tables, site_dist;
  std::vector<std::string> order;
  for (;;) {
    const std::string line = rd.next_data_line();
    if (line.empty()) break;
    std::istringstream hs(line);
    std::string word, name, crc_hex;
    long long len = -1;
    hs >> word >> name >> len >> crc_hex;
    FTB_CHECK_MSG(word == "section" && !name.empty() && !crc_hex.empty(),
                  "expected 'section <name> <bytes> <crc32c>', got '" << line
                                                                      << "'");
    SectionPayload* slot = name == "meta"          ? &meta
                           : name == "edges"       ? &edges
                           : name == "pair-tables" ? &pair_tables
                           : name == "site-dist"   ? &site_dist
                                                   : nullptr;
    FTB_CHECK_MSG(slot != nullptr, "unknown section '" << name << "'");
    FTB_CHECK_MSG(!slot->present, "duplicate section '" << name << "'");
    FTB_CHECK_MSG(
        len >= 0 && len <= static_cast<long long>(kMaxSectionBytes),
        "section '" << name << "' declares implausible length " << len);
    std::uint32_t want_crc = 0;
    FTB_CHECK_MSG(parse_crc_hex(crc_hex, &want_crc),
                  "section '" << name << "' has a malformed checksum '"
                              << crc_hex << "'");
    slot->present = true;
    order.push_back(name);
    fault::maybe_fail_alloc();
    slot->bytes.assign(static_cast<std::size_t>(len), '\0');
    slot->offset = rd.offset();
    const std::size_t got = rd.read_raw(&slot->bytes);
    if (got != static_cast<std::size_t>(len)) {
      drop_or_throw(name, "truncated section",
                    "truncated: declared " + std::to_string(len) +
                        " bytes, got " + std::to_string(got),
                    rd.context(), opts, out.report);
      // The payload ended early — framing past this point is unreliable.
      slot->dropped = true;
      break;
    }
    const std::uint32_t got_crc = crc32c(slot->bytes);
    if (got_crc != want_crc) {
      drop_or_throw(name, "checksum mismatch",
                    "checksum mismatch: payload " + crc_hex8(got_crc) +
                        " != declared " + crc_hex,
                    rd.context(), opts, out.report);
      slot->dropped = true;  // framing intact (length held) — keep going
    }
  }
  FTB_CHECK_MSG(meta.present, "missing section 'meta'");
  FTB_CHECK_MSG(edges.present, "missing section 'edges'");
  FTB_CHECK_MSG(
      order[0] == "meta" && order[1] == "edges" &&
          (order.size() == 2 ||
           (order[2] == "pair-tables" &&
            (order.size() == 3 ||
             (order.size() == 4 && order[3] == "site-dist")))),
      "sections out of order (expected meta, edges, pair-tables, site-dist)");

  FaultClass fault_class = FaultClass::kEdge;
  std::vector<Vertex> sources;
  {
    std::istringstream ms(meta.bytes);
    LineReader mrd(ms, meta.offset, "meta");
    with_context(mrd, [&] {
      fault_class = parse_fault_model(mrd, /*version=*/5);
      sources = parse_sources(g, mrd);
      expect_section_end(mrd);
    });
  }

  EdgeSection es;
  {
    std::istringstream esrc(edges.bytes);
    LineReader erd(esrc, edges.offset, "edges");
    with_context(erd, [&] {
      es = parse_edge_section(g, erd);
      FTB_CHECK_MSG(sources.front() == es.source,
                    "sources line disagrees with the header's anchor source");
      expect_section_end(erd);
    });
  }

  std::istringstream ps(pair_tables.bytes), ds(site_dist.bytes);
  LineReader ptrd(ps, pair_tables.offset, "pair-tables");
  LineReader drd(ds, site_dist.offset, "site-dist");
  return assemble(g, fault_class, std::move(sources), std::move(es),
                  pair_tables.intact() ? &ptrd : nullptr,
                  parse_framed_pair_tables,
                  site_dist.intact() ? &drd : nullptr, parse_site_dist, opts,
                  out);
}

}  // namespace

// ---------------------------------------------------------------------------
// Writers. Only v5 is written as text; v1–v4 are read-only (earlier
// releases' files still load through read_legacy above).

void write_structure_v5(const FtBfsStructure& h,
                        std::span<const Vertex> sources,
                        std::span<const DualSiteTable> pair_tables,
                        std::span<const DualSiteDistTable> site_dist,
                        std::ostream& os) {
  const Graph& g = h.graph();
  const bool dual = h.fault_class() == FaultClass::kDual;
  FTB_CHECK_MSG(!sources.empty(), "v5 artifacts always carry a sources line");
  FTB_CHECK_MSG(sources.front() == h.source(),
                "sources.front() must be the structure's anchor source");
  FTB_CHECK_MSG(pair_tables.empty() || dual,
                "pair tables belong to dual-failure artifacts only");
  FTB_CHECK_MSG(pair_tables.empty() || pair_tables.size() == sources.size(),
                "need one pair table per source (got "
                    << pair_tables.size() << " tables for " << sources.size()
                    << " sources)");
  FTB_CHECK_MSG(site_dist.empty() || (!pair_tables.empty() &&
                                      site_dist.size() == sources.size()),
                "site-dist tables require pair tables and one table per "
                "source (got "
                    << site_dist.size() << " tables for " << sources.size()
                    << " sources)");

  std::ostringstream meta;
  meta << "fault-model " << to_string(h.fault_class()) << '\n';
  meta << "sources " << sources.size();
  for (const Vertex s : sources) meta << ' ' << s;
  meta << '\n';

  std::ostringstream edges;
  edges << g.num_vertices() << ' ' << h.num_edges() << ' ' << h.source()
        << '\n';
  std::vector<std::uint8_t> is_tree(static_cast<std::size_t>(g.num_edges()),
                                    0);
  for (const EdgeId e : h.tree_edges()) {
    is_tree[static_cast<std::size_t>(e)] = 1;
  }
  for (const EdgeId e : h.edges()) {
    const auto [u, v] = g.edge(e);
    int flags = 0;
    if (h.is_reinforced(e)) flags |= 1;
    if (is_tree[static_cast<std::size_t>(e)]) flags |= 2;
    edges << u << ' ' << v << ' ' << flags << '\n';
  }

  os << "ftbfs-structure 5\n";
  const auto emit = [&os](const char* name, const std::string& payload) {
    os << "section " << name << ' ' << payload.size() << ' '
       << crc_hex8(crc32c(payload)) << '\n'
       << payload;
  };
  emit("meta", meta.str());
  emit("edges", edges.str());
  if (!pair_tables.empty()) {
    std::ostringstream pt;
    pt << "pair-tables " << pair_tables.size() << '\n';
    for (std::size_t si = 0; si < pair_tables.size(); ++si) {
      const DualSiteTable& t = pair_tables[si];
      pt << "source-tables " << sources[si] << ' ' << t.num_sites() << '\n';
      for (std::size_t i = 0; i < t.num_sites(); ++i) {
        const DualSite f = t.sites[i];
        if (f.kind == FaultClass::kEdge) {
          const auto [u, v] = g.edge(f.id);
          pt << "site e " << u << ' ' << v;
        } else {
          pt << "site v " << f.id;
        }
        const auto sub = t.subset(i);
        pt << ' ' << sub.size();
        for (const EdgeId e : sub) pt << ' ' << edge_index_in(h.edges(), e);
        pt << '\n';
      }
    }
    emit("pair-tables", pt.str());
  }
  if (!site_dist.empty()) {
    // One dterm line per slot, in the pair tables' site order and each
    // site's preorder slot order; 'x' marks an unreachable slot, -1 a
    // disconnected row. Deterministic like every other section.
    std::ostringstream sd;
    sd << "site-dist " << site_dist.size() << '\n';
    for (std::size_t si = 0; si < site_dist.size(); ++si) {
      const DualSiteDistTable& t = site_dist[si];
      sd << "source-dist " << sources[si] << ' '
         << (t.site_offsets.empty() ? 0 : t.site_offsets.size() - 1) << '\n';
      for (std::size_t i = 0; i + 1 < t.site_offsets.size(); ++i) {
        sd << "dsite " << t.site_offsets[i + 1] - t.site_offsets[i] << '\n';
        for (std::int64_t slot = t.site_offsets[i];
             slot < t.site_offsets[i + 1]; ++slot) {
          const auto s = static_cast<std::size_t>(slot);
          const std::int32_t d = t.tf_depth[s];
          if (d >= kInfHops) {
            sd << "dterm x\n";
            continue;
          }
          const auto [pu, pv] = g.edge(t.parent_edge[s]);
          sd << "dterm " << pu << ' ' << pv << ' ' << d;
          const std::int64_t roff = t.row_offsets[s];
          for (std::int64_t j = 0; j < 2 * d - 1; ++j) {
            const std::int32_t r =
                t.rows[static_cast<std::size_t>(roff + j)];
            sd << ' ' << (r >= kInfHops ? -1 : r);
          }
          sd << '\n';
        }
      }
    }
    emit("site-dist", sd.str());
  }
}

void save_structure_v5(const FtBfsStructure& h,
                       std::span<const Vertex> sources,
                       std::span<const DualSiteTable> pair_tables,
                       std::span<const DualSiteDistTable> site_dist,
                       const std::string& path) {
  std::ofstream f(path);
  FTB_CHECK_MSG(f.good(), "cannot open " << path << " for writing");
  write_structure_v5(h, sources, pair_tables, site_dist, f);
  f.flush();
  FTB_CHECK_MSG(f.good(), "short write to " << path);
}

// ---------------------------------------------------------------------------
// Readers.

FtBfsStructure read_structure(const Graph& g, std::istream& is,
                              std::vector<Vertex>* sources_out,
                              std::vector<DualSiteTable>* tables_out,
                              const ReadOptions& opts, LoadReport* report,
                              std::vector<DualSiteDistTable>* site_dist_out) {
  if (report != nullptr) *report = LoadReport{};
  if (site_dist_out != nullptr) site_dist_out->clear();
  const LoadOut out{sources_out, tables_out, report, site_dist_out};
  LineReader rd(is, 0, "magic");
  return with_context(rd, [&] {
    const std::string magic = rd.next_data_line();
    FTB_CHECK_MSG(magic.rfind("ftbfs-structure", 0) == 0,
                  "bad magic line '" << magic << "'");
    int version = -1;
    {
      std::istringstream ms(magic);
      std::string word;
      ms >> word >> version;
    }
    FTB_CHECK_MSG(version >= 1 && version <= 5,
                  "unsupported structure version " << version);
    return version == 5 ? read_v5(g, rd, opts, out)
                        : read_legacy(g, rd, version, opts, out);
  });
}

FtBfsStructure load_structure(const Graph& g, const std::string& path,
                              std::vector<Vertex>* sources_out,
                              std::vector<DualSiteTable>* tables_out,
                              const ReadOptions& opts, LoadReport* report,
                              std::vector<DualSiteDistTable>* site_dist_out) {
  // Auto-detect the artifact generation by magic: binary v6 containers go
  // through the mmap loader (binary_io.cpp), text ones through the stream
  // reader above. Both framings share one assembly step
  // (artifact_assembly.hpp), so callers never care which is on disk.
  if (is_v6_artifact(path)) {
    return load_structure_v6(g, path, sources_out, tables_out, opts, report,
                             site_dist_out);
  }
  std::ifstream f(path);
  FTB_CHECK_MSG(f.good(), "cannot open " << path);
  return read_structure(g, f, sources_out, tables_out, opts, report,
                        site_dist_out);
}

}  // namespace ftb::io

#include "src/io/binary_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "src/core/validate.hpp"
#include "src/io/artifact_assembly.hpp"
#include "src/util/crc32c.hpp"
#include "src/util/fault_inject.hpp"

namespace ftb::io {

namespace {

using namespace detail;

constexpr std::uint32_t kV6Version = 6;
/// 0x01020304 serialized little-endian; a byte-swapped value on read means
/// the artifact was written by a big-endian producer.
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint64_t kHeaderBytes = 64;
constexpr std::uint64_t kDirEntryBytes = 40;
constexpr std::uint64_t kNameBytes = 16;
constexpr std::uint64_t kAlign = 64;

/// Canonical directory order. Entry i of the directory MUST be named
/// kSectionNames[i] — which also makes duplicates unrepresentable.
const char* const kSectionNames[4] = {"meta", "edges", "pair-tables",
                                      "site-dist"};

std::uint64_t align64(std::uint64_t x) {
  return (x + (kAlign - 1)) & ~(kAlign - 1);
}

std::uint32_t crc_of(std::span<const std::byte> bytes) {
  if (bytes.empty()) return crc32c(std::string_view{});
  return crc32c(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                 bytes.size()));
}

// ---------------------------------------------------------------------------
// Little-endian encode helpers (writer side).

void put_u8(std::string& s, std::uint8_t v) {
  s.push_back(static_cast<char>(v));
}

void put_u32(std::string& s, std::uint32_t v) {
  const char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                     static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  s.append(b, 4);
}

void put_u64(std::string& s, std::uint64_t v) {
  put_u32(s, static_cast<std::uint32_t>(v));
  put_u32(s, static_cast<std::uint32_t>(v >> 32));
}

void put_i32(std::string& s, std::int32_t v) {
  put_u32(s, static_cast<std::uint32_t>(v));
}

void put_i64(std::string& s, std::int64_t v) {
  put_u64(s, static_cast<std::uint64_t>(v));
}

// ---------------------------------------------------------------------------
// Bounded little-endian cursor (reader side). The binary twin of the text
// reader's LineReader: tracks the absolute byte offset of the most recently
// read field and the section being parsed, so every CheckError leaving the
// v6 reader is annotated with *where* the artifact is corrupt. All decoding
// goes byte-by-byte (no aliasing or alignment assumptions — fuzz feeds the
// parser arbitrary std::string buffers).

class Cursor {
 public:
  Cursor(std::span<const std::byte> bytes, std::int64_t base_offset,
         std::string section)
      : p_(reinterpret_cast<const unsigned char*>(bytes.data())),
        size_(bytes.size()),
        base_(base_offset),
        section_(std::move(section)) {}

  /// Fails (with truncation context) unless `nbytes` more payload bytes
  /// exist; records the field's start offset for context(). Also used as a
  /// pre-reservation guard: no untrusted count sizes an allocation before
  /// the bytes it claims to describe are known to be present.
  void need(std::uint64_t nbytes, const char* what) {
    mark_ = pos_;
    if (size_ - pos_ < nbytes) {
      std::ostringstream os;
      os << "section '" << section_ << "' truncated: need " << nbytes
         << " bytes for " << what << ", " << (size_ - pos_) << " left"
         << context();
      throw CheckError(os.str());
    }
  }

  std::span<const std::byte> raw(std::uint64_t nbytes, const char* what) {
    need(nbytes, what);
    const auto* at = reinterpret_cast<const std::byte*>(p_) + pos_;
    pos_ += nbytes;
    return {at, static_cast<std::size_t>(nbytes)};
  }

  std::uint8_t u8(const char* what) {
    need(1, what);
    return p_[pos_++];
  }

  std::uint32_t u32(const char* what) {
    need(4, what);
    const unsigned char* b = p_ + pos_;
    pos_ += 4;
    return static_cast<std::uint32_t>(b[0]) |
           (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) |
           (static_cast<std::uint32_t>(b[3]) << 24);
  }

  std::uint64_t u64(const char* what) {
    const std::uint64_t lo = u32(what);
    const std::uint64_t hi = u32(what);
    mark_ -= 4;  // context points at the field, not its high half
    return lo | (hi << 32);
  }

  std::int32_t i32(const char* what) {
    return static_cast<std::int32_t>(u32(what));
  }

  std::int64_t i64(const char* what) {
    return static_cast<std::int64_t>(u64(what));
  }

  bool done() const { return pos_ == size_; }
  void set_section(std::string s) { section_ = std::move(s); }

  std::string context() const {
    return context_at(base_ + static_cast<std::int64_t>(mark_), section_);
  }

 private:
  const unsigned char* p_;
  std::uint64_t size_;
  std::uint64_t pos_ = 0;
  std::uint64_t mark_ = 0;
  std::int64_t base_;
  std::string section_;
};

// ---------------------------------------------------------------------------
// Container validation: header + directory + canonical layout + checksums.

struct SectionView {
  bool present = false;
  bool dropped = false;  // integrity failure tolerated away
  V6Section dir;
  std::span<const std::byte> payload;

  bool intact() const { return present && !dropped; }
  Cursor cursor() const {
    return Cursor(payload, static_cast<std::int64_t>(dir.offset), dir.name);
  }
};

struct Container {
  SectionView slot[4];  // canonical order: meta, edges, pair-tables, site-dist
  std::vector<V6Section> directory;
};

/// Validates the v6 container shape over `bytes` and returns the section
/// views. Default options are the strict audit (MappedArtifact::map,
/// fsck); a tolerant load drops damaged pair-tables / site-dist sections
/// by the shared droppable rule, exactly like the v5 frame walk.
Container parse_container(std::span<const std::byte> bytes,
                          const ReadOptions& opts, LoadReport* report) {
  Container c;
  Cursor rd(bytes, 0, "header");
  return with_context(rd, [&] {
    const std::uint64_t actual = bytes.size();
    const auto magic = rd.raw(8, "the v6 magic");
    FTB_CHECK_MSG(std::memcmp(magic.data(), kV6Magic, 8) == 0,
                  "bad v6 magic");
    const std::uint32_t version = rd.u32("the version field");
    FTB_CHECK_MSG(version == kV6Version,
                  "unsupported structure version " << version);
    const std::uint32_t endian = rd.u32("the endian tag");
    if (endian != kEndianTag) {
      FTB_CHECK_MSG(endian != 0x04030201u,
                    "byte-swapped endian tag: artifact written by a "
                    "big-endian producer, this reader is little-endian only");
      FTB_CHECK_MSG(false, "bad endian tag " << endian);
    }
    const std::uint32_t count = rd.u32("the section count");
    FTB_CHECK_MSG(count >= 2 && count <= 4,
                  "section count " << count
                                   << " outside the canonical range 2..4");
    const std::uint32_t dir_crc = rd.u32("the directory checksum");
    const std::uint64_t declared = rd.u64("the file size field");
    const auto reserved = rd.raw(32, "the reserved header bytes");
    for (std::size_t i = 0; i < reserved.size(); ++i) {
      FTB_CHECK_MSG(reserved[i] == std::byte{0},
                    "nonzero reserved header byte at index " << i);
    }

    rd.set_section("directory");
    const std::uint64_t dir_end = kHeaderBytes + count * kDirEntryBytes;
    rd.need(count * kDirEntryBytes, "the section directory");
    {
      const std::uint32_t got =
          crc_of(bytes.subspan(kHeaderBytes, count * kDirEntryBytes));
      FTB_CHECK_MSG(got == dir_crc, "directory checksum mismatch: directory "
                                        << crc_hex8(got) << " != declared "
                                        << crc_hex8(dir_crc));
    }
    std::uint64_t expected_off = align64(dir_end);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto name_raw = rd.raw(kNameBytes, "a section name");
      const char* nm = reinterpret_cast<const char*>(name_raw.data());
      const std::size_t nlen = ::strnlen(nm, kNameBytes);
      FTB_CHECK_MSG(nlen > 0 && nlen < kNameBytes,
                    "directory entry " << i << " has a malformed name");
      for (std::size_t j = nlen; j < kNameBytes; ++j) {
        FTB_CHECK_MSG(name_raw[j] == std::byte{0},
                      "directory entry " << i
                                         << " has nonzero name padding");
      }
      const std::string name(nm, nlen);
      FTB_CHECK_MSG(name == kSectionNames[i],
                    "directory entry " << i << " named '" << name
                                       << "', canonical order is meta, "
                                          "edges, pair-tables, site-dist");
      V6Section sec;
      sec.name = name;
      sec.offset = rd.u64("a section offset");
      sec.bytes = rd.u64("a section length");
      sec.crc32c = rd.u32("a section checksum");
      const std::uint32_t zero = rd.u32("a directory reserved field");
      FTB_CHECK_MSG(zero == 0, "section '" << name
                                           << "' has a nonzero reserved "
                                              "directory field");
      FTB_CHECK_MSG(sec.bytes <= kMaxSectionBytes,
                    "section '" << name << "' declares implausible length "
                                << sec.bytes);
      FTB_CHECK_MSG(sec.offset == expected_off,
                    "section '" << name << "' at offset " << sec.offset
                                << ", the canonical layout puts it at "
                                << expected_off);
      expected_off = align64(sec.offset + sec.bytes);
      c.slot[i].present = true;
      c.slot[i].dir = sec;
      c.directory.push_back(sec);
    }
    const std::uint64_t artifact_end =
        c.directory.back().offset + c.directory.back().bytes;
    FTB_CHECK_MSG(declared == artifact_end,
                  "header declares " << declared
                                     << " file bytes, the directory layout "
                                        "ends at "
                                     << artifact_end);
    if (actual > artifact_end) {
      throw CheckError("trailing data after the artifact: file has " +
                       std::to_string(actual) + " bytes, artifact ends at " +
                       std::to_string(artifact_end) +
                       context_at(static_cast<std::int64_t>(artifact_end),
                                  "trailer"));
    }

    // Truncation: the first section whose extent runs past the real end of
    // the file. Droppable trailing sections degrade (everything after a
    // truncated section is unreadable, mirroring the v5 lost-sync rule);
    // a truncated meta/edges section always throws.
    std::uint32_t first_truncated = count;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (c.slot[i].dir.offset + c.slot[i].dir.bytes > actual) {
        first_truncated = i;
        break;
      }
    }
    if (first_truncated < count) {
      const V6Section& sec = c.slot[first_truncated].dir;
      const std::int64_t at = static_cast<std::int64_t>(
          std::min<std::uint64_t>(sec.offset, actual));
      drop_or_throw(sec.name, "truncated section",
                    "truncated: declared " + std::to_string(sec.bytes) +
                        " bytes, the file ends at byte " +
                        std::to_string(actual),
                    context_at(at, sec.name), opts, report);
      for (std::uint32_t i = first_truncated; i < count; ++i) {
        c.slot[i].dropped = true;
      }
    }

    // Canonical padding (directory → first payload, and every alignment
    // gap) must be zero, so that every accepted byte is either meaningful
    // or pinned — an accepted artifact re-serializes byte-identically.
    std::uint64_t prev_end = dir_end;
    for (std::uint32_t i = 0; i < count && !c.slot[i].dropped; ++i) {
      for (std::uint64_t a = prev_end; a < c.slot[i].dir.offset; ++a) {
        FTB_CHECK_MSG(bytes[a] == std::byte{0},
                      "nonzero padding byte before section '"
                          << c.slot[i].dir.name << "'"
                          << context_at(static_cast<std::int64_t>(a),
                                        "padding"));
      }
      prev_end = c.slot[i].dir.offset + c.slot[i].dir.bytes;
    }

    // Checksum sweep. A mismatch in a droppable section degrades (the
    // framing is intact — lengths held — so later sections stay readable,
    // same as the v5 reader); meta/edges mismatches always throw.
    for (std::uint32_t i = 0; i < count; ++i) {
      SectionView& s = c.slot[i];
      if (s.dropped) continue;
      s.payload = bytes.subspan(s.dir.offset, s.dir.bytes);
      const std::uint32_t got = crc_of(s.payload);
      if (got == s.dir.crc32c) continue;
      drop_or_throw(s.dir.name, "checksum mismatch",
                    "checksum mismatch: payload " + crc_hex8(got) +
                        " != declared " + crc_hex8(s.dir.crc32c),
                    context_at(static_cast<std::int64_t>(s.dir.offset),
                               s.dir.name),
                    opts, report);
      s.dropped = true;
    }
    return c;
  });
}

// ---------------------------------------------------------------------------
// Section decoders. Same grammar as the text sections, as fixed-width
// little-endian arrays; all counts bounds-checked against the graph before
// they size an allocation or a loop, canonical (sorted / deduplicated)
// order enforced so accepted artifacts re-serialize byte-identically.

struct MetaSection {
  FaultClass fault_class = FaultClass::kEdge;
  std::vector<Vertex> sources;
};

MetaSection decode_meta(const Graph& g, const SectionView& s) {
  Cursor rd = s.cursor();
  return with_context(rd, [&] {
    MetaSection out;
    const std::uint32_t fc = rd.u32("the fault-class tag");
    FTB_CHECK_MSG(fc <= 3, "bad fault-class tag " << fc);
    out.fault_class = static_cast<FaultClass>(fc);
    const std::uint32_t k = rd.u32("the source count");
    FTB_CHECK_MSG(k >= 1, "artifact carries no sources");
    FTB_CHECK_MSG(k <= static_cast<std::uint32_t>(g.num_vertices()),
                  "sources count " << k << " exceeds n="
                                   << g.num_vertices());
    const std::uint64_t n = rd.u64("the vertex count");
    FTB_CHECK_MSG(n == static_cast<std::uint64_t>(g.num_vertices()),
                  "structure built for n=" << n << ", graph has "
                                           << g.num_vertices());
    const std::uint64_t m = rd.u64("the graph edge count");
    FTB_CHECK_MSG(m == static_cast<std::uint64_t>(g.num_edges()),
                  "structure built for a graph with m=" << m
                                                        << ", graph has "
                                                        << g.num_edges());
    fault::maybe_fail_alloc();
    out.sources.reserve(k);
    for (std::uint32_t i = 0; i < k; ++i) {
      out.sources.push_back(rd.i32("a source vertex"));
    }
    ftb::detail::check_sources(g, out.sources);
    FTB_CHECK_MSG(rd.done(), "trailing data in section");
    return out;
  });
}

EdgeSection decode_edges(const Graph& g, const SectionView& s,
                         std::span<const Vertex> sources) {
  Cursor rd = s.cursor();
  return with_context(rd, [&] {
    const long long n = g.num_vertices();
    const std::uint64_t he = rd.u64("the structure edge count");
    // Untrusted count: H's edges are a subset of G's, so any larger claim
    // is a length lie — reject before it sizes the read loop.
    FTB_CHECK_MSG(he <= static_cast<std::uint64_t>(g.num_edges()),
                  "edge count " << he << " exceeds the graph's "
                                << g.num_edges() << " edges");
    const std::int32_t source = rd.i32("the anchor source");
    FTB_CHECK_MSG(source >= 0 && source < n, "bad anchor source " << source);
    const std::uint32_t zero = rd.u32("the edges reserved field");
    FTB_CHECK_MSG(zero == 0, "nonzero reserved field in the edge section");
    FTB_CHECK_MSG(sources.front() == source,
                  "meta sources disagree with the edge section's anchor "
                  "source");
    rd.need(he * 9, "the edge and flag arrays");
    EdgeSection out;
    out.source = source;
    fault::maybe_fail_alloc();
    out.edges.reserve(static_cast<std::size_t>(he));
    EdgeId prev = kInvalidEdge;
    for (std::uint64_t i = 0; i < he; ++i) {
      const std::int32_t u = rd.i32("a structure edge endpoint");
      const std::int32_t v = rd.i32("a structure edge endpoint");
      FTB_CHECK_MSG(u >= 0 && u < n && v >= 0 && v < n,
                    "bad structure edge (" << u << "," << v << ")");
      const EdgeId e = g.find_edge(u, v);
      FTB_CHECK_MSG(e != kInvalidEdge,
                    "structure edge (" << u << "," << v
                                       << ") missing from the graph");
      // Strictly ascending EdgeId order is the canonical form (it is also
      // the pair-table pools' index space) — and rules out duplicates.
      FTB_CHECK_MSG(e > prev,
                    "structure edge (" << u << "," << v
                                       << ") out of canonical ascending "
                                          "order");
      prev = e;
      out.edges.push_back(e);
    }
    for (std::uint64_t i = 0; i < he; ++i) {
      const std::uint8_t flags = rd.u8("a structure edge flag");
      FTB_CHECK_MSG(flags <= 3, "bad structure edge flags "
                                    << static_cast<int>(flags));
      if (flags & 1) out.reinforced.push_back(out.edges[i]);
      if (flags & 2) out.tree_edges.push_back(out.edges[i]);
    }
    FTB_CHECK_MSG(rd.done(), "trailing data in section");
    return out;
  });
}

std::vector<DualSiteTable> decode_pair_tables(
    const Graph& g, Cursor& rd, const std::vector<Vertex>& sources,
    const std::vector<EdgeId>& edges) {
  const long long n = g.num_vertices();
  const long long mh = static_cast<long long>(edges.size());
  const std::uint64_t num_tables = rd.u64("the pair-table count");
  FTB_CHECK_MSG(num_tables == 0 || num_tables == sources.size(),
                "pair-tables count " << num_tables << " does not match "
                                     << sources.size() << " sources");
  std::vector<DualSiteTable> tables;
  for (std::uint64_t ti = 0; ti < num_tables; ++ti) {
    const std::int32_t src = rd.i32("a pair-table source");
    FTB_CHECK_MSG(src == sources[static_cast<std::size_t>(ti)],
                  "expected tables for source "
                      << sources[static_cast<std::size_t>(ti)] << ", got "
                      << src);
    const std::uint32_t zero = rd.u32("a pair-table reserved field");
    FTB_CHECK_MSG(zero == 0, "nonzero reserved field in a pair table");
    const std::uint64_t num_sites = rd.u64("a site count");
    // Untrusted count: each first-failure site is a distinct structure
    // edge or vertex, so mh + n bounds any honest table.
    FTB_CHECK_MSG(num_sites <= static_cast<std::uint64_t>(mh + n),
                  "site count " << num_sites << " exceeds the " << mh + n
                                << " possible first-failure sites");
    rd.need(num_sites * 12 + (num_sites + 1) * 8,
            "the site and offset arrays");
    DualSiteTable table;
    fault::maybe_fail_alloc();
    table.sites.reserve(static_cast<std::size_t>(num_sites));
    for (std::uint64_t i = 0; i < num_sites; ++i) {
      const std::int32_t kind = rd.i32("a site kind");
      const std::int32_t a = rd.i32("a site id");
      const std::int32_t b = rd.i32("a site id");
      DualSite f;
      if (kind == 0) {
        FTB_CHECK_MSG(a >= 0 && a < n && b >= 0 && b < n,
                      "bad site edge (" << a << "," << b << ")");
        f.kind = FaultClass::kEdge;
        f.id = g.find_edge(a, b);
        FTB_CHECK_MSG(f.id != kInvalidEdge,
                      "site edge (" << a << "," << b
                                    << ") missing from the graph");
      } else {
        FTB_CHECK_MSG(kind == 1, "bad site kind " << kind);
        FTB_CHECK_MSG(a >= 0 && a < n && b == -1,
                      "bad vertex site (" << a << "," << b << ")");
        f.kind = FaultClass::kVertex;
        f.id = a;
      }
      table.sites.push_back(f);
    }
    table.offsets.reserve(static_cast<std::size_t>(num_sites) + 1);
    std::int64_t prev_off = 0;
    for (std::uint64_t i = 0; i <= num_sites; ++i) {
      const std::int64_t off = rd.i64("a site offset");
      FTB_CHECK_MSG(i > 0 ? off >= prev_off : off == 0,
                    "pair-table offsets not nondecreasing from zero");
      FTB_CHECK_MSG(off - prev_off <= mh,
                    "site subset size " << off - prev_off
                                        << " exceeds the structure's " << mh
                                        << " edges");
      table.offsets.push_back(off);
      prev_off = off;
    }
    const std::uint64_t pool_size = rd.u64("the edge pool size");
    FTB_CHECK_MSG(pool_size == static_cast<std::uint64_t>(prev_off),
                  "edge pool size " << pool_size
                                    << " disagrees with the offsets table");
    // Re-apply the section length ceiling before the multiply below: the
    // offsets table could legally sum far past any plausible payload.
    FTB_CHECK_MSG(pool_size <= kMaxSectionBytes,
                  "edge pool declares implausible length " << pool_size);
    rd.need(pool_size * 4, "the edge pool");
    fault::maybe_fail_alloc();
    table.edge_pool.reserve(static_cast<std::size_t>(pool_size));
    for (std::uint64_t i = 0; i < num_sites; ++i) {
      std::int32_t prev_idx = -1;
      for (std::int64_t p = table.offsets[static_cast<std::size_t>(i)];
           p < table.offsets[static_cast<std::size_t>(i) + 1]; ++p) {
        const std::int32_t idx = rd.i32("a pair-table edge index");
        FTB_CHECK_MSG(idx >= 0 && idx < mh,
                      "pair-table edge index " << idx << " out of range");
        // Canonical: each site's pool ascends (ascending indices into an
        // ascending edge section, so the in-memory subsets come out
        // sorted, the invariant DualSiteTable::subset_contains needs).
        FTB_CHECK_MSG(idx > prev_idx,
                      "pair-table edge pool out of canonical ascending "
                      "order");
        prev_idx = idx;
        table.edge_pool.push_back(edges[static_cast<std::size_t>(idx)]);
      }
    }
    tables.push_back(std::move(table));
  }
  FTB_CHECK_MSG(rd.done(), "trailing data in section");
  return tables;
}

std::vector<DualSiteDistTable> decode_site_dist(
    const Graph& g, Cursor& rd, const std::vector<Vertex>& sources,
    const std::vector<DualSiteTable>& tables) {
  const long long n = g.num_vertices();
  const std::uint64_t num_tables = rd.u64("the site-dist table count");
  FTB_CHECK_MSG(num_tables == sources.size(),
                "site-dist count " << num_tables << " does not match "
                                   << sources.size() << " sources");
  std::vector<DualSiteDistTable> out;
  out.reserve(static_cast<std::size_t>(num_tables));
  for (std::uint64_t ti = 0; ti < num_tables; ++ti) {
    const std::int32_t src = rd.i32("a site-dist source");
    FTB_CHECK_MSG(src == sources[static_cast<std::size_t>(ti)],
                  "expected site-dist for source "
                      << sources[static_cast<std::size_t>(ti)] << ", got "
                      << src);
    const std::uint32_t zero = rd.u32("a site-dist reserved field");
    FTB_CHECK_MSG(zero == 0, "nonzero reserved field in a site-dist table");
    // The slot layout is defined by the pair tables' site order, so the
    // site count must agree exactly with the sibling section.
    const std::uint64_t num_sites = rd.u64("a site-dist site count");
    FTB_CHECK_MSG(
        num_sites == tables[static_cast<std::size_t>(ti)].num_sites(),
        "site-dist site count "
            << num_sites << " disagrees with the pair table's "
            << tables[static_cast<std::size_t>(ti)].num_sites());
    rd.need((num_sites + 1) * 8, "the site offset array");
    DualSiteDistTable t;
    fault::maybe_fail_alloc();
    t.site_offsets.reserve(static_cast<std::size_t>(num_sites) + 1);
    std::int64_t prev = 0;
    for (std::uint64_t i = 0; i <= num_sites; ++i) {
      const std::int64_t off = rd.i64("a site-dist site offset");
      if (i == 0) {
        FTB_CHECK_MSG(off == 0, "site-dist site offsets must start at 0");
      } else {
        // Untrusted count: a site's subtree holds at least its top and at
        // most every vertex.
        FTB_CHECK_MSG(off - prev >= 1 && off - prev <= n,
                      "bad site-dist slot count " << off - prev);
      }
      t.site_offsets.push_back(off);
      prev = off;
    }
    const std::uint64_t num_slots = rd.u64("the site-dist slot count");
    FTB_CHECK_MSG(num_slots == static_cast<std::uint64_t>(prev),
                  "slot count " << num_slots
                                << " disagrees with the site offsets");
    // Ceiling before the multiplies below (the site offsets could legally
    // sum far past any plausible payload).
    FTB_CHECK_MSG(num_slots <= kMaxSectionBytes,
                  "slot table declares implausible length " << num_slots);
    rd.need(num_slots * 12 + (num_slots + 1) * 8, "the slot arrays");
    fault::maybe_fail_alloc();
    t.parent_edge.reserve(static_cast<std::size_t>(num_slots));
    t.tf_depth.reserve(static_cast<std::size_t>(num_slots));
    std::vector<std::int32_t> pe_u(static_cast<std::size_t>(num_slots));
    std::vector<std::int32_t> pe_v(static_cast<std::size_t>(num_slots));
    for (std::uint64_t s = 0; s < num_slots; ++s) {
      pe_u[static_cast<std::size_t>(s)] = rd.i32("a dterm parent endpoint");
      pe_v[static_cast<std::size_t>(s)] = rd.i32("a dterm parent endpoint");
    }
    for (std::uint64_t s = 0; s < num_slots; ++s) {
      const std::int32_t d = rd.i32("a dterm depth");
      const std::int32_t pu = pe_u[static_cast<std::size_t>(s)];
      const std::int32_t pv = pe_v[static_cast<std::size_t>(s)];
      if (d == -1) {  // unreachable under the first failure alone
        FTB_CHECK_MSG(pu == -1 && pv == -1,
                      "unreachable dterm slot with a parent edge ("
                          << pu << "," << pv << ")");
        t.parent_edge.push_back(kInvalidEdge);
        t.tf_depth.push_back(kInfHops);
        continue;
      }
      FTB_CHECK_MSG(d >= 1 && d < n, "bad dterm depth " << d);
      FTB_CHECK_MSG(pu >= 0 && pu < n && pv >= 0 && pv < n,
                    "bad dterm parent edge (" << pu << "," << pv << ")");
      const EdgeId pe = g.find_edge(pu, pv);
      FTB_CHECK_MSG(pe != kInvalidEdge,
                    "dterm parent edge (" << pu << "," << pv
                                          << ") missing from the graph");
      t.parent_edge.push_back(pe);
      t.tf_depth.push_back(d);
    }
    t.row_offsets.reserve(static_cast<std::size_t>(num_slots) + 1);
    std::int64_t prev_row = 0;
    for (std::uint64_t s = 0; s <= num_slots; ++s) {
      const std::int64_t off = rd.i64("a dterm row offset");
      if (s == 0) {
        FTB_CHECK_MSG(off == 0, "dterm row offsets must start at 0");
      } else {
        const std::int32_t d = t.tf_depth[static_cast<std::size_t>(s - 1)];
        const std::int64_t want = d >= kInfHops ? 0 : 2 * d - 1;
        FTB_CHECK_MSG(off - prev_row == want,
                      "dterm row count " << off - prev_row
                                         << " disagrees with depth (want "
                                         << want << ")");
      }
      t.row_offsets.push_back(off);
      prev_row = off;
    }
    const std::uint64_t num_rows = rd.u64("the dterm row count");
    FTB_CHECK_MSG(num_rows == static_cast<std::uint64_t>(prev_row),
                  "row count " << num_rows
                               << " disagrees with the row offsets");
    FTB_CHECK_MSG(num_rows <= kMaxSectionBytes,
                  "row table declares implausible length " << num_rows);
    rd.need(num_rows * 4, "the dterm rows");
    fault::maybe_fail_alloc();
    t.rows.reserve(static_cast<std::size_t>(num_rows));
    for (std::uint64_t r = 0; r < num_rows; ++r) {
      const std::int32_t v = rd.i32("a dterm row");
      // Row values are two-failure distances: < n hops, or -1 for
      // "disconnected under that second failure".
      FTB_CHECK_MSG(v >= -1 && v < n, "bad dterm row " << v);
      t.rows.push_back(v < 0 ? kInfHops : v);
    }
    out.push_back(std::move(t));
  }
  FTB_CHECK_MSG(rd.done(), "trailing data in section");
  return out;
}

// ---------------------------------------------------------------------------
// Payload encoders (writer side).

std::string encode_meta(const Graph& g, const FtBfsStructure& h,
                        std::span<const Vertex> sources) {
  std::string p;
  put_u32(p, static_cast<std::uint32_t>(h.fault_class()));
  put_u32(p, static_cast<std::uint32_t>(sources.size()));
  put_u64(p, static_cast<std::uint64_t>(g.num_vertices()));
  put_u64(p, static_cast<std::uint64_t>(g.num_edges()));
  for (const Vertex s : sources) put_i32(p, s);
  return p;
}

std::string encode_edges(const Graph& g, const FtBfsStructure& h) {
  std::string p;
  put_u64(p, static_cast<std::uint64_t>(h.num_edges()));
  put_i32(p, h.source());
  put_u32(p, 0);
  std::vector<std::uint8_t> is_tree(static_cast<std::size_t>(g.num_edges()),
                                    0);
  for (const EdgeId e : h.tree_edges()) {
    is_tree[static_cast<std::size_t>(e)] = 1;
  }
  for (const EdgeId e : h.edges()) {
    const auto [u, v] = g.edge(e);
    put_i32(p, u);
    put_i32(p, v);
  }
  for (const EdgeId e : h.edges()) {
    std::uint8_t flags = 0;
    if (h.is_reinforced(e)) flags |= 1;
    if (is_tree[static_cast<std::size_t>(e)]) flags |= 2;
    put_u8(p, flags);
  }
  return p;
}

std::string encode_pair_tables(const Graph& g, const FtBfsStructure& h,
                               std::span<const Vertex> sources,
                               std::span<const DualSiteTable> pair_tables) {
  std::string p;
  put_u64(p, static_cast<std::uint64_t>(pair_tables.size()));
  for (std::size_t si = 0; si < pair_tables.size(); ++si) {
    const DualSiteTable& t = pair_tables[si];
    put_i32(p, sources[si]);
    put_u32(p, 0);
    put_u64(p, static_cast<std::uint64_t>(t.num_sites()));
    for (const DualSite f : t.sites) {
      if (f.kind == FaultClass::kEdge) {
        const auto [u, v] = g.edge(f.id);
        put_i32(p, 0);
        put_i32(p, u);
        put_i32(p, v);
      } else {
        put_i32(p, 1);
        put_i32(p, f.id);
        put_i32(p, -1);
      }
    }
    for (const std::int64_t off : t.offsets) put_i64(p, off);
    put_u64(p, static_cast<std::uint64_t>(t.edge_pool.size()));
    for (const EdgeId e : t.edge_pool) {
      put_i32(p, static_cast<std::int32_t>(edge_index_in(h.edges(), e)));
    }
  }
  return p;
}

std::string encode_site_dist(const Graph& g,
                             std::span<const Vertex> sources,
                             std::span<const DualSiteDistTable> site_dist) {
  std::string p;
  put_u64(p, static_cast<std::uint64_t>(site_dist.size()));
  for (std::size_t si = 0; si < site_dist.size(); ++si) {
    const DualSiteDistTable& t = site_dist[si];
    const std::size_t num_slots = t.parent_edge.size();
    put_i32(p, sources[si]);
    put_u32(p, 0);
    put_u64(p, static_cast<std::uint64_t>(
                   t.site_offsets.empty() ? 0 : t.site_offsets.size() - 1));
    for (const std::int64_t off : t.site_offsets) put_i64(p, off);
    put_u64(p, static_cast<std::uint64_t>(num_slots));
    for (std::size_t s = 0; s < num_slots; ++s) {
      if (t.tf_depth[s] >= kInfHops) {
        put_i32(p, -1);
        put_i32(p, -1);
      } else {
        const auto [pu, pv] = g.edge(t.parent_edge[s]);
        put_i32(p, pu);
        put_i32(p, pv);
      }
    }
    for (std::size_t s = 0; s < num_slots; ++s) {
      put_i32(p, t.tf_depth[s] >= kInfHops ? -1 : t.tf_depth[s]);
    }
    for (const std::int64_t off : t.row_offsets) put_i64(p, off);
    put_u64(p, static_cast<std::uint64_t>(t.rows.size()));
    for (const std::int32_t r : t.rows) {
      put_i32(p, r >= kInfHops ? -1 : r);
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// Read-only file mapping (RAII). MappedArtifact::map releases it into the
// long-lived object; load_structure_v6 keeps it scoped to the parse.

class FileMapping {
 public:
  explicit FileMapping(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    FTB_CHECK_MSG(fd >= 0, "cannot open " << path);
    struct ::stat st {};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
      ::close(fd);
      FTB_CHECK_MSG(false, "cannot stat " << path
                                          << " (not a regular file?)");
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
      void* p = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd, 0);
      if (p == MAP_FAILED) {
        ::close(fd);
        FTB_CHECK_MSG(false, "cannot mmap " << path);
      }
      data_ = static_cast<const std::byte*>(p);
    }
    ::close(fd);  // the mapping outlives the descriptor
  }

  FileMapping(const FileMapping&) = delete;
  FileMapping& operator=(const FileMapping&) = delete;

  ~FileMapping() {
    if (data_ != nullptr) {
      ::munmap(const_cast<std::byte*>(data_), size_);
    }
  }

  std::span<const std::byte> bytes() const { return {data_, size_}; }

  /// Disowns the mapping (the caller now owns the munmap).
  std::pair<const std::byte*, std::size_t> release() {
    return {std::exchange(data_, nullptr), std::exchange(size_, 0)};
  }

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Magic sniffing.

bool is_v6_magic(std::string_view bytes) {
  return bytes.size() >= sizeof(kV6Magic) &&
         std::memcmp(bytes.data(), kV6Magic, sizeof(kV6Magic)) == 0;
}

bool is_v6_artifact(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) return false;
  char head[sizeof(kV6Magic)] = {};
  f.read(head, sizeof(head));
  if (f.gcount() != static_cast<std::streamsize>(sizeof(head))) return false;
  return is_v6_magic(std::string_view(head, sizeof(head)));
}

// ---------------------------------------------------------------------------
// MappedArtifact.

MappedArtifact MappedArtifact::map(const std::string& path) {
  // Bounded pre-read: reject non-v6 files on their first 8 bytes before
  // mapping anything.
  {
    std::ifstream f(path, std::ios::binary);
    FTB_CHECK_MSG(f.good(), "cannot open " << path);
    char head[sizeof(kV6Magic)] = {};
    f.read(head, sizeof(head));
    const auto got = static_cast<std::size_t>(f.gcount());
    if (got < sizeof(head) ||
        !is_v6_magic(std::string_view(head, sizeof(head)))) {
      throw CheckError("bad v6 magic" + context_at(0, "header"));
    }
  }
  FileMapping mapping(path);
  // Strict audit: directory shape, canonical layout, every section CRC.
  Container c = parse_container(mapping.bytes(), {}, nullptr);
  const auto [data, size] = mapping.release();
  return MappedArtifact(data, size, std::move(c.directory));
}

MappedArtifact::MappedArtifact(MappedArtifact&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      directory_(std::move(other.directory_)) {}

MappedArtifact& MappedArtifact::operator=(MappedArtifact&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(const_cast<std::byte*>(data_), size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    directory_ = std::move(other.directory_);
  }
  return *this;
}

MappedArtifact::~MappedArtifact() {
  if (data_ != nullptr) ::munmap(const_cast<std::byte*>(data_), size_);
}

bool MappedArtifact::has_section(std::string_view name) const {
  for (const V6Section& s : directory_) {
    if (s.name == name) return true;
  }
  return false;
}

std::span<const std::byte> MappedArtifact::section(
    std::string_view name) const {
  for (const V6Section& s : directory_) {
    if (s.name == name) {
      return bytes().subspan(s.offset, s.bytes);
    }
  }
  throw CheckError("artifact has no section '" + std::string(name) + "'");
}

// ---------------------------------------------------------------------------
// Writer.

std::string write_structure_v6_bytes(
    const FtBfsStructure& h, std::span<const Vertex> sources,
    std::span<const DualSiteTable> pair_tables,
    std::span<const DualSiteDistTable> site_dist) {
  const Graph& g = h.graph();
  const bool dual = h.fault_class() == FaultClass::kDual;
  FTB_CHECK_MSG(!sources.empty(), "v6 artifacts always carry a source set");
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

  struct Sec {
    const char* name;
    std::string payload;
  };
  std::vector<Sec> secs;
  secs.push_back({"meta", encode_meta(g, h, sources)});
  secs.push_back({"edges", encode_edges(g, h)});
  // A dual artifact always carries its pair-tables section (count 0 when
  // the tables were not serialized), so the canonical shape is a function
  // of the fault class alone.
  if (dual) {
    secs.push_back({"pair-tables",
                    encode_pair_tables(g, h, sources, pair_tables)});
  }
  if (!site_dist.empty()) {
    secs.push_back({"site-dist", encode_site_dist(g, sources, site_dist)});
  }

  const std::uint64_t count = secs.size();
  const std::uint64_t dir_end = kHeaderBytes + count * kDirEntryBytes;
  std::string directory;
  std::uint64_t off = align64(dir_end);
  std::uint64_t artifact_end = dir_end;
  for (const Sec& s : secs) {
    std::string name(kNameBytes, '\0');
    name.replace(0, std::strlen(s.name), s.name);
    directory += name;
    put_u64(directory, off);
    put_u64(directory, s.payload.size());
    put_u32(directory, crc32c(s.payload));
    put_u32(directory, 0);
    artifact_end = off + s.payload.size();
    off = align64(artifact_end);
  }

  std::string out;
  out.reserve(artifact_end);
  out.append(reinterpret_cast<const char*>(kV6Magic), sizeof(kV6Magic));
  put_u32(out, kV6Version);
  put_u32(out, kEndianTag);
  put_u32(out, static_cast<std::uint32_t>(count));
  put_u32(out, crc32c(directory));
  put_u64(out, artifact_end);
  out.append(32, '\0');
  out += directory;
  for (const Sec& s : secs) {
    out.append(align64(out.size()) - out.size(), '\0');
    out += s.payload;
  }
  return out;
}

void write_structure_v6(const FtBfsStructure& h,
                        std::span<const Vertex> sources,
                        std::span<const DualSiteTable> pair_tables,
                        std::span<const DualSiteDistTable> site_dist,
                        std::ostream& os) {
  const std::string bytes =
      write_structure_v6_bytes(h, sources, pair_tables, site_dist);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void save_structure_v6(const FtBfsStructure& h,
                       std::span<const Vertex> sources,
                       std::span<const DualSiteTable> pair_tables,
                       std::span<const DualSiteDistTable> site_dist,
                       const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  FTB_CHECK_MSG(f.good(), "cannot open " << path << " for writing");
  write_structure_v6(h, sources, pair_tables, site_dist, f);
  f.flush();
  FTB_CHECK_MSG(f.good(), "short write to " << path);
}

// ---------------------------------------------------------------------------
// Readers.

FtBfsStructure read_structure_v6(const Graph& g,
                                 std::span<const std::byte> bytes,
                                 std::vector<Vertex>* sources_out,
                                 std::vector<DualSiteTable>* tables_out,
                                 const ReadOptions& opts, LoadReport* report,
                                 std::vector<DualSiteDistTable>*
                                     site_dist_out) {
  if (report != nullptr) *report = LoadReport{};
  if (site_dist_out != nullptr) site_dist_out->clear();
  Container c = parse_container(bytes, opts, report);

  MetaSection meta = decode_meta(g, c.slot[0]);
  EdgeSection es = decode_edges(g, c.slot[1], meta.sources);
  if (meta.fault_class == FaultClass::kDual && !c.slot[2].present) {
    throw CheckError(
        "dual artifact missing its pair-tables section" +
        context_at(static_cast<std::int64_t>(kHeaderBytes), "directory"));
  }
  Cursor pt = c.slot[2].cursor(), sd = c.slot[3].cursor();
  return assemble(g, meta.fault_class, std::move(meta.sources), std::move(es),
                  c.slot[2].intact() ? &pt : nullptr, decode_pair_tables,
                  c.slot[3].intact() ? &sd : nullptr, decode_site_dist, opts,
                  {sources_out, tables_out, report, site_dist_out});
}

FtBfsStructure load_structure_v6(const Graph& g, const std::string& path,
                                 std::vector<Vertex>* sources_out,
                                 std::vector<DualSiteTable>* tables_out,
                                 const ReadOptions& opts, LoadReport* report,
                                 std::vector<DualSiteDistTable>*
                                     site_dist_out) {
  FileMapping mapping(path);
  return read_structure_v6(g, mapping.bytes(), sources_out, tables_out,
                           opts, report, site_dist_out);
}

}  // namespace ftb::io

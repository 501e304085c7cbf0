// binary_io_test.cpp — the structure_io v6 binary container: round-trips
// for every fault model, bit-equivalence with the v5 text framing, the
// canonical fixed point (accepted bytes re-serialize identically), the
// MappedArtifact zero-copy loader, and the zero-trust rejection matrix —
// magic/version/endianness, directory checksum and naming, alignment and
// padding lies, truncation, section CRC flips — every rejection a
// CheckError carrying byte-offset + section context, the tolerant paths
// that drop a damaged pair-tables / site-dist section into the LoadReport
// instead of refusing service, and the v5/v6 parity of those drops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "src/graph/generators.hpp"
#include "src/io/binary_io.hpp"
#include "src/io/structure_io.hpp"
#include "src/util/crc32c.hpp"

namespace ftb {
namespace {

std::span<const std::byte> as_span(const std::string& bytes) {
  return std::as_bytes(std::span<const char>(bytes.data(), bytes.size()));
}

/// A dual-failure build, optionally with the site-dist oracle harvested —
/// the widest v6 surface (all four sections). The caller owns `g`: the
/// returned structure references it.
api::BuildResult dual_build(const Graph& g, bool site_dist) {
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.site_dist_oracle = site_dist;
  return api::build(g, spec);
}

std::string v6_bytes(const api::BuildResult& res) {
  return io::write_structure_v6_bytes(res.structure, res.sources,
                                      res.dual_tables, res.dual_site_dist);
}

/// Asserts the strict reader rejects `bytes` with a CheckError whose
/// message carries every substring in `needles` — the offset/section
/// context contract of the io layer.
void expect_rejected(const Graph& g, const std::string& bytes,
                     const std::vector<std::string>& needles,
                     const std::string& what) {
  try {
    io::read_structure_v6(g, as_span(bytes));
    FAIL() << what << ": accepted";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(msg.find(needle), std::string::npos)
          << what << ": message '" << msg << "' lacks '" << needle << "'";
    }
  }
}

void flip_byte(std::string* bytes, std::size_t at) {
  (*bytes)[at] = static_cast<char>(
      static_cast<unsigned char>((*bytes)[at]) ^ 0x01u);
}

/// Little-endian u64 peek, for locating sections via the directory.
std::uint64_t peek_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int b = 7; b >= 0; --b) {
    v = (v << 8) |
        static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(b)]);
  }
  return v;
}

TEST(BinaryIoV6, DualArtifactRoundTripsToAFixedPoint) {
  const Graph g = gen::grid_graph(5, 5);
  const api::BuildResult res = dual_build(g, /*site_dist=*/true);
  const std::string w1 = v6_bytes(res);

  std::vector<Vertex> sources;
  std::vector<DualSiteTable> tables;
  std::vector<DualSiteDistTable> site_dist;
  io::LoadReport report;
  const FtBfsStructure h = io::read_structure_v6(
      g, as_span(w1), &sources, &tables, {}, &report, &site_dist);

  EXPECT_TRUE(report.dropped.empty());
  EXPECT_EQ(h.fault_class(), FaultClass::kDual);
  EXPECT_EQ(h.edges(), res.structure.edges());
  EXPECT_EQ(h.reinforced(), res.structure.reinforced());
  EXPECT_EQ(h.tree_edges(), res.structure.tree_edges());
  EXPECT_EQ(sources, res.sources);
  ASSERT_EQ(tables.size(), res.dual_tables.size());
  for (std::size_t i = 0; i < tables.size(); ++i) {
    EXPECT_EQ(tables[i].sites, res.dual_tables[i].sites);
    EXPECT_EQ(tables[i].offsets, res.dual_tables[i].offsets);
    EXPECT_EQ(tables[i].edge_pool, res.dual_tables[i].edge_pool);
  }
  ASSERT_EQ(site_dist.size(), res.dual_site_dist.size());
  for (std::size_t i = 0; i < site_dist.size(); ++i) {
    EXPECT_EQ(site_dist[i].site_offsets, res.dual_site_dist[i].site_offsets);
    EXPECT_EQ(site_dist[i].parent_edge, res.dual_site_dist[i].parent_edge);
    EXPECT_EQ(site_dist[i].tf_depth, res.dual_site_dist[i].tf_depth);
    EXPECT_EQ(site_dist[i].row_offsets, res.dual_site_dist[i].row_offsets);
    EXPECT_EQ(site_dist[i].rows, res.dual_site_dist[i].rows);
  }

  // The container contract: accepted bytes re-serialize byte-identically.
  EXPECT_EQ(io::write_structure_v6_bytes(h, sources, tables, site_dist), w1);
}

TEST(BinaryIoV6, EdgeAndMultiSourceModelsRoundTrip) {
  for (const bool multi : {false, true}) {
    const Graph g = gen::random_connected(24, 50, 3);
    api::BuildSpec spec;
    if (multi) spec.sources = {0, 7, 19};
    const api::BuildResult res = api::build(g, spec);
    const std::string w1 = v6_bytes(res);
    std::vector<Vertex> sources;
    const FtBfsStructure h = io::read_structure_v6(g, as_span(w1), &sources);
    EXPECT_EQ(h.edges(), res.structure.edges());
    EXPECT_EQ(sources, res.sources);
    EXPECT_EQ(io::write_structure_v6_bytes(h, sources, {}, {}), w1);
  }
}

TEST(BinaryIoV6, CarriesTheSameStructureAsV5) {
  const Graph g = gen::grid_graph(5, 5);
  const api::BuildResult res = dual_build(g, /*site_dist=*/true);

  std::ostringstream v5;
  io::write_structure_v5(res.structure, res.sources, res.dual_tables,
                         res.dual_site_dist, v5);
  std::istringstream v5_in(v5.str());
  std::vector<Vertex> s5;
  std::vector<DualSiteTable> t5;
  std::vector<DualSiteDistTable> sd5;
  const FtBfsStructure h5 =
      io::read_structure(g, v5_in, &s5, &t5, {}, nullptr, &sd5);

  std::vector<Vertex> s6;
  std::vector<DualSiteTable> t6;
  std::vector<DualSiteDistTable> sd6;
  const FtBfsStructure h6 = io::read_structure_v6(
      g, as_span(v6_bytes(res)), &s6, &t6, {}, nullptr, &sd6);

  // The two framings must decode to the same logical artifact, member by
  // member — v6 is an encoding change, not a semantic one.
  EXPECT_EQ(h5.edges(), h6.edges());
  EXPECT_EQ(h5.reinforced(), h6.reinforced());
  EXPECT_EQ(h5.tree_edges(), h6.tree_edges());
  EXPECT_EQ(s5, s6);
  ASSERT_EQ(t5.size(), t6.size());
  for (std::size_t i = 0; i < t5.size(); ++i) {
    EXPECT_EQ(t5[i].offsets, t6[i].offsets);
    EXPECT_EQ(t5[i].edge_pool, t6[i].edge_pool);
  }
  ASSERT_EQ(sd5.size(), sd6.size());
  for (std::size_t i = 0; i < sd5.size(); ++i) {
    EXPECT_EQ(sd5[i].site_offsets, sd6[i].site_offsets);
    EXPECT_EQ(sd5[i].rows, sd6[i].rows);
  }
}

TEST(BinaryIoV6, HeaderLiesAreRejectedWithContext) {
  const Graph g = gen::grid_graph(5, 5);
  const api::BuildResult res = dual_build(g, /*site_dist=*/false);
  const std::string good = v6_bytes(res);

  std::string bad = good;
  flip_byte(&bad, 0);
  expect_rejected(g, bad, {"bad v6 magic", "at byte 0", "header"},
                  "magic flip");

  bad = good;
  bad[8] = 7;  // version field
  expect_rejected(g, bad, {"unsupported structure version 7", "at byte 8"},
                  "version lie");

  bad = good;
  // Byte-swap the endian tag: 04 03 02 01 -> 01 02 03 04 read as LE gives
  // the swapped value the reader singles out with a dedicated message.
  bad[12] = 0x01;
  bad[13] = 0x02;
  bad[14] = 0x03;
  bad[15] = 0x04;
  expect_rejected(g, bad, {"big-endian producer", "at byte 12"},
                  "byte-swapped endianness");

  bad = good;
  bad[16] = 9;  // section count (valid range 2..4)
  expect_rejected(g, bad, {"section count", "canonical range 2..4"},
                  "section count lie");

  bad = good;
  flip_byte(&bad, 40);  // inside the 32 reserved header bytes
  expect_rejected(g, bad, {"nonzero reserved header byte"},
                  "reserved header byte");

  bad = good.substr(0, 40);
  expect_rejected(g, bad, {"truncated", "header"}, "header truncation");
}

TEST(BinaryIoV6, DirectoryLiesAreRejectedWithContext) {
  const Graph g = gen::grid_graph(5, 5);
  const api::BuildResult res = dual_build(g, /*site_dist=*/false);
  const std::string good = v6_bytes(res);

  // Any directory flip must first trip the directory checksum.
  std::string bad = good;
  flip_byte(&bad, 64);  // first byte of the first entry's name
  expect_rejected(g, bad, {"directory checksum mismatch", "directory"},
                  "directory name flip");

  // A wrong-but-checksummed directory: rewrite the first section's offset
  // AND refresh the directory CRC — the alignment rule must still refuse.
  bad = good;
  const std::size_t off_at = 64 + 16;
  bad[off_at] = static_cast<char>(static_cast<unsigned char>(bad[off_at]) +
                                  1);  // offset now unaligned
  // Recompute the directory CRC over [64, 64 + count*40).
  const auto count = static_cast<unsigned char>(bad[16]);
  const std::string dir = bad.substr(64, count * std::size_t{40});
  const std::uint32_t crc = crc32c(dir);
  for (int b = 0; b < 4; ++b) {
    bad[20 + static_cast<std::size_t>(b)] = static_cast<char>(crc >> (8 * b));
  }
  expect_rejected(g, bad, {"canonical layout puts it at"},
                  "unaligned section offset with a fixed-up CRC");
}

TEST(BinaryIoV6, PaddingAndTrailingBytesAreRejected) {
  const Graph g = gen::grid_graph(5, 5);
  const api::BuildResult res = dual_build(g, /*site_dist=*/false);
  const std::string good = v6_bytes(res);

  std::string bad = good + 'x';
  expect_rejected(g, bad, {"trailing data after the artifact", "trailer"},
                  "trailing byte");

  // Corrupt an alignment-gap byte between the directory and the first
  // payload: the canonical form pins every non-payload byte to zero.
  const std::uint64_t first_off = peek_u64(good, 64 + 16);
  const std::uint64_t dir_end =
      64 + static_cast<unsigned char>(good[16]) * std::uint64_t{40};
  ASSERT_GT(first_off, dir_end) << "no padding gap to corrupt";
  bad = good;
  bad[dir_end] = 'x';
  expect_rejected(g, bad, {"nonzero padding byte", "padding"},
                  "padding byte");
}

TEST(BinaryIoV6, SectionCrcAndTruncationAreRejectedStrictly) {
  const Graph g = gen::grid_graph(5, 5);
  const api::BuildResult res = dual_build(g, /*site_dist=*/false);
  const std::string good = v6_bytes(res);
  const std::uint64_t meta_off = peek_u64(good, 64 + 16);

  std::string bad = good;
  flip_byte(&bad, static_cast<std::size_t>(meta_off));
  expect_rejected(g, bad,
                  {"section 'meta' checksum mismatch", "in section 'meta'"},
                  "meta payload flip");

  bad = good.substr(0, good.size() - 1);
  expect_rejected(g, bad, {"truncated", "the file ends at byte"},
                  "one-byte truncation");
}

TEST(BinaryIoV6, TolerantLoadDropsACorruptPairTableSection) {
  const Graph g = gen::grid_graph(5, 5);
  const api::BuildResult res = dual_build(g, /*site_dist=*/true);
  std::string bytes = v6_bytes(res);
  const std::uint64_t pt_off = peek_u64(bytes, 64 + 2 * 40 + 16);
  flip_byte(&bytes, static_cast<std::size_t>(pt_off));

  // Strict: refused.
  expect_rejected(g, bytes, {"pair-tables", "checksum mismatch"},
                  "strict pair-table flip");

  // Tolerant: the damaged section drops into the report; the site-dist
  // section cascades (its slot layout hangs off the pair tables), but the
  // structure itself still loads.
  const io::ReadOptions opts{.tolerate_corruption = true};
  std::vector<DualSiteTable> tables;
  std::vector<DualSiteDistTable> site_dist;
  io::LoadReport report;
  const FtBfsStructure h = io::read_structure_v6(
      g, as_span(bytes), nullptr, &tables, opts, &report, &site_dist);
  EXPECT_EQ(h.edges(), res.structure.edges());
  EXPECT_TRUE(tables.empty());
  EXPECT_TRUE(site_dist.empty());
  // Two notes: the CRC drop itself, then the site-dist section (intact but
  // unusable without the pair tables' site order) dropping after it.
  ASSERT_EQ(report.dropped.size(), 2u);
  EXPECT_EQ(report.dropped[0].section, "pair-tables");
  EXPECT_EQ(report.dropped[1].section, "site-dist");
  for (const io::SectionDrop& d : report.dropped) {
    EXPECT_NE(d.note.find("at byte"), std::string::npos) << d.note;
  }
}

TEST(BinaryIoV6, TruncationIntoADroppableTailDegrades) {
  const Graph g = gen::grid_graph(5, 5);
  const api::BuildResult res = dual_build(g, /*site_dist=*/true);
  const std::string good = v6_bytes(res);
  // Cut into the middle of the pair-tables payload: the v5 lost-sync
  // mirror — that section and everything after it drop together.
  const std::uint64_t pt_off = peek_u64(good, 64 + 2 * 40 + 16);
  const std::string bytes =
      good.substr(0, static_cast<std::size_t>(pt_off) + 8);

  expect_rejected(g, bytes, {"pair-tables", "truncated"},
                  "strict truncated pair tables");

  const io::ReadOptions opts{.tolerate_corruption = true};
  std::vector<DualSiteTable> tables;
  std::vector<DualSiteDistTable> site_dist;
  io::LoadReport report;
  const FtBfsStructure h = io::read_structure_v6(
      g, as_span(bytes), nullptr, &tables, opts, &report, &site_dist);
  EXPECT_EQ(h.edges(), res.structure.edges());
  EXPECT_TRUE(tables.empty());
  EXPECT_TRUE(site_dist.empty());
  // One note only: everything after a truncated section is unreadable, so
  // the later site-dist section drops silently with it (the v5 lost-sync
  // mirror), not as a second entry.
  ASSERT_EQ(report.dropped.size(), 1u);
  EXPECT_EQ(report.dropped[0].section, "pair-tables");
  EXPECT_NE(report.dropped[0].note.find("truncated"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cross-framing parity: v5 text and v6 binary share one assembly step, so
// every damage both framings can express must load the same way in both.

/// What a load delivered, with the dropped sections by name.
struct Loaded {
  std::vector<Vertex> sources;
  std::vector<DualSiteTable> tables;
  std::vector<DualSiteDistTable> site_dist;
  std::vector<std::string> dropped;
};

Loaded load_framed(const Graph& g, const std::string& bytes, bool v6,
                   bool tolerant) {
  Loaded out;
  io::LoadReport report;
  const io::ReadOptions opts{.tolerate_corruption = tolerant};
  std::istringstream is(bytes);
  if (v6) {
    io::read_structure_v6(g, as_span(bytes), &out.sources, &out.tables, opts,
                          &report, &out.site_dist);
  } else {
    io::read_structure(g, is, &out.sources, &out.tables, opts, &report,
                       &out.site_dist);
  }
  for (const io::SectionDrop& d : report.dropped) {
    // The note fsck prints leads with the section it names.
    EXPECT_EQ(d.note.substr(0, d.section.size() + 2), d.section + ": ");
    out.dropped.push_back(d.section);
  }
  return out;
}

void expect_same_tables(const std::vector<DualSiteTable>& a,
                        const std::vector<DualSiteTable>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sites, b[i].sites);
    EXPECT_EQ(a[i].offsets, b[i].offsets);
    EXPECT_EQ(a[i].edge_pool, b[i].edge_pool);
  }
}

void expect_same_site_dist(const std::vector<DualSiteDistTable>& a,
                           const std::vector<DualSiteDistTable>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].site_offsets, b[i].site_offsets);
    EXPECT_EQ(a[i].parent_edge, b[i].parent_edge);
    EXPECT_EQ(a[i].tf_depth, b[i].tf_depth);
    EXPECT_EQ(a[i].row_offsets, b[i].row_offsets);
    EXPECT_EQ(a[i].rows, b[i].rows);
  }
}

std::string hex_crc(std::uint32_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(8) << std::setfill('0') << v;
  return os.str();
}

void put_u32_at(std::string* bytes, std::size_t at, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) {
    (*bytes)[at + static_cast<std::size_t>(b)] =
        static_cast<char>(v >> (8 * b));
  }
}

TEST(LoadParity, V5AndV6LoadEveryDamageAlike) {
  const Graph g = gen::grid_graph(5, 5);
  const api::BuildResult res = dual_build(g, /*site_dist=*/true);
  std::ostringstream os;
  io::write_structure_v5(res.structure, res.sources, res.dual_tables,
                         res.dual_site_dist, os);
  const std::string v5 = os.str();
  const std::string v6 = v6_bytes(res);
  // Payload starts: the byte after a v5 frame line; a v6 directory offset.
  const auto v5_payload = [&](const std::string& name) {
    return v5.find('\n', v5.find("section " + name + " ")) + 1;
  };
  const auto v6_payload = [&](std::size_t slot) {
    return static_cast<std::size_t>(peek_u64(v6, 64 + slot * 40 + 16));
  };

  // Pair tables that pass their checksum but name the wrong source: the
  // decode drops them, and site-dist then has no usable tables to index.
  const std::string src = std::to_string(res.sources[0]);
  const std::string lie = std::to_string(res.sources[0] + 1);
  ASSERT_EQ(src.size(), lie.size());
  std::string v5_lie = v5;
  {
    const std::size_t p = v5_payload("pair-tables");
    const std::size_t len = v5.find("section site-dist ") - p;
    std::string payload = v5.substr(p, len);
    const std::string from = "source-tables " + src + " ";
    payload.replace(payload.find(from), from.size(),
                    "source-tables " + lie + " ");
    const std::size_t hdr = v5.find("section pair-tables ");
    v5_lie.replace(hdr, p + len - hdr,
                   "section pair-tables " + std::to_string(len) + ' ' +
                       hex_crc(crc32c(payload)) + '\n' + payload);
  }
  std::string v6_lie = v6;
  {
    const std::size_t p = v6_payload(2);
    put_u32_at(&v6_lie, p + 8,
               static_cast<std::uint32_t>(res.sources[0] + 1));
    const std::size_t len =
        static_cast<std::size_t>(peek_u64(v6, 64 + 2 * 40 + 24));
    put_u32_at(&v6_lie, 64 + 2 * 40 + 32,
               crc32c(std::string_view(v6_lie).substr(p, len)));
    const std::size_t dir = 4 * 40;  // four sections
    put_u32_at(&v6_lie, 20,
               crc32c(std::string_view(v6_lie).substr(64, dir)));
  }

  struct Damage {
    const char* what;
    std::string v5, v6;
    std::vector<std::string> dropped;
  };
  std::vector<Damage> damages;
  {
    Damage d{"pair-tables CRC flip", v5, v6, {"pair-tables", "site-dist"}};
    flip_byte(&d.v5, v5_payload("pair-tables") + 2);
    flip_byte(&d.v6, v6_payload(2));
    damages.push_back(d);
  }
  damages.push_back({"pair-tables truncation",
                     v5.substr(0, v5_payload("pair-tables") + 8),
                     v6.substr(0, v6_payload(2) + 8),
                     {"pair-tables"}});
  {
    Damage d{"site-dist CRC flip", v5, v6, {"site-dist"}};
    flip_byte(&d.v5, v5_payload("site-dist") + 2);
    flip_byte(&d.v6, v6_payload(3));
    damages.push_back(d);
  }
  damages.push_back({"site-dist over dropped pair tables", v5_lie, v6_lie,
                     {"pair-tables", "site-dist"}});

  for (const Damage& d : damages) {
    SCOPED_TRACE(d.what);
    for (const bool is_v6 : {false, true}) {
      try {
        load_framed(g, is_v6 ? d.v6 : d.v5, is_v6, /*tolerant=*/false);
        ADD_FAILURE() << (is_v6 ? "v6" : "v5") << " strict load accepted";
      } catch (const CheckError& e) {
        // The refusal says where, and names the (first) damaged section.
        const std::string msg = e.what();
        EXPECT_NE(msg.find("(at byte"), std::string::npos) << msg;
        EXPECT_NE(msg.find(d.dropped.front()), std::string::npos) << msg;
      }
    }
    const Loaded a = load_framed(g, d.v5, /*v6=*/false, /*tolerant=*/true);
    const Loaded b = load_framed(g, d.v6, /*v6=*/true, /*tolerant=*/true);
    EXPECT_EQ(a.dropped, d.dropped);
    EXPECT_EQ(b.dropped, d.dropped);
    EXPECT_EQ(a.sources, b.sources);
    expect_same_tables(a.tables, b.tables);
    expect_same_site_dist(a.site_dist, b.site_dist);
    EXPECT_TRUE(a.site_dist.empty());
    // A site-dist drop costs the accelerator, never the pair tables.
    if (d.dropped == std::vector<std::string>{"site-dist"}) {
      expect_same_tables(a.tables, res.dual_tables);
    } else {
      EXPECT_TRUE(a.tables.empty());
    }
  }
}

TEST(BinaryIoV6, MappedArtifactServesZeroCopySections) {
  const Graph g = gen::grid_graph(5, 5);
  const api::BuildResult res = dual_build(g, /*site_dist=*/true);
  const std::string path = "binary_io_test_scratch.v6";
  io::save_structure_v6(res.structure, res.sources, res.dual_tables,
                        res.dual_site_dist, path);
  EXPECT_TRUE(io::is_v6_artifact(path));

  {
    const io::MappedArtifact art = io::MappedArtifact::map(path);
    EXPECT_EQ(art.file_bytes(), v6_bytes(res).size());
    ASSERT_EQ(art.directory().size(), 4u);
    for (const char* name : {"meta", "edges", "pair-tables", "site-dist"}) {
      ASSERT_TRUE(art.has_section(name)) << name;
      const std::span<const std::byte> sec = art.section(name);
      // Zero-copy contract: the view aliases the mapping, no copies.
      EXPECT_GE(sec.data(), art.bytes().data());
      EXPECT_LE(sec.data() + sec.size(),
                art.bytes().data() + art.bytes().size());
    }
    EXPECT_THROW(art.section("nope"), CheckError);

    // The mapped bytes decode to the same artifact the writer produced.
    std::vector<Vertex> sources;
    const FtBfsStructure h =
        io::read_structure_v6(g, art.bytes(), &sources);
    EXPECT_EQ(h.edges(), res.structure.edges());
  }

  // A corrupt file refuses to map (strict directory + CRC audit).
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    flip_byte(&bytes, bytes.size() - 1);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(io::MappedArtifact::map(path), CheckError);
  std::remove(path.c_str());
  EXPECT_FALSE(io::is_v6_artifact(path));
}

TEST(BinaryIoV6, PathLoadAndSessionAutoDetectSpeakV6) {
  const Graph g = gen::grid_graph(5, 5);
  const api::BuildResult res = dual_build(g, /*site_dist=*/true);
  const std::string path = "binary_io_test_scratch2.v6";
  io::save_structure_v6(res.structure, res.sources, res.dual_tables,
                        res.dual_site_dist, path);

  // io::load_structure sniffs the magic and dispatches to the v6 reader.
  std::vector<Vertex> sources;
  std::vector<DualSiteTable> tables;
  const FtBfsStructure h =
      io::load_structure(g, path, &sources, &tables);
  EXPECT_EQ(h.edges(), res.structure.edges());
  EXPECT_EQ(tables.size(), res.dual_tables.size());

  // And the Session facade gets v6 for free through the same path; the
  // reload must serve the same answers as the live build.
  const api::Session live = api::Session::deploy(g, res);
  api::SessionConfig cfg;
  cfg.tolerate_corruption = false;
  const api::Session reloaded = api::Session::load(g, path, cfg);
  EXPECT_TRUE(reloaded.fsck().ok);
  std::vector<api::Query> sweep;
  for (Vertex v = 1; v < g.num_vertices(); v += 3) {
    api::Query q;
    q.v = v;
    q.kind = FaultClass::kVertex;
    q.fault = std::max<Vertex>(1, (v + 7) % g.num_vertices());
    q.kind2 = FaultClass::kEdge;
    q.fault2 = static_cast<std::int32_t>(v % g.num_edges());
    sweep.push_back(q);
  }
  const api::QueryResponse a = live.query(sweep);
  const api::QueryResponse b = reloaded.query(sweep);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(a.results[i].dist, b.results[i].dist) << i;
    EXPECT_EQ(a.results[i].outcome, b.results[i].outcome) << i;
  }
  std::remove(path.c_str());
}

TEST(BinaryIoV6, WriterRefusesInconsistentInputs) {
  const Graph g = gen::grid_graph(5, 5);
  const api::BuildResult res = dual_build(g, /*site_dist=*/true);
  // Site-dist without pair tables is not a valid artifact shape.
  EXPECT_THROW(io::write_structure_v6_bytes(res.structure, res.sources, {},
                                            res.dual_site_dist),
               CheckError);
  // Pair tables on a non-dual structure are not either.
  const Graph eg = gen::random_connected(24, 50, 3);
  api::BuildSpec espec;
  const api::BuildResult edge = api::build(eg, espec);
  EXPECT_THROW(io::write_structure_v6_bytes(edge.structure, edge.sources,
                                            res.dual_tables, {}),
               CheckError);
}

}  // namespace
}  // namespace ftb

// structure_io_v5_test.cpp — the checksummed v5 framing: round-trips for
// every fault model, the CRC-32C primitive itself, and the zero-trust
// rejection matrix (checksum mismatch, length lies, duplicate / unknown /
// out-of-order sections, trailing bytes) — every rejection a CheckError
// carrying byte-offset + section context, and the tolerant-load path that
// drops a damaged pair-table section into the LoadReport instead.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "src/graph/generators.hpp"
#include "src/io/structure_io.hpp"
#include "src/util/crc32c.hpp"

namespace ftb {
namespace {

std::string hex8(std::uint32_t v) {
  static const char* const kDigits = "0123456789abcdef";
  std::string s(8, '0');
  for (int i = 7; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xFu];
    v >>= 4;
  }
  return s;
}

/// A correctly framed v5 section: header line + payload.
std::string frame(const std::string& name, const std::string& payload) {
  return "section " + name + ' ' + std::to_string(payload.size()) + ' ' +
         hex8(crc32c(payload)) + '\n' + payload;
}

// The hand-built artifact the corruption tests carve up: the same
// path-graph structure structure_io_error_test pins for v4.
const char* kMetaPayload = "fault-model dual\nsources 1 0\n";
const char* kEdgesPayload = "4 3 0\n0 1 2\n1 2 2\n2 3 2\n";
const char* kPairPayload =
    "pair-tables 1\nsource-tables 0 1\nsite e 0 1 2 1 2\n";
// A site-dist accelerator for the same artifact: the pair table's one site
// with a two-slot subtree — one slot unreachable, one with a depth-1 walk.
const char* kSiteDistPayload =
    "site-dist 1\nsource-dist 0 1\ndsite 2\ndterm x\ndterm 1 2 1 2\n";

std::string valid_v5() {
  return "ftbfs-structure 5\n" + frame("meta", kMetaPayload) +
         frame("edges", kEdgesPayload) + frame("pair-tables", kPairPayload);
}

std::string valid_v5_with_site_dist() {
  return valid_v5() + frame("site-dist", kSiteDistPayload);
}

/// Asserts strict read rejects `text` with a CheckError whose message
/// carries every substring in `needles` — the offset/section context
/// contract of the io layer.
void expect_rejected(const Graph& g, const std::string& text,
                     const std::vector<std::string>& needles,
                     const std::string& what) {
  std::istringstream is(text);
  try {
    io::read_structure(g, is);
    FAIL() << what << ": accepted\n" << text;
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(msg.find(needle), std::string::npos)
          << what << ": message '" << msg << "' lacks '" << needle << "'";
    }
  }
}

std::string rewrite_v5(const FtBfsStructure& h,
                       const std::vector<Vertex>& sources,
                       const std::vector<DualSiteTable>& tables) {
  std::ostringstream os;
  io::write_structure_v5(h, sources, tables, {}, os);
  return os.str();
}

// ---------------------------------------------------------------------------
// The integrity primitive.

TEST(Crc32c, KnownVectors) {
  // The CRC-32C check value every implementation must reproduce.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0u);
  EXPECT_NE(crc32c("a"), crc32c("b"));
}

TEST(Crc32c, ChainsIncrementally) {
  const std::string a = "fault-model dual\n";
  const std::string b = "sources 1 0\n";
  EXPECT_EQ(crc32c(a + b), crc32c(b, crc32c(a)));
}

// ---------------------------------------------------------------------------
// Round trips.

TEST(StructureIoV5, DualArtifactRoundTrips) {
  const Graph g = gen::grid_graph(5, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::BuildResult res = api::build(g, spec);

  const std::string w1 =
      rewrite_v5(res.structure, res.sources, res.dual_tables);
  EXPECT_EQ(w1.rfind("ftbfs-structure 5\n", 0), 0u);
  EXPECT_NE(w1.find("section meta "), std::string::npos);
  EXPECT_NE(w1.find("section edges "), std::string::npos);
  EXPECT_NE(w1.find("section pair-tables "), std::string::npos);

  std::istringstream is(w1);
  std::vector<Vertex> sources;
  std::vector<DualSiteTable> tables;
  const FtBfsStructure h = io::read_structure(g, is, &sources, &tables);
  EXPECT_EQ(h.fault_class(), FaultClass::kDual);
  EXPECT_EQ(sources, res.sources);
  ASSERT_EQ(tables.size(), res.dual_tables.size());

  // write → read → write is a fixed point; since w1 was written from the
  // build, the parsed structure is the built one.
  EXPECT_EQ(rewrite_v5(h, sources, tables), w1);
}

TEST(StructureIoV5, MultiSourceEdgeArtifactRoundTrips) {
  const Graph g = gen::random_connected(30, 80, 11);
  api::BuildSpec spec;
  spec.sources = {0, 7, 19};
  const api::BuildResult res = api::build(g, spec);

  const std::string w1 = rewrite_v5(res.structure, res.sources, {});
  std::istringstream is(w1);
  std::vector<Vertex> sources;
  std::vector<DualSiteTable> tables;
  const FtBfsStructure h = io::read_structure(g, is, &sources, &tables);
  EXPECT_EQ(h.fault_class(), FaultClass::kEdge);
  EXPECT_EQ(sources, res.sources);
  EXPECT_TRUE(tables.empty());
  EXPECT_EQ(rewrite_v5(h, sources, tables), w1);
}

TEST(StructureIoV5, HandFramedBaselineParses) {
  const Graph g = gen::path_graph(4);
  std::istringstream is(valid_v5());
  std::vector<Vertex> sources;
  std::vector<DualSiteTable> tables;
  const FtBfsStructure h = io::read_structure(g, is, &sources, &tables);
  EXPECT_EQ(h.fault_class(), FaultClass::kDual);
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].subset(0).size(), 2u);
}

// ---------------------------------------------------------------------------
// The rejection matrix. Every corruption is a CheckError with byte-offset
// + section context.

TEST(StructureIoV5, ChecksumMismatchIsRejectedWithContext) {
  const Graph g = gen::path_graph(4);
  // Flip one payload bit under an intact frame: only the CRC catches it.
  std::string bytes = valid_v5();
  const std::size_t p = bytes.find("1 2 2\n");
  ASSERT_NE(p, std::string::npos);
  bytes[p] ^= 0x04;
  expect_rejected(g, bytes, {"checksum mismatch", "(at byte", "edges"},
                  "flipped bit in the edges payload");
}

TEST(StructureIoV5, StructureSectionsAreNeverTolerated) {
  const Graph g = gen::path_graph(4);
  std::string bytes = valid_v5();
  const std::size_t p = bytes.find("1 2 2\n");
  ASSERT_NE(p, std::string::npos);
  bytes[p] ^= 0x04;
  std::istringstream is(bytes);
  io::ReadOptions opts;
  opts.tolerate_corruption = true;  // never covers the structure sections
  io::LoadReport report;
  EXPECT_THROW(io::read_structure(g, is, nullptr, nullptr, opts, &report),
               CheckError);
}

TEST(StructureIoV5, LengthLiesAreRejected) {
  const Graph g = gen::path_graph(4);
  const std::string meta = kMetaPayload;
  // Declared length longer than the payload: the read runs into the next
  // frame and comes up short.
  expect_rejected(g,
                  "ftbfs-structure 5\nsection meta " +
                      std::to_string(meta.size() + 999) + ' ' +
                      hex8(crc32c(meta)) + '\n' + meta,
                  {"truncated", "(at byte", "meta"},
                  "declared length overruns the artifact");
  // Implausible length: rejected before it can size an allocation.
  expect_rejected(
      g, "ftbfs-structure 5\nsection meta 99999999999 00000000\n",
      {"implausible length", "(at byte"}, "absurd declared length");
  // Negative length never parses as a frame.
  expect_rejected(g, "ftbfs-structure 5\nsection meta -4 00000000\n",
                  {"implausible length", "(at byte"}, "negative length");
}

TEST(StructureIoV5, ShortLengthDesyncsTheFrame) {
  const Graph g = gen::path_graph(4);
  // Declared length SHORTER than the real payload: the leftover payload
  // bytes are not a section header, so framing fails loudly.
  const std::string meta = kMetaPayload;
  expect_rejected(g,
                  "ftbfs-structure 5\nsection meta " +
                      std::to_string(meta.size() - 5) + ' ' +
                      hex8(crc32c(std::string_view(meta).substr(
                          0, meta.size() - 5))) +
                      '\n' + meta + frame("edges", kEdgesPayload),
                  {"(at byte", "frame"}, "declared length undershoots");
}

TEST(StructureIoV5, DuplicateAndUnknownSectionsAreRejected) {
  const Graph g = gen::path_graph(4);
  expect_rejected(g,
                  "ftbfs-structure 5\n" + frame("meta", kMetaPayload) +
                      frame("meta", kMetaPayload) +
                      frame("edges", kEdgesPayload),
                  {"duplicate section 'meta'", "(at byte"},
                  "duplicated meta section");
  expect_rejected(g,
                  valid_v5() + frame("shadow", "boo\n"),
                  {"unknown section 'shadow'", "(at byte"},
                  "unknown section name");
}

TEST(StructureIoV5, SectionOrderIsEnforced) {
  const Graph g = gen::path_graph(4);
  expect_rejected(g,
                  "ftbfs-structure 5\n" + frame("edges", kEdgesPayload) +
                      frame("meta", kMetaPayload),
                  {"out of order", "(at byte"}, "edges before meta");
}

TEST(StructureIoV5, MissingSectionsAreRejected) {
  const Graph g = gen::path_graph(4);
  expect_rejected(g, "ftbfs-structure 5\n" + frame("edges", kEdgesPayload),
                  {"missing section 'meta'", "(at byte"}, "no meta");
  expect_rejected(g, "ftbfs-structure 5\n" + frame("meta", kMetaPayload),
                  {"missing section 'edges'", "(at byte"}, "no edges");
  expect_rejected(g, "ftbfs-structure 5\n", {"missing section", "(at byte"},
                  "header only");
}

TEST(StructureIoV5, MalformedFrameHeadersAreRejected) {
  const Graph g = gen::path_graph(4);
  expect_rejected(g, "ftbfs-structure 5\nsection meta\n",
                  {"expected 'section", "(at byte"}, "header cut short");
  expect_rejected(g, "ftbfs-structure 5\nsection meta 29 xyzt\n",
                  {"malformed checksum", "(at byte"}, "non-hex checksum");
  expect_rejected(g,
                  "ftbfs-structure 5\nsection meta 29 0123456789\n",
                  {"malformed checksum", "(at byte"}, "overlong checksum");
}

TEST(StructureIoV5, TrailingBytesAreRejected) {
  const Graph g = gen::path_graph(4);
  // Trailing garbage after the last frame is not a section header.
  expect_rejected(g, valid_v5() + "junk after the artifact\n",
                  {"expected 'section", "(at byte"}, "trailing garbage");
  // Trailing data INSIDE a checksummed payload (frame still valid).
  const std::string fat = std::string(kMetaPayload) + "stowaway 1\n";
  expect_rejected(g,
                  "ftbfs-structure 5\n" + frame("meta", fat) +
                      frame("edges", kEdgesPayload),
                  {"trailing data in section", "(at byte", "meta"},
                  "extra line inside the meta payload");
}

TEST(StructureIoV5, TruncationMidPayloadIsRejected) {
  const Graph g = gen::path_graph(4);
  const std::string whole = valid_v5();
  // Cut inside the edges payload (past meta, before pair-tables).
  const std::size_t cut = whole.find("1 2 2\n");
  ASSERT_NE(cut, std::string::npos);
  expect_rejected(g, whole.substr(0, cut + 2),
                  {"truncated", "(at byte", "edges"},
                  "artifact cut mid-payload");
}

TEST(StructureIoV5, PairTablesRequireTheDualModel) {
  const Graph g = gen::path_graph(4);
  const std::string meta = "fault-model edge\nsources 1 0\n";
  expect_rejected(g,
                  "ftbfs-structure 5\n" + frame("meta", meta) +
                      frame("edges", kEdgesPayload) +
                      frame("pair-tables", kPairPayload),
                  {"non-dual artifact", "(at byte"},
                  "pair tables on an edge-model artifact");
}

// ---------------------------------------------------------------------------
// Tolerant loads: a damaged pair-table section is dropped into the
// LoadReport; the structure sections still load.

TEST(StructureIoV5, TolerantLoadDropsCorruptPairTables) {
  const Graph g = gen::path_graph(4);
  std::string bytes = valid_v5();
  const std::size_t p = bytes.find("site e 0 1");
  ASSERT_NE(p, std::string::npos);
  bytes[p] ^= 0x01;

  // Strict: hard CheckError naming the section.
  expect_rejected(g, bytes,
                  {"pair-tables", "checksum mismatch", "(at byte"},
                  "strict read of a corrupt pair-table section");

  // Tolerant: clean structure, dropped tables, honest report.
  std::istringstream is(bytes);
  io::ReadOptions opts;
  opts.tolerate_corruption = true;
  io::LoadReport report;
  std::vector<Vertex> sources;
  std::vector<DualSiteTable> tables;
  const FtBfsStructure h =
      io::read_structure(g, is, &sources, &tables, opts, &report);
  EXPECT_EQ(h.fault_class(), FaultClass::kDual);
  EXPECT_TRUE(tables.empty());
  ASSERT_EQ(report.dropped.size(), 1u);
  EXPECT_EQ(report.dropped[0].section, "pair-tables");
  EXPECT_NE(report.dropped[0].note.find("checksum mismatch"),
            std::string::npos);
  EXPECT_NE(report.dropped[0].note.find("(at byte"), std::string::npos);
}

TEST(StructureIoV5, TolerantLoadDropsTruncatedPairTables) {
  const Graph g = gen::path_graph(4);
  const std::string whole = valid_v5();
  const std::size_t pt = whole.find("pair-tables 1\n");
  ASSERT_NE(pt, std::string::npos);
  const std::string bytes = whole.substr(0, pt + 4);  // cut mid-payload

  expect_rejected(g, bytes, {"truncated", "(at byte"},
                  "strict read of a truncated pair-table section");

  std::istringstream is(bytes);
  io::ReadOptions opts;
  opts.tolerate_corruption = true;
  io::LoadReport report;
  std::vector<DualSiteTable> tables;
  const FtBfsStructure h =
      io::read_structure(g, is, nullptr, &tables, opts, &report);
  EXPECT_EQ(h.fault_class(), FaultClass::kDual);
  EXPECT_TRUE(tables.empty());
  ASSERT_EQ(report.dropped.size(), 1u);
  EXPECT_EQ(report.dropped[0].section, "pair-tables");
  EXPECT_NE(report.dropped[0].note.find("truncated"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The optional site-dist accelerator section: round-trips, ordering, the
// pair-table dependency, and tolerant drops that cost speed, never answers.

TEST(StructureIoV5, SiteDistSectionRoundTrips) {
  const Graph g = gen::grid_graph(5, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.site_dist_oracle = true;
  const api::BuildResult res = api::build(g, spec);
  ASSERT_EQ(res.dual_site_dist.size(), res.sources.size());

  std::ostringstream os;
  io::write_structure_v5(res.structure, res.sources, res.dual_tables,
                         res.dual_site_dist, os);
  const std::string w1 = os.str();
  EXPECT_NE(w1.find("section site-dist "), std::string::npos);

  std::istringstream is(w1);
  std::vector<Vertex> sources;
  std::vector<DualSiteTable> tables;
  std::vector<DualSiteDistTable> site_dist;
  io::LoadReport report;
  const FtBfsStructure h = io::read_structure(g, is, &sources, &tables, {},
                                              &report, &site_dist);
  EXPECT_TRUE(report.dropped.empty());
  ASSERT_EQ(site_dist.size(), res.dual_site_dist.size());
  for (std::size_t i = 0; i < site_dist.size(); ++i) {
    EXPECT_EQ(site_dist[i].site_offsets, res.dual_site_dist[i].site_offsets);
    EXPECT_EQ(site_dist[i].parent_edge, res.dual_site_dist[i].parent_edge);
    EXPECT_EQ(site_dist[i].tf_depth, res.dual_site_dist[i].tf_depth);
    EXPECT_EQ(site_dist[i].row_offsets, res.dual_site_dist[i].row_offsets);
    EXPECT_EQ(site_dist[i].rows, res.dual_site_dist[i].rows);
  }

  // write → read → write is a fixed point with the accelerator on board.
  std::ostringstream os2;
  io::write_structure_v5(h, sources, tables, site_dist, os2);
  EXPECT_EQ(os2.str(), w1);
}

TEST(StructureIoV5, HandFramedSiteDistParses) {
  const Graph g = gen::path_graph(4);
  std::istringstream is(valid_v5_with_site_dist());
  std::vector<Vertex> sources;
  std::vector<DualSiteTable> tables;
  std::vector<DualSiteDistTable> site_dist;
  io::read_structure(g, is, &sources, &tables, {}, nullptr, &site_dist);
  ASSERT_EQ(site_dist.size(), 1u);
  EXPECT_EQ(site_dist[0].num_slots(), 2u);
  EXPECT_EQ(site_dist[0].parent_edge[0], kInvalidEdge);
  EXPECT_EQ(site_dist[0].tf_depth[1], 1);
  ASSERT_EQ(site_dist[0].rows.size(), 1u);
  EXPECT_EQ(site_dist[0].rows[0], 2);
}

TEST(StructureIoV5, SiteDistMustFollowPairTables) {
  const Graph g = gen::path_graph(4);
  // Accelerator before its pair tables: the slot layout indexes the pair
  // tables' site order, so the framing order is normative.
  expect_rejected(g,
                  "ftbfs-structure 5\n" + frame("meta", kMetaPayload) +
                      frame("edges", kEdgesPayload) +
                      frame("site-dist", kSiteDistPayload) +
                      frame("pair-tables", kPairPayload),
                  {"out of order", "(at byte"}, "site-dist before tables");
  // And without pair tables at all it is equally out of order.
  expect_rejected(g,
                  "ftbfs-structure 5\n" + frame("meta", kMetaPayload) +
                      frame("edges", kEdgesPayload) +
                      frame("site-dist", kSiteDistPayload),
                  {"out of order", "(at byte"}, "site-dist without tables");
}

TEST(StructureIoV5, DroppedPairTablesCascadeToSiteDist) {
  // When the pair tables are tolerated away, the accelerator that indexes
  // their site order is unusable: it must drop too, and the report must
  // carry BOTH losses.
  const Graph g = gen::path_graph(4);
  std::string bytes = valid_v5_with_site_dist();
  const std::size_t p = bytes.find("site e 0 1");
  ASSERT_NE(p, std::string::npos);
  bytes[p] ^= 0x01;

  std::istringstream is(bytes);
  io::ReadOptions opts;
  opts.tolerate_corruption = true;
  io::LoadReport report;
  std::vector<DualSiteTable> tables;
  std::vector<DualSiteDistTable> site_dist;
  const FtBfsStructure h =
      io::read_structure(g, is, nullptr, &tables, opts, &report, &site_dist);
  EXPECT_EQ(h.fault_class(), FaultClass::kDual);
  EXPECT_TRUE(tables.empty());
  EXPECT_TRUE(site_dist.empty());
  ASSERT_EQ(report.dropped.size(), 2u);
  EXPECT_EQ(report.dropped[0].section, "pair-tables");
  EXPECT_EQ(report.dropped[1].section, "site-dist");
  EXPECT_EQ(report.dropped[1].note.substr(0, 11), "site-dist: ");
  EXPECT_NE(report.dropped[1].note.find("without usable pair tables"),
            std::string::npos);
}

TEST(StructureIoV5, SiteDistShapeLiesAreRejected) {
  const Graph g = gen::path_graph(4);
  // Site count disagreeing with the sibling pair tables.
  expect_rejected(
      g,
      valid_v5() + frame("site-dist",
                         "site-dist 1\nsource-dist 0 2\ndsite 1\ndterm x\n"),
      {"expected 'source-dist 0 1'", "(at byte"}, "site-count lie");
  // A parent edge the graph does not have.
  expect_rejected(
      g,
      valid_v5() + frame("site-dist",
                         "site-dist 1\nsource-dist 0 1\ndsite 1\n"
                         "dterm 0 3 1 2\n"),
      {"missing from the graph", "(at byte"}, "phantom parent edge");
  // A row value ≥ n can never be a hop count.
  expect_rejected(
      g,
      valid_v5() + frame("site-dist",
                         "site-dist 1\nsource-dist 0 1\ndsite 1\n"
                         "dterm 1 2 1 99\n"),
      {"bad dterm row", "(at byte"}, "row value out of range");
}

TEST(StructureIoV5, CleanLoadReportsComplete) {
  const Graph g = gen::path_graph(4);
  std::istringstream is(valid_v5());
  io::ReadOptions opts;
  opts.tolerate_corruption = true;
  io::LoadReport report;
  std::vector<DualSiteTable> tables;
  io::read_structure(g, is, nullptr, &tables, opts, &report);
  EXPECT_TRUE(report.dropped.empty());
  EXPECT_EQ(tables.size(), 1u);
}

}  // namespace
}  // namespace ftb

// structure_io_test.cpp — structure round trips and validation.
#include <gtest/gtest.h>

#include <sstream>

#include "src/api/ftbfs_api.hpp"
#include "src/core/dual_fault.hpp"
#include "src/core/verifier.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/graph/generators.hpp"
#include "src/io/structure_io.hpp"

namespace ftb {
namespace {

/// The v5 bytes of a single-source structure.
std::string v5_of(const FtBfsStructure& h) {
  const Vertex anchor[] = {h.source()};
  std::ostringstream os;
  io::write_structure_v5(h, anchor, {}, os);
  return os.str();
}

TEST(StructureIo, RoundTripPreservesThePartition) {
  const Graph g = gen::gnm(40, 170, 3);
  api::BuildSpec spec;
  spec.eps = 0.2;
  const api::BuildResult res = api::build(g, spec);
  std::stringstream ss(v5_of(res.structure));
  const FtBfsStructure back = io::read_structure(g, ss);
  EXPECT_EQ(back.edges(), res.structure.edges());
  EXPECT_EQ(back.reinforced(), res.structure.reinforced());
  EXPECT_EQ(back.tree_edges(), res.structure.tree_edges());
  EXPECT_EQ(back.source(), res.structure.source());
}

TEST(StructureIo, ReloadedStructureStillVerifies) {
  const Graph g = gen::random_connected(50, 150, 5);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  std::stringstream ss(v5_of(h));
  const FtBfsStructure back = io::read_structure(g, ss);
  EXPECT_TRUE(verify_structure(back).ok);
}

TEST(StructureIo, FileRoundTrip) {
  const Graph g = gen::grid_graph(6, 6);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  const std::string path = "/tmp/ftbfs_structure_test.ftbfs";
  const Vertex anchor[] = {h.source()};
  io::save_structure_v5(h, anchor, {}, path);
  const FtBfsStructure back = io::load_structure(g, path);
  EXPECT_EQ(back.edges(), h.edges());
  std::remove(path.c_str());
}

TEST(StructureIo, RejectsWrongGraph) {
  const Graph g = gen::gnm(30, 120, 7);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  std::stringstream ss(v5_of(h));
  const Graph other = gen::path_graph(30);  // same n, different edges
  EXPECT_THROW(io::read_structure(other, ss), CheckError);
}

TEST(StructureIo, RejectsWrongVertexCount) {
  const Graph g = gen::gnm(30, 120, 9);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  std::stringstream ss(v5_of(h));
  const Graph other = gen::gnm(31, 120, 9);
  EXPECT_THROW(io::read_structure(other, ss), CheckError);
}

TEST(StructureIo, FaultModelTagRoundTrips) {
  const Graph g = gen::gnm(36, 150, 11);
  for (const FaultClass model :
       {FaultClass::kVertex, FaultClass::kEither, FaultClass::kEdge}) {
    const FtBfsStructure h =
        api::build(g, {.fault_model = model, .eps = 1.0}).structure;
    ASSERT_EQ(h.fault_class(), model);
    std::stringstream ss(v5_of(h));
    const FtBfsStructure back = io::read_structure(g, ss);
    EXPECT_EQ(back.fault_class(), model);
    EXPECT_EQ(back.edges(), h.edges());
    EXPECT_EQ(back.tree_edges(), h.tree_edges());
  }
}

// ---------------------------------------------------------------------------
// Legacy (v1–v4) read compatibility. The library writes only v5/v6, so
// these fixtures are committed bytes: what earlier releases wrote for the
// builds below (v1 in the grammar of docs/file_formats.md, which no release
// has written since v2). Each must keep loading to exactly the structure,
// sources and pair tables of its build.

const char* const kLegacyV1 =
    "ftbfs-structure 1\n"
    "8 12 0\n"
    "0 1 2\n0 5 2\n0 7 2\n1 3 2\n1 7 0\n2 3 0\n"
    "2 5 2\n3 5 0\n4 5 2\n4 6 0\n5 6 0\n6 7 2\n";

const char* const kLegacyV2 =
    "ftbfs-structure 2\n"
    "fault-model vertex\n"
    "# n |E(H)| source\n"
    "8 11 0\n"
    "# u v flags (1=reinforced, 2=tree)\n"
    "0 1 2\n0 5 2\n0 7 2\n1 3 2\n2 3 0\n2 5 2\n"
    "3 5 0\n4 5 2\n4 6 0\n5 6 0\n6 7 2\n";

const char* const kLegacyV3 =
    "ftbfs-structure 3\n"
    "fault-model edge\n"
    "sources 3 0 4 7\n"
    "# n |E(H)| source\n"
    "9 19 0\n"
    "# u v flags (1=reinforced, 2=tree)\n"
    "0 1 2\n0 2 2\n0 3 2\n1 2 0\n1 4 2\n1 5 0\n1 8 2\n2 4 2\n2 7 2\n"
    "2 8 0\n3 4 2\n3 5 2\n3 6 2\n4 5 2\n4 6 2\n5 6 0\n5 7 2\n6 7 2\n"
    "7 8 2\n";

const char* const kLegacyV4 =
    "ftbfs-structure 4\n"
    "fault-model dual\n"
    "sources 1 0\n"
    "# n |E(H)| source\n"
    "9 12 0\n"
    "# u v flags (1=reinforced, 2=tree)\n"
    "0 1 2\n0 3 2\n1 2 2\n1 4 2\n2 5 0\n3 4 0\n"
    "3 6 2\n4 5 2\n4 7 0\n5 8 0\n6 7 2\n7 8 2\n"
    "# pair tables: site <e u v|v x> <count> <edge indices>\n"
    "pair-tables 1\n"
    "source-tables 0 13\n"
    "site e 0 1 7 2 3 4 5 7 8 9\n"
    "site e 1 2 1 4\n"
    "site e 1 4 3 4 5 7\n"
    "site e 4 5 2 4 9\n"
    "site e 0 3 6 5 6 8 9 10 11\n"
    "site e 3 6 4 8 9 10 11\n"
    "site e 6 7 3 8 9 11\n"
    "site e 7 8 1 9\n"
    "site v 1 5 4 5 7 8 9\n"
    "site v 4 2 4 9\n"
    "site v 3 4 8 9 10 11\n"
    "site v 6 3 8 9 11\n"
    "site v 7 1 9\n";

struct LegacyFixture {
  int version;
  Graph g;
  api::BuildSpec spec;
  const char* bytes;
};

std::vector<LegacyFixture> legacy_fixtures() {
  std::vector<LegacyFixture> out;
  out.push_back({1, gen::random_connected(8, 14, 5), {}, kLegacyV1});
  out.push_back({2, gen::random_connected(8, 14, 5),
                 {.fault_model = FaultClass::kVertex}, kLegacyV2});
  out.push_back({3, gen::random_connected(9, 16, 11),
                 {.sources = {0, 4, 7}}, kLegacyV3});
  out.push_back({4, gen::grid_graph(3, 3),
                 {.fault_model = FaultClass::kDual}, kLegacyV4});
  return out;
}

TEST(StructureIo, LegacyFixturesLoadToTheirBuilds) {
  for (const LegacyFixture& fx : legacy_fixtures()) {
    SCOPED_TRACE("v" + std::to_string(fx.version));
    const api::BuildResult want = api::build(fx.g, fx.spec);
    std::istringstream is(fx.bytes);
    std::vector<Vertex> sources;
    std::vector<DualSiteTable> tables;
    const FtBfsStructure h = io::read_structure(fx.g, is, &sources, &tables);
    EXPECT_EQ(h.fault_class(), fx.spec.fault_model);
    EXPECT_EQ(h.edges(), want.structure.edges());
    EXPECT_EQ(h.reinforced(), want.structure.reinforced());
    EXPECT_EQ(h.tree_edges(), want.structure.tree_edges());
    EXPECT_EQ(sources, want.sources);
    ASSERT_EQ(tables.size(), want.dual_tables.size());
    for (std::size_t i = 0; i < tables.size(); ++i) {
      EXPECT_EQ(tables[i].sites, want.dual_tables[i].sites);
      EXPECT_EQ(tables[i].offsets, want.dual_tables[i].offsets);
      EXPECT_EQ(tables[i].edge_pool, want.dual_tables[i].edge_pool);
    }
    // Legacy read → v5 write → read → v5 write is a fixed point.
    std::ostringstream w1;
    io::write_structure_v5(h, sources, tables, w1);
    std::istringstream again(w1.str());
    std::vector<Vertex> s2;
    std::vector<DualSiteTable> t2;
    const FtBfsStructure h2 = io::read_structure(fx.g, again, &s2, &t2);
    std::ostringstream w2;
    io::write_structure_v5(h2, s2, t2, w2);
    EXPECT_EQ(w1.str(), w2.str());
  }
}

TEST(StructureIo, CorruptV4PairTablesDropUnderTolerance) {
  const Graph g = gen::grid_graph(3, 3);
  std::string bytes = kLegacyV4;
  const std::string site = "site e 1 2 1 4\n";
  bytes.replace(bytes.find(site), site.size(), "site e 1 2 1 99\n");
  {
    std::istringstream is(bytes);
    EXPECT_THROW(io::read_structure(g, is), CheckError);
  }
  std::istringstream is(bytes);
  std::vector<DualSiteTable> tables;
  io::LoadReport report;
  const FtBfsStructure h = io::read_structure(
      g, is, nullptr, &tables, {.tolerate_pair_tables = true}, &report);
  EXPECT_EQ(h.fault_class(), FaultClass::kDual);
  EXPECT_EQ(h.num_edges(), 12);
  EXPECT_TRUE(tables.empty());
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.dropped.size(), 1u);

  // A v4 artifact written without tables ("pair-tables 0") loads with none.
  const std::string v4 = kLegacyV4;
  const std::string bare =
      v4.substr(0, v4.find("pair-tables")) + "pair-tables 0\n";
  std::istringstream bs(bare);
  const FtBfsStructure hb = io::read_structure(g, bs, nullptr, &tables);
  EXPECT_EQ(hb.edges(), h.edges());
  EXPECT_TRUE(tables.empty());
}

TEST(StructureIo, V5SaverReportsShortWrites) {
  const Graph g = gen::path_graph(4);
  const FtBfsStructure h(g, 0, {0, 1, 2}, {}, {0, 1, 2});
  const Vertex anchor[] = {0};
  EXPECT_THROW(io::save_structure_v5(h, anchor, {}, "/dev/full"), CheckError);
}

TEST(StructureIo, Version1FilesLoadAsEdgeModel) {
  // A v1 artifact (no fault-model line) predates the tag and must keep
  // loading — defaulting to the edge model.
  const Graph g = gen::path_graph(4);
  std::stringstream ss(
      "ftbfs-structure 1\n"
      "# legacy artifact\n"
      "4 3 0\n"
      "0 1 2\n"
      "1 2 2\n"
      "2 3 3\n");
  const FtBfsStructure h = io::read_structure(g, ss);
  EXPECT_EQ(h.fault_class(), FaultClass::kEdge);
  EXPECT_EQ(h.num_edges(), 3);
  EXPECT_EQ(h.num_reinforced(), 1);
}

TEST(StructureIo, PreV4DualTagLoadsAsEither) {
  // v2/v3 artifacts used "dual" for the one-failure-of-either-kind union;
  // the tag keeps meaning that there. Only v4 artifacts mean two
  // simultaneous failures by it (docs/file_formats.md).
  const Graph g = gen::path_graph(4);
  std::stringstream ss(
      "ftbfs-structure 2\n"
      "fault-model dual\n"
      "4 3 0\n"
      "0 1 2\n"
      "1 2 2\n"
      "2 3 2\n");
  EXPECT_EQ(io::read_structure(g, ss).fault_class(), FaultClass::kEither);
}

TEST(StructureIo, RejectsBadFaultModelTag) {
  const Graph g = gen::path_graph(4);
  std::stringstream ss(
      "ftbfs-structure 2\n"
      "fault-model meteor\n"
      "4 0 0\n");
  EXPECT_THROW(io::read_structure(g, ss), CheckError);
}

TEST(StructureIo, RejectsMalformedInput) {
  const Graph g = gen::path_graph(4);
  {
    std::stringstream ss("not a structure\n");
    EXPECT_THROW(io::read_structure(g, ss), CheckError);
  }
  {
    std::stringstream ss("ftbfs-structure 9\n4 0 0\n");
    EXPECT_THROW(io::read_structure(g, ss), CheckError);
  }
  {
    std::stringstream ss("ftbfs-structure 1\n4 2 0\n0 1 2\n");  // truncated
    EXPECT_THROW(io::read_structure(g, ss), CheckError);
  }
}

}  // namespace
}  // namespace ftb

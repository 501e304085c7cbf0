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

TEST(StructureIo, RoundTripPreservesThePartition) {
  const Graph g = gen::gnm(40, 170, 3);
  api::BuildSpec spec;
  spec.eps = 0.2;
  const api::BuildResult res = api::build(g, spec);
  std::stringstream ss;
  io::write_structure(res.structure, ss);
  const FtBfsStructure back = io::read_structure(g, ss);
  EXPECT_EQ(back.edges(), res.structure.edges());
  EXPECT_EQ(back.reinforced(), res.structure.reinforced());
  EXPECT_EQ(back.tree_edges(), res.structure.tree_edges());
  EXPECT_EQ(back.source(), res.structure.source());
}

TEST(StructureIo, ReloadedStructureStillVerifies) {
  const Graph g = gen::random_connected(50, 150, 5);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  std::stringstream ss;
  io::write_structure(h, ss);
  const FtBfsStructure back = io::read_structure(g, ss);
  EXPECT_TRUE(verify_structure(back).ok);
}

TEST(StructureIo, FileRoundTrip) {
  const Graph g = gen::grid_graph(6, 6);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  const std::string path = "/tmp/ftbfs_structure_test.ftbfs";
  io::save_structure(h, path);
  const FtBfsStructure back = io::load_structure(g, path);
  EXPECT_EQ(back.edges(), h.edges());
  std::remove(path.c_str());
}

TEST(StructureIo, RejectsWrongGraph) {
  const Graph g = gen::gnm(30, 120, 7);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  std::stringstream ss;
  io::write_structure(h, ss);
  const Graph other = gen::path_graph(30);  // same n, different edges
  EXPECT_THROW(io::read_structure(other, ss), CheckError);
}

TEST(StructureIo, RejectsWrongVertexCount) {
  const Graph g = gen::gnm(30, 120, 9);
  const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
  std::stringstream ss;
  io::write_structure(h, ss);
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
    std::stringstream ss;
    io::write_structure(h, ss);
    const FtBfsStructure back = io::read_structure(g, ss);
    EXPECT_EQ(back.fault_class(), model);
    EXPECT_EQ(back.edges(), h.edges());
    EXPECT_EQ(back.tree_edges(), h.tree_edges());
  }
}

TEST(StructureIo, EveryDocumentedVersionRoundTrips) {
  // docs/file_formats.md names versions 1–4; v1 is read-only (covered by
  // Version1FilesLoadAsEdgeModel below), v2–v4 must round-trip through
  // write_structure/read_structure exactly.
  const Graph g = gen::random_connected(30, 70, 21);
  {  // v2 — single-source artifact.
    const FtBfsStructure h = api::build(g, {.eps = 1.0}).structure;
    std::stringstream ss;
    io::write_structure(h, ss);
    EXPECT_EQ(ss.str().rfind("ftbfs-structure 2\n", 0), 0u);
    const FtBfsStructure back = io::read_structure(g, ss);
    EXPECT_EQ(back.edges(), h.edges());
    EXPECT_EQ(back.tree_edges(), h.tree_edges());
  }
  {  // v3 — multi-source artifact keeps its source set.
    api::BuildSpec spec;
    spec.eps = 0.4;
    spec.sources = {0, 9};
    const api::BuildResult ms = api::build(g, spec);
    std::stringstream ss;
    io::write_structure(ms.structure, ms.sources, ss);
    EXPECT_EQ(ss.str().rfind("ftbfs-structure 3\n", 0), 0u);
    std::vector<Vertex> sources;
    const FtBfsStructure back = io::read_structure(g, ss, &sources);
    EXPECT_EQ(sources, ms.sources);
    EXPECT_EQ(back.edges(), ms.structure.edges());
    EXPECT_EQ(back.reinforced(), ms.structure.reinforced());
  }
  {  // v4 — dual-failure artifact keeps its pair tables verbatim.
    const api::BuildResult r =
        api::build(g, {.fault_model = FaultClass::kDual});
    std::stringstream ss;
    io::write_structure(r.structure, r.sources, r.dual_tables, ss);
    EXPECT_EQ(ss.str().rfind("ftbfs-structure 4\n", 0), 0u);
    std::vector<Vertex> sources;
    std::vector<DualSiteTable> tables;
    const FtBfsStructure back = io::read_structure(g, ss, &sources, &tables);
    EXPECT_EQ(back.fault_class(), FaultClass::kDual);
    EXPECT_EQ(back.edges(), r.structure.edges());
    ASSERT_EQ(tables.size(), 1u);
    EXPECT_EQ(tables[0].sites, r.dual_tables[0].sites);
    EXPECT_EQ(tables[0].offsets, r.dual_tables[0].offsets);
    EXPECT_EQ(tables[0].edge_pool, r.dual_tables[0].edge_pool);
  }
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

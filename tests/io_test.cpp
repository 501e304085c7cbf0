// io_test.cpp — edge-list round trips and DOT export.
#include <gtest/gtest.h>

#include <sstream>

#include "src/core/ftbfs.hpp"
#include "src/graph/generators.hpp"
#include "src/io/dot.hpp"
#include "src/io/edge_list.hpp"

namespace ftb {
namespace {

bool graphs_equal(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  if (a.num_edges() != b.num_edges()) return false;
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    if (a.edge(e) != b.edge(e)) return false;
  }
  return true;
}

TEST(EdgeList, RoundTrip) {
  const Graph g = gen::gnm(30, 90, 4);
  std::stringstream ss;
  io::write_edge_list(g, ss);
  const Graph back = io::read_edge_list(ss);
  EXPECT_TRUE(graphs_equal(g, back));
}

TEST(EdgeList, RoundTripEmptyAndTree) {
  for (const Graph& g : {gen::path_graph(1), gen::binary_tree(15)}) {
    std::stringstream ss;
    io::write_edge_list(g, ss);
    const Graph back = io::read_edge_list(ss);
    EXPECT_TRUE(graphs_equal(g, back));
  }
}

TEST(EdgeList, ParsesCommentsAndBlankLines) {
  std::stringstream ss;
  ss << "# a comment\n\n  \n3 2\n# another\n0 1\n\n1 2\n";
  const Graph g = io::read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(EdgeList, MalformedInputThrows) {
  {
    std::stringstream ss;  // no header
    ss << "# nothing\n";
    EXPECT_THROW(io::read_edge_list(ss), CheckError);
  }
  {
    std::stringstream ss;  // too few edges
    ss << "4 3\n0 1\n";
    EXPECT_THROW(io::read_edge_list(ss), CheckError);
  }
  {
    std::stringstream ss;  // out-of-range endpoint
    ss << "2 1\n0 5\n";
    EXPECT_THROW(io::read_edge_list(ss), CheckError);
  }
}

TEST(EdgeList, FileRoundTrip) {
  const Graph g = gen::grid_graph(4, 4);
  const std::string path = "/tmp/ftbfs_io_test.edges";
  io::save_edge_list(g, path);
  const Graph back = io::load_edge_list(path);
  EXPECT_TRUE(graphs_equal(g, back));
  std::remove(path.c_str());
}

TEST(Dot, PlainGraphOutput) {
  const Graph g = gen::path_graph(3);
  std::stringstream ss;
  io::write_dot(g, ss, "P3");
  const std::string s = ss.str();
  EXPECT_NE(s.find("graph P3 {"), std::string::npos);
  EXPECT_NE(s.find("0 -- 1"), std::string::npos);
  EXPECT_NE(s.find("1 -- 2"), std::string::npos);
}

TEST(Dot, StructureOutputMarksEdgeClasses) {
  const Graph g = gen::intro_example(8);
  // Build a structure with a reinforced bridge by hand: T0 + reinforced (0,1).
  const EdgeWeights w = EdgeWeights::uniform_random(g, 2);
  const BfsTree tree(g, w, 0);
  const EdgeId bridge = g.find_edge(0, 1);
  FtBfsStructure h(g, 0, tree.tree_edges(), {bridge}, tree.tree_edges());
  std::stringstream ss;
  io::write_dot(h, ss);
  const std::string s = ss.str();
  EXPECT_NE(s.find("color=red"), std::string::npos);    // reinforced
  EXPECT_NE(s.find("style=dotted"), std::string::npos); // outside H
  EXPECT_NE(s.find("fillcolor=gold"), std::string::npos);  // source
}

TEST(Savers, ShortWritesThrow) {
  // /dev/full opens fine and fails every write, so a saver that returns
  // without flushing and checking its stream would report success.
  const Graph g = gen::path_graph(4);
  const FtBfsStructure h(g, 0, {0, 1, 2}, {}, {0, 1, 2});
  EXPECT_THROW(io::save_edge_list(g, "/dev/full"), CheckError);
  EXPECT_THROW(io::save_dot(g, "/dev/full"), CheckError);
  EXPECT_THROW(io::save_dot(h, "/dev/full"), CheckError);
}

}  // namespace
}  // namespace ftb

// test_util.hpp — shared fixtures for the property sweeps.
//
// small_families() enumerates a diverse set of (graph, source) instances:
// every structured family, several random families across densities, the
// paper's intro example and both adversarial lower-bound families. The
// heavy property tests (full FT verification) run on all of them.
#pragma once

#include <string>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/lower_bound.hpp"

namespace ftb::test {

struct FamilyCase {
  std::string name;
  Graph graph;
  Vertex source;
};

/// The canonical sweep set. Sizes are kept small enough that exhaustive
/// O(m · n · m) brute-force checks stay fast.
inline std::vector<FamilyCase> small_families(std::uint64_t seed = 1) {
  std::vector<FamilyCase> out;
  out.push_back({"path20", gen::path_graph(20), 0});
  out.push_back({"path20_mid", gen::path_graph(20), 10});
  out.push_back({"cycle21", gen::cycle_graph(21), 0});
  out.push_back({"star24", gen::star_graph(24), 0});
  out.push_back({"star24_leaf", gen::star_graph(24), 5});
  out.push_back({"complete16", gen::complete_graph(16), 3});
  out.push_back({"bipartite6x9", gen::complete_bipartite(6, 9), 0});
  out.push_back({"grid6x7", gen::grid_graph(6, 7), 0});
  out.push_back({"grid6x7_center", gen::grid_graph(6, 7), 22});
  out.push_back({"btree31", gen::binary_tree(31), 0});
  out.push_back({"caterpillar8x3", gen::caterpillar(8, 3), 0});
  out.push_back({"er40_dense", gen::erdos_renyi(40, 0.15, seed), 0});
  out.push_back({"er60_sparse", gen::erdos_renyi(60, 0.08, seed + 1), 0});
  out.push_back({"gnm50", gen::gnm(50, 200, seed + 2), 0});
  out.push_back({"conn64", gen::random_connected(64, 100, seed + 3), 0});
  out.push_back({"pa50", gen::preferential_attachment(50, 3, seed + 4), 0});
  out.push_back({"intro24", gen::intro_example(24), 0});
  {
    auto lb = lb::build_single_source(220, 0.33);
    out.push_back({"lb220_e33", std::move(lb.graph), lb.source});
  }
  {
    auto lb = lb::build_single_source(300, 0.45);
    out.push_back({"lb300_e45", std::move(lb.graph), lb.source});
  }
  return out;
}

/// A smaller, denser subset for the most expensive brute-force tests.
inline std::vector<FamilyCase> tiny_families(std::uint64_t seed = 7) {
  std::vector<FamilyCase> out;
  out.push_back({"path10", gen::path_graph(10), 0});
  out.push_back({"cycle9", gen::cycle_graph(9), 0});
  out.push_back({"grid4x4", gen::grid_graph(4, 4), 0});
  out.push_back({"complete8", gen::complete_graph(8), 0});
  out.push_back({"er20", gen::erdos_renyi(20, 0.25, seed), 0});
  out.push_back({"er24", gen::erdos_renyi(24, 0.2, seed + 1), 0});
  out.push_back({"conn20", gen::random_connected(20, 25, seed + 2), 0});
  out.push_back({"intro12", gen::intro_example(12), 0});
  return out;
}

/// The referee pins (verifier_test, sim_test) build on this graph
/// (n = 28, m = 79) under `model` from σ ∈ {1, 3} sources at ε = 0.3.
inline Graph pin_graph() { return gen::random_connected(28, 60, 17); }
inline api::BuildResult pin_build(const Graph& g, FaultClass model,
                                  std::size_t sigma) {
  api::BuildSpec spec;
  spec.fault_model = model;
  spec.eps = 0.3;
  spec.sources = sigma == 1 ? std::vector<Vertex>{0}
                            : std::vector<Vertex>{0, 9, 19};
  return api::build(g, spec);
}

/// `h` without edge `victim` (kInvalidEdge keeps `h` as built).
inline FtBfsStructure without_edge(const FtBfsStructure& h, EdgeId victim) {
  std::vector<EdgeId> edges;
  for (const EdgeId e : h.edges()) {
    if (e != victim) edges.push_back(e);
  }
  return FtBfsStructure(h.graph(), h.source(), std::move(edges),
                        h.reinforced(), h.tree_edges(), h.fault_class());
}

}  // namespace ftb::test

#include "src/core/structure.hpp"

#include <algorithm>
#include <sstream>

#include "src/graph/bfs_kernel.hpp"
#include "src/graph/canonical_bfs.hpp"

namespace ftb {

namespace {
void sort_unique(std::vector<EdgeId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}
}  // namespace

const char* to_string(FaultClass fc) {
  switch (fc) {
    case FaultClass::kEdge:
      return "edge";
    case FaultClass::kVertex:
      return "vertex";
    case FaultClass::kDual:
      return "dual";
    case FaultClass::kEither:
      return "either";
  }
  return "edge";
}

FaultClass parse_fault_class(const std::string& tag) {
  if (tag == "edge") return FaultClass::kEdge;
  if (tag == "vertex") return FaultClass::kVertex;
  if (tag == "dual") return FaultClass::kDual;
  if (tag == "either") return FaultClass::kEither;
  FTB_CHECK_MSG(false, "unknown fault model '"
                           << tag << "' (edge|vertex|either|dual)");
  return FaultClass::kEdge;
}

FtBfsStructure::FtBfsStructure(const Graph& g, Vertex source,
                               std::vector<EdgeId> edges,
                               std::vector<EdgeId> reinforced,
                               std::vector<EdgeId> tree_edges,
                               FaultClass fault_class)
    : g_(&g),
      source_(source),
      fault_class_(fault_class),
      edges_(std::move(edges)),
      reinforced_(std::move(reinforced)),
      tree_edges_(std::move(tree_edges)) {
  FTB_CHECK(g.valid_vertex(source));
  sort_unique(edges_);
  sort_unique(reinforced_);
  sort_unique(tree_edges_);

  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  in_h_.assign(m, 0);
  is_reinf_.assign(m, 0);
  out_of_h_.assign(m, 1);
  for (const EdgeId e : edges_) {
    FTB_CHECK_MSG(g.valid_edge(e), "edge id " << e << " out of range");
    in_h_[static_cast<std::size_t>(e)] = 1;
    out_of_h_[static_cast<std::size_t>(e)] = 0;
  }
  for (const EdgeId e : reinforced_) {
    FTB_CHECK_MSG(contains(e), "reinforced edge " << e << " not in H");
    is_reinf_[static_cast<std::size_t>(e)] = 1;
  }
  for (const EdgeId e : tree_edges_) {
    FTB_CHECK_MSG(contains(e), "tree edge " << e << " not in H");
  }
}

std::vector<std::int32_t> FtBfsStructure::distances_avoiding(
    EdgeId failed) const {
  BfsBans bans;
  bans.banned_edge_mask = &out_of_h_;
  bans.banned_edge = failed;
  return plain_bfs(*g_, source_, bans).dist;
}

std::string FtBfsStructure::summary() const {
  std::ostringstream os;
  os << "FtBfs(n=" << g_->num_vertices() << ", |H|=" << num_edges()
     << ", b=" << num_backup() << ", r=" << num_reinforced();
  if (fault_class_ != FaultClass::kEdge) {
    os << ", model=" << to_string(fault_class_);
  }
  os << ")";
  return os.str();
}

}  // namespace ftb

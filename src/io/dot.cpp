#include "src/io/dot.hpp"

#include <fstream>
#include <ostream>

#include "src/core/structure.hpp"

namespace ftb::io {

void write_dot(const Graph& g, std::ostream& os, const std::string& name) {
  os << "graph " << name << " {\n  node [shape=circle, fontsize=10];\n";
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    os << "  " << u << " -- " << v << ";\n";
  }
  os << "}\n";
}

void write_dot(const FtBfsStructure& h, std::ostream& os,
               const std::string& name) {
  const Graph& g = h.graph();
  os << "graph " << name << " {\n  node [shape=circle, fontsize=10];\n";
  os << "  " << h.source() << " [style=filled, fillcolor=gold];\n";
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    os << "  " << u << " -- " << v;
    if (!h.contains(e)) {
      os << " [style=dotted, color=gray]";
    } else if (h.is_reinforced(e)) {
      os << " [style=bold, color=red, penwidth=2.0]";
    } else {
      // backup edge; tree edges of T0 drawn solid, extra backups dashed
      bool is_tree = false;
      for (const EdgeId t : h.tree_edges()) {
        if (t == e) {
          is_tree = true;
          break;
        }
      }
      os << (is_tree ? " [style=solid]" : " [style=dashed, color=blue]");
    }
    os << ";\n";
  }
  os << "}\n";
}

void save_dot(const Graph& g, const std::string& path) {
  std::ofstream f(path);
  FTB_CHECK_MSG(f.good(), "cannot open " << path << " for writing");
  write_dot(g, f);
  f.flush();
  FTB_CHECK_MSG(f.good(), "short write to " << path);
}

void save_dot(const FtBfsStructure& h, const std::string& path) {
  std::ofstream f(path);
  FTB_CHECK_MSG(f.good(), "cannot open " << path << " for writing");
  write_dot(h, f);
  f.flush();
  FTB_CHECK_MSG(f.good(), "short write to " << path);
}

}  // namespace ftb::io

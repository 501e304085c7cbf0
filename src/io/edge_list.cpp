#include "src/io/edge_list.hpp"

#include <fstream>
#include <limits>
#include <sstream>

namespace ftb::io {

void write_edge_list(const Graph& g, std::ostream& os) {
  os << "# ftbfs edge list\n";
  os << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    os << u << ' ' << v << '\n';
  }
}

void save_edge_list(const Graph& g, const std::string& path) {
  std::ofstream f(path);
  FTB_CHECK_MSG(f.good(), "cannot open " << path << " for writing");
  write_edge_list(g, f);
  f.flush();
  FTB_CHECK_MSG(f.good(), "short write to " << path);
}

Graph read_edge_list(std::istream& is) {
  // Byte-offset tracking, same error-context contract as the structure_io
  // readers: every rejection says where the input is malformed. Semantics
  // match the binary ingestion path bit-for-bit — self loops are rejected,
  // duplicate edges dedup canonically (GraphBuilder coalesces at build(),
  // which is exactly the canonical order the binary writer emits).
  std::int64_t offset = 0, line_offset = 0;
  std::string section = "header";
  auto next_data_line = [&]() -> std::string {
    std::string line;
    while (std::getline(is, line)) {
      line_offset = offset;
      offset += static_cast<std::int64_t>(line.size());
      if (!is.eof()) ++offset;  // getline consumed the '\n'
      const auto pos = line.find_first_not_of(" \t\r");
      if (pos == std::string::npos || line[pos] == '#') continue;
      return line;
    }
    line_offset = offset;
    return {};
  };
  auto ctx = [&]() -> std::string {
    std::ostringstream os;
    os << " (at byte " << line_offset << " in section '" << section << "')";
    return os.str();
  };

  const std::string header = next_data_line();
  FTB_CHECK_MSG(!header.empty(), "edge list: missing 'n m' header" << ctx());
  std::istringstream hs(header);
  long long n = -1, m = -1;
  hs >> n >> m;
  FTB_CHECK_MSG(n >= 0 && m >= 0,
                "edge list: bad header '" << header << "'" << ctx());
  FTB_CHECK_MSG(n <= static_cast<long long>(
                         std::numeric_limits<Vertex>::max()),
                "edge list: vertex count " << n << " overflows" << ctx());

  GraphBuilder b(static_cast<Vertex>(n));
  section = "edges";
  for (long long i = 0; i < m; ++i) {
    const std::string el = next_data_line();
    FTB_CHECK_MSG(!el.empty(),
                  "edge list: expected " << m << " edges, got " << i << ctx());
    std::istringstream es(el);
    long long u = -1, v = -1;
    es >> u >> v;
    FTB_CHECK_MSG(es && u >= 0 && v >= 0,
                  "edge list: bad edge line '" << el << "'" << ctx());
    FTB_CHECK_MSG(u < n && v < n, "edge list: edge (" << u << "," << v
                                                      << ") out of range n="
                                                      << n << ctx());
    FTB_CHECK_MSG(u != v,
                  "edge list: self loop at vertex " << u << ctx());
    b.add_edge(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }
  section = "trailer";
  const std::string extra = next_data_line();
  FTB_CHECK_MSG(extra.empty(), "edge list: trailing data after the " << m
                                   << " declared edges: '" << extra << "'"
                                   << ctx());
  return b.build();
}

Graph load_edge_list(const std::string& path) {
  std::ifstream f(path);
  FTB_CHECK_MSG(f.good(), "cannot open " << path);
  return read_edge_list(f);
}

}  // namespace ftb::io

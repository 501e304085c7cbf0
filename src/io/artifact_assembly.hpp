// artifact_assembly.hpp — the framing-independent half of loading a
// structure artifact (not a public header).
//
// Each framing keeps its own frame walk and section grammar: the v1–v5
// text readers parse lines (structure_io.cpp), the v6 reader decodes
// fixed-width arrays (binary_io.cpp). Everything that does not depend on
// the framing lives here, once: which sections a tolerant load may drop,
// the cross-section rules (pair tables only on dual artifacts, site-dist
// only over usable pair tables), the decode-or-drop-and-note step, the
// hand-off to the caller's out-parameters, and the helpers both framings
// share ("(at byte N in section 'S')" context, checksum hex, the
// pair-table edge index space, the section length ceiling).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/io/structure_io.hpp"

namespace ftb::io::detail {

/// Hard ceiling on any declared section payload (and on the element
/// counts a v6 section derives from its own fields): a length lie in a
/// corrupt artifact can never size an allocation past this.
inline constexpr std::uint64_t kMaxSectionBytes = std::uint64_t{1} << 30;

/// " (at byte N in section 'S')" — the context every io-layer CheckError
/// carries.
inline std::string context_at(std::int64_t off, std::string_view section) {
  std::ostringstream os;
  os << " (at byte " << off << " in section '" << section << "')";
  return os.str();
}

/// Runs fn, annotating any context-free CheckError it throws with the
/// reader's (a LineReader's or a Cursor's) byte offset + section name.
template <class Reader, class Fn>
auto with_context(const Reader& rd, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const CheckError& e) {
    std::string what = e.what();
    if (what.find("(at byte ") == std::string::npos) what += rd.context();
    throw CheckError(what);
  }
}

inline std::string crc_hex8(std::uint32_t v) {
  static const char* const kDigits = "0123456789abcdef";
  std::string s(8, '0');
  for (int i = 7; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xFu];
    v >>= 4;
  }
  return s;
}

/// Position of edge e in the (ascending) structure edge list — the index
/// space every framing serializes the pair tables in.
inline std::int64_t edge_index_in(const std::vector<EdgeId>& edges,
                                  EdgeId e) {
  const auto it = std::lower_bound(edges.begin(), edges.end(), e);
  FTB_CHECK_MSG(it != edges.end() && *it == e,
                "pair-table edge " << e << " is not a structure edge");
  return it - edges.begin();
}

inline void note_drop(LoadReport* report, const std::string& section,
                      const std::string& why) {
  if (report == nullptr) return;
  report->dropped.push_back({section, section + ": " + why});
}

/// The droppable rule: only the two rebuildable sections, and only under
/// a tolerant load. meta and edges are never dropped.
inline bool droppable(std::string_view section, const ReadOptions& opts) {
  return opts.tolerate_corruption &&
         (section == "pair-tables" || section == "site-dist");
}

/// A section that failed its frame check (truncated, or a checksum
/// mismatch): throws "section 'S' <detail><where>" unless the section is
/// droppable, in which case the drop is noted as "S: <problem><where>".
inline void drop_or_throw(const std::string& section, const char* problem,
                          const std::string& detail, const std::string& where,
                          const ReadOptions& opts, LoadReport* report) {
  if (!droppable(section, opts)) {
    throw CheckError("section '" + section + "' " + detail + where);
  }
  note_drop(report, section, problem + where);
}

/// The decode-or-drop step every rebuildable section goes through: runs
/// `decode` under `rd`'s context; if it throws and the section is
/// droppable, notes "<section>: <what>" and returns nullopt.
template <class Reader, class Decode>
auto decode_or_drop(const std::string& section, const Reader& rd,
                    const ReadOptions& opts, LoadReport* report,
                    Decode&& decode) -> std::optional<decltype(decode())> {
  try {
    return with_context(rd, decode);
  } catch (const CheckError& e) {
    if (!droppable(section, opts)) throw;
    note_drop(report, section, e.what());
    return std::nullopt;
  }
}

/// The edges section as a framing decoded it.
struct EdgeSection {
  Vertex source = 0;
  std::vector<EdgeId> edges, reinforced, tree_edges;
};

/// The caller's out-parameters of one load (each may be null).
struct LoadOut {
  std::vector<Vertex>* sources = nullptr;
  std::vector<DualSiteTable>* tables = nullptr;
  LoadReport* report = nullptr;
  std::vector<DualSiteDistTable>* site_dist = nullptr;
};

/// Hands a finished load to the caller and builds H.
inline FtBfsStructure hand_off(const Graph& g, FaultClass fault_class,
                               std::vector<Vertex> sources, EdgeSection es,
                               std::vector<DualSiteTable> tables,
                               std::vector<DualSiteDistTable> site_dist,
                               const LoadOut& out) {
  if (out.sources != nullptr) *out.sources = std::move(sources);
  if (out.tables != nullptr) *out.tables = std::move(tables);
  if (out.site_dist != nullptr) *out.site_dist = std::move(site_dist);
  return FtBfsStructure(g, es.source, std::move(es.edges),
                        std::move(es.reinforced), std::move(es.tree_edges),
                        fault_class);
}

/// The assembly step of a v5/v6 load, after the framing decoded meta and
/// edges. `pair_tables` / `site_dist` read the rebuildable sections the
/// frame walk found intact (null when absent or already dropped);
/// `decode_tables(g, rd, sources, edges)` and `decode_site_dist(g, rd,
/// sources, tables)` are the framing's payload grammar, trailing-data
/// check included.
template <class Reader, class DecodeTables, class DecodeSiteDist>
FtBfsStructure assemble(const Graph& g, FaultClass fault_class,
                        std::vector<Vertex> sources, EdgeSection es,
                        Reader* pair_tables, DecodeTables&& decode_tables,
                        Reader* site_dist, DecodeSiteDist&& decode_site_dist,
                        const ReadOptions& opts, const LoadOut& out) {
  const bool dual = fault_class == FaultClass::kDual;
  std::vector<DualSiteTable> tables;
  if (pair_tables != nullptr) {
    const auto decode = [&] {
      FTB_CHECK_MSG(dual, "pair-tables section on a non-dual artifact");
      return decode_tables(g, *pair_tables, sources, es.edges);
    };
    auto t =
        decode_or_drop("pair-tables", *pair_tables, opts, out.report, decode);
    if (t) tables = std::move(*t);
  }
  std::vector<DualSiteDistTable> sdist;
  if (site_dist != nullptr) {
    auto t = decode_or_drop("site-dist", *site_dist, opts, out.report, [&] {
      FTB_CHECK_MSG(dual, "site-dist section on a non-dual artifact");
      // The slot layout indexes the pair tables' site order, so the
      // section is unusable without them (missing or dropped alike).
      FTB_CHECK_MSG(!tables.empty(),
                    "site-dist section without usable pair tables");
      return decode_site_dist(g, *site_dist, sources, tables);
    });
    if (t) sdist = std::move(*t);
  }
  return hand_off(g, fault_class, std::move(sources), std::move(es),
                  std::move(tables), std::move(sdist), out);
}

}  // namespace ftb::io::detail

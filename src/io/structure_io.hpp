// structure_io.hpp — (de)serialization of FT-BFS structures.
//
// A deployment artifact: the operator builds H once, ships the purchase
// plan (which links to buy as backup, which to reinforce, and which
// failure model the plan insures against), and reloads it later against
// the same network. The byte-level grammar of every version (v1…v5) is
// specified normatively in docs/file_formats.md; the shape at a glance
// (text, '#' comments):
//
//   ftbfs-structure 4
//   fault-model <edge|vertex|either|dual>
//   sources <k> <s_0> ... <s_{k-1}>   # v3: multi-source only; v4: always
//   <n> <|E(H)|> <source>
//   <u> <v> <flags>        # one line per structure edge;
//                          # flags bit 0 = reinforced, bit 1 = tree edge
//   pair-tables <k>        # v4 only: per-source dual first-failure tables
//   source-tables <s> <num_sites>
//   site e <u> <v> <cnt> <edge-index...>   # indices into the edge section
//   site v <x> <cnt> <edge-index...>
//
// Version 5 wraps the same content in *framed sections* for zero-trust
// loading: each section declares its payload length in bytes and its
// CRC-32C, so truncation, bit flips, and length lies are caught before a
// single untrusted number reaches the parser:
//
//   ftbfs-structure 5
//   section meta <bytes> <crc32c-hex>
//   <payload: fault-model + sources lines>
//   section edges <bytes> <crc32c-hex>
//   <payload: header + edge lines>
//   section pair-tables <bytes> <crc32c-hex>    # dual artifacts only
//   <payload: the v4 pair-table block>
//   section site-dist <bytes> <crc32c-hex>      # optional accelerator
//   <payload: per-site replacement-distance rows; see file_formats.md>
//
// Version history: v1 has no fault-model line (edge model by definition);
// v2 added the fault-model tag; v3 added the sources line for FT-MBFS
// artifacts; v4 carries the dual-failure model and its pair tables; v5
// adds the checksummed framing. The tag "dual" in v2/v3 artifacts denotes
// what is now called the "either" union (one failure of either kind) and
// loads as FaultClass::kEither; only v4+ artifacts mean two simultaneous
// failures by it. The library writes v5 (text) and v6 (binary_io.hpp);
// v1–v4 are read-only, so files produced by earlier releases still load.
// Loading validates against the given graph (endpoints must exist as
// edges) and reconstructs the exact edge partition + fault tag + source
// set (+ pair tables for v4/v5).
//
// Zero-trust contract (all versions): every count and length field read
// from the artifact is bounds-checked against the graph before it sizes an
// allocation or a loop; malformed input — truncation, corruption, length
// lies, duplicate or unknown sections, trailing bytes after the artifact —
// throws CheckError whose message carries the byte offset and section
// name, never a crash, hang, or silent acceptance.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "src/core/dual_fault.hpp"
#include "src/core/structure.hpp"

namespace ftb::io {

/// The checksummed v5 framing: the v4 content (fault tag, source set,
/// edges, pair tables) wrapped in `section <name> <bytes> <crc32c>` frames
/// (meta + edges, plus pair-tables for dual structures with non-empty
/// tables). `sources` is the FT-MBFS source set, sources.front() ==
/// h.source(); `pair_tables` is aligned with it (pass empty to omit the
/// section — loaders rebuild the tables). Deterministic: the same
/// structure always produces the same bytes. The savers flush and throw
/// CheckError on a short write.
void write_structure_v5(const FtBfsStructure& h,
                        std::span<const Vertex> sources,
                        std::span<const DualSiteTable> pair_tables,
                        std::ostream& os);
void save_structure_v5(const FtBfsStructure& h,
                       std::span<const Vertex> sources,
                       std::span<const DualSiteTable> pair_tables,
                       const std::string& path);

/// v5 with the optional site-local distance oracle (docs/file_formats.md
/// §site-dist): `site_dist` is aligned with `sources` and requires
/// non-empty `pair_tables` (the section indexes the pair tables' site
/// order). Pass empty to omit the section — loaders rebuild or serve
/// without it.
void write_structure_v5(const FtBfsStructure& h,
                        std::span<const Vertex> sources,
                        std::span<const DualSiteTable> pair_tables,
                        std::span<const DualSiteDistTable> site_dist,
                        std::ostream& os);
void save_structure_v5(const FtBfsStructure& h,
                       std::span<const Vertex> sources,
                       std::span<const DualSiteTable> pair_tables,
                       std::span<const DualSiteDistTable> site_dist,
                       const std::string& path);

/// Tolerant-load knobs for serving planes that prefer degraded service
/// over refusal (docs/robustness.md has the degradation matrix).
struct ReadOptions {
  /// When true, a corrupt, truncated, or checksum-failed pair-table
  /// section is *dropped* (tables_out left empty, the drop recorded in the
  /// LoadReport) instead of thrown. The structure sections themselves are
  /// never tolerated — a corrupt edge section always throws.
  bool tolerate_pair_tables = false;
  /// Same knob for the optional site-dist accelerator section: when true a
  /// corrupt section is dropped (site_dist_out left empty, drop recorded)
  /// instead of thrown. The section is a pure accelerator, so dropping it
  /// loses speed, never answers.
  bool tolerate_site_dist = false;
};

/// What a tolerant load had to give up. `complete` stays true on a clean
/// load; every dropped section appends a human-readable note.
struct LoadReport {
  bool complete = true;
  std::vector<std::string> dropped;
};

/// Parses a structure against `g`. Throws CheckError on malformed input:
/// a bad magic line, an unsupported version, an unknown fault-model tag, a
/// vertex-count mismatch, unknown edges, truncated or oversized sections,
/// checksum mismatches (v5), duplicated/unknown sections, trailing bytes
/// after the artifact, or a duplicated / out-of-range source set. Every
/// such error message carries the byte offset and section name of the
/// offending input. When `sources_out` is non-null it receives the
/// artifact's source set ({h.source()} for v1/v2 artifacts and
/// single-source v3 ones); when `tables_out` is non-null it receives the
/// v4/v5 pair tables (empty for v1–v3 artifacts and files written without
/// tables).
FtBfsStructure read_structure(const Graph& g, std::istream& is,
                              std::vector<Vertex>* sources_out = nullptr,
                              std::vector<DualSiteTable>* tables_out = nullptr);
/// Tolerant overload: `opts` selects which sections may be dropped instead
/// of thrown; `report` (may be null) receives what was dropped. When
/// `site_dist_out` is non-null it receives the optional v5 site-dist
/// accelerator tables (empty when the artifact has no such section or it
/// was dropped).
FtBfsStructure read_structure(const Graph& g, std::istream& is,
                              std::vector<Vertex>* sources_out,
                              std::vector<DualSiteTable>* tables_out,
                              const ReadOptions& opts, LoadReport* report,
                              std::vector<DualSiteDistTable>* site_dist_out =
                                  nullptr);
FtBfsStructure load_structure(const Graph& g, const std::string& path,
                              std::vector<Vertex>* sources_out = nullptr,
                              std::vector<DualSiteTable>* tables_out = nullptr);
FtBfsStructure load_structure(const Graph& g, const std::string& path,
                              std::vector<Vertex>* sources_out,
                              std::vector<DualSiteTable>* tables_out,
                              const ReadOptions& opts, LoadReport* report,
                              std::vector<DualSiteDistTable>* site_dist_out =
                                  nullptr);

}  // namespace ftb::io

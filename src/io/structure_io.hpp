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
//
// Loading splits into framing and assembly. Each framing (the v1–v5 line
// parsers here, the v6 array decoders in binary_io.cpp) owns only its frame
// walk and section grammar; one internal step (artifact_assembly.hpp) owns
// the rest for both: the droppable-section rule, the cross-section checks,
// the tolerant decode-or-drop under ReadOptions::tolerate_corruption, and
// the hand-off to the caller's out-parameters.
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
/// section — loaders rebuild the tables). `site_dist` is the optional
/// site-local distance oracle (docs/file_formats.md §site-dist), aligned
/// with `sources`; it requires non-empty `pair_tables` (the section indexes
/// the pair tables' site order); pass empty to omit it. Deterministic: the
/// same structure always produces the same bytes. The saver flushes and
/// throws CheckError on a short write.
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

/// Tolerant-load knob for serving planes that prefer degraded service
/// over refusal (docs/robustness.md has the degradation matrix).
struct ReadOptions {
  /// When true, a corrupt, truncated, checksum-failed or unusable section
  /// among the two rebuildable ones — pair-tables and site-dist — is
  /// *dropped* (its output left empty, the drop recorded in the
  /// LoadReport) instead of thrown; the same meaning as
  /// api::SessionConfig::tolerate_corruption. The structure sections
  /// (meta, edges) are never tolerated.
  bool tolerate_corruption = false;
};

/// One section a tolerant load gave up.
struct SectionDrop {
  /// The section's name: "pair-tables" or "site-dist".
  std::string section;
  /// "<section>: <why>", with the "(at byte N in section 'S')" context.
  std::string note;
};

/// What a tolerant load had to give up, in file order; empty on a clean
/// load.
struct LoadReport {
  std::vector<SectionDrop> dropped;
};

/// Parses a structure against `g`. Throws CheckError on malformed input:
/// a bad magic line, an unsupported version, an unknown fault-model tag, a
/// vertex-count mismatch, unknown edges, truncated or oversized sections,
/// checksum mismatches (v5), duplicated/unknown sections, trailing bytes
/// after the artifact, or a duplicated / out-of-range source set. Every
/// such error message carries the byte offset and section name of the
/// offending input. Each out-parameter may be null: `sources_out`
/// receives the artifact's source set ({h.source()} for v1/v2 artifacts
/// and single-source v3 ones), `tables_out` the v4/v5 pair tables (empty
/// for v1–v3 artifacts and files written without tables), `site_dist_out`
/// the v5 site-dist tables (empty when absent or dropped), and `report`
/// what `opts` let the load drop.
FtBfsStructure read_structure(const Graph& g, std::istream& is,
                              std::vector<Vertex>* sources_out = nullptr,
                              std::vector<DualSiteTable>* tables_out = nullptr,
                              const ReadOptions& opts = {},
                              LoadReport* report = nullptr,
                              std::vector<DualSiteDistTable>* site_dist_out =
                                  nullptr);
/// read_structure from a file; a v6 binary artifact (binary_io.hpp) is
/// detected by its magic and loaded by load_structure_v6.
FtBfsStructure load_structure(const Graph& g, const std::string& path,
                              std::vector<Vertex>* sources_out = nullptr,
                              std::vector<DualSiteTable>* tables_out = nullptr,
                              const ReadOptions& opts = {},
                              LoadReport* report = nullptr,
                              std::vector<DualSiteDistTable>* site_dist_out =
                                  nullptr);

}  // namespace ftb::io

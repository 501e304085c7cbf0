// binary_io.hpp — structure_io v6: the binary, mmap-able artifact plane.
//
// v5 (structure_io.hpp) made the text artifact zero-trust: framed sections,
// declared lengths, per-section CRC-32C. v6 keeps exactly that trust model
// and drops the tokenizer: the same logical sections (meta / edges /
// pair-tables / site-dist) travel as little-endian fixed-width arrays
// inside a sectioned binary container, so loading a prebuilt structure is
// a directory walk + checksum sweep over an mmap instead of a
// parse-every-decimal pass. The byte-level layout is specified normatively
// in docs/file_formats.md §v6; the shape at a glance:
//
//   [header, 64 bytes]   magic "\x89FTB6\r\n\x1a", version 6, endian tag,
//                        section count, directory CRC-32C, total file bytes
//   [directory]          per section: name[16], offset, bytes, CRC-32C
//   [payloads]           64-byte-aligned, in directory order, zero padding
//
// The container is CANONICAL: section order is fixed (meta, edges, then
// pair-tables / site-dist for dual artifacts), every offset is exactly the
// 64-byte-aligned end of the previous payload, padding bytes are zero, and
// the declared file size is the real one — so write → read → write is a
// byte-level fixed point (the same property io_fuzz pins for v1–v5), and
// any gap, overlap, length lie, or trailing tail is a load-time CheckError
// carrying "(at byte N in section 'S')" context, never a crash.
//
// Serving: MappedArtifact validates the header + directory with bounded
// reads (no untrusted length ever sizes an allocation), maps the file
// read-only (MAP_SHARED), checks every section checksum over the mapping,
// and serves section payloads as zero-copy std::span views — N processes
// serving one artifact share a single page-cache copy of the bytes.
//
// Writers emit v6 only on request (Session::save_v6, ftbfs_cli build
// --v6, convert); load_structure sniffs the magic and reads either
// generation, so every consumer of the text plane speaks v6 for free.
// Only the container walk and the fixed-width section decoders are v6's
// own: the droppable rule, the cross-section checks, the tolerant
// decode-or-drop under ReadOptions::tolerate_corruption and the hand-off
// are the assembly step the text reader shares (artifact_assembly.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/dual_fault.hpp"
#include "src/core/structure.hpp"
#include "src/io/structure_io.hpp"

namespace ftb::io {

/// The 8-byte v6 magic (PNG-style: a high bit to trip text channels, CRLF
/// and ^Z to trip line-ending and DOS-type mangling).
inline constexpr unsigned char kV6Magic[8] = {0x89, 'F', 'T', 'B',
                                              '6',  '\r', '\n', 0x1a};

/// True when `bytes` begins with the v6 magic (the auto-detection hook:
/// text artifacts begin "ftbfs-structure", binary ones with kV6Magic).
bool is_v6_magic(std::string_view bytes);
/// Sniffs the first bytes of `path` (false also when unreadable/short).
bool is_v6_artifact(const std::string& path);

/// One validated directory entry of a v6 container.
struct V6Section {
  std::string name;           // "meta" / "edges" / "pair-tables" / "site-dist"
  std::uint64_t offset = 0;   // absolute, 64-byte aligned
  std::uint64_t bytes = 0;    // payload length (checksummed extent)
  std::uint32_t crc32c = 0;   // CRC-32C of the payload bytes
};

/// A v6 artifact mapped read-only into this process: open → bounded
/// header/directory validation → mmap(PROT_READ, MAP_SHARED) → full
/// checksum sweep. Throws CheckError (with byte-offset context) on any
/// malformation; never partially maps. Move-only; unmaps on destruction.
/// All views returned by bytes()/section() are invalidated by destruction.
class MappedArtifact {
 public:
  /// Maps and fully validates `path` (directory shape, canonical layout,
  /// every section CRC). This is the strict audit fsck uses; tolerant
  /// structure loads go through load_structure_v6 instead.
  static MappedArtifact map(const std::string& path);

  MappedArtifact(MappedArtifact&& other) noexcept;
  MappedArtifact& operator=(MappedArtifact&& other) noexcept;
  MappedArtifact(const MappedArtifact&) = delete;
  MappedArtifact& operator=(const MappedArtifact&) = delete;
  ~MappedArtifact();

  /// The whole mapped file.
  std::span<const std::byte> bytes() const { return {data_, size_}; }
  std::uint64_t file_bytes() const { return size_; }
  const std::vector<V6Section>& directory() const { return directory_; }
  bool has_section(std::string_view name) const;
  /// Zero-copy payload view. Throws CheckError when absent.
  std::span<const std::byte> section(std::string_view name) const;

 private:
  MappedArtifact(const std::byte* data, std::size_t size,
                 std::vector<V6Section> directory)
      : data_(data), size_(size), directory_(std::move(directory)) {}

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::vector<V6Section> directory_;
};

/// Serializes the structure (+ sources, + dual pair tables, + optional
/// site-dist oracle) as a v6 container. Same content rules as the v5
/// writer: non-dual structures ignore `pair_tables`; a dual artifact
/// always carries a pair-tables section (t = 0 when `pair_tables` is
/// empty); `site_dist` requires non-empty `pair_tables`. Deterministic:
/// the same inputs always produce the same bytes.
std::string write_structure_v6_bytes(
    const FtBfsStructure& h, std::span<const Vertex> sources,
    std::span<const DualSiteTable> pair_tables,
    std::span<const DualSiteDistTable> site_dist);
void write_structure_v6(const FtBfsStructure& h,
                        std::span<const Vertex> sources,
                        std::span<const DualSiteTable> pair_tables,
                        std::span<const DualSiteDistTable> site_dist,
                        std::ostream& os);
void save_structure_v6(const FtBfsStructure& h,
                       std::span<const Vertex> sources,
                       std::span<const DualSiteTable> pair_tables,
                       std::span<const DualSiteDistTable> site_dist,
                       const std::string& path);

/// Parses a v6 container from memory against `g` — the in-memory twin of
/// load_structure_v6 (io_fuzz and the rejection tests feed it mutants).
/// Same outputs, options, tolerant drops (one assembly step serves both
/// framings) and CheckError contract as read_structure; every rejection
/// carries "(at byte N in section 'S')".
FtBfsStructure read_structure_v6(const Graph& g,
                                 std::span<const std::byte> bytes,
                                 std::vector<Vertex>* sources_out = nullptr,
                                 std::vector<DualSiteTable>* tables_out =
                                     nullptr,
                                 const ReadOptions& opts = {},
                                 LoadReport* report = nullptr,
                                 std::vector<DualSiteDistTable>*
                                     site_dist_out = nullptr);

/// Maps `path` read-only and parses it: the zero-copy attach path
/// Session::load takes for binary artifacts (the persisted pair tables
/// are validated straight off the page cache; the graph-recompute path
/// remains the fallback when they are absent or dropped). The mapping
/// lives only for the duration of the load — everything handed out is
/// owned — so the returned structure has no lifetime tie to the file.
FtBfsStructure load_structure_v6(const Graph& g, const std::string& path,
                                 std::vector<Vertex>* sources_out = nullptr,
                                 std::vector<DualSiteTable>* tables_out =
                                     nullptr,
                                 const ReadOptions& opts = {},
                                 LoadReport* report = nullptr,
                                 std::vector<DualSiteDistTable>*
                                     site_dist_out = nullptr);

}  // namespace ftb::io

// Copyright 2026 The MarkoView Authors.
//
// Persistent MV-index format: the on-disk image of a compiled index
// (MvIndex::Save / Load / LoadMapped live here; the class declarations are
// in mv_index.h). The format exists so a serve process starts by *opening*
// the offline compilation instead of redoing it — LoadMapped binds
// FlatObdd's SoA bases straight into a PROT_READ mapping, making startup
// cost independent of index size and letting N processes share one physical
// copy of the arrays through the page cache.
//
// Layout (little-endian only; every multi-byte field is a raw LE word):
//
//   +------------------------------+  offset 0
//   | IndexFileHeader    (96 B)    |  magic, version, endian tag, counts,
//   |                              |  root, VarOrder digest, file size,
//   |                              |  annotation scheme,
//   |                              |  section-table + header checksums
//   +------------------------------+  offset 96
//   | SectionEntry[kNumSections]   |  {offset, length, checksum} per section
//   +------------------------------+  64-byte-aligned section payloads:
//   | kVarOrder    VarId[L]        |  the global order Pi (level -> VarId)
//   | kLevelProbs  double[L]       |  per-level marginal probabilities
//   | kLevels      int32[N]        |  FlatObdd SoA: node levels
//   | kEdges       FlatEdges[N]    |  FlatObdd SoA: {lo,hi} topology
//   | kProbUnder   ScaledDouble[N] |  block-local probUnder annotations
//   |                              |  (raw IEEE-754 mantissa + scale word)
//   | kBlockDir    BlockRecord[B]  |  per-block chain entry, level range,
//   |                              |  P(NOT W_b) raw words, key span
//   | kKeyBlob     char[...]       |  concatenated block key strings
//   +------------------------------+  offset file_bytes
//
// Integrity: the header checksum (computed with its own field zeroed)
// covers the fixed header; the section-table checksum covers the entry
// array; each section carries its own checksum. The loaders validate
// header, counts and every section's bounds *before* touching any payload
// byte, so truncated, bit-flipped or lying files fail with a typed Status —
// never a crash, never a silently wrong answer. Owned loads verify section
// checksums by default; mapped loads defer them (checksumming would fault
// in every page and forfeit the instant start) and expose the full pass via
// IndexFileReader::VerifyChecksums (`dump_index --verify`).
//
// Versioning policy: kIndexFormatVersion bumps on ANY layout or semantics
// change — field widths, section order, checksum function, ScaledDouble
// representation. Readers accept exactly their own version; every other
// generation is rejected with a typed Status that says to rebuild. An index
// file is a rebuildable cache bound to its database by order digest, so
// there is no converter between generations. Endianness: files record the
// writer's byte order; foreign-endian files are rejected rather than
// swapped (every supported target is little-endian, and swapping would
// force a copy that defeats the mmap mode).

#ifndef MVDB_MVINDEX_INDEX_IO_H_
#define MVDB_MVINDEX_INDEX_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "relational/types.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace mvdb {

/// Bumped on any change to the on-disk layout (see versioning policy above).
/// v2: the header grew a `flags` word (88 B) carrying the in-place patch
/// protocol's dirty bit, and the unread reachability annotation section was
/// dropped (probUnder is the only per-node annotation any serving path
/// consumes; carrying reachability doubled both the annotation bytes and
/// the weight-delta repair cost).
/// v3: probUnder became block-local (each block's values are computed with
/// its chain redirect read as True), the header grew an annotation-scheme
/// tag (96 B), and PatchFile shrank to dirty-block slices instead of whole
/// sections. v1 and v2 files are rejected; rebuild them from the database.
inline constexpr uint32_t kIndexFormatVersion = 3;

/// IndexFileHeader::annotation_scheme values. The tag is explicit (not
/// implied by the version) so a reader can state *what* about the bytes it
/// does not understand, and so corruption of the semantics-bearing field is
/// detected independently of the version word.
inline constexpr uint32_t kAnnotationSchemeBlockLocal = 2;  ///< v3 files

/// "MVIDX" + format generation, as a LE u64.
inline constexpr uint64_t kIndexMagic = 0x31584449564DULL;  // "MVIDX1\0\0"

/// Written as a native u32; reads back as itself only on a same-endian host.
inline constexpr uint32_t kIndexEndianTag = 0x01020304;

/// Section payloads start on 64-byte boundaries (cache-line-aligned array
/// bases in the mapped mode; mmap offsets are page-aligned already).
inline constexpr uint64_t kIndexSectionAlign = 64;

/// Payload section order (fixed; part of the format).
enum IndexSection : uint32_t {
  kSecVarOrder = 0,
  kSecLevelProbs = 1,
  kSecLevels = 2,
  kSecEdges = 3,
  kSecProbUnder = 4,
  kSecBlockDir = 5,
  kSecKeyBlob = 6,
  kNumIndexSections = 7,
};

/// Header flag bits (IndexFileHeader::flags). Unknown bits are rejected.
enum IndexFileFlags : uint64_t {
  /// Set (and fsync'd) before an in-place patch rewrites payload sections,
  /// cleared (and fsync'd) only after the new payloads and section table are
  /// durable. A loader seeing this bit knows the payloads may be torn and
  /// rejects the file with a typed Status instead of serving garbage; the
  /// recovery path is a full MvIndex::Save.
  kIndexFlagDirty = 1ull << 0,
};

/// Fixed-size file header. All counts are u64 so the format never inherits
/// in-memory size_t width; root is the FlatId widened to i64 (sinks are the
/// negative sentinels).
struct IndexFileHeader {
  uint64_t magic;
  uint32_t format_version;
  uint32_t endian_tag;
  uint64_t num_nodes;
  uint64_t num_levels;
  uint64_t num_blocks;
  int64_t root;
  uint64_t var_order_digest;  ///< Hash64 over the raw VarOrder payload
  uint64_t file_bytes;        ///< total file size; rejects truncation
  uint64_t flags;             ///< IndexFileFlags; in-place patch protocol
  uint32_t annotation_scheme; ///< kAnnotationScheme*; v3 writes BlockLocal
  uint32_t header_reserved;   ///< zero; rejected nonzero
  uint64_t section_table_checksum;
  uint64_t header_checksum;   ///< Hash64 of this struct with field zeroed
};
static_assert(sizeof(IndexFileHeader) == 96);

/// One section-table row: where a payload lives and its Hash64.
struct SectionEntry {
  uint64_t offset;
  uint64_t length;  ///< bytes; exact (no padding counted)
  uint64_t checksum;
};
static_assert(sizeof(SectionEntry) == 24);

/// One MvBlock row of the kSecBlockDir section. The probability is the raw
/// ScaledDouble words; the key string lives in kSecKeyBlob at
/// [key_offset, key_offset + key_len).
struct IndexBlockRecord {
  int32_t chain_root;   ///< FlatId (sink sentinels allowed)
  int32_t first_level;
  int32_t last_level;
  int32_t reserved;     ///< zero; keeps the record 8-byte aligned at 48 B
  uint64_t prob_mantissa_bits;
  int64_t prob_exponent;
  uint64_t key_offset;
  uint64_t key_len;
};
static_assert(sizeof(IndexBlockRecord) == 48);

/// Validated, read-only view of an index file. Owns its bytes either as a
/// private copy (OpenOwned) or as a shared read-only mapping (OpenMapped).
/// Open* performs full structural validation — magic/version/endianness,
/// header and section-table checksums, and bounds/size-consistency of every
/// section against the real file size — before any payload is dereferenced.
/// Section *content* checksums are a separate, optional pass
/// (VerifyChecksums), because verifying them faults in the whole file.
class IndexFileReader {
 public:
  static StatusOr<IndexFileReader> OpenOwned(const std::string& path);
  static StatusOr<IndexFileReader> OpenMapped(const std::string& path);

  const IndexFileHeader& header() const {
    return *reinterpret_cast<const IndexFileHeader*>(data_);
  }
  const SectionEntry& section(IndexSection s) const {
    return reinterpret_cast<const SectionEntry*>(data_ +
                                                 sizeof(IndexFileHeader))[s];
  }

  /// Typed payload bases (validated element counts; see header() for them).
  const VarId* var_order() const { return Base<VarId>(kSecVarOrder); }
  const double* level_probs() const { return Base<double>(kSecLevelProbs); }
  const int32_t* levels() const { return Base<int32_t>(kSecLevels); }
  const void* edges_raw() const { return RawBase(kSecEdges); }
  const void* prob_under_raw() const { return RawBase(kSecProbUnder); }
  const IndexBlockRecord* block_dir() const {
    return Base<IndexBlockRecord>(kSecBlockDir);
  }
  const char* key_blob() const { return Base<char>(kSecKeyBlob); }

  /// Recomputes and compares every section checksum (touches every byte).
  Status VerifyChecksums() const;

  /// Non-null only for OpenMapped readers; keeps the mapping alive for
  /// FlatObdd's span-backed storage.
  const std::shared_ptr<const MmapFile>& mapping() const { return mapping_; }

 private:
  IndexFileReader() = default;
  static StatusOr<IndexFileReader> Validate(IndexFileReader reader);

  template <typename T>
  const T* Base(IndexSection s) const {
    return reinterpret_cast<const T*>(data_ + section(s).offset);
  }
  const void* RawBase(IndexSection s) const { return data_ + section(s).offset; }

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  std::vector<uint8_t> owned_;                ///< OpenOwned storage
  std::shared_ptr<const MmapFile> mapping_;   ///< OpenMapped storage
};

/// Reads just the header + VarOrder section of an index file and returns
/// the order (level -> VarId). The engine uses this to construct the
/// BddManager *before* loading the index against it (MvIndex::Load*
/// requires a manager whose order digest matches the file).
StatusOr<std::vector<VarId>> ReadIndexVarOrder(const std::string& path);

}  // namespace mvdb

#endif  // MVDB_MVINDEX_INDEX_IO_H_

#include "mvindex/index_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "mvindex/mv_index.h"
#include "util/hash64.h"
#include "util/logging.h"

namespace mvdb {
namespace {

uint64_t AlignUp(uint64_t v) {
  return (v + kIndexSectionAlign - 1) & ~(kIndexSectionAlign - 1);
}

const char* SectionName(IndexSection s) {
  switch (s) {
    case kSecVarOrder: return "var_order";
    case kSecLevelProbs: return "level_probs";
    case kSecLevels: return "levels";
    case kSecEdges: return "edges";
    case kSecProbUnder: return "prob_under";
    case kSecBlockDir: return "block_dir";
    case kSecKeyBlob: return "key_blob";
    default: return "?";
  }
}

/// Element size of each section's array (key blob is a byte stream).
uint64_t ElemSize(IndexSection s) {
  switch (s) {
    case kSecVarOrder: return sizeof(VarId);
    case kSecLevelProbs: return sizeof(double);
    case kSecLevels: return sizeof(int32_t);
    case kSecEdges: return sizeof(FlatEdges);
    case kSecProbUnder: return sizeof(ScaledDouble);
    case kSecBlockDir: return sizeof(IndexBlockRecord);
    case kSecKeyBlob: return 1;
    default: return 1;
  }
}

/// Expected element count of a section given the header (key blob is free-
/// length; returned as ~0 to skip the count check).
uint64_t ExpectedCount(IndexSection s, const IndexFileHeader& h) {
  switch (s) {
    case kSecVarOrder: return h.num_levels;
    case kSecLevelProbs: return h.num_levels;
    case kSecLevels: return h.num_nodes;
    case kSecEdges: return h.num_nodes;
    case kSecProbUnder: return h.num_nodes;
    case kSecBlockDir: return h.num_blocks;
    default: return std::numeric_limits<uint64_t>::max();
  }
}

uint64_t HeaderChecksum(IndexFileHeader h) {
  h.header_checksum = 0;
  return Hash64(&h, sizeof(h));
}

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("index file corrupt: " + what);
}

}  // namespace

StatusOr<IndexFileReader> IndexFileReader::Validate(IndexFileReader r) {
  // Order of checks matters: nothing past the fixed header is dereferenced
  // until the header itself proves intact, and no payload base is formed
  // until its bounds check out against the real file size.
  constexpr size_t kTableBytes = kNumIndexSections * sizeof(SectionEntry);
  // Magic, version and endian tag occupy the first 16 bytes of every format
  // generation, so check them from the common prefix before assuming the v3
  // header size — an old-format file must earn the rebuild message, not a
  // bounds error.
  if (r.size_ < 16) {
    return Corrupt("file shorter than header");
  }
  uint64_t magic;
  uint32_t version;
  uint32_t endian_tag;
  std::memcpy(&magic, r.data_, sizeof(magic));
  std::memcpy(&version, r.data_ + 8, sizeof(version));
  std::memcpy(&endian_tag, r.data_ + 12, sizeof(endian_tag));
  if (magic != kIndexMagic) {
    // A foreign-endian writer scrambles the magic bytes too, so tell the
    // two apart by checking the byte-swapped tag before giving up.
    if (__builtin_bswap32(endian_tag) == kIndexEndianTag) {
      return Status::InvalidArgument(
          "index file was written on a foreign-endian host; rebuild the "
          "index on this machine");
    }
    return Corrupt("bad magic (not an MV-index file)");
  }
  if (endian_tag != kIndexEndianTag) {
    return Status::InvalidArgument(
        "index file was written on a foreign-endian host; rebuild the index "
        "on this machine");
  }
  if (version != kIndexFormatVersion) {
    // Index files are rebuildable caches bound to their database by order
    // digest: an older (or newer) generation is rebuilt, never converted.
    return Status::InvalidArgument(
        "index format version " + std::to_string(version) +
        " not supported (reader expects " +
        std::to_string(kIndexFormatVersion) + "); rebuild the index");
  }
  if (r.size_ < sizeof(IndexFileHeader) + kTableBytes) {
    return Corrupt("file shorter than header");
  }
  IndexFileHeader h;
  std::memcpy(&h, r.data_, sizeof(h));
  if (HeaderChecksum(h) != h.header_checksum) {
    return Corrupt("header checksum mismatch");
  }
  if (h.annotation_scheme != kAnnotationSchemeBlockLocal) {
    // The scheme tag carries the section's *semantics*; serving globally-
    // composed annotations through block-local consumers would be silently
    // wrong everywhere, so an unexpected tag is fatal even when the
    // version word says v3.
    return Corrupt("annotation scheme " + std::to_string(h.annotation_scheme) +
                   " is not block-local (expected " +
                   std::to_string(kAnnotationSchemeBlockLocal) + ")");
  }
  if (h.header_reserved != 0) {
    return Corrupt("nonzero reserved header field");
  }
  if ((h.flags & ~static_cast<uint64_t>(kIndexFlagDirty)) != 0) {
    return Corrupt("unknown header flags");
  }
  if ((h.flags & kIndexFlagDirty) != 0) {
    // An in-place patch marked the file dirty and never finished: the
    // payload sections may be torn. Refuse to serve; the index is rebuilt
    // or re-saved from the MVDB, which stays the source of truth.
    return Status::FailedPrecondition(
        "index file has an unfinished in-place patch (dirty flag set); "
        "re-save the index from the database");
  }
  if (h.file_bytes != r.size_) {
    return Corrupt("file size " + std::to_string(r.size_) +
                   " does not match header file_bytes " +
                   std::to_string(h.file_bytes) + " (truncated?)");
  }
  if (Hash64(r.data_ + sizeof(IndexFileHeader), kTableBytes) !=
      h.section_table_checksum) {
    return Corrupt("section table checksum mismatch");
  }
  // Counts must fit the 32-bit id space the in-memory layout uses.
  if (h.num_nodes > static_cast<uint64_t>(std::numeric_limits<FlatId>::max()) ||
      h.num_levels >
          static_cast<uint64_t>(std::numeric_limits<int32_t>::max()) ||
      h.num_blocks >
          static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
    return Corrupt("counts exceed 32-bit id space");
  }
  if (h.root < static_cast<int64_t>(kFlatTrue) ||
      h.root >= static_cast<int64_t>(h.num_nodes)) {
    return Corrupt("root out of range");
  }
  for (uint32_t s = 0; s < kNumIndexSections; ++s) {
    const auto sec = static_cast<IndexSection>(s);
    const SectionEntry& e = r.section(sec);
    // Overflow-safe bounds: offset and length are each checked against the
    // file size before their sum is formed.
    if (e.offset % kIndexSectionAlign != 0 || e.offset > r.size_ ||
        e.length > r.size_ || e.offset + e.length > r.size_) {
      return Corrupt(std::string("section ") + SectionName(sec) +
                     " out of bounds");
    }
    const uint64_t elem = ElemSize(sec);
    if (e.length % elem != 0) {
      return Corrupt(std::string("section ") + SectionName(sec) +
                     " length not a multiple of its element size");
    }
    const uint64_t expected = ExpectedCount(sec, h);
    if (expected != std::numeric_limits<uint64_t>::max() &&
        e.length / elem != expected) {
      return Corrupt(std::string("section ") + SectionName(sec) +
                     " length disagrees with header counts");
    }
  }
  // Per-block referential integrity: chain entries and level ranges must
  // land inside the arrays, and key spans inside the blob. Records are
  // small (one cache line each), so this runs even in mapped mode.
  const uint64_t blob_len = r.section(kSecKeyBlob).length;
  const IndexBlockRecord* blocks = r.block_dir();
  for (uint64_t b = 0; b < h.num_blocks; ++b) {
    const IndexBlockRecord& rec = blocks[b];
    if (rec.chain_root < kFlatTrue ||
        rec.chain_root >= static_cast<int64_t>(h.num_nodes)) {
      return Corrupt("block chain_root out of range");
    }
    if (rec.first_level < 0 || rec.last_level < rec.first_level ||
        static_cast<uint64_t>(rec.last_level) >= h.num_levels) {
      return Corrupt("block level range out of range");
    }
    if (rec.key_offset > blob_len || rec.key_len > blob_len ||
        rec.key_offset + rec.key_len > blob_len) {
      return Corrupt("block key span outside key blob");
    }
  }
  return r;
}

StatusOr<IndexFileReader> IndexFileReader::OpenOwned(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  const std::streamoff size = in.tellg();
  if (size <= 0) {
    return Status::InvalidArgument("cannot read " + path + ": empty file");
  }
  IndexFileReader r;
  r.owned_.resize(static_cast<size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(r.owned_.data()), size);
  if (!in) {
    return Status::InvalidArgument("short read on " + path);
  }
  r.data_ = r.owned_.data();
  r.size_ = r.owned_.size();
  return Validate(std::move(r));
}

StatusOr<IndexFileReader> IndexFileReader::OpenMapped(const std::string& path) {
  MVDB_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  IndexFileReader r;
  r.mapping_ = std::make_shared<const MmapFile>(std::move(file));
  r.data_ = r.mapping_->data();
  r.size_ = r.mapping_->size();
  return Validate(std::move(r));
}

Status IndexFileReader::VerifyChecksums() const {
  for (uint32_t s = 0; s < kNumIndexSections; ++s) {
    const auto sec = static_cast<IndexSection>(s);
    const SectionEntry& e = section(sec);
    if (Hash64(data_ + e.offset, e.length) != e.checksum) {
      return Corrupt(std::string("section ") + SectionName(sec) +
                     " checksum mismatch");
    }
  }
  return Status::OK();
}

StatusOr<std::vector<VarId>> ReadIndexVarOrder(const std::string& path) {
  // Mapped open: only the header, section table, block directory and the
  // order section itself are faulted in.
  MVDB_ASSIGN_OR_RETURN(IndexFileReader r, IndexFileReader::OpenMapped(path));
  const VarId* order = r.var_order();
  return std::vector<VarId>(order, order + r.header().num_levels);
}

// ---------------------------------------------------------------------------
// Writer (MvIndex::Save)
// ---------------------------------------------------------------------------

namespace {

struct SectionSource {
  const void* data;
  uint64_t length;
};

/// Lays out and writes a complete v3 image: computes the section table and
/// every checksum over `sources`, finalizes the header's derived fields
/// (file_bytes, table + header checksums; the identity fields — counts,
/// root, order digest — are the caller's), and writes to a sibling temp
/// file renamed into place. A crash mid-write never leaves a torn file at
/// `path` (rename within one directory is atomic on POSIX filesystems).
/// The temp name carries the pid plus a process-wide counter so concurrent
/// savers of the same path never write through each other's temp file;
/// every failure path removes it.
Status WriteIndexSections(const std::string& path, IndexFileHeader h,
                          const SectionSource (&sources)[kNumIndexSections]) {
  h.magic = kIndexMagic;
  h.format_version = kIndexFormatVersion;
  h.endian_tag = kIndexEndianTag;
  h.annotation_scheme = kAnnotationSchemeBlockLocal;
  h.header_reserved = 0;
  h.flags = 0;

  SectionEntry table[kNumIndexSections];
  uint64_t offset = AlignUp(sizeof(IndexFileHeader) + sizeof(table));
  for (uint32_t s = 0; s < kNumIndexSections; ++s) {
    table[s].offset = offset;
    table[s].length = sources[s].length;
    table[s].checksum = Hash64(sources[s].data, sources[s].length);
    offset = AlignUp(offset + sources[s].length);
  }
  const uint64_t file_bytes = offset;
  h.file_bytes = file_bytes;
  h.section_table_checksum = Hash64(table, sizeof(table));
  h.header_checksum = HeaderChecksum(h);

  static std::atomic<uint64_t> save_seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(save_seq.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::InvalidArgument("cannot create " + tmp);
    }
    auto write_bytes = [&out](const void* data, uint64_t len) {
      if (len == 0) return;  // empty sections (e.g. a 0-block chain)
      out.write(static_cast<const char*>(data),
                static_cast<std::streamsize>(len));
    };
    auto pad_to = [&](uint64_t target) {
      static constexpr char kZeros[kIndexSectionAlign] = {};
      const auto pos = static_cast<uint64_t>(out.tellp());
      MVDB_CHECK_GE(target, pos);
      write_bytes(kZeros, target - pos);
    };
    write_bytes(&h, sizeof(h));
    write_bytes(table, sizeof(table));
    for (uint32_t s = 0; s < kNumIndexSections; ++s) {
      pad_to(table[s].offset);
      write_bytes(sources[s].data, sources[s].length);
    }
    pad_to(file_bytes);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::InvalidArgument("write failed for " + tmp +
                                     " (disk full?)");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::InvalidArgument("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

/// The on-disk block directory and key blob: one record per block, keys
/// appended in block order (tiny next to the node arrays).
void EncodeBlockDirectory(const std::vector<MvBlock>& blocks,
                          const std::vector<std::string>& keys,
                          std::vector<IndexBlockRecord>* block_dir,
                          std::string* key_blob) {
  block_dir->resize(blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    const MvBlock& blk = blocks[b];
    IndexBlockRecord& rec = (*block_dir)[b];
    rec.chain_root = blk.chain_root;
    rec.first_level = blk.first_level;
    rec.last_level = blk.last_level;
    rec.reserved = 0;
    rec.prob_mantissa_bits = blk.prob.mantissa_bits();
    rec.prob_exponent = blk.prob.exponent_word();
    rec.key_offset = key_blob->size();
    rec.key_len = keys[b].size();
    key_blob->append(keys[b]);
  }
}

}  // namespace

Status MvIndex::Save(const std::string& path) const {
  const FlatObdd& flat = *flat_;
  const uint64_t num_nodes = flat.size();
  const uint64_t num_levels = flat.num_levels();
  const uint64_t num_blocks = blocks_.size();

  std::vector<IndexBlockRecord> block_dir;
  std::string key_blob;
  EncodeBlockDirectory(blocks_, block_keys_, &block_dir, &key_blob);

  const std::vector<VarId>& order = mgr_->order()->vars();
  MVDB_CHECK_EQ(order.size(), num_levels);

  const SectionSource sources[kNumIndexSections] = {
      {order.data(), num_levels * sizeof(VarId)},
      {flat.level_probs_data(), num_levels * sizeof(double)},
      {flat.levels_data(), num_nodes * sizeof(int32_t)},
      {flat.edges_data(), num_nodes * sizeof(FlatEdges)},
      {flat.prob_under_data(), num_nodes * sizeof(ScaledDouble)},
      {block_dir.data(), num_blocks * sizeof(IndexBlockRecord)},
      {key_blob.data(), key_blob.size()},
  };

  IndexFileHeader h;
  std::memset(&h, 0, sizeof(h));
  h.num_nodes = num_nodes;
  h.num_levels = num_levels;
  h.num_blocks = num_blocks;
  h.root = flat.root();
  h.var_order_digest = Hash64(order.data(), num_levels * sizeof(VarId));
  MVDB_RETURN_NOT_OK(WriteIndexSections(path, h, sources));

  // The file now holds exactly this index's weight state: subsequent
  // PatchFile calls may write dirty-block slices instead of whole sections.
  pending_patch_blocks_.Clear();
  pending_patch_levels_.Clear();
  weights_synced_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// In-place patch (MvIndex::PatchFile)
// ---------------------------------------------------------------------------

namespace {

Status PwriteAll(int fd, const void* data, uint64_t len, uint64_t offset) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::InvalidArgument("pwrite failed for index patch: " +
                                     std::string(std::strerror(errno)));
    }
    p += n;
    len -= static_cast<uint64_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

Status PreadAll(int fd, void* data, uint64_t len, uint64_t offset) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::pread(fd, p, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::InvalidArgument("pread failed for index patch: " +
                                     std::string(std::strerror(errno)));
    }
    if (n == 0) return Corrupt("file shorter than header");
    p += n;
    len -= static_cast<uint64_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status MvIndex::PatchFile(const std::string& path,
                          const IndexPatchOptions& options) const {
  const FlatObdd& flat = *flat_;
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::NotFound("cannot open " + path + " for patching");
  }
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  // The patch only makes sense against a file holding exactly this index's
  // topology: same node/level/block counts, same root, same variable order.
  // Anything else is a structural change, which takes the full Save path.
  IndexFileHeader h;
  SectionEntry table[kNumIndexSections];
  MVDB_RETURN_NOT_OK(PreadAll(fd, &h, sizeof(h), 0));
  MVDB_RETURN_NOT_OK(PreadAll(fd, table, sizeof(table), sizeof(h)));
  if (h.magic != kIndexMagic || h.endian_tag != kIndexEndianTag ||
      h.format_version != kIndexFormatVersion) {
    return Corrupt("not a patchable MV-index file");
  }
  if (HeaderChecksum(h) != h.header_checksum) {
    return Corrupt("header checksum mismatch");
  }
  const std::vector<VarId>& order = mgr_->order()->vars();
  if (h.num_nodes != flat.size() || h.num_levels != flat.num_levels() ||
      h.num_blocks != blocks_.size() || h.root != flat.root() ||
      h.var_order_digest != Hash64(order.data(), order.size() * sizeof(VarId))) {
    return Status::FailedPrecondition(
        "index file does not match this index's topology; an in-place patch "
        "only covers weight-level deltas — use Save for structural changes");
  }

  // Reassemble the weight-carrying payloads. Keys are unchanged, so the
  // block records keep their original key spans (recomputed in the same
  // deterministic append order Save uses).
  std::vector<IndexBlockRecord> block_dir;
  std::string key_blob;
  EncodeBlockDirectory(blocks_, block_keys_, &block_dir, &key_blob);
  struct PatchSection {
    IndexSection sec;
    const void* data;
    uint64_t length;
  };
  const PatchSection patched[] = {
      {kSecLevelProbs, flat.level_probs_data(),
       h.num_levels * sizeof(double)},
      {kSecProbUnder, flat.prob_under_data(),
       h.num_nodes * sizeof(ScaledDouble)},
      {kSecBlockDir, block_dir.data(),
       blocks_.size() * sizeof(IndexBlockRecord)},
  };
  for (const PatchSection& p : patched) {
    if (table[p.sec].length != p.length) {
      return Status::FailedPrecondition(
          std::string("index file section ") + SectionName(p.sec) +
          " size differs; use Save for structural changes");
    }
    table[p.sec].checksum = Hash64(p.data, p.length);
  }
  if (table[kSecKeyBlob].length != key_blob.size()) {
    return Status::FailedPrecondition(
        "index file key blob differs; use Save for structural changes");
  }

  // Protocol step 1: mark the file dirty and make the mark durable before
  // any payload byte changes. A crash from here until step 3 completes
  // leaves the dirty bit set, which the loaders reject with a typed Status.
  IndexFileHeader dirty = h;
  dirty.flags |= kIndexFlagDirty;
  dirty.header_checksum = HeaderChecksum(dirty);
  MVDB_RETURN_NOT_OK(PwriteAll(fd, &dirty, sizeof(dirty), 0));
  if (::fsync(fd) != 0) {
    return Status::InvalidArgument("fsync failed for " + path);
  }
  if (options.crash_after_dirty_mark) {
    return Status::OK();  // test hook: simulate dying mid-patch
  }

  // Step 2: rewrite the changed payload bytes and the section table in
  // place (sizes are unchanged, so no other byte moves). When this index's
  // weight state is known to match the file (`weights_synced_`: the file
  // was written by our last Save/PatchFile), only the dirty-block slices
  // accumulated since then need to touch disk — for a single-author delta
  // at 1M scale that is one ~100 B probUnder slice, one 48 B block record
  // and a handful of 8 B level probs instead of ~31 MB of sections. The
  // table checksums above are always over the full in-memory arrays, so a
  // loader's verify pass still proves the whole file consistent.
  if (weights_synced_) {
    // The pending sets hold distinct ids; ascending order writes the file
    // front to back.
    std::vector<size_t> lvls = pending_patch_levels_.ids;
    std::sort(lvls.begin(), lvls.end());
    const double* level_probs = flat.level_probs_data();
    for (const size_t l : lvls) {
      MVDB_RETURN_NOT_OK(PwriteAll(
          fd, level_probs + l, sizeof(double),
          table[kSecLevelProbs].offset + l * sizeof(double)));
    }
    std::vector<size_t> blks = pending_patch_blocks_.ids;
    std::sort(blks.begin(), blks.end());
    const ScaledDouble* prob_under = flat.prob_under_data();
    for (const size_t b : blks) {
      const auto [begin, end] = BlockSlice(b);
      if (begin < 0) continue;  // sink-rooted block: no annotation slice
      MVDB_RETURN_NOT_OK(PwriteAll(
          fd, prob_under + begin,
          static_cast<uint64_t>(end - begin) * sizeof(ScaledDouble),
          table[kSecProbUnder].offset +
              static_cast<uint64_t>(begin) * sizeof(ScaledDouble)));
      MVDB_RETURN_NOT_OK(PwriteAll(
          fd, &block_dir[b], sizeof(IndexBlockRecord),
          table[kSecBlockDir].offset + b * sizeof(IndexBlockRecord)));
    }
  } else {
    // The file's weight state is unknown (fresh build, structural delta, or
    // a Save that went to a different path): rewrite the weight-carrying
    // sections wholesale so any topology-matching file converges.
    for (const PatchSection& p : patched) {
      MVDB_RETURN_NOT_OK(PwriteAll(fd, p.data, p.length, table[p.sec].offset));
    }
  }
  MVDB_RETURN_NOT_OK(PwriteAll(fd, table, sizeof(table), sizeof(h)));
  if (::fsync(fd) != 0) {
    return Status::InvalidArgument("fsync failed for " + path);
  }
  if (options.crash_after_payload) {
    return Status::OK();  // test hook: payloads durable, header still dirty
  }

  // Step 3: clear the dirty bit over the now-consistent payloads.
  IndexFileHeader clean = h;
  clean.flags &= ~static_cast<uint64_t>(kIndexFlagDirty);
  clean.section_table_checksum = Hash64(table, sizeof(table));
  clean.header_checksum = HeaderChecksum(clean);
  MVDB_RETURN_NOT_OK(PwriteAll(fd, &clean, sizeof(clean), 0));
  if (::fsync(fd) != 0) {
    return Status::InvalidArgument("fsync failed for " + path);
  }
  // The patch is durable: the file again matches memory exactly. Clearing
  // the pending sets only now (not at the crash hooks above) means a
  // simulated mid-patch crash leaves them armed, so a re-patch rewrites the
  // same slices and recovers the file.
  pending_patch_blocks_.Clear();
  pending_patch_levels_.Clear();
  weights_synced_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Loaders (MvIndex::Load / LoadMapped)
// ---------------------------------------------------------------------------

namespace {

/// Checks the manager's order against the file's digest. Binding by digest
/// (not by re-reading the order array) keeps the check O(num_levels) bytes
/// hashed once, and catches "right database, wrong permutation choice".
Status CheckManagerOrder(const IndexFileReader& r, const BddManager& mgr) {
  const IndexFileHeader& h = r.header();
  const std::vector<VarId>& order = mgr.order()->vars();
  if (order.size() != h.num_levels) {
    return Status::InvalidArgument(
        "manager variable order has " + std::to_string(order.size()) +
        " levels but the index file has " + std::to_string(h.num_levels));
  }
  if (Hash64(order.data(), order.size() * sizeof(VarId)) !=
      h.var_order_digest) {
    return Status::InvalidArgument(
        "manager variable order does not match the order the index was "
        "built under (digest mismatch)");
  }
  return Status::OK();
}

}  // namespace

namespace internal {

/// Loader backdoor (friend of MvIndex): assembles a loaded index field by
/// field. The shared tail of both loaders — rebuilds the block directory
/// and keys from the file and recomputes the block-product arrays with the
/// build's fold, so skip prefixes and suffix credits stay bit-identical
/// across a save/load round trip.
struct IndexIoAccess {
  static std::unique_ptr<MvIndex> Assemble(const IndexFileReader& r,
                                           BddManager* mgr,
                                           std::unique_ptr<FlatObdd> flat);
};

std::unique_ptr<MvIndex> IndexIoAccess::Assemble(const IndexFileReader& r,
                                                 BddManager* mgr,
                                                 std::unique_ptr<FlatObdd> flat) {
  const IndexFileHeader& h = r.header();
  std::unique_ptr<MvIndex> index(new MvIndex());
  index->mgr_ = mgr;
  index->flat_ = std::move(flat);
  index->blocks_.resize(h.num_blocks);
  index->block_keys_.resize(h.num_blocks);
  const IndexBlockRecord* dir = r.block_dir();
  const char* blob = r.key_blob();
  for (uint64_t b = 0; b < h.num_blocks; ++b) {
    const IndexBlockRecord& rec = dir[b];
    index->block_keys_[b].assign(blob + rec.key_offset, rec.key_len);
    index->blocks_[b] = MvBlock{
        rec.chain_root, rec.first_level, rec.last_level,
        ScaledDouble::FromRaw(rec.prob_mantissa_bits, rec.prob_exponent)};
  }
  const size_t n = index->blocks_.size();
  index->block_prefix_.assign(n + 1, ScaledDouble::One());
  index->block_suffix_.assign(n + 1, ScaledDouble::One());
  FoldBlockProducts(index->blocks_, 0, n, index->block_prefix_,
                    index->block_suffix_);
  // A freshly loaded index matches its file byte for byte: PatchFile may
  // write dirty-block slices from here on.
  index->weights_synced_ = true;
  // Stats reflect the loaded image, not the (absent) build.
  index->build_stats_.blocks = index->blocks_.size();
  index->build_stats_.flat_nodes = index->flat_->size();
  index->build_stats_.flat_bytes = index->flat_->MemoryBytes();
  // var_probs_ stays empty: it is a build-time input snapshot; every online
  // path reads the per-level table inside the FlatObdd instead.
  return index;
}

}  // namespace internal

StatusOr<std::unique_ptr<MvIndex>> MvIndex::Load(
    const std::string& path, BddManager* mgr, const IndexLoadOptions& options) {
  MVDB_ASSIGN_OR_RETURN(IndexFileReader r, IndexFileReader::OpenOwned(path));
  if (options.verify_checksums) {
    MVDB_RETURN_NOT_OK(r.VerifyChecksums());
  }
  MVDB_RETURN_NOT_OK(CheckManagerOrder(r, *mgr));
  const IndexFileHeader& h = r.header();
  const size_t n = static_cast<size_t>(h.num_nodes);
  std::vector<int32_t> levels(r.levels(), r.levels() + n);
  std::vector<FlatEdges> edges(n);
  std::memcpy(edges.data(), r.edges_raw(), n * sizeof(FlatEdges));
  std::vector<ScaledDouble> prob_under(n);
  std::memcpy(prob_under.data(), r.prob_under_raw(), n * sizeof(ScaledDouble));
  std::vector<double> level_probs(r.level_probs(),
                                  r.level_probs() + h.num_levels);
  auto flat = FlatObdd::FromOwnedStorage(
      std::move(levels), std::move(edges), std::move(prob_under),
      std::move(level_probs), static_cast<FlatId>(h.root));
  return internal::IndexIoAccess::Assemble(r, mgr, std::move(flat));
}

StatusOr<std::unique_ptr<MvIndex>> MvIndex::LoadMapped(
    const std::string& path, BddManager* mgr, const IndexLoadOptions& options) {
  MVDB_ASSIGN_OR_RETURN(IndexFileReader r, IndexFileReader::OpenMapped(path));
  if (options.verify_checksums) {
    MVDB_RETURN_NOT_OK(r.VerifyChecksums());
  }
  MVDB_RETURN_NOT_OK(CheckManagerOrder(r, *mgr));
  const IndexFileHeader& h = r.header();
  // The section bases are validated in-bounds and 64-byte aligned, so the
  // reinterpret casts below are aligned loads of trivially copyable types.
  auto flat = FlatObdd::FromMappedStorage(
      r.levels(), static_cast<const FlatEdges*>(r.edges_raw()),
      static_cast<const ScaledDouble*>(r.prob_under_raw()), r.level_probs(),
      static_cast<size_t>(h.num_nodes), static_cast<size_t>(h.num_levels),
      static_cast<FlatId>(h.root), r.mapping());
  return internal::IndexIoAccess::Assemble(r, mgr, std::move(flat));
}

}  // namespace mvdb

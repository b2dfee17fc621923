// Corrupt-input hardening for the persistent MV-index loaders: truncation
// at (and around) every section boundary, bit flips across the header,
// payload corruption, and section tables that lie about offsets/lengths
// with every checksum dutifully recomputed — every case must come back as a
// typed Status from both Load and LoadMapped, with no crash, no abort, and
// no sanitizer finding (this test runs under the ASan/UBSan CI job). The
// loaders' contract: bounds are proven against the real file size before
// the first payload byte is dereferenced.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "mvindex/index_io.h"
#include "mvindex/mv_index.h"
#include "test_util.h"
#include "util/hash64.h"

namespace mvdb {
namespace {

using testing_util::MustParse;

/// A small but non-degenerate index: the Fig. 3 relations with two views,
/// a handful of blocks, a few dozen flat nodes. Small enough to rewrite
/// hundreds of corrupted variants per test.
struct SmallIndex {
  std::unique_ptr<Mvdb> mvdb;
  std::unique_ptr<QueryEngine> engine;
  std::string path;
  std::vector<uint8_t> bytes;  // pristine file image
};

SmallIndex& Small() {
  static SmallIndex* shared = [] {
    auto* s = new SmallIndex();
    s->mvdb = std::make_unique<Mvdb>();
    Database& db = s->mvdb->db();
    MVDB_CHECK(db.CreateTable("R", {"x"}, true).ok());
    MVDB_CHECK(db.CreateTable("S", {"x", "y"}, true).ok());
    for (int x = 1; x <= 4; ++x) {
      db.InsertProbabilistic("R", {x}, 0.5 + 0.1 * x);
      for (int y = 1; y <= 3; ++y) {
        db.InsertProbabilistic("S", {x, y}, 0.3 + 0.05 * y);
      }
    }
    Ucq v1 = MustParse("V1(x) :- R(x), S(x,y).", &db.dict());
    MVDB_CHECK(s->mvdb->AddView(
        MarkoView::Constant("V1", std::move(v1), 2.0)).ok());
    s->engine = std::make_unique<QueryEngine>(s->mvdb.get());
    MVDB_CHECK(s->engine->Compile().ok());
    s->path = ::testing::TempDir() + "/small.mvidx";
    MVDB_CHECK(s->engine->SaveIndex(s->path).ok());
    std::ifstream in(s->path, std::ios::binary | std::ios::ate);
    MVDB_CHECK(in.good());
    s->bytes.resize(static_cast<size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(s->bytes.data()),
            static_cast<std::streamsize>(s->bytes.size()));
    MVDB_CHECK(in.good());
    return s;
  }();
  return *shared;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  MVDB_CHECK(out.good());
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  MVDB_CHECK(out.good());
}

/// Both loaders (owned verifies checksums, mapped skips them) plus the
/// explicit verify pass must reject the file at `path` with a typed Status.
/// Returns the owned loader's status for message assertions.
Status ExpectRejected(const std::string& path) {
  SmallIndex& s = Small();
  BddManager mgr(s.engine->manager().order());
  auto owned = MvIndex::Load(path, &mgr);
  EXPECT_FALSE(owned.ok()) << "owned load accepted a corrupt file";
  auto mapped_reader = IndexFileReader::OpenMapped(path);
  if (mapped_reader.ok()) {
    // Structure happened to validate (e.g. a payload-only flip that mapped
    // loads deliberately don't checksum); the full pass must still catch it.
    EXPECT_FALSE(mapped_reader->VerifyChecksums().ok())
        << "corruption escaped both structural checks and checksums";
  }
  return owned.ok() ? Status::OK() : owned.status();
}

/// Patches a SectionEntry field in a pristine image copy and recomputes the
/// section-table and header checksums, so ONLY the structural validation
/// can catch the lie.
std::vector<uint8_t> WithPatchedTable(
    uint32_t section, uint64_t new_offset, uint64_t new_length) {
  std::vector<uint8_t> bytes = Small().bytes;
  const size_t entry_at =
      sizeof(IndexFileHeader) + section * sizeof(SectionEntry);
  std::memcpy(bytes.data() + entry_at, &new_offset, sizeof(new_offset));
  std::memcpy(bytes.data() + entry_at + 8, &new_length, sizeof(new_length));
  // Recompute the table checksum...
  const uint64_t table_sum =
      Hash64(bytes.data() + sizeof(IndexFileHeader),
             kNumIndexSections * sizeof(SectionEntry));
  std::memcpy(bytes.data() + offsetof(IndexFileHeader, section_table_checksum),
              &table_sum, sizeof(table_sum));
  // ...and the header checksum over the patched header.
  IndexFileHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  h.header_checksum = 0;
  const uint64_t header_sum = Hash64(&h, sizeof(h));
  std::memcpy(bytes.data() + offsetof(IndexFileHeader, header_checksum),
              &header_sum, sizeof(header_sum));
  return bytes;
}

TEST(IndexIoCorruptTest, TruncationAtEverySectionBoundaryIsRejected) {
  SmallIndex& s = Small();
  const std::string path = ::testing::TempDir() + "/trunc.mvidx";

  // Collect every interesting cut point: 0, mid-header, each section's
  // start, one byte into it, and one byte short of its end.
  IndexFileHeader h;
  std::memcpy(&h, s.bytes.data(), sizeof(h));
  std::vector<size_t> cuts = {0, 1, sizeof(IndexFileHeader) / 2,
                              sizeof(IndexFileHeader),
                              sizeof(IndexFileHeader) + 8};
  for (uint32_t sec = 0; sec < kNumIndexSections; ++sec) {
    SectionEntry e;
    std::memcpy(&e, s.bytes.data() + sizeof(IndexFileHeader) +
                        sec * sizeof(SectionEntry),
                sizeof(e));
    cuts.push_back(static_cast<size_t>(e.offset));
    if (e.length > 0) {
      cuts.push_back(static_cast<size_t>(e.offset) + 1);
      cuts.push_back(static_cast<size_t>(e.offset + e.length) - 1);
    }
  }
  cuts.push_back(s.bytes.size() - 1);

  for (const size_t cut : cuts) {
    ASSERT_LT(cut, s.bytes.size());
    if (cut == 0) {
      // MmapFile refuses empty files outright; cover it via the zero-byte
      // write then skip the slicing below.
      WriteFile(path, {});
      SmallIndex& w = Small();
      BddManager mgr(w.engine->manager().order());
      EXPECT_FALSE(MvIndex::Load(path, &mgr).ok());
      EXPECT_FALSE(MvIndex::LoadMapped(path, &mgr).ok());
      continue;
    }
    WriteFile(path, std::vector<uint8_t>(s.bytes.begin(),
                                         s.bytes.begin() +
                                             static_cast<ptrdiff_t>(cut)));
    const Status st = ExpectRejected(path);
    EXPECT_FALSE(st.ok()) << "cut at " << cut;
    // Mapped open must also refuse structurally (file_bytes mismatch at
    // minimum) — truncation must never survive to a fault at query time.
    EXPECT_FALSE(IndexFileReader::OpenMapped(path).ok()) << "cut at " << cut;
  }
}

TEST(IndexIoCorruptTest, EveryHeaderByteFlipIsRejected) {
  SmallIndex& s = Small();
  const std::string path = ::testing::TempDir() + "/hdrflip.mvidx";
  for (size_t i = 0; i < sizeof(IndexFileHeader); ++i) {
    for (const uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::vector<uint8_t> bytes = s.bytes;
      bytes[i] ^= mask;
      WriteFile(path, bytes);
      BddManager mgr(s.engine->manager().order());
      EXPECT_FALSE(MvIndex::Load(path, &mgr).ok())
          << "header byte " << i << " mask " << int{mask};
      EXPECT_FALSE(MvIndex::LoadMapped(path, &mgr).ok())
          << "header byte " << i << " mask " << int{mask};
    }
  }
}

TEST(IndexIoCorruptTest, SectionTableFlipsAreRejected) {
  SmallIndex& s = Small();
  const std::string path = ::testing::TempDir() + "/tableflip.mvidx";
  const size_t table_at = sizeof(IndexFileHeader);
  const size_t table_len = kNumIndexSections * sizeof(SectionEntry);
  for (size_t i = 0; i < table_len; i += 3) {  // stride keeps runtime sane
    std::vector<uint8_t> bytes = s.bytes;
    bytes[table_at + i] ^= 0x40;
    WriteFile(path, bytes);
    BddManager mgr(s.engine->manager().order());
    EXPECT_FALSE(MvIndex::Load(path, &mgr).ok()) << "table byte " << i;
    EXPECT_FALSE(MvIndex::LoadMapped(path, &mgr).ok()) << "table byte " << i;
  }
}

TEST(IndexIoCorruptTest, PayloadFlipsAreCaughtByChecksums) {
  SmallIndex& s = Small();
  const std::string path = ::testing::TempDir() + "/payloadflip.mvidx";
  // One flip inside each section's payload (skipping empty sections).
  for (uint32_t sec = 0; sec < kNumIndexSections; ++sec) {
    SectionEntry e;
    std::memcpy(&e, s.bytes.data() + sizeof(IndexFileHeader) +
                        sec * sizeof(SectionEntry),
                sizeof(e));
    if (e.length == 0) continue;
    std::vector<uint8_t> bytes = s.bytes;
    bytes[static_cast<size_t>(e.offset + e.length / 2)] ^= 0x10;
    WriteFile(path, bytes);
    ExpectRejected(path);
  }
}

TEST(IndexIoCorruptTest, LyingSectionTablesAreRejectedStructurally) {
  SmallIndex& s = Small();
  const std::string path = ::testing::TempDir() + "/liar.mvidx";
  SectionEntry levels;
  std::memcpy(&levels, s.bytes.data() + sizeof(IndexFileHeader) +
                           kSecLevels * sizeof(SectionEntry),
              sizeof(levels));

  struct Lie {
    const char* what;
    uint64_t offset;
    uint64_t length;
  };
  const Lie lies[] = {
      {"offset past EOF", s.bytes.size() + 4096, levels.length},
      {"length past EOF", levels.offset, s.bytes.size()},
      {"offset+length overflow", levels.offset, ~uint64_t{0} - 32},
      {"unaligned offset", levels.offset + 4, levels.length},
      {"length disagrees with node count", levels.offset, levels.length + 64},
      {"length not elem multiple", levels.offset, levels.length + 1},
  };
  for (const Lie& lie : lies) {
    WriteFile(path, WithPatchedTable(kSecLevels, lie.offset, lie.length));
    BddManager mgr(s.engine->manager().order());
    auto owned = MvIndex::Load(path, &mgr);
    EXPECT_FALSE(owned.ok()) << lie.what;
    EXPECT_EQ(owned.status().code(), StatusCode::kInvalidArgument) << lie.what;
    EXPECT_FALSE(MvIndex::LoadMapped(path, &mgr).ok()) << lie.what;
  }
}

TEST(IndexIoCorruptTest, LyingHeaderCountsAreRejected) {
  SmallIndex& s = Small();
  const std::string path = ::testing::TempDir() + "/counts.mvidx";
  auto with_header = [&](auto&& mutate) {
    std::vector<uint8_t> bytes = s.bytes;
    IndexFileHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    mutate(&h);
    h.header_checksum = 0;
    h.header_checksum = Hash64(&h, sizeof(h));
    std::memcpy(bytes.data(), &h, sizeof(h));
    return bytes;
  };

  // Each lie keeps a valid header checksum; structural checks must object.
  WriteFile(path, with_header([](IndexFileHeader* h) { h->num_nodes *= 2; }));
  EXPECT_EQ(ExpectRejected(path).code(), StatusCode::kInvalidArgument);

  WriteFile(path, with_header([](IndexFileHeader* h) {
    h->root = static_cast<int64_t>(h->num_nodes) + 7;
  }));
  EXPECT_EQ(ExpectRejected(path).code(), StatusCode::kInvalidArgument);

  WriteFile(path, with_header([](IndexFileHeader* h) { h->root = -3; }));
  EXPECT_EQ(ExpectRejected(path).code(), StatusCode::kInvalidArgument);

  WriteFile(path, with_header([](IndexFileHeader* h) { h->file_bytes += 1; }));
  EXPECT_EQ(ExpectRejected(path).code(), StatusCode::kInvalidArgument);

  WriteFile(path, with_header([](IndexFileHeader* h) {
    h->format_version = kIndexFormatVersion + 1;
  }));
  {
    const Status st = ExpectRejected(path);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.ToString().find("version"), std::string::npos);
  }
}

TEST(IndexIoCorruptTest, ForeignEndianFileIsRejectedWithClearMessage) {
  SmallIndex& s = Small();
  const std::string path = ::testing::TempDir() + "/bigendian.mvidx";
  // Simulate a big-endian writer: its header words land byte-swapped on a
  // little-endian reader. Swapping magic + endian_tag is enough to hit the
  // detection path (the rest of the file is never consulted).
  std::vector<uint8_t> bytes = s.bytes;
  uint64_t magic;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  magic = __builtin_bswap64(magic);
  std::memcpy(bytes.data(), &magic, sizeof(magic));
  uint32_t tag;
  std::memcpy(&tag, bytes.data() + offsetof(IndexFileHeader, endian_tag),
              sizeof(tag));
  tag = __builtin_bswap32(tag);
  std::memcpy(bytes.data() + offsetof(IndexFileHeader, endian_tag), &tag,
              sizeof(tag));
  WriteFile(path, bytes);
  const Status st = ExpectRejected(path);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("endian"), std::string::npos);
}

TEST(IndexIoCorruptTest, CorruptBlockDirectoryIsRejectedEvenWhenMapped) {
  SmallIndex& s = Small();
  ASSERT_GT(s.engine->index().blocks().size(), 0u);
  const std::string path = ::testing::TempDir() + "/blockdir.mvidx";
  const size_t dir_at = [&] {
    SectionEntry e;
    std::memcpy(&e, s.bytes.data() + sizeof(IndexFileHeader) +
                        kSecBlockDir * sizeof(SectionEntry),
                sizeof(e));
    return static_cast<size_t>(e.offset);
  }();

  auto with_record = [&](auto&& mutate) {
    std::vector<uint8_t> bytes = s.bytes;
    IndexBlockRecord rec;
    std::memcpy(&rec, bytes.data() + dir_at, sizeof(rec));
    mutate(&rec);
    std::memcpy(bytes.data() + dir_at, &rec, sizeof(rec));
    // Recompute the block-dir section checksum + table + header sums so the
    // record lie is the only thing left to catch.
    SectionEntry e;
    const size_t entry_at =
        sizeof(IndexFileHeader) + kSecBlockDir * sizeof(SectionEntry);
    std::memcpy(&e, bytes.data() + entry_at, sizeof(e));
    e.checksum = Hash64(bytes.data() + e.offset, e.length);
    std::memcpy(bytes.data() + entry_at, &e, sizeof(e));
    const uint64_t table_sum =
        Hash64(bytes.data() + sizeof(IndexFileHeader),
               kNumIndexSections * sizeof(SectionEntry));
    std::memcpy(bytes.data() +
                    offsetof(IndexFileHeader, section_table_checksum),
                &table_sum, sizeof(table_sum));
    IndexFileHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    h.header_checksum = 0;
    const uint64_t header_sum = Hash64(&h, sizeof(h));
    std::memcpy(bytes.data() + offsetof(IndexFileHeader, header_checksum),
                &header_sum, sizeof(header_sum));
    return bytes;
  };

  BddManager mgr(s.engine->manager().order());
  WriteFile(path, with_record([&](IndexBlockRecord* r) {
    r->chain_root = static_cast<int32_t>(s.engine->index().flat().size()) + 5;
  }));
  EXPECT_FALSE(MvIndex::LoadMapped(path, &mgr).ok());
  EXPECT_FALSE(MvIndex::Load(path, &mgr).ok());

  WriteFile(path, with_record([](IndexBlockRecord* r) {
    r->key_offset = ~uint64_t{0} - 8;
    r->key_len = 16;
  }));
  EXPECT_FALSE(MvIndex::LoadMapped(path, &mgr).ok());
  EXPECT_FALSE(MvIndex::Load(path, &mgr).ok());

  WriteFile(path, with_record([](IndexBlockRecord* r) {
    r->first_level = 5;
    r->last_level = 2;
  }));
  EXPECT_FALSE(MvIndex::LoadMapped(path, &mgr).ok());
  EXPECT_FALSE(MvIndex::Load(path, &mgr).ok());
}

TEST(IndexIoCorruptTest, GarbageFilesAreRejected) {
  SmallIndex& s = Small();
  BddManager mgr(s.engine->manager().order());
  const std::string path = ::testing::TempDir() + "/garbage.mvidx";

  WriteFile(path, {0xde, 0xad, 0xbe, 0xef});
  EXPECT_FALSE(MvIndex::Load(path, &mgr).ok());
  EXPECT_FALSE(MvIndex::LoadMapped(path, &mgr).ok());

  std::vector<uint8_t> noise(8192);
  uint64_t x = 0x243F6A8885A308D3ULL;  // deterministic pseudo-noise
  for (auto& b : noise) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  WriteFile(path, noise);
  EXPECT_FALSE(MvIndex::Load(path, &mgr).ok());
  EXPECT_FALSE(MvIndex::LoadMapped(path, &mgr).ok());
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  MVDB_CHECK(in.good()) << path;
  std::vector<uint8_t> bytes(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  MVDB_CHECK(in.good()) << path;
  return bytes;
}

TEST(IndexIoCorruptTest, OlderFormatVersionsAreRejectedWithRebuildMessage) {
  // Index files are rebuildable caches: a v1 or v2 file is refused by both
  // loaders with a typed message that names its version and says to
  // rebuild. The version word sits at byte offset 8 in every generation and
  // is checked before anything else, so patching it in the pristine image
  // is all an old file needs to show.
  SmallIndex& s = Small();
  const std::string path = ::testing::TempDir() + "/oldversion.mvidx";
  BddManager mgr(s.engine->manager().order());
  for (const uint32_t version : {1u, 2u}) {
    std::vector<uint8_t> bytes = s.bytes;
    std::memcpy(bytes.data() + 8, &version, sizeof(version));
    WriteFile(path, bytes);
    const Status owned = MvIndex::Load(path, &mgr).status();
    const Status mapped = MvIndex::LoadMapped(path, &mgr).status();
    for (const Status& st : {owned, mapped}) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
      EXPECT_NE(st.ToString().find("version " + std::to_string(version)),
                std::string::npos)
          << st.ToString();
      EXPECT_NE(st.ToString().find("rebuild"), std::string::npos)
          << st.ToString();
    }
  }
}

TEST(IndexIoCorruptTest, CorruptedAnnotationSchemeTagIsRejected) {
  SmallIndex& s = Small();
  const std::string path = ::testing::TempDir() + "/scheme.mvidx";
  auto with_scheme = [&](uint32_t scheme) {
    std::vector<uint8_t> bytes = s.bytes;
    IndexFileHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    h.annotation_scheme = scheme;
    h.header_checksum = 0;
    h.header_checksum = Hash64(&h, sizeof(h));
    std::memcpy(bytes.data(), &h, sizeof(h));
    return bytes;
  };
  // A v3 file claiming the retired v2 (global-suffix) scheme tag 1, a zero
  // tag, and an unknown future tag: all must be refused by name, because
  // serving global-suffix annotations through block-local consumers would
  // silently double-count every suffix product.
  for (const uint32_t scheme : {1u, 0u, 7u}) {
    WriteFile(path, with_scheme(scheme));
    const Status st = ExpectRejected(path);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << scheme;
    EXPECT_NE(st.ToString().find("annotation scheme"), std::string::npos)
        << st.ToString();
  }
}

TEST(IndexIoCorruptTest, CrashMidPatchFileMatrixRecovers) {
  // The v3 partial-patch path (per-level doubles + dirty-block probUnder
  // slices) under the same crash matrix the v2 whole-section path survived:
  // a crash after the dirty mark, and a crash after the payload pwrites,
  // must each leave a file that loaders refuse as kFailedPrecondition, and
  // a re-patch must land the file byte-identical to a fresh Save. A fresh
  // engine (not the shared fixture) so the mutation stays local.
  auto mvdb = std::make_unique<Mvdb>();
  Database& db = mvdb->db();
  ASSERT_TRUE(db.CreateTable("R", {"x"}, true).ok());
  ASSERT_TRUE(db.CreateTable("S", {"x", "y"}, true).ok());
  for (int x = 1; x <= 4; ++x) {
    db.InsertProbabilistic("R", {x}, 0.5 + 0.1 * x);
    for (int y = 1; y <= 3; ++y) {
      db.InsertProbabilistic("S", {x, y}, 0.3 + 0.05 * y);
    }
  }
  Ucq v1 = MustParse("V1(x) :- R(x), S(x,y).", &db.dict());
  ASSERT_TRUE(mvdb->AddView(MarkoView::Constant("V1", std::move(v1), 2.0)).ok());
  QueryEngine engine(mvdb.get());
  ASSERT_TRUE(engine.Compile().ok());
  const std::string path = ::testing::TempDir() + "/crashpatch.mvidx";
  ASSERT_TRUE(engine.SaveIndex(path).ok());

  DeltaOp op;
  op.kind = DeltaOp::Kind::kUpdateWeight;
  op.table = "R";
  op.values = {2};
  op.weight = 0.9;
  ASSERT_TRUE(engine.ApplyDelta({op}).ok());

  BddManager probe(engine.manager().order());
  for (const bool after_payload : {false, true}) {
    IndexPatchOptions crash;
    crash.crash_after_dirty_mark = !after_payload;
    crash.crash_after_payload = after_payload;
    ASSERT_TRUE(engine.index().PatchFile(path, crash).ok());
    auto owned = MvIndex::Load(path, &probe);
    ASSERT_FALSE(owned.ok()) << "after_payload=" << after_payload;
    EXPECT_EQ(owned.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(MvIndex::LoadMapped(path, &probe).status().code(),
              StatusCode::kFailedPrecondition);
    // Recovery: the pending dirty set is still armed, so a plain re-patch
    // rewrites the slices and clears the flag.
    ASSERT_TRUE(engine.index().PatchFile(path).ok());
    ASSERT_TRUE(MvIndex::Load(path, &probe).ok());
  }

  // The partially-patched file must equal a from-scratch Save of the same
  // in-memory index: the slice writes may not leave even one stale byte.
  const std::string fresh = ::testing::TempDir() + "/crashfresh.mvidx";
  ASSERT_TRUE(engine.SaveIndex(fresh).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(fresh));
}

TEST(IndexIoCorruptTest, EngineOpenIndexSurfacesTypedErrors) {
  // The engine wrapper must pass loader failures through, not abort, and a
  // database whose variables disagree with the file must be refused.
  SmallIndex& s = Small();
  auto fresh = std::make_unique<Mvdb>();
  Database& db = fresh->db();
  MVDB_CHECK(db.CreateTable("R", {"x"}, true).ok());
  MVDB_CHECK(db.CreateTable("S", {"x", "y"}, true).ok());
  // Half the tuples of the saved instance: fewer variables.
  for (int x = 1; x <= 2; ++x) {
    db.InsertProbabilistic("R", {x}, 0.5);
    db.InsertProbabilistic("S", {x, 1}, 0.4);
  }
  Ucq v1 = MustParse("V1(x) :- R(x), S(x,y).", &db.dict());
  MVDB_CHECK(fresh->AddView(MarkoView::Constant("V1", std::move(v1), 2.0)).ok());
  QueryEngine engine(fresh.get());
  const Status st = engine.OpenIndex(s.path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.compiled());
}

}  // namespace
}  // namespace mvdb

// Determinism of the parallel DBLP generator: the plan/emit pipeline draws
// every random decision from per-entity RNG streams, so the generated MVDB
// must be *bit-identical* for any DblpConfig::num_threads. A golden hash
// additionally pins the default-config dataset, so a refactor that silently
// shifts the workload (different draws, different emission order) fails
// loudly instead of skewing every benchmark built on the generator.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/mvdb.h"
#include "dblp/dblp.h"
#include "relational/database.h"
#include "test_util.h"

namespace mvdb {
namespace {

using testing_util::DoubleBits;
using testing_util::FnvMix;

/// FNV-1a over everything the generator emits: every table's rows in
/// insertion order, per-tuple weights and variable ids, and the global
/// variable-weight registry. Bit-identical databases — and only those —
/// hash equal.
uint64_t HashDatabase(const Database& db) {
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& name : db.table_names()) {
    const Table* t = db.Find(name);
    for (char c : name) FnvMix(static_cast<uint64_t>(c), &h);
    FnvMix(t->arity(), &h);
    FnvMix(t->size(), &h);
    for (RowId r = 0; r < t->size(); ++r) {
      for (Value v : t->Row(r)) FnvMix(static_cast<uint64_t>(v), &h);
      if (t->probabilistic()) {
        FnvMix(DoubleBits(t->weight(r)), &h);
        FnvMix(static_cast<uint64_t>(t->var(r)), &h);
      }
    }
  }
  FnvMix(db.num_vars(), &h);
  for (size_t v = 0; v < db.num_vars(); ++v) {
    FnvMix(DoubleBits(db.var_weight(static_cast<VarId>(v))), &h);
  }
  return h;
}

dblp::DblpConfig MidConfig(int threads) {
  dblp::DblpConfig cfg;
  cfg.num_authors = 400;
  cfg.include_affiliation = true;
  cfg.num_threads = threads;
  return cfg;
}

TEST(DblpDeterminismTest, ThreadCountsAreBitIdentical) {
  dblp::DblpStats s1, s2, s8;
  auto m1 = dblp::BuildDblpMvdb(MidConfig(1), &s1);
  auto m2 = dblp::BuildDblpMvdb(MidConfig(2), &s2);
  auto m8 = dblp::BuildDblpMvdb(MidConfig(8), &s8);
  ASSERT_TRUE(m1.ok() && m2.ok() && m8.ok());

  // Row-level comparison for 1 vs 2 (pinpoints the first divergence)...
  const Database& d1 = (*m1)->db();
  const Database& d2 = (*m2)->db();
  ASSERT_EQ(d1.table_names(), d2.table_names());
  for (const std::string& name : d1.table_names()) {
    const Table* t1 = d1.Find(name);
    const Table* t2 = d2.Find(name);
    ASSERT_EQ(t1->size(), t2->size()) << name;
    for (RowId r = 0; r < t1->size(); ++r) {
      for (size_t c = 0; c < t1->arity(); ++c) {
        ASSERT_EQ(t1->At(r, c), t2->At(r, c)) << name << " row " << r;
      }
      ASSERT_EQ(t1->weight(r), t2->weight(r)) << name << " row " << r;
      ASSERT_EQ(t1->var(r), t2->var(r)) << name << " row " << r;
    }
  }
  // ... and the full-fidelity hash for all three thread counts.
  const uint64_t h1 = HashDatabase(d1);
  EXPECT_EQ(h1, HashDatabase(d2));
  EXPECT_EQ(h1, HashDatabase((*m8)->db()));

  EXPECT_EQ(s1.pubs, s8.pubs);
  EXPECT_EQ(s1.wrote, s8.wrote);
  EXPECT_EQ(s1.advisor, s8.advisor);
  EXPECT_EQ(s1.affiliation, s8.affiliation);
}

TEST(DblpDeterminismTest, HardwareThreadsOptionIsBitIdentical) {
  // num_threads <= 0 resolves to hardware concurrency — still pinned.
  auto serial = dblp::BuildDblpMvdb(MidConfig(1), nullptr);
  auto hw = dblp::BuildDblpMvdb(MidConfig(0), nullptr);
  ASSERT_TRUE(serial.ok() && hw.ok());
  EXPECT_EQ(HashDatabase((*serial)->db()), HashDatabase((*hw)->db()));
}

TEST(DblpDeterminismTest, GoldenHashPinsDefaultConfigDataset) {
  // Default config: 1000 authors, affiliation machinery on, seed 7. If an
  // intentional generator change moves this value, re-pin it *and* expect
  // every DBLP-derived benchmark number to shift with it.
  auto mvdb = dblp::BuildDblpMvdb(dblp::DblpConfig{}, nullptr);
  ASSERT_TRUE(mvdb.ok());
  EXPECT_EQ(HashDatabase((*mvdb)->db()), 11514991765092611145ULL);
}

TEST(DblpDeterminismTest, TranslationOnTopStaysDeterministic) {
  // The downstream consumer: translated views over a threads=8 build match
  // the serial build tuple-for-tuple (weights included).
  auto a = dblp::BuildDblpMvdb(MidConfig(1), nullptr);
  auto b = dblp::BuildDblpMvdb(MidConfig(8), nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Translate().ok());
  ASSERT_TRUE((*b)->Translate().ok());
  EXPECT_EQ(HashDatabase((*a)->db()), HashDatabase((*b)->db()));
  ASSERT_EQ((*a)->view_tuples().size(), (*b)->view_tuples().size());
  for (size_t i = 0; i < (*a)->view_tuples().size(); ++i) {
    ASSERT_EQ((*a)->view_tuples()[i].size(), (*b)->view_tuples()[i].size());
    for (size_t j = 0; j < (*a)->view_tuples()[i].size(); ++j) {
      EXPECT_EQ((*a)->view_tuples()[i][j].weight,
                (*b)->view_tuples()[i][j].weight);
    }
  }
}

}  // namespace
}  // namespace mvdb

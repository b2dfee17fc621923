// Determinism of the parallel MVDB -> INDB translation: Translate() shards
// view materialization (driver-atom ranges with per-worker answer maps) and
// per-tuple weight computation over TranslateOptions::num_threads, and its
// entire output — view tuple order, weights, the W constraint query, NV
// tables and variable numbering — must be *bit-identical* for every thread
// count. A golden hash additionally pins the translated mid-size DBLP
// database, like dblp_determinism_test pins the generator, so a front-end
// refactor that silently changes the translation fails loudly.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/mvdb.h"
#include "dblp/dblp.h"
#include "query/parser.h"
#include "relational/database.h"
#include "test_util.h"
#include "util/rng.h"

namespace mvdb {
namespace {

using testing_util::DoubleBits;
using testing_util::FnvMix;
using testing_util::MustParse;

/// FNV-1a over every table's rows (insertion order), per-tuple weights and
/// variable ids, and the variable registry. Post-translation this covers
/// the NV tables and their fresh variables too.
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

/// Everything Translate() produced, hashed: the database (NV tables, vars),
/// every view tuple (head, weight bits, nv_var, canonical feature DNF), and
/// the structure of W.
uint64_t HashTranslation(const Mvdb& mvdb) {
  uint64_t h = HashDatabase(mvdb.db());
  FnvMix(mvdb.base_num_vars(), &h);
  for (const auto& tuples : mvdb.view_tuples()) {
    FnvMix(tuples.size(), &h);
    for (const ViewTuple& t : tuples) {
      for (Value v : t.head) FnvMix(static_cast<uint64_t>(v), &h);
      FnvMix(DoubleBits(t.weight), &h);
      FnvMix(static_cast<uint64_t>(t.nv_var), &h);
      FnvMix(t.feature.size(), &h);
      for (size_t c = 0; c < t.feature.size(); ++c) {
        for (VarId v : t.feature.pos(c)) FnvMix(static_cast<uint64_t>(v), &h);
        FnvMix(0x5eedULL, &h);
        for (VarId v : t.feature.neg(c)) FnvMix(static_cast<uint64_t>(v), &h);
      }
    }
  }
  const Ucq& w = mvdb.W();
  FnvMix(w.disjuncts.size(), &h);
  FnvMix(static_cast<uint64_t>(w.num_vars()), &h);
  for (const ConjunctiveQuery& cq : w.disjuncts) {
    FnvMix(cq.atoms.size(), &h);
    for (const Atom& a : cq.atoms) {
      for (char c : a.relation) FnvMix(static_cast<uint64_t>(c), &h);
      for (const Term& t : a.args) {
        FnvMix(t.is_var() ? static_cast<uint64_t>(t.var)
                          : 0x8000000000000000ULL ^
                                static_cast<uint64_t>(t.constant),
               &h);
      }
    }
    FnvMix(cq.comparisons.size(), &h);
  }
  return h;
}

/// An MVDB whose view drivers are large enough (thousands of driver rows)
/// that the sharded evaluation actually fans out, unlike the tiny
/// RandomMvdb instances.
std::unique_ptr<Mvdb> WideMvdb(uint64_t seed) {
  Rng rng(seed);
  auto mvdb = std::make_unique<Mvdb>();
  Database& db = mvdb->db();
  MVDB_CHECK(db.CreateTable("R", {"x"}, true).ok());
  MVDB_CHECK(db.CreateTable("S", {"x", "y"}, true).ok());
  MVDB_CHECK(db.CreateTable("T", {"y"}, true).ok());
  const int n = 4000;
  for (int x = 1; x <= n; ++x) {
    if (rng.Chance(0.9)) db.InsertProbabilistic("R", {x}, 0.3 + rng.Uniform());
    const int fanout = static_cast<int>(rng.Below(4));
    for (int k = 0; k < fanout; ++k) {
      const Value y = 1 + static_cast<Value>(rng.Below(64));
      db.InsertProbabilistic("S", {x, y}, 0.2 + rng.Uniform() * 2.0);
    }
  }
  for (int y = 1; y <= 64; ++y) {
    db.InsertProbabilistic("T", {y}, 0.5 + rng.Uniform());
  }
  Ucq v1 = MustParse("V1(x) :- R(x), S(x,y), T(y).", &db.dict());
  MVDB_CHECK(mvdb->AddView(MarkoView(
                 "V1", std::move(v1), /*count_var=*/1,
                 [](std::span<const Value>, int64_t count) {
                   return static_cast<double>(count) / 2.0;
                 }))
                 .ok());
  Ucq v2 = MustParse("V2(y) :- T(y), S(x,y).", &db.dict());
  MVDB_CHECK(
      mvdb->AddView(MarkoView::Constant("V2", std::move(v2), 3.0)).ok());
  return mvdb;
}

TEST(TranslationParallelTest, WideMvdbThreadCountsBitIdentical) {
  for (uint64_t seed : {11ULL, 29ULL}) {
    uint64_t reference = 0;
    for (int threads : {1, 2, 8, 0}) {
      auto mvdb = WideMvdb(seed);
      ASSERT_TRUE(mvdb->Translate(TranslateOptions{threads}).ok());
      const uint64_t h = HashTranslation(*mvdb);
      if (threads == 1) {
        reference = h;
      } else {
        EXPECT_EQ(h, reference) << "seed=" << seed << " threads=" << threads;
      }
    }
  }
}

TEST(TranslationParallelTest, RandomMvdbsThreadCountsBitIdentical) {
  Rng rng(123);
  for (int round = 0; round < 20; ++round) {
    testing_util::RandomMvdbSpec spec;
    spec.domain = 3 + static_cast<int>(rng.Below(3));
    const uint64_t instance_seed = rng.Next();
    auto make = [&]() {
      Rng r(instance_seed);
      return testing_util::RandomMvdb(&r, spec);
    };
    auto serial = make();
    ASSERT_TRUE(serial->Translate(TranslateOptions{1}).ok());
    const uint64_t reference = HashTranslation(*serial);
    for (int threads : {2, 8}) {
      auto parallel = make();
      ASSERT_TRUE(parallel->Translate(TranslateOptions{threads}).ok());
      EXPECT_EQ(HashTranslation(*parallel), reference)
          << "round=" << round << " threads=" << threads;
    }
  }
}

TEST(TranslationParallelTest, DblpTranslationBitIdenticalAndViewTuplesMatch) {
  dblp::DblpConfig cfg;
  cfg.num_authors = 400;
  cfg.include_affiliation = true;
  auto build = [&](int threads) {
    auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
    MVDB_CHECK(mvdb.ok());
    MVDB_CHECK((*mvdb)->Translate(TranslateOptions{threads}).ok());
    return std::move(*mvdb);
  };
  auto serial = build(1);
  const uint64_t reference = HashTranslation(*serial);
  for (int threads : {2, 8, 0}) {
    auto parallel = build(threads);
    EXPECT_EQ(HashTranslation(*parallel), reference) << "threads=" << threads;
    // Field-level comparison on top of the hash, pinpointing divergences.
    ASSERT_EQ(parallel->view_tuples().size(), serial->view_tuples().size());
    for (size_t i = 0; i < serial->view_tuples().size(); ++i) {
      const auto& a = serial->view_tuples()[i];
      const auto& b = parallel->view_tuples()[i];
      ASSERT_EQ(a.size(), b.size()) << "view " << i;
      for (size_t j = 0; j < a.size(); ++j) {
        ASSERT_EQ(a[j].head, b[j].head) << "view " << i << " tuple " << j;
        ASSERT_EQ(a[j].weight, b[j].weight) << "view " << i << " tuple " << j;
        ASSERT_EQ(a[j].nv_var, b[j].nv_var) << "view " << i << " tuple " << j;
        ASSERT_EQ(a[j].feature.ToString(), b[j].feature.ToString());
      }
    }
  }
}

TEST(TranslationParallelTest, GoldenHashPinsDblp400Translation) {
  // 400 authors, affiliation on, seed 7, translated. If an intentional
  // front-end change moves this value, re-pin it *and* expect the compiled
  // index of every DBLP benchmark to shift with it.
  dblp::DblpConfig cfg;
  cfg.num_authors = 400;
  cfg.include_affiliation = true;
  auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
  ASSERT_TRUE(mvdb.ok());
  ASSERT_TRUE((*mvdb)->Translate(TranslateOptions{0}).ok());
  EXPECT_EQ(HashTranslation(**mvdb), 13031864354544179641ULL);
}

}  // namespace
}  // namespace mvdb

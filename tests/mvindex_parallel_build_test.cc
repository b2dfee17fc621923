// Determinism of the sharded offline pipeline: for any thread count, the
// MV-index build must be *bit-identical* to the serial build — same block
// keys and level ranges, same extended-range block probabilities, the same
// stitched flat layout node for node, the same P0(NOT W), and the same
// per-query intersect numerators. Soundness rests on the blocks being
// variable-disjoint (Section 4) and on every shard manager sharing the one
// immutable VarOrder; these tests are the executable form of that argument.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "mvindex/mv_index.h"
#include "obdd/order.h"
#include "query/eval.h"
#include "test_util.h"

namespace mvdb {
namespace {

using testing_util::MustParse;
using testing_util::RandomMvdb;
using testing_util::RandomMvdbSpec;

/// Asserts the two compiled indexes are identical: block metadata, flat
/// topology, annotations, and overall probability. Everything is compared
/// exactly (ScaledDouble operator== is bitwise on the normalized form).
void ExpectIdenticalIndexes(const MvIndex& a, const MvIndex& b) {
  ASSERT_EQ(a.blocks().size(), b.blocks().size());
  for (size_t i = 0; i < a.blocks().size(); ++i) {
    const MvBlock& ba = a.blocks()[i];
    const MvBlock& bb = b.blocks()[i];
    EXPECT_EQ(a.block_key(i), b.block_key(i)) << "block " << i;
    EXPECT_EQ(ba.chain_root, bb.chain_root) << "block " << i;
    EXPECT_EQ(ba.first_level, bb.first_level) << "block " << i;
    EXPECT_EQ(ba.last_level, bb.last_level) << "block " << i;
    EXPECT_TRUE(ba.prob == bb.prob) << "block " << i << ": "
        << ba.prob.ToString() << " vs " << bb.prob.ToString();
  }
  ASSERT_EQ(a.flat().size(), b.flat().size());
  EXPECT_EQ(a.flat().root(), b.flat().root());
  for (FlatId u = 0; u < static_cast<FlatId>(a.flat().size()); ++u) {
    ASSERT_EQ(a.flat().level(u), b.flat().level(u)) << "node " << u;
    ASSERT_EQ(a.flat().lo(u), b.flat().lo(u)) << "node " << u;
    ASSERT_EQ(a.flat().hi(u), b.flat().hi(u)) << "node " << u;
    ASSERT_TRUE(a.flat().prob_under_scaled(u) == b.flat().prob_under_scaled(u))
        << "node " << u;
  }
  EXPECT_TRUE(a.ProbNotWScaled() == b.ProbNotWScaled())
      << a.ProbNotWScaled().ToString() << " vs " << b.ProbNotWScaled().ToString();
}

class ParallelBuildParityTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelBuildParityTest, ShardedBuildIsBitIdenticalToSerial) {
  Rng rng(4200 + static_cast<uint64_t>(GetParam()));
  RandomMvdbSpec spec;
  spec.domain = 3 + static_cast<int>(rng.Below(3));
  spec.with_binary_view = rng.Chance(0.7);
  auto mvdb = RandomMvdb(&rng, spec);
  if (mvdb->db().num_vars() == 0) GTEST_SKIP() << "empty random instance";

  // Both engines borrow the same Mvdb: compilation only reads the database
  // after the (idempotent) translation.
  QueryEngine serial(mvdb.get());
  auto st = serial.Compile(CompileOptions{.num_threads = 1});
  ASSERT_TRUE(st.ok()) << st.ToString();
  QueryEngine sharded(mvdb.get());
  st = sharded.Compile(CompileOptions{.num_threads = 4});
  ASSERT_TRUE(st.ok()) << st.ToString();

  ExpectIdenticalIndexes(serial.index(), sharded.index());

  // Per-query numerators: both intersect algorithms must return the exact
  // same extended-range value against either build.
  const char* queries[] = {
      "Q :- R(x).",
      "Q :- S(x,y).",
      "Q :- R(x), S(x,y).",
      "Q :- R(1).",
      "Q :- S(2,y), R(y).",
  };
  CcSweepScratch scratch;
  for (const char* qs : queries) {
    Ucq q = MustParse(qs, &mvdb->db().dict());
    const Lineage lin = *EvalBoolean(mvdb->db(), q);
    const NodeId b1 = serial.manager().FromLineageSynthesis(lin);
    const NodeId b2 = sharded.manager().FromLineageSynthesis(lin);
    EXPECT_TRUE(serial.index().CCMVIntersectScaled(
                    CcQuery{&serial.manager(), b1}, &scratch) ==
                sharded.index().CCMVIntersectScaled(
                    CcQuery{&sharded.manager(), b2}, &scratch))
        << qs;
    EXPECT_TRUE(serial.index().MVIntersectScaled(b1) ==
                sharded.index().MVIntersectScaled(b2))
        << qs;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ParallelBuildParityTest,
                         ::testing::Range(0, 15));

TEST(ParallelBuildTest, DblpParityAndBackendAgreement) {
  dblp::DblpConfig cfg;
  cfg.num_authors = 300;
  cfg.include_affiliation = true;
  auto mvdb_serial = dblp::BuildDblpMvdb(cfg, nullptr);
  auto mvdb_sharded = dblp::BuildDblpMvdb(cfg, nullptr);
  ASSERT_TRUE(mvdb_serial.ok());
  ASSERT_TRUE(mvdb_sharded.ok());

  QueryEngine serial(mvdb_serial->get());
  ASSERT_TRUE(serial.Compile(CompileOptions{.num_threads = 1}).ok());
  QueryEngine sharded(mvdb_sharded->get());
  ASSERT_TRUE(
      sharded.Compile(CompileOptions{.num_threads = 4, .reserve_hint = 8192})
          .ok());

  ExpectIdenticalIndexes(serial.index(), sharded.index());
  EXPECT_GT(sharded.index().build_stats().shards, 1);
  EXPECT_EQ(serial.index().build_stats().shards, 1);
  EXPECT_EQ(serial.index().build_stats().flat_nodes,
            sharded.index().build_stats().flat_nodes);

  // Online answers through the sharded build agree with the serial build
  // across backends.
  const Value senior = (*mvdb_serial)->db().Find("Advisor")->At(0, 1);
  const std::string name = dblp::AuthorName(static_cast<int>(senior));
  Ucq q1 = dblp::StudentsOfAdvisorQuery(mvdb_serial->get(), name);
  Ucq q2 = dblp::StudentsOfAdvisorQuery(mvdb_sharded->get(), name);
  for (Backend b : {Backend::kMvIndex, Backend::kMvIndexCC, Backend::kObddReuse}) {
    auto a1 = serial.Query(q1, b);
    auto a2 = sharded.Query(q2, b);
    ASSERT_TRUE(a1.ok());
    ASSERT_TRUE(a2.ok());
    ASSERT_EQ(a1->size(), a2->size());
    for (size_t i = 0; i < a1->size(); ++i) {
      EXPECT_EQ((*a1)[i].head, (*a2)[i].head);
      EXPECT_DOUBLE_EQ((*a1)[i].prob, (*a2)[i].prob) << "answer " << i;
    }
  }
}

TEST(ParallelBuildTest, HardwareThreadsOptionAndOversharding) {
  // num_threads <= 0 resolves to hardware concurrency; more shards than
  // blocks is clamped. Both must still be bit-identical to serial.
  auto mk = [] {
    return dblp::BuildDblpMvdb(dblp::DblpConfig{.num_authors = 120}, nullptr);
  };
  auto serial_db = mk();
  auto hw_db = mk();
  auto over_db = mk();
  QueryEngine serial(serial_db->get());
  ASSERT_TRUE(serial.Compile().ok());  // default options: serial
  QueryEngine hw(hw_db->get());
  ASSERT_TRUE(hw.Compile(CompileOptions{.num_threads = 0}).ok());
  QueryEngine over(over_db->get());
  ASSERT_TRUE(over.Compile(CompileOptions{.num_threads = 1 << 10}).ok());
  ExpectIdenticalIndexes(serial.index(), hw.index());
  ExpectIdenticalIndexes(serial.index(), over.index());
  EXPECT_LE(over.index().build_stats().shards,
            static_cast<int>(over.index().build_stats().block_tasks));
}

TEST(BddManagerHooksTest, ClearOpCachesPreservesHashConsing) {
  Database db;
  ASSERT_TRUE(db.CreateTable("R", {"a"}, true).ok());
  ASSERT_TRUE(db.CreateTable("S", {"a", "b"}, true).ok());
  for (int x = 1; x <= 3; ++x) {
    db.InsertProbabilistic("R", {x}, 1.0);
    db.InsertProbabilistic("S", {x, 10 + x}, 1.0);
  }
  BddManager mgr(BuildDefaultOrder(db));
  mgr.ReserveNodes(64);
  mgr.ReserveCaches(64);
  const NodeId a = mgr.MkVar(0);
  const NodeId b = mgr.MkVar(1);
  const NodeId conj = mgr.And(a, b);
  const NodeId neg = mgr.Not(conj);
  mgr.ClearOpCaches();
  // Memo tables are gone but the unique table is not: recomputing returns
  // the identical hash-consed nodes.
  EXPECT_EQ(mgr.And(a, b), conj);
  EXPECT_EQ(mgr.Not(conj), neg);
}

TEST(VarOrderTest, SharedAcrossManagers) {
  auto db = testing_util::Fig3Database();
  auto order = std::make_shared<const VarOrder>(BuildDefaultOrder(*db));
  BddManager m1(order);
  BddManager m2(order);
  EXPECT_EQ(m1.num_levels(), order->num_levels());
  EXPECT_EQ(m2.num_levels(), order->num_levels());
  // Same formula in either manager yields an isomorphic (here: equal-id,
  // since both managers are fresh) OBDD.
  ConObddBuilder b1(*db, &m1);
  ConObddBuilder b2(*db, &m2);
  Ucq q1 = MustParse("Q :- R(x), S(x,y).", &db->dict());
  const NodeId f1 = std::move(b1.Build(q1)).value();
  const NodeId f2 = std::move(b2.Build(q1)).value();
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(m1.num_created(), m2.num_created());
}

}  // namespace
}  // namespace mvdb

// Unit + property tests for the MV-index: flat layout, probUnder
// annotations, block structure, and both intersection algorithms
// (Section 4.3).

#include <gtest/gtest.h>

#include "mvindex/mv_index.h"
#include "obdd/order.h"
#include "prob/brute_force.h"
#include "query/eval.h"
#include "test_util.h"

namespace mvdb {
namespace {

using testing_util::Fig3Database;
using testing_util::MustParse;
using testing_util::RandomLineage;
using testing_util::RandomProbs;

std::vector<VarId> Identity(int n) {
  std::vector<VarId> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  return order;
}

TEST(FlatObddTest, SinkRoots) {
  BddManager mgr(Identity(2));
  FlatObdd t(mgr, BddManager::kTrue, {0.5, 0.5});
  EXPECT_EQ(t.root(), kFlatTrue);
  EXPECT_DOUBLE_EQ(t.prob_root(), 1.0);
  FlatObdd f(mgr, BddManager::kFalse, {0.5, 0.5});
  EXPECT_EQ(f.root(), kFlatFalse);
  EXPECT_DOUBLE_EQ(f.prob_root(), 0.0);
}

TEST(FlatObddTest, LevelSortedForwardEdges) {
  Rng rng(3);
  BddManager mgr(Identity(8));
  const Lineage lin = RandomLineage(&rng, 8, 6, 3);
  const auto probs = RandomProbs(&rng, 8);
  const NodeId f = mgr.FromLineageSynthesis(lin);
  FlatObdd flat(mgr, f, probs);
  for (size_t i = 0; i < flat.size(); ++i) {
    const FlatId id = static_cast<FlatId>(i);
    if (i + 1 < flat.size()) {
      EXPECT_LE(flat.level(id), flat.level(static_cast<FlatId>(i + 1)));
    }
    // Edges point strictly forward (children at larger indexes).
    if (flat.lo(id) >= 0) {
      EXPECT_GT(flat.lo(id), id);
    }
    if (flat.hi(id) >= 0) {
      EXPECT_GT(flat.hi(id), id);
    }
  }
}

TEST(FlatObddTest, ProbUnderMatchesManagerProb) {
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    BddManager mgr(Identity(8));
    const Lineage lin = RandomLineage(&rng, 8, 5, 3);
    const auto probs = RandomProbs(&rng, 8, trial % 2 == 1);
    const NodeId f = mgr.FromLineageSynthesis(lin);
    FlatObdd flat(mgr, f, probs);
    EXPECT_NEAR(flat.prob_root(), mgr.Prob(f, probs), 1e-12);
  }
}

TEST(FlatObddTest, ProbUnderMatchesManagerAtEveryNode) {
  // Per-node cross-check: probUnder of every flat node equals the manager's
  // Shannon-expansion probability of the corresponding sub-OBDD, evaluated
  // by re-importing the node's sub-DAG. Replaces the reachability-based
  // invariants from when the flat layout stored both annotations.
  Rng rng(5);
  BddManager mgr(Identity(6));
  const Lineage lin = RandomLineage(&rng, 6, 4, 2);
  const auto probs = RandomProbs(&rng, 6);
  const NodeId f = mgr.FromLineageSynthesis(lin);
  FlatObdd flat(mgr, f, probs);
  ASSERT_GE(flat.root(), 0);
  EXPECT_NEAR(flat.prob_root(), mgr.Prob(f, probs), 1e-12);
  // Sub-OBDDs: walk the flat array; each node's {level, lo, hi} triple is
  // re-created in the manager (hash-consing dedups), so Prob() on that node
  // is the reference for prob_under at the same position.
  std::vector<NodeId> ids(flat.size());
  for (FlatId u = static_cast<FlatId>(flat.size()); u-- > 0;) {
    auto node_of = [&](FlatId v) {
      if (v == kFlatFalse) return BddManager::kFalse;
      if (v == kFlatTrue) return BddManager::kTrue;
      return ids[static_cast<size_t>(v)];
    };
    ids[static_cast<size_t>(u)] =
        mgr.Mk(flat.level(u), node_of(flat.lo(u)), node_of(flat.hi(u)));
    EXPECT_NEAR(flat.prob_under(u),
                mgr.Prob(ids[static_cast<size_t>(u)], probs), 1e-12)
        << "node " << u;
  }
}

TEST(FlatObddTest, Width) {
  BddManager mgr(Identity(4));
  Lineage lin;
  lin.AddClause({0, 2});
  lin.AddClause({1, 3});
  const NodeId f = mgr.FromLineageSynthesis(lin);
  FlatObdd flat(mgr, f, {0.5, 0.5, 0.5, 0.5});
  EXPECT_GE(flat.Width(), 1u);
}

class MvIndexFixture : public ::testing::Test {
 protected:
  // A small database with two view-like constraint groups over disjoint
  // relations, so the index has multiple independent blocks.
  void Build(const char* w_text) {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->CreateTable("R", {"a"}, true).ok());
    ASSERT_TRUE(db_->CreateTable("S", {"a", "b"}, true).ok());
    ASSERT_TRUE(db_->CreateTable("T", {"c"}, true).ok());
    Rng rng(17);
    // S.b values overlap T.c so that inversion-shaped constraints
    // (W :- S(u,v), T(v)) have derivations.
    for (int x = 1; x <= 3; ++x) {
      db_->InsertProbabilistic("R", {x}, 0.5 + rng.Uniform());
      db_->InsertProbabilistic("T", {20 + x}, 0.5 + rng.Uniform());
      for (int y = 1; y <= 2; ++y) {
        db_->InsertProbabilistic("S", {x, 20 + y}, 0.5 + rng.Uniform());
      }
    }
    w_ = MustParse(w_text, &db_->dict());
    mgr_ = std::make_unique<BddManager>(BuildDefaultOrder(*db_));
    probs_ = db_->VarProbs();
    auto index = MvIndex::Build(*db_, w_, mgr_.get(), probs_);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(index).value();
    w_lineage_ = *EvalBoolean(*db_, w_);
  }

  /// CC sweep of a query root in mgr_, through the fixture's scratch.
  double CC(const MvIndex& index, NodeId q_root) {
    return index.CCMVIntersectScaled(CcQuery{mgr_.get(), q_root}, &scratch_)
        .ToDouble();
  }

  std::unique_ptr<Database> db_;
  Ucq w_;
  std::unique_ptr<BddManager> mgr_;
  std::vector<double> probs_;
  std::unique_ptr<MvIndex> index_;
  Lineage w_lineage_;
  CcSweepScratch scratch_;
};

TEST_F(MvIndexFixture, ProbNotWMatchesBruteForce) {
  Build("W :- R(x), S(x,y). W :- T(z).");
  Lineage t;
  t.AddClause({});
  EXPECT_NEAR(index_->ProbNotW(),
              BruteForceProbAndNot(t, w_lineage_, probs_), 1e-9);
}

TEST_F(MvIndexFixture, BlocksAreSeparatorKeyed) {
  Build("W :- R(x), S(x,y). W :- T(z).");
  // R/S group decomposes on x (3 values); T group on z (3 values).
  EXPECT_GE(index_->blocks().size(), 4u);
}

TEST_F(MvIndexFixture, IntersectMatchesBruteForce) {
  Build("W :- R(x), S(x,y). W :- T(z).");
  Rng rng(23);
  const int nv = static_cast<int>(db_->num_vars());
  for (int trial = 0; trial < 40; ++trial) {
    const Lineage q = RandomLineage(&rng, nv, 3, 2);
    const NodeId qb = mgr_->FromLineageSynthesis(q);
    const double expected = BruteForceProbAndNot(q, w_lineage_, probs_);
    EXPECT_NEAR(index_->MVIntersect(qb), expected, 1e-9) << q.ToString();
    EXPECT_NEAR(CC(*index_, qb), expected, 1e-9) << q.ToString();
  }
}

TEST_F(MvIndexFixture, IntersectTrivialQueries) {
  Build("W :- R(x), S(x,y).");
  EXPECT_DOUBLE_EQ(index_->MVIntersect(BddManager::kFalse), 0.0);
  EXPECT_NEAR(index_->MVIntersect(BddManager::kTrue), index_->ProbNotW(), 1e-12);
  EXPECT_DOUBLE_EQ(CC(*index_, BddManager::kFalse), 0.0);
  EXPECT_NEAR(CC(*index_, BddManager::kTrue), index_->ProbNotW(),
              1e-12);
}

TEST_F(MvIndexFixture, QueryTouchingOnlyLastBlockSkipsPrefix) {
  Build("W :- R(x), S(x,y). W :- T(z).");
  // A query over T only: fast-forward should skip the R/S blocks, and the
  // result must still be exact.
  Lineage q;
  const Table* t = db_->Find("T");
  q.AddClause({t->var(0)});
  const NodeId qb = mgr_->FromLineageSynthesis(q);
  const double expected = BruteForceProbAndNot(q, w_lineage_, probs_);
  EXPECT_NEAR(index_->MVIntersect(qb), expected, 1e-9);
  EXPECT_NEAR(CC(*index_, qb), expected, 1e-9);
}

TEST_F(MvIndexFixture, NonInversionFreeWStillExact) {
  // W with an inversion: blocks merge, synthesis fallback — correctness
  // must be unaffected.
  Build("W :- R(x), S(x,y). W :- S(u,v), T(v).");
  SUCCEED();  // Build already cross-checks below
  Lineage tlin;
  tlin.AddClause({});
  EXPECT_NEAR(index_->ProbNotW(),
              BruteForceProbAndNot(tlin, w_lineage_, probs_), 1e-9);
  Rng rng(29);
  const int nv = static_cast<int>(db_->num_vars());
  for (int trial = 0; trial < 20; ++trial) {
    const Lineage q = RandomLineage(&rng, nv, 3, 2);
    const NodeId qb = mgr_->FromLineageSynthesis(q);
    const double expected = BruteForceProbAndNot(q, w_lineage_, probs_);
    EXPECT_NEAR(index_->MVIntersect(qb), expected, 1e-9);
    EXPECT_NEAR(CC(*index_, qb), expected, 1e-9);
  }
}

TEST_F(MvIndexFixture, EmptyWIsIdentity) {
  db_ = std::make_unique<Database>();
  ASSERT_TRUE(db_->CreateTable("R", {"a"}, true).ok());
  db_->InsertProbabilistic("R", {1}, 1.0);
  Ucq w;  // no disjuncts: W = false, NOT W = true
  w.name = "W";
  mgr_ = std::make_unique<BddManager>(BuildDefaultOrder(*db_));
  probs_ = db_->VarProbs();
  auto index = MvIndex::Build(*db_, w, mgr_.get(), probs_);
  ASSERT_TRUE(index.ok());
  EXPECT_DOUBLE_EQ((*index)->ProbNotW(), 1.0);
  Lineage q;
  q.AddClause({0});
  const NodeId qb = mgr_->FromLineageSynthesis(q);
  EXPECT_NEAR((*index)->MVIntersect(qb), 0.5, 1e-12);
  EXPECT_NEAR(CC(**index, qb), 0.5, 1e-12);
}

TEST_F(MvIndexFixture, NegativeProbabilities) {
  // NV-style variables with negative probabilities inside W.
  db_ = std::make_unique<Database>();
  ASSERT_TRUE(db_->CreateTable("R", {"a"}, true).ok());
  ASSERT_TRUE(db_->CreateTable("NV", {"a"}, true).ok());
  db_->InsertProbabilistic("R", {1}, 2.0);
  db_->InsertProbabilistic("R", {2}, 0.7);
  db_->InsertProbabilistic("NV", {1}, -0.6);   // p = -1.5 (w = 2.5)
  db_->InsertProbabilistic("NV", {2}, -0.96);  // p = -24 (w = 25)
  w_ = MustParse("W :- NV(x), R(x).", &db_->dict());
  mgr_ = std::make_unique<BddManager>(BuildDefaultOrder(*db_));
  probs_ = db_->VarProbs();
  auto index = MvIndex::Build(*db_, w_, mgr_.get(), probs_);
  ASSERT_TRUE(index.ok());
  index_ = std::move(index).value();
  w_lineage_ = *EvalBoolean(*db_, w_);
  Lineage t;
  t.AddClause({});
  EXPECT_NEAR(index_->ProbNotW(),
              BruteForceProbAndNot(t, w_lineage_, probs_), 1e-9);
  Lineage q;
  q.AddClause({0});
  const NodeId qb = mgr_->FromLineageSynthesis(q);
  EXPECT_NEAR(index_->MVIntersect(qb),
              BruteForceProbAndNot(q, w_lineage_, probs_), 1e-9);
  EXPECT_NEAR(CC(*index_, qb),
              BruteForceProbAndNot(q, w_lineage_, probs_), 1e-9);
}

}  // namespace
}  // namespace mvdb

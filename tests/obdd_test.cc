// Unit + property tests for the OBDD package: manager apply/synthesis,
// concatenation, variable orders, and the structure-driven ConOBDD
// construction (Section 4.2, Propositions 1-2).

#include <gtest/gtest.h>

#include "obdd/conobdd.h"
#include "obdd/manager.h"
#include "obdd/order.h"
#include "query/eval.h"
#include "prob/brute_force.h"
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

TEST(BddManagerTest, Terminals) {
  BddManager mgr(Identity(2));
  EXPECT_EQ(mgr.And(BddManager::kTrue, BddManager::kFalse), BddManager::kFalse);
  EXPECT_EQ(mgr.Or(BddManager::kTrue, BddManager::kFalse), BddManager::kTrue);
  EXPECT_EQ(mgr.Not(BddManager::kTrue), BddManager::kFalse);
}

TEST(BddManagerTest, MkReduces) {
  BddManager mgr(Identity(2));
  EXPECT_EQ(mgr.Mk(0, BddManager::kTrue, BddManager::kTrue), BddManager::kTrue);
}

TEST(BddManagerTest, HashConsing) {
  BddManager mgr(Identity(2));
  const NodeId a = mgr.MkVar(0);
  const NodeId b = mgr.MkVar(0);
  EXPECT_EQ(a, b);
}

TEST(BddManagerTest, ProbSingleVar) {
  BddManager mgr(Identity(1));
  EXPECT_NEAR(mgr.Prob(mgr.MkVar(0), {0.3}), 0.3, 1e-12);
}

TEST(BddManagerTest, ApplyMatchesBruteForce) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 6;
    BddManager mgr(Identity(n));
    const Lineage lineage = RandomLineage(&rng, n, 5, 3);
    const auto probs = RandomProbs(&rng, n, /*allow_negative=*/trial % 2 == 1);
    const NodeId f = mgr.FromLineageSynthesis(lineage);
    EXPECT_NEAR(mgr.Prob(f, probs), BruteForceProb(lineage, probs), 1e-9)
        << lineage.ToString();
  }
}

TEST(BddManagerTest, NotMatchesComplement) {
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 6;
    BddManager mgr(Identity(n));
    const Lineage lineage = RandomLineage(&rng, n, 4, 3);
    const auto probs = RandomProbs(&rng, n);
    const NodeId f = mgr.FromLineageSynthesis(lineage);
    EXPECT_NEAR(mgr.Prob(mgr.Not(f), probs), 1.0 - mgr.Prob(f, probs), 1e-9);
  }
}

TEST(BddManagerTest, NotSurvivesChainDeeperThanTheStack) {
  // The NOT W chain is one long thin OBDD (~1.4M nodes at the paper's DBLP
  // scale); Not() must not recurse node-per-node. 400K levels overflows an
  // 8 MB stack with one frame per node — this is the regression test for
  // the iterative rewrite.
  const int n = 400000;
  BddManager mgr(Identity(n));
  Clause all;
  all.reserve(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) all.push_back(static_cast<VarId>(v));
  const NodeId chain = mgr.FromClause(all);   // conjunction chain, depth n
  const NodeId not_chain = mgr.Not(chain);
  EXPECT_EQ(mgr.CountNodes(not_chain), mgr.CountNodes(chain));
  EXPECT_EQ(mgr.Not(not_chain), chain);  // involution through the cache
}

TEST(BddManagerTest, ConcatOrEqualsOrOnDisjointRanges) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    BddManager mgr(Identity(8));
    // f over vars 0..3, g over vars 4..7: ranges do not interleave.
    Lineage fl, gl;
    for (int c = 0; c < 3; ++c) {
      fl.AddClause({static_cast<VarId>(rng.Below(4)),
                    static_cast<VarId>(rng.Below(4))});
      gl.AddClause({static_cast<VarId>(4 + rng.Below(4)),
                    static_cast<VarId>(4 + rng.Below(4))});
    }
    const NodeId f = mgr.FromLineageSynthesis(fl);
    const NodeId g = mgr.FromLineageSynthesis(gl);
    const auto probs = RandomProbs(&rng, 8);
    EXPECT_NEAR(mgr.Prob(mgr.ConcatOr(f, g), probs),
                mgr.Prob(mgr.Or(f, g), probs), 1e-12);
    EXPECT_NEAR(mgr.Prob(mgr.ConcatAnd(f, g), probs),
                mgr.Prob(mgr.And(f, g), probs), 1e-12);
  }
}

TEST(BddManagerTest, ConcatSizesAdd) {
  BddManager mgr(Identity(8));
  Lineage fl, gl;
  fl.AddClause({0, 1});
  fl.AddClause({2, 3});
  gl.AddClause({4, 5});
  gl.AddClause({6, 7});
  const NodeId f = mgr.FromLineageSynthesis(fl);
  const NodeId g = mgr.FromLineageSynthesis(gl);
  const size_t nf = mgr.CountNodes(f);
  const size_t ng = mgr.CountNodes(g);
  const NodeId c = mgr.ConcatOr(f, g);
  // |concat| <= |f| + |g| (sinks shared, so minus the merged sinks).
  EXPECT_LE(mgr.CountNodes(c), nf + ng);
}

TEST(BddManagerTest, LevelRange) {
  BddManager mgr(Identity(8));
  Lineage l;
  l.AddClause({2, 5});
  const NodeId f = mgr.FromLineageSynthesis(l);
  const auto [lo, hi] = mgr.LevelRange(f);
  EXPECT_EQ(lo, 2);
  EXPECT_EQ(hi, 5);
  const auto [slo, shi] = mgr.LevelRange(BddManager::kTrue);
  EXPECT_GT(slo, shi);  // empty range for sinks
}

TEST(OrderTest, Fig3OrderInterleaves) {
  auto db = Fig3Database();
  // Identity pi: Pi = X1, Y1, Y2, X2, Y3, Y4 (Section 4.2's example).
  const auto order = BuildDefaultOrder(*db);
  ASSERT_EQ(order.size(), 6u);
  // Vars: R rows get 0,1; S rows get 2..5 (insert order in Fig3Database).
  EXPECT_EQ(order[0], 0);  // R(a1) = X1
  EXPECT_EQ(order[1], 2);  // S(a1,b1) = Y1
  EXPECT_EQ(order[2], 3);  // S(a1,b2) = Y2
  EXPECT_EQ(order[3], 1);  // R(a2) = X2
  EXPECT_EQ(order[4], 4);  // S(a2,b3) = Y3
  EXPECT_EQ(order[5], 5);  // S(a2,b4) = Y4
}

TEST(OrderTest, ComponentRankGroups) {
  auto db = Fig3Database();
  OrderSpec spec;
  spec.component_rank["S"] = 0;
  spec.component_rank["R"] = 1;
  const auto order = BuildVariableOrder(*db, spec);
  // All S variables (2..5) before all R variables (0..1).
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[3], 5);
  EXPECT_EQ(order[4], 0);
  EXPECT_EQ(order[5], 1);
}

TEST(OrderTest, PermutationReordersTuples) {
  auto db = Fig3Database();
  OrderSpec spec;
  spec.pi["S"] = {1, 0};  // sort S by b first
  const auto order = BuildVariableOrder(*db, spec);
  // S keys become (11,1),(12,1),(13,2),(14,2); R keys (1),(2).
  // Lexicographic: R(1), R(2), then all S (keys start at 11).
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

TEST(ConObddTest, Fig3Construction) {
  auto db = Fig3Database();
  BddManager mgr(BuildDefaultOrder(*db));
  ConObddBuilder builder(*db, &mgr);
  Ucq q = MustParse("Q :- R(x), S(x,y).", &db->dict());
  auto f = builder.Build(q);
  ASSERT_TRUE(f.ok());
  // The Fig. 3 OBDD has 6 internal nodes + 2 sinks = 8.
  EXPECT_EQ(mgr.CountNodes(*f), 8u);
  // Separator construction: concatenations only, no synthesis.
  EXPECT_GT(builder.concat_count(), 0u);
  // Probability matches brute force.
  const auto probs = db->VarProbs();
  Ucq q2 = MustParse("Q :- R(x), S(x,y).", &db->dict());
  const Lineage lin = *EvalBoolean(*db, q2);
  EXPECT_NEAR(mgr.Prob(*f, probs), BruteForceProb(lin, probs), 1e-12);
}

TEST(ConObddTest, MatchesSynthesisOnRandomQueries) {
  // Property: ConOBDD and plain synthesis build the same reduced OBDD — the
  // same node in one hash-consed manager — for a variety of query shapes
  // including non-inversion-free ones.
  const char* queries[] = {
      "Q :- R(x), S(x,y).",
      "Q :- S(x,y).",
      "Q :- R(x), S(x,y), T(y).",           // H0: synthesis fallback
      "Q :- R(x). Q :- T(y).",              // independent union
      "Q :- R(x), S(x,y). Q :- T(u), S(u,v).",
      "Q :- S(x,y1), S(x,y2), y1 != y2.",   // self-join
      "Q :- R(1), S(1,y).",                 // constants
      "Q :- R(x), S(x,11).",
      "Q :- R(x), S(x,y), T(z).",           // R3 separators under an R2 split
  };
  Rng rng(12);
  for (const char* qs : queries) {
    Database db;
    ASSERT_TRUE(db.CreateTable("R", {"a"}, true).ok());
    ASSERT_TRUE(db.CreateTable("S", {"a", "b"}, true).ok());
    ASSERT_TRUE(db.CreateTable("T", {"b"}, true).ok());
    for (int x = 1; x <= 3; ++x) {
      if (rng.Chance(0.8)) db.InsertProbabilistic("R", {x}, 1.0 + rng.Uniform());
      if (rng.Chance(0.8)) db.InsertProbabilistic("T", {10 + x}, 0.5);
      for (int y = 1; y <= 3; ++y) {
        if (rng.Chance(0.6)) {
          db.InsertProbabilistic("S", {x, 10 + y}, 0.4 + rng.Uniform());
        }
      }
    }
    BddManager mgr(BuildDefaultOrder(db));
    ConObddBuilder builder(db, &mgr);
    Ucq q = MustParse(qs, &db.dict());
    auto f = builder.Build(q);
    ASSERT_TRUE(f.ok()) << qs << ": " << f.status().ToString();
    const Lineage lin = *EvalBoolean(db, q);
    const auto probs = db.VarProbs();
    EXPECT_NEAR(mgr.Prob(*f, probs), BruteForceProb(lin, probs), 1e-9) << qs;
    EXPECT_EQ(*f, mgr.FromLineageSynthesis(lin)) << qs;
  }
}

TEST(ConObddTest, InversionFreeConstantWidth) {
  // Proposition 2: for the inversion-free query R(x),S(x,y) the OBDD width
  // stays bounded as the domain grows (here: width <= 2 per level since the
  // per-value blocks chain one after another).
  for (int n : {5, 10, 20, 40}) {
    Database db;
    ASSERT_TRUE(db.CreateTable("R", {"a"}, true).ok());
    ASSERT_TRUE(db.CreateTable("S", {"a", "b"}, true).ok());
    for (int x = 1; x <= n; ++x) {
      db.InsertProbabilistic("R", {x}, 1.0);
      db.InsertProbabilistic("S", {x, 100 + x}, 1.0);
      db.InsertProbabilistic("S", {x, 200 + x}, 1.0);
    }
    BddManager mgr(BuildDefaultOrder(db));
    ConObddBuilder builder(db, &mgr);
    Ucq q = MustParse("Q :- R(x), S(x,y).", &db.dict());
    auto f = builder.Build(q);
    ASSERT_TRUE(f.ok());
    // Size grows linearly: one small block per domain value. 3n tuples give
    // at most 2 nodes per variable.
    EXPECT_LE(mgr.CountNodes(*f), 2u * 3u * static_cast<size_t>(n) + 2u);
    EXPECT_EQ(builder.synthesis_count(), 0u);  // concatenations only
  }
}

TEST(ConObddTest, SeparatorSizeIsSumOfBlocks) {
  // Proposition 1 on the Fig. 3 instance: 3 nodes per a-block, 2 blocks.
  auto db = Fig3Database();
  BddManager mgr(BuildDefaultOrder(*db));
  ConObddBuilder builder(*db, &mgr);
  Ucq q = MustParse("Q :- R(x), S(x,y).", &db->dict());
  auto f = builder.Build(q);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(mgr.CountNodes(*f) - 2, 6u);  // 2 blocks x 3 nodes
}

TEST(ConObddTest, DeterministicDisjunctShortCircuits) {
  Database db;
  ASSERT_TRUE(db.CreateTable("D", {"a"}, false).ok());
  ASSERT_TRUE(db.CreateTable("P", {"a"}, true).ok());
  db.InsertDeterministic("D", {1});
  db.InsertProbabilistic("P", {1}, 1.0);
  BddManager mgr(BuildDefaultOrder(db));
  ConObddBuilder builder(db, &mgr);
  Ucq q = MustParse("Q :- P(x). Q :- D(y).", &db.dict());
  auto f = builder.Build(q);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*f, BddManager::kTrue);
}

TEST(ConObddTest, EmptyQueryIsFalse) {
  Database db;
  ASSERT_TRUE(db.CreateTable("P", {"a"}, true).ok());
  BddManager mgr(BuildDefaultOrder(db));
  ConObddBuilder builder(db, &mgr);
  Ucq q = MustParse("Q :- P(x).", &db.dict());
  auto f = builder.Build(q);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*f, BddManager::kFalse);
}

}  // namespace
}  // namespace mvdb

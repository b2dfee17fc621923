// Unit tests for UCQ evaluation with lineage (the Postgres stand-in).

#include <gtest/gtest.h>

#include "query/eval.h"
#include "test_util.h"

namespace mvdb {
namespace {

using testing_util::Fig3Database;
using testing_util::MustParse;

TEST(EvalTest, Fig3Lineage) {
  auto db = Fig3Database();
  Ucq q = MustParse("Q :- R(x), S(x,y).", &db->dict());
  auto lin = EvalBoolean(*db, q);
  ASSERT_TRUE(lin.ok());
  // Phi_Q = X1Y1 v X1Y2 v X2Y3 v X2Y4: 4 clauses of 2 literals each.
  EXPECT_EQ(lin->size(), 4u);
  EXPECT_EQ(lin->NumLiterals(), 8u);
  EXPECT_EQ(lin->NumDistinctVars(), 6u);
}

TEST(EvalTest, NonBooleanAnswers) {
  auto db = Fig3Database();
  Ucq q = MustParse("Q(x) :- R(x), S(x,y).", &db->dict());
  AnswerMap answers;
  ASSERT_TRUE(Eval(*db, q, EvalOptions{}, &answers).ok());
  ASSERT_EQ(answers.size(), 2u);  // x = 1 and x = 2
  const auto& a1 = answers.at({1});
  EXPECT_EQ(a1.lineage.size(), 2u);  // X1Y1 v X1Y2
}

TEST(EvalTest, ConstantsFilter) {
  auto db = Fig3Database();
  Ucq q = MustParse("Q :- S(1, y).", &db->dict());
  auto lin = EvalBoolean(*db, q);
  ASSERT_TRUE(lin.ok());
  EXPECT_EQ(lin->size(), 2u);  // Y1, Y2
  EXPECT_EQ(lin->NumLiterals(), 2u);
}

TEST(EvalTest, EmptyResultIsFalse) {
  auto db = Fig3Database();
  Ucq q = MustParse("Q :- S(99, y).", &db->dict());
  auto lin = EvalBoolean(*db, q);
  ASSERT_TRUE(lin.ok());
  EXPECT_TRUE(lin->IsFalse());
}

TEST(EvalTest, DeterministicTablesYieldNoVars) {
  Database db;
  ASSERT_TRUE(db.CreateTable("D", {"a"}, false).ok());
  ASSERT_TRUE(db.CreateTable("P", {"a"}, true).ok());
  db.InsertDeterministic("D", {1});
  db.InsertProbabilistic("P", {1}, 1.0);
  Ucq q = MustParse("Q :- D(x), P(x).", &db.dict());
  auto lin = EvalBoolean(db, q);
  ASSERT_TRUE(lin.ok());
  ASSERT_EQ(lin->size(), 1u);
  EXPECT_EQ(lin->pos(0).size(), 1u);  // only P's variable
}

TEST(EvalTest, PurelyDeterministicTrueLineage) {
  Database db;
  ASSERT_TRUE(db.CreateTable("D", {"a"}, false).ok());
  db.InsertDeterministic("D", {1});
  Ucq q = MustParse("Q :- D(x).", &db.dict());
  auto lin = EvalBoolean(db, q);
  ASSERT_TRUE(lin.ok());
  EXPECT_TRUE(lin->IsTrue());
}

TEST(EvalTest, Comparisons) {
  auto db = Fig3Database();
  Ucq q = MustParse("Q(y) :- S(x,y), y > 12.", &db->dict());
  AnswerMap answers;
  ASSERT_TRUE(Eval(*db, q, EvalOptions{}, &answers).ok());
  EXPECT_EQ(answers.size(), 2u);  // y = 13, 14
}

TEST(EvalTest, NotEqualsJoin) {
  auto db = Fig3Database();
  // Pairs of S-tuples with the same x and different y: self-join.
  Ucq q = MustParse("Q :- S(x,y1), S(x,y2), y1 != y2.", &db->dict());
  auto lin = EvalBoolean(*db, q);
  ASSERT_TRUE(lin.ok());
  // (Y1,Y2), (Y2,Y1), (Y3,Y4), (Y4,Y3) -> normalized to 2 clauses.
  EXPECT_EQ(lin->size(), 2u);
}

TEST(EvalTest, SelfJoinSameTupleDedupes) {
  auto db = Fig3Database();
  Ucq q = MustParse("Q :- S(x,y), S(x,y).", &db->dict());
  auto lin = EvalBoolean(*db, q);
  ASSERT_TRUE(lin.ok());
  for (size_t i = 0; i < lin->size(); ++i) {
    EXPECT_EQ(lin->pos(i).size(), 1u);  // both atoms match the same tuple
  }
}

TEST(EvalTest, UnionLineageIsClauseUnion) {
  auto db = Fig3Database();
  Ucq q = MustParse("Q :- R(x). Q :- S(u,v).", &db->dict());
  auto lin = EvalBoolean(*db, q);
  ASSERT_TRUE(lin.ok());
  EXPECT_EQ(lin->size(), 6u);  // 2 R-tuples + 4 S-tuples
}

TEST(EvalTest, RepeatedVariableInAtom) {
  Database db;
  ASSERT_TRUE(db.CreateTable("E", {"a", "b"}, true).ok());
  db.InsertProbabilistic("E", {1, 1}, 1.0);
  db.InsertProbabilistic("E", {1, 2}, 1.0);
  Ucq q = MustParse("Q(x) :- E(x,x).", &db.dict());
  AnswerMap answers;
  ASSERT_TRUE(Eval(db, q, EvalOptions{}, &answers).ok());
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers.begin()->first[0], 1);
}

TEST(EvalTest, CountDistinct) {
  auto db = Fig3Database();
  Ucq q = MustParse("Q(x) :- R(x), S(x,y).", &db->dict());
  EvalOptions opts;
  // count distinct y per x.
  int y_var = -1;
  for (int i = 0; i < q.num_vars(); ++i) {
    if (q.var_names[static_cast<size_t>(i)] == "y") y_var = i;
  }
  ASSERT_GE(y_var, 0);
  opts.count_var = y_var;
  AnswerMap answers;
  ASSERT_TRUE(Eval(*db, q, opts, &answers).ok());
  EXPECT_EQ(answers.at({1}).count_values.size(), 2u);
  EXPECT_EQ(answers.at({2}).count_values.size(), 2u);
}

TEST(EvalTest, MissingTableError) {
  auto db = Fig3Database();
  Ucq q = MustParse("Q :- Nope(x).", &db->dict());
  EXPECT_EQ(EvalBoolean(*db, q).status().code(), StatusCode::kNotFound);
}

TEST(EvalTest, ArityMismatchError) {
  auto db = Fig3Database();
  Ucq q = MustParse("Q :- R(x,y).", &db->dict());
  EXPECT_EQ(EvalBoolean(*db, q).status().code(), StatusCode::kInvalidArgument);
}

TEST(EvalTest, UnboundHeadVariableError) {
  auto db = Fig3Database();
  Ucq q = MustParse("Q(z) :- R(x).", &db->dict());
  AnswerMap answers;
  EXPECT_EQ(Eval(*db, q, EvalOptions{}, &answers).code(),
            StatusCode::kInvalidArgument);
}

TEST(EvalTest, UnboundComparisonVariableError) {
  auto db = Fig3Database();
  Ucq q = MustParse("Q :- R(x), z > 5.", &db->dict());
  EXPECT_EQ(EvalBoolean(*db, q).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mvdb

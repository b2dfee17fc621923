// Tests for the engine's conditional-query and Explain APIs.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "prob/brute_force.h"
#include "query/eval.h"
#include "test_util.h"

namespace mvdb {
namespace {

using testing_util::MustParse;

class ConditionalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    mvdb_ = std::make_unique<Mvdb>();
    Database& db = mvdb_->db();
    ASSERT_TRUE(db.CreateTable("R", {"x"}, true).ok());
    ASSERT_TRUE(db.CreateTable("S", {"x", "y"}, true).ok());
    Rng rng(91);
    for (int x = 1; x <= 3; ++x) {
      db.InsertProbabilistic("R", {x}, 0.5 + rng.Uniform());
      for (int y = 1; y <= 2; ++y) {
        db.InsertProbabilistic("S", {x, y}, 0.5 + rng.Uniform());
      }
    }
    Ucq v = MustParse("V(x) :- R(x), S(x,y).", &db.dict());
    ASSERT_TRUE(mvdb_->AddView(MarkoView::Constant("V", std::move(v), 2.0)).ok());
    engine_ = std::make_unique<QueryEngine>(mvdb_.get());
    ASSERT_TRUE(engine_->Compile().ok());
    mln_ = std::make_unique<GroundMln>(std::move(mvdb_->ToGroundMln()).value());
  }

  double MlnConditional(const Ucq& q1, const Ucq& q2) {
    Lineage l1 = *EvalBoolean(mvdb_->db(), q1);
    const Lineage l2 = *EvalBoolean(mvdb_->db(), q2);
    // P(Q1 ^ Q2) via lineage conjunction: distribute clauses.
    Lineage joint;
    for (size_t i = 0; i < l1.size(); ++i) {
      for (size_t j = 0; j < l2.size(); ++j) {
        Clause pos(l1.pos(i).begin(), l1.pos(i).end());
        pos.insert(pos.end(), l2.pos(j).begin(), l2.pos(j).end());
        joint.AddClause(pos);
      }
    }
    const double pj = *mln_->ExactQueryProb(joint);
    const double p2 = *mln_->ExactQueryProb(l2);
    return pj / p2;
  }

  std::unique_ptr<Mvdb> mvdb_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<GroundMln> mln_;
};

TEST_F(ConditionalFixture, MatchesMlnSemantics) {
  // Every backend answers as itself: brute force enumerates (and never
  // touches the engine's manager), the OBDD backends agree with the MLN
  // to 1e-9, and the lifted backend has no plan for Q1 ^ Q2 yet.
  Ucq q1 = MustParse("Q :- R(1).", &mvdb_->db().dict());
  Ucq q2 = MustParse("Q :- S(1,y).", &mvdb_->db().dict());
  for (Backend b : {Backend::kBruteForce, Backend::kObddReuse,
                    Backend::kMvIndex, Backend::kMvIndexCC,
                    Backend::kSafePlan}) {
    const size_t nodes_before = engine_->manager().num_created();
    auto p = engine_->ConditionalBoolean(q1, q2, b);
    if (b == Backend::kSafePlan) {
      EXPECT_EQ(p.status().code(), StatusCode::kUnimplemented);
      continue;
    }
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_NEAR(*p, MlnConditional(q1, q2), 1e-9) << static_cast<int>(b);
    if (b == Backend::kBruteForce) {
      EXPECT_EQ(engine_->manager().num_created(), nodes_before);
    }
  }
}

TEST_F(ConditionalFixture, ConditioningOnItselfIsOne) {
  Ucq q = MustParse("Q :- R(2).", &mvdb_->db().dict());
  auto p = engine_->ConditionalBoolean(q, q);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 1.0, 1e-12);
}

TEST_F(ConditionalFixture, ImpossibleConditionRejected) {
  Ucq q1 = MustParse("Q :- R(1).", &mvdb_->db().dict());
  Ucq q2 = MustParse("Q :- R(99).", &mvdb_->db().dict());
  EXPECT_EQ(engine_->ConditionalBoolean(q1, q2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ConditionalFixture, NonBooleanRejected) {
  Ucq q1 = MustParse("Q(x) :- R(x).", &mvdb_->db().dict());
  Ucq q2 = MustParse("Q :- R(1).", &mvdb_->db().dict());
  EXPECT_EQ(engine_->ConditionalBoolean(q1, q2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExplainTest, ReportsLineageAndBlockStats) {
  auto mvdb = dblp::BuildDblpMvdb(dblp::DblpConfig{.num_authors = 100}, nullptr);
  ASSERT_TRUE(mvdb.ok());
  QueryEngine engine(mvdb->get());
  ASSERT_TRUE(engine.Compile().ok());
  const Table* advisor = (*mvdb)->db().Find("Advisor");
  ASSERT_GT(advisor->size(), 0u);
  Ucq q = dblp::StudentsOfAdvisorQuery(
      mvdb->get(),
      dblp::AuthorName(static_cast<int>(advisor->At(0, 1))));
  auto ex = engine.Explain(q);
  ASSERT_TRUE(ex.ok());
  EXPECT_GT(ex->num_answers, 0u);
  EXPECT_GT(ex->lineage_vars, 0u);
  EXPECT_FALSE(ex->uses_negation);
  EXPECT_GT(ex->index_blocks, 0u);
  // A name-constant query touches a small fraction of the blocks — the
  // property that makes the MV-index pay off (Sec. 5.4).
  EXPECT_LT(ex->blocks_touched, ex->index_blocks / 2);
  // The DBLP W contains an inequality self-join: not safe.
  EXPECT_FALSE(ex->safe_with_views);
}

TEST(OnlinePathTest, DefaultBackendNeverGrowsTheEngineManager) {
  // The default backend synthesizes into a pooled query manager, so the
  // engine's own manager (the oracle backends' workspace) stays the size
  // Compile left it, however many questions the engine answers.
  auto mvdb = dblp::BuildDblpMvdb(
      dblp::DblpConfig{.num_authors = 400, .include_affiliation = true},
      nullptr);
  ASSERT_TRUE(mvdb.ok());
  QueryEngine engine(mvdb->get());
  ASSERT_TRUE(engine.Compile().ok());
  const size_t created = engine.manager().num_created();

  const Table* advisor = (*mvdb)->db().Find("Advisor");
  const Table* aff = (*mvdb)->db().Find("Affiliation");
  ASSERT_GE(advisor->size(), 20u);
  ASSERT_GE(aff->size(), 10u);
  std::vector<Ucq> queries;
  for (size_t i = 0; i < 20; ++i) {
    const Value senior = advisor->At(static_cast<RowId>(i), 1);
    queries.push_back(dblp::StudentsOfAdvisorQuery(
        mvdb->get(), dblp::AuthorName(static_cast<int>(senior))));
  }
  for (size_t i = 0; i < 10; ++i) {
    const Value aid = aff->At(static_cast<RowId>(i), 0);
    queries.push_back(dblp::AffiliationOfAuthorQuery(
        mvdb->get(), dblp::AuthorName(static_cast<int>(aid))));
  }
  size_t answered = 0;
  for (const Ucq& q : queries) {
    auto answers = engine.Query(q);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    answered += answers->size();
    ASSERT_TRUE(engine.QueryTopK(q, 2).ok());
    Ucq boolean_q = q;
    boolean_q.head_vars.clear();
    auto p = engine.QueryBoolean(boolean_q);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    if (*p > 0.0) {
      ASSERT_TRUE(engine.ConditionalBoolean(boolean_q, boolean_q).ok());
    }
  }
  EXPECT_GT(answered, 0u);
  EXPECT_EQ(engine.manager().num_created(), created);

  // The oracles still build there.
  ASSERT_TRUE(engine.Query(queries.front(), Backend::kMvIndex).ok());
  EXPECT_GT(engine.manager().num_created(), created);
}

TEST(ExplainTest, SafeQueryDetected) {
  Mvdb mvdb;
  Database& db = mvdb.db();
  ASSERT_TRUE(db.CreateTable("R", {"x"}, true).ok());
  ASSERT_TRUE(db.CreateTable("S", {"x"}, true).ok());
  db.InsertProbabilistic("R", {1}, 1.0);
  db.InsertProbabilistic("S", {1}, 1.0);
  Ucq v = MustParse("V(x) :- R(x), S(x).", &db.dict());
  ASSERT_TRUE(mvdb.AddView(MarkoView::Constant("V", std::move(v), 0.5)).ok());
  QueryEngine engine(&mvdb);
  ASSERT_TRUE(engine.Compile().ok());
  Ucq q = MustParse("Q(x) :- R(x).", &db.dict());
  auto ex = engine.Explain(q);
  ASSERT_TRUE(ex.ok());
  EXPECT_TRUE(ex->safe_with_views);
}

}  // namespace
}  // namespace mvdb

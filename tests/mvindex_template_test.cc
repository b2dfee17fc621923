// Plan-template parity and error-propagation tests for the MV-index
// compile stage. The template path (plan each block-query *shape* once,
// execute per separator value — MvIndexBuildOptions::use_plan_templates)
// must produce a bit-identical index to the classic per-block path on every
// workload: same flat topology, same block metadata, same extended-range
// probabilities. A DBLP-400 golden hash pins the output of both paths, and
// the injected-failure tests pin the deterministic error contract: when
// several blocks fail, the build reports the first failing block in
// canonical task order — whether the failure surfaces at template planning
// or during a worker's block execution, and regardless of thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "mvindex/mv_index.h"
#include "obdd/order.h"
#include "query/eval.h"
#include "test_util.h"

namespace mvdb {
namespace {

using testing_util::HashIndex;
using testing_util::MustParse;
using testing_util::RandomMvdb;
using testing_util::RandomMvdbSpec;

struct BuildOutcome {
  uint64_t hash = 0;
  MvIndexBuildStats stats;
};

BuildOutcome CompileMvdb(Mvdb* mvdb, bool use_templates, int threads) {
  QueryEngine engine(mvdb);
  CompileOptions opts;
  opts.num_threads = threads;
  opts.use_plan_templates = use_templates;
  const Status s = engine.Compile(opts);
  EXPECT_TRUE(s.ok()) << s.ToString();
  BuildOutcome out;
  out.hash = HashIndex(engine.index());
  out.stats = engine.index().build_stats();
  return out;
}

class TemplateParityTest : public ::testing::TestWithParam<int> {};

TEST_P(TemplateParityTest, TemplateAndClassicPathsAgreeOnRandomMvdbs) {
  // Draw the identical random instance twice (Compile mutates the Mvdb, so
  // the two paths need separate copies).
  auto make = [&]() {
    Rng rng(7300 + static_cast<uint64_t>(GetParam()));
    RandomMvdbSpec spec;
    spec.domain = 3 + static_cast<int>(rng.Below(4));
    spec.with_binary_view = rng.Chance(0.7);
    return RandomMvdb(&rng, spec);
  };
  auto with = make();
  auto without = make();

  const BuildOutcome a = CompileMvdb(with.get(), /*use_templates=*/true, 1);
  const BuildOutcome b = CompileMvdb(without.get(), /*use_templates=*/false, 1);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.stats.blocks, b.stats.blocks);
  EXPECT_EQ(a.stats.merged, b.stats.merged);
  EXPECT_EQ(a.stats.flat_nodes, b.stats.flat_nodes);
  // The escape hatch really does disable the template stage.
  EXPECT_EQ(b.stats.plan_templates, 0u);
  EXPECT_EQ(b.stats.template_blocks, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, TemplateParityTest,
                         ::testing::Range(0, 12));

std::unique_ptr<Mvdb> Dblp400() {
  dblp::DblpConfig cfg;
  cfg.num_authors = 400;
  cfg.include_affiliation = true;
  auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
  MVDB_CHECK(mvdb.ok());
  return std::move(mvdb).value();
}

TEST(TemplateGoldenTest, Dblp400BitIdenticalForEveryPathAndThreadCount) {
  // Golden flat-index hash of the DBLP-400 build. If an intentional
  // pipeline change moves this value, re-pin it together with the
  // pipeline_golden_test hash.
  constexpr uint64_t kGolden = 6680169412690263446ULL;
  const BuildOutcome ref = CompileMvdb(Dblp400().get(), true, 1);
  EXPECT_EQ(ref.hash, kGolden);
  EXPECT_GT(ref.stats.plan_templates, 0u);
  EXPECT_GT(ref.stats.template_blocks, 0u);
  // DBLP's ~hundreds of blocks per group collapse onto a handful of
  // distinct shapes.
  EXPECT_LT(ref.stats.plan_templates, 10u);

  auto classic = Dblp400();
  EXPECT_EQ(CompileMvdb(classic.get(), false, 1).hash, kGolden);
  for (int threads : {2, 8, 0}) {  // 0 = one per hardware thread
    auto mvdb = Dblp400();
    EXPECT_EQ(CompileMvdb(mvdb.get(), true, threads).hash, kGolden)
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Deterministic error propagation (injected failing blocks).
// ---------------------------------------------------------------------------

/// W whose first group fails at *template-planning* time (the leaf join
/// plan references the missing table Bad1) and whose second group fails at
/// *execution* time (the separator residual recursion hits Bad2). Several
/// hundred block tasks fail; the build must always report the first one in
/// canonical task order — a g0 block, hence Bad1 — not whichever worker or
/// failure stage surfaced first.
class ErrorPropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->CreateTable("R", {"a"}, true).ok());
    ASSERT_TRUE(db_->CreateTable("S", {"a", "b"}, true).ok());
    ASSERT_TRUE(db_->CreateTable("T", {"c"}, true).ok());
    ASSERT_TRUE(db_->CreateTable("U", {"c", "d"}, true).ok());
    for (int x = 1; x <= 40; ++x) {
      db_->InsertProbabilistic("R", {x}, 1.0);
      db_->InsertProbabilistic("S", {x, 100 + x}, 1.0);
      db_->InsertProbabilistic("T", {200 + x}, 1.0);
      db_->InsertProbabilistic("U", {200 + x, 300 + x}, 1.0);
    }
    // g0 (R/S, separator x): the two disjuncts kill the in-block
    // separator, so the template plans a leaf over both — and fails on
    // Bad1 while *planning*. g1 (T/U, separator z): after grounding z the
    // U/Bad2 join component still has separator w, so the template defers
    // that residual to the classic recursion, which fails on Bad2 only
    // when a worker *executes* the block.
    w_ = MustParse(
        "W :- R(x), Bad1(x). W :- R(x), S(x,y). W :- T(z), U(z,w), Bad2(w).",
        &db_->dict());
  }

  Status BuildWith(bool use_templates, int threads) {
    BddManager mgr(BuildDefaultOrder(*db_));
    MvIndexBuildOptions opts;
    opts.num_threads = threads;
    opts.use_plan_templates = use_templates;
    return MvIndex::Build(*db_, w_, &mgr, db_->VarProbs(), opts).status();
  }

  std::unique_ptr<Database> db_;
  Ucq w_;
};

TEST_F(ErrorPropagationTest, FirstFailingBlockInTaskOrderWinsOnEveryPath) {
  for (const bool use_templates : {true, false}) {
    for (const int threads : {1, 2, 8}) {
      const Status s = BuildWith(use_templates, threads);
      ASSERT_FALSE(s.ok()) << "templates=" << use_templates
                           << " threads=" << threads;
      // Always the g0 failure (Bad1), never g1's Bad2, and the message is
      // identical across thread counts and compile paths.
      EXPECT_NE(s.ToString().find("Bad1"), std::string::npos)
          << "templates=" << use_templates << " threads=" << threads << ": "
          << s.ToString();
      EXPECT_EQ(s.ToString().find("Bad2"), std::string::npos)
          << "templates=" << use_templates << " threads=" << threads << ": "
          << s.ToString();
    }
  }
}

TEST_F(ErrorPropagationTest, ExecutionTimeFailuresAloneAlsoErrorOut) {
  // Drop the plan-time failure: only g1's execution-time injection remains,
  // and the build must still fail deterministically (regression guard for
  // the skip-path audit: a failed block must never be silently treated as
  // a present=false skip).
  w_ = MustParse("W :- R(x), S(x,y). W :- T(z), U(z,w), Bad2(w).",
                 &db_->dict());
  for (const bool use_templates : {true, false}) {
    for (const int threads : {1, 8}) {
      const Status s = BuildWith(use_templates, threads);
      ASSERT_FALSE(s.ok());
      EXPECT_NE(s.ToString().find("Bad2"), std::string::npos) << s.ToString();
    }
  }
}

TEST(TemplateParityCornerTest, SeparatorValueCollidingWithQueryConstant) {
  // The separator domain contains the value 3, which also appears as a
  // comparison constant in W: block x=3 has a different constant-equality
  // pattern (both constants collapse onto one slot), hence its own
  // signature and template. The collision branch must still produce the
  // classic path's output bit for bit.
  auto make = []() {
    auto db = std::make_unique<Database>();
    MVDB_CHECK(db->CreateTable("P", {"x", "y"}, true).ok());
    Rng rng(41);
    for (int x = 1; x <= 6; ++x) {
      for (int y = 1; y <= 6; ++y) {
        if (rng.Chance(0.6)) {
          db->InsertProbabilistic("P", {x, y}, 0.3 + rng.Uniform());
        }
      }
    }
    return db;
  };
  auto build = [](Database* db, bool use_templates) {
    Ucq w = MustParse("W :- P(x,y), y > 3.", &db->dict());
    BddManager mgr(BuildDefaultOrder(*db));
    MvIndexBuildOptions opts;
    opts.use_plan_templates = use_templates;
    auto index = MvIndex::Build(*db, w, &mgr, db->VarProbs(), opts);
    MVDB_CHECK(index.ok()) << index.status().ToString();
    return HashIndex(**index);
  };
  auto db_a = make();
  auto db_b = make();
  EXPECT_EQ(build(db_a.get(), true), build(db_b.get(), false));
}

TEST(TemplateStatsTest, TemplateCountersPopulatedOnDblp) {
  auto mvdb = Dblp400();
  const BuildOutcome r = CompileMvdb(mvdb.get(), true, 1);
  // Every decomposed block executes through a shared template on DBLP.
  EXPECT_GT(r.stats.template_blocks, r.stats.block_tasks / 2);
  EXPECT_LE(r.stats.template_blocks, r.stats.block_tasks);
  EXPECT_GE(r.stats.template_plan_seconds, 0.0);
  EXPECT_LE(r.stats.template_plan_seconds, r.stats.compile_seconds);
}

}  // namespace
}  // namespace mvdb

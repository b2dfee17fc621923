// Plan-cache battery: hit/miss accounting, LRU capacity eviction, the
// signature-collision corner from mvindex_template_test (equal constants
// collapse onto one slot, so a query with colliding constants gets its OWN
// shape, distinct from the non-colliding binding of the same syntax), the
// central correctness property — cached execution is bit-identical to
// plan-from-scratch Eval on randomized UCQs — and QueryEngine's own cache
// hitting on repeated query shapes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "query/analysis.h"
#include "query/eval.h"
#include "serve/plan_cache.h"
#include "test_util.h"

namespace mvdb {
namespace {

using testing_util::Fig3Database;
using testing_util::MustParse;
using testing_util::RandomMvdb;
using testing_util::RandomMvdbSpec;

/// Renders an AnswerMap for exact comparison: head tuples, lineage clauses,
/// count sets — everything evaluation produces.
std::string Render(const AnswerMap& answers) {
  std::string out;
  for (const auto& [head, info] : answers) {
    out += "[";
    for (const Value v : head) out += std::to_string(v) + ",";
    out += "] " + info.lineage.ToString();
    for (const Value v : info.count_values) out += " #" + std::to_string(v);
    out += "\n";
  }
  return out;
}

std::string EvalViaCache(PlanCache* cache, const Database& db, const Ucq& q,
                         bool* hit = nullptr) {
  const UcqSignature sig = ComputeUcqSignature(q);
  auto tmpl = cache->GetOrPlan(db, q, sig, EvalOptions{}, hit);
  MVDB_CHECK(tmpl.ok()) << tmpl.status().ToString();
  EvalScratch scratch;
  AnswerMap answers;
  MVDB_CHECK((*tmpl)->Execute(sig.slots, &scratch, &answers).ok());
  return Render(answers);
}

std::string EvalFromScratch(const Database& db, const Ucq& q) {
  AnswerMap answers;
  MVDB_CHECK(Eval(db, q, EvalOptions{}, &answers).ok());
  return Render(answers);
}

TEST(PlanCacheTest, HitMissAccountingAndTemplateReuse) {
  auto db = Fig3Database();
  PlanCache cache(8);

  const Ucq q1 = MustParse("Q(x) :- R(x), S(x,y).", &db->dict());
  bool hit = true;
  const UcqSignature sig1 = ComputeUcqSignature(q1);
  auto first = cache.GetOrPlan(*db, q1, sig1, EvalOptions{}, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);

  auto second = cache.GetOrPlan(*db, q1, sig1, EvalOptions{}, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(first->get(), second->get());  // same compiled template

  // Same shape, different constant: one signature, so a hit.
  const Ucq q2 = MustParse("Q(x) :- R(x), S(x,11).", &db->dict());
  const Ucq q3 = MustParse("Q(x) :- R(x), S(x,13).", &db->dict());
  const UcqSignature sig2 = ComputeUcqSignature(q2);
  const UcqSignature sig3 = ComputeUcqSignature(q3);
  EXPECT_NE(sig1.key, sig2.key);
  EXPECT_EQ(sig2.key, sig3.key);
  auto t2 = cache.GetOrPlan(*db, q2, sig2, EvalOptions{}, &hit);
  ASSERT_TRUE(t2.ok());
  EXPECT_FALSE(hit);
  auto t3 = cache.GetOrPlan(*db, q3, sig3, EvalOptions{}, &hit);
  ASSERT_TRUE(t3.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(t2->get(), t3->get());

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.plan_failures, 0u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);

  // The shared template still answers each binding correctly.
  EXPECT_EQ(EvalViaCache(&cache, *db, q2), EvalFromScratch(*db, q2));
  EXPECT_EQ(EvalViaCache(&cache, *db, q3), EvalFromScratch(*db, q3));
  EXPECT_NE(EvalViaCache(&cache, *db, q2), EvalViaCache(&cache, *db, q3));
}

TEST(PlanCacheTest, CapacityEvictionIsLru) {
  auto db = Fig3Database();
  PlanCache cache(2);
  const Ucq a = MustParse("Qa(x) :- R(x).", &db->dict());
  const Ucq b = MustParse("Qb(x) :- S(x,y).", &db->dict());
  const Ucq c = MustParse("Qc(x,y) :- R(x), S(x,y).", &db->dict());

  bool hit = false;
  auto lookup = [&](const Ucq& q) {
    auto t = cache.GetOrPlan(*db, q, ComputeUcqSignature(q), EvalOptions{}, &hit);
    MVDB_CHECK(t.ok());
  };
  lookup(a);  // miss: {a}
  lookup(b);  // miss: {b, a}
  lookup(a);  // hit:  {a, b}
  EXPECT_TRUE(hit);
  lookup(c);  // miss, evicts LRU = b: {c, a}
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);
  lookup(a);  // still cached
  EXPECT_TRUE(hit);
  lookup(b);  // evicted: must re-plan (and evict c)
  EXPECT_FALSE(hit);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(PlanCacheTest, SignatureCollisionCornerGetsItsOwnEntry) {
  // The mvindex_template_test corner, now on the online cache: in
  // "Q :- P(3,y), y > 3." the two constants are equal and collapse onto ONE
  // slot, so the query's shape differs from "Q :- P(2,y), y > 3." (two
  // slots) even though the syntax trees are isomorphic. The cache must keep
  // them apart, and both cached evaluations must match plan-from-scratch.
  auto db = std::make_unique<Database>();
  ASSERT_TRUE(db->CreateTable("P", {"x", "y"}, true).ok());
  Rng rng(41);
  for (int x = 1; x <= 6; ++x) {
    for (int y = 1; y <= 6; ++y) {
      if (rng.Chance(0.6)) db->InsertProbabilistic("P", {x, y}, 0.3 + rng.Uniform());
    }
  }
  const Ucq colliding = MustParse("Q :- P(3,y), y > 3.", &db->dict());
  const Ucq distinct = MustParse("Q :- P(2,y), y > 3.", &db->dict());
  const UcqSignature sig_c = ComputeUcqSignature(colliding);
  const UcqSignature sig_d = ComputeUcqSignature(distinct);
  ASSERT_NE(sig_c.key, sig_d.key);
  ASSERT_EQ(sig_c.slots.size(), 1u);
  ASSERT_EQ(sig_d.slots.size(), 2u);

  PlanCache cache(8);
  EXPECT_EQ(EvalViaCache(&cache, *db, colliding), EvalFromScratch(*db, colliding));
  EXPECT_EQ(EvalViaCache(&cache, *db, distinct), EvalFromScratch(*db, distinct));
  EXPECT_EQ(cache.stats().misses, 2u);  // two shapes, two entries
  EXPECT_EQ(cache.stats().size, 2u);

  // Re-binding through the colliding-shape template stays exact.
  const Ucq colliding2 = MustParse("Q :- P(5,y), y > 5.", &db->dict());
  ASSERT_EQ(ComputeUcqSignature(colliding2).key, sig_c.key);
  bool hit = false;
  EXPECT_EQ(EvalViaCache(&cache, *db, colliding2, &hit),
            EvalFromScratch(*db, colliding2));
  EXPECT_TRUE(hit);
}

TEST(PlanCacheTest, CachedEqualsFromScratchOnRandomizedUcqs) {
  // Randomized parity sweep: many query shapes and bindings over random
  // MVDB instances, every one evaluated through a small (eviction-prone)
  // cache and compared against plan-from-scratch, render-for-render.
  for (int inst = 0; inst < 6; ++inst) {
    Rng rng(9100 + static_cast<uint64_t>(inst));
    RandomMvdbSpec spec;
    spec.domain = 3 + static_cast<int>(rng.Below(4));
    auto mvdb = RandomMvdb(&rng, spec);
    Database& db = mvdb->db();
    PlanCache cache(3);
    std::vector<std::string> shapes = {
        "Q(x) :- R(x).",
        "Q(x,y) :- S(x,y).",
        "Q(x) :- R(x), S(x,y).",
        "Q(y) :- S(%d,y).",
        "Q(x) :- S(x,%d), R(x).",
        "Q :- R(%d).",
        "Q(x) :- S(x,y), y > %d.",
    };
    for (int round = 0; round < 3; ++round) {
      for (const std::string& shape : shapes) {
        // Two bindings of each shape back to back: the second lookup finds
        // the template the first one planned (LRU-resident), so the sweep
        // exercises both the hit and the miss/eviction paths.
        for (int binding = 0; binding < 2; ++binding) {
          char buf[128];
          std::snprintf(buf, sizeof(buf), shape.c_str(),
                        1 + static_cast<int>(rng.Below(
                                static_cast<uint64_t>(spec.domain))));
          const Ucq q = MustParse(buf, &db.dict());
          EXPECT_EQ(EvalViaCache(&cache, db, q), EvalFromScratch(db, q))
              << "inst=" << inst << " q=" << buf;
        }
      }
    }
    const PlanCacheStats stats = cache.stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.evictions, 0u);  // capacity 3 < 7 shapes
  }
}

TEST(PlanCacheTest, EngineQueriesPlanThroughTheEngineCache) {
  // QueryEngine always plans through its own cache: a repeated query shape
  // — the same query, or the same syntax with another constant — hits it.
  // Hits are bit-identical to planning from scratch by the randomized
  // PlanCache-level test above.
  Rng rng(9700);
  RandomMvdbSpec spec;
  spec.domain = 4;
  auto mvdb = RandomMvdb(&rng, spec);
  QueryEngine engine(mvdb.get());
  ASSERT_TRUE(engine.Compile().ok());
  EXPECT_EQ(engine.plan_cache_stats().capacity,
            QueryEngine::kPlanCacheCapacity);
  const struct {
    const char* text;
    bool hit;
  } steps[] = {
      {"Q(x) :- R(x), S(x,y).", false},
      {"Q(x) :- R(x), S(x,y).", true},  // the same query
      {"Q(y) :- S(2,y).", false},
      {"Q(y) :- S(3,y).", true},  // same shape, another constant
  };
  for (const auto& step : steps) {
    const PlanCacheStats before = engine.plan_cache_stats();
    const Ucq q = MustParse(step.text, &mvdb->db().dict());
    auto answers = engine.Query(q, Backend::kMvIndexCC);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    const PlanCacheStats after = engine.plan_cache_stats();
    EXPECT_EQ(after.hits - before.hits, step.hit ? 1u : 0u) << step.text;
    EXPECT_EQ(after.misses - before.misses, step.hit ? 0u : 1u) << step.text;
  }
}

}  // namespace
}  // namespace mvdb

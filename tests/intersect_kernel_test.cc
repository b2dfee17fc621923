// Parity battery for the CC sweep's branch-light fast-intersect walk: with
// the walk on (the default) and off (MvIndex::set_use_fast_intersect(false)
// runs the classic map-driven walk the fast path bails to), every root must
// get the same answer bits. The serving golden hash of
// serve_concurrency_test is re-pinned here with the walk toggled both ways,
// and randomized query OBDDs stress the walk's bail cases (widening fronts,
// true sinks deferred past the block level, sink-only collapses). Sparse
// batches over a 2K-block chain pin the bitmap-driven sweep: batch == solo,
// and its work counters against an independent reachability walk. Build
// parity across thread counts lives in pipeline_golden_test,
// mvindex_template_test, mvindex_parallel_build_test and
// dblp_determinism_test. Runs under the TSan and ASan/UBSan CI jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "mvindex/mv_index.h"
#include "query/eval.h"
#include "test_util.h"

namespace mvdb {
namespace {

using testing_util::HashAnswers;

/// Same clamp rule as the engine/server (noise at the [0,1] borders).
double ClampProb(double p) {
  if (p < 0.0 && p > -1e-9) return 0.0;
  if (p > 1.0 && p < 1.0 + 1e-9) return 1.0;
  return p;
}

bool SameBits(const ScaledDouble& a, const ScaledDouble& b) {
  if (!(a == b)) return false;
  const double da = a.ToDouble();
  const double db = b.ToDouble();
  return std::memcmp(&da, &db, sizeof(double)) == 0;
}

/// The DBLP-400 instance of serve_concurrency_test, compiled once with all
/// kernels on (the defaults).
struct SharedWorkload {
  std::unique_ptr<Mvdb> mvdb;
  std::unique_ptr<QueryEngine> engine;
};

SharedWorkload& Shared() {
  static SharedWorkload* shared = [] {
    auto* s = new SharedWorkload();
    dblp::DblpConfig cfg;
    cfg.num_authors = 400;
    cfg.include_affiliation = true;
    auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
    MVDB_CHECK(mvdb.ok());
    s->mvdb = std::move(mvdb).value();
    s->engine = std::make_unique<QueryEngine>(s->mvdb.get());
    MVDB_CHECK(s->engine->Compile().ok());
    return s;
  }();
  return *shared;
}

/// The serving-layer serial reference of serve_concurrency_test: Eval,
/// fresh-manager synthesis, one solo CC sweep per answer root.
std::vector<std::vector<AnswerProb>> ServingReference(SharedWorkload& s) {
  std::vector<Ucq> queries;
  const Table* advisor = s.mvdb->db().Find("Advisor");
  MVDB_CHECK(advisor != nullptr && advisor->size() >= 6);
  const size_t stride = advisor->size() / 6;
  for (size_t i = 0; i < 6; ++i) {
    const Value senior = advisor->At(static_cast<RowId>(i * stride), 1);
    queries.push_back(dblp::StudentsOfAdvisorQuery(
        s.mvdb.get(), dblp::AuthorName(static_cast<int>(senior))));
  }
  const Table* aff = s.mvdb->db().Find("Affiliation");
  MVDB_CHECK(aff != nullptr && aff->size() >= 3);
  for (size_t i = 0; i < 3; ++i) {
    const Value aid = aff->At(static_cast<RowId>(i), 0);
    queries.push_back(dblp::AffiliationOfAuthorQuery(
        s.mvdb.get(), dblp::AuthorName(static_cast<int>(aid))));
  }
  queries.push_back(
      dblp::StudentsOfAdvisorQuery(s.mvdb.get(), "no-such-author"));

  const MvIndex& index = s.engine->index();
  const ScaledDouble denom = index.ProbNotWScaled();
  CcSweepScratch scratch;
  std::vector<std::vector<AnswerProb>> reference;
  for (const Ucq& q : queries) {
    AnswerMap answers;
    MVDB_CHECK(Eval(s.mvdb->db(), q, EvalOptions{}, &answers).ok());
    BddManager qmgr(index.manager().order());
    std::vector<AnswerProb> out;
    for (const auto& [head, info] : answers) {
      const NodeId root = qmgr.FromLineageSynthesis(info.lineage);
      const ScaledDouble num =
          index.CCMVIntersectScaled(CcQuery{&qmgr, root}, &scratch);
      out.push_back(AnswerProb{head, ClampProb((num / denom).ToDouble())});
    }
    reference.push_back(std::move(out));
  }
  return reference;
}

// Golden hash shared with serve_concurrency_test — the fast walk must not
// move a single answer bit on the serving workload.
constexpr uint64_t kGoldenAnswers = 9734561884288702949ULL;

TEST(IntersectKernelTest, ServingGoldenHashWithFastWalkOnAndOff) {
  SharedWorkload& s = Shared();
  MvIndex& index = s.engine->mutable_index();

  ASSERT_TRUE(index.use_fast_intersect());  // default-on
  EXPECT_EQ(HashAnswers(ServingReference(s)), kGoldenAnswers);

  index.set_use_fast_intersect(false);  // classic map-driven sweep
  EXPECT_EQ(HashAnswers(ServingReference(s)), kGoldenAnswers);

  index.set_use_fast_intersect(true);
  EXPECT_EQ(HashAnswers(ServingReference(s)), kGoldenAnswers);
}

/// Builds a deterministic pool of randomized query OBDDs over the index's
/// variable order: DNF and CNF mixes over random levels, plus single
/// literals and negations — narrow chains (the fast walk's home turf),
/// widening diamonds (bail case), and constant collapses.
std::vector<NodeId> RandomQueryPool(const MvIndex& index, BddManager* qmgr,
                                    size_t count) {
  const auto& order = *index.manager().order();
  const uint32_t levels = static_cast<uint32_t>(order.num_levels());
  std::mt19937 rng(0xA5F00Du);
  auto rand_lit = [&]() {
    const VarId v = order.var_at_level(static_cast<int32_t>(rng() % levels));
    const NodeId lit = qmgr->MkVar(v);
    return (rng() % 3 == 0) ? qmgr->Not(lit) : lit;
  };
  std::vector<NodeId> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t terms = 1 + rng() % 3;
    const bool dnf = (rng() % 2) == 0;
    NodeId acc = dnf ? BddManager::kFalse : BddManager::kTrue;
    for (size_t t = 0; t < terms; ++t) {
      const size_t lits = 1 + rng() % 4;
      NodeId term = rand_lit();
      for (size_t l = 1; l < lits; ++l) {
        term = dnf ? qmgr->And(term, rand_lit()) : qmgr->Or(term, rand_lit());
      }
      acc = dnf ? qmgr->Or(acc, term) : qmgr->And(acc, term);
    }
    pool.push_back(acc);
  }
  return pool;
}

TEST(IntersectKernelTest, RandomizedQueriesFastMatchesClassicBitwise) {
  SharedWorkload& s = Shared();
  MvIndex& index = s.engine->mutable_index();
  BddManager qmgr(index.manager().order());
  const std::vector<NodeId> pool = RandomQueryPool(index, &qmgr, 200);

  CcSweepScratch scratch;
  size_t nontrivial = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    const CcQuery q{&qmgr, pool[i]};
    index.set_use_fast_intersect(false);
    const ScaledDouble classic = index.CCMVIntersectScaled(q, &scratch);
    index.set_use_fast_intersect(true);
    const ScaledDouble fast = index.CCMVIntersectScaled(q, &scratch);
    EXPECT_TRUE(SameBits(fast, classic)) << "query " << i;
    if (!classic.IsZero()) ++nontrivial;
  }
  // The pool must actually exercise the sweep, not collapse to constants.
  EXPECT_GT(nontrivial, pool.size() / 2);
}

TEST(IntersectKernelTest, BatchOfNMatchesNSoloUnderBothHatchStates) {
  SharedWorkload& s = Shared();
  MvIndex& index = s.engine->mutable_index();
  BddManager qmgr(index.manager().order());
  const std::vector<NodeId> pool = RandomQueryPool(index, &qmgr, 64);
  std::vector<CcQuery> batch;
  for (const NodeId root : pool) batch.push_back(CcQuery{&qmgr, root});

  for (const bool fast : {false, true}) {
    index.set_use_fast_intersect(fast);
    CcSweepScratch scratch;
    std::vector<ScaledDouble> batched;
    index.CCMVIntersectBatchScaled(batch, &scratch, &batched);
    ASSERT_EQ(batched.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const ScaledDouble solo = index.CCMVIntersectScaled(batch[i], &scratch);
      EXPECT_TRUE(SameBits(batched[i], solo))
          << "root " << i << " fast=" << fast;
    }
  }
  index.set_use_fast_intersect(true);
}

/// A DBLP index with thousands of blocks (2,014 at 10K authors), so a batch
/// whose roots sit in the first and last blocks crosses the whole chain.
SharedWorkload& LongChain() {
  static SharedWorkload* shared = [] {
    auto* s = new SharedWorkload();
    dblp::DblpConfig cfg;
    cfg.num_authors = 10000;
    cfg.num_threads = 2;
    auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
    MVDB_CHECK(mvdb.ok());
    s->mvdb = std::move(mvdb).value();
    s->engine = std::make_unique<QueryEngine>(s->mvdb.get());
    MVDB_CHECK(s->engine->Compile(CompileOptions{.num_threads = 2}).ok());
    return s;
  }();
  return *shared;
}

/// A 2K-author DBLP index: a shorter chain than LongChain()'s.
SharedWorkload& ShortChain() {
  static SharedWorkload* shared = [] {
    auto* s = new SharedWorkload();
    dblp::DblpConfig cfg;
    cfg.num_authors = 2000;
    cfg.num_threads = 2;
    auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
    MVDB_CHECK(mvdb.ok());
    s->mvdb = std::move(mvdb).value();
    s->engine = std::make_unique<QueryEngine>(s->mvdb.get());
    MVDB_CHECK(s->engine->Compile(CompileOptions{.num_threads = 2}).ok());
    return s;
  }();
  return *shared;
}

/// The flat nodes whose chains a sweep of `root` fills, derived without
/// the sweep: every (query node, flat node) pair of the MVIntersect
/// recursion with neither side a sink, reached from the chain entry of the
/// first block whose last level is at or after the root's level.
std::set<FlatId> ReachedFlatNodes(const MvIndex& index, const BddManager& qmgr,
                                  NodeId root) {
  std::set<FlatId> reached;
  if (qmgr.IsSink(root)) return reached;
  const FlatObdd& flat = index.flat();
  FlatId start = index.blocks().empty() ? flat.root() : kFlatTrue;
  for (const MvBlock& b : index.blocks()) {
    if (b.last_level >= qmgr.level(root)) {
      start = b.chain_root;
      break;
    }
  }
  std::set<std::pair<NodeId, FlatId>> seen;
  std::vector<std::pair<NodeId, FlatId>> stack;
  auto reach = [&](NodeId q, FlatId u) {
    if (!qmgr.IsSink(q) && u >= 0 && seen.insert({q, u}).second) {
      stack.push_back({q, u});
    }
  };
  reach(root, start);
  while (!stack.empty()) {
    const auto [q, u] = stack.back();
    stack.pop_back();
    reached.insert(u);
    const BddNode& n = qmgr.node(q);
    if (n.level < flat.level(u)) {  // query-only level: split q in place
      reach(n.lo, u);
      reach(n.hi, u);
    } else if (n.level == flat.level(u)) {
      reach(n.lo, flat.lo(u));
      reach(n.hi, flat.hi(u));
    } else {
      reach(q, flat.lo(u));
      reach(q, flat.hi(u));
    }
  }
  return reached;
}

/// Index of the block that owns flat node `u`.
size_t BlockOfNode(const MvIndex& index, FlatId u) {
  const std::vector<MvBlock>& blocks = index.blocks();
  size_t b = 0;
  while (b + 1 < blocks.size() && blocks[b + 1].chain_root <= u) ++b;
  return b;
}

TEST(IntersectKernelTest, SparseBatchesAcrossTheChainMatchSoloSweeps) {
  SharedWorkload& s = LongChain();
  MvIndex& index = s.engine->mutable_index();
  const std::vector<MvBlock>& blocks = index.blocks();
  ASSERT_GE(blocks.size(), 2000u);
  const VarOrder& order = *index.manager().order();
  // Roots live in the index's own manager, so MVIntersectScaled can check
  // them too.
  BddManager& qmgr = s.engine->manager();
  // A literal (or a negated one) on the last level of block b: its sweep
  // stays inside b, so roots in far-apart blocks leave long empty gaps.
  auto lit = [&](size_t b, bool negated) {
    const NodeId x = qmgr.MkVar(order.var_at_level(blocks[b].last_level));
    return negated ? qmgr.Not(x) : x;
  };
  const size_t last = blocks.size() - 1;
  const size_t mid = blocks.size() / 2;
  const std::vector<std::vector<NodeId>> batches = {
      {lit(0, false), lit(last, false)},
      {lit(last, true), lit(0, true), lit(mid, false)},
      {qmgr.And(lit(1, false), lit(2, false)), lit(last - 1, false),
       lit(7, true), lit(mid + 3, true)},
      // A disjunction over blocks 40 apart walks every block in between: a
      // dense stretch next to sparse roots.
      {lit(0, false), qmgr.Or(lit(mid, false), lit(mid + 40, false)),
       lit(last, false)},
  };

  for (const bool fast : {false, true}) {
    index.set_use_fast_intersect(fast);
    for (size_t bi = 0; bi < batches.size(); ++bi) {
      std::vector<CcQuery> batch;
      std::set<FlatId> reached;
      for (const NodeId root : batches[bi]) {
        batch.push_back(CcQuery{&qmgr, root});
        const std::set<FlatId> r = ReachedFlatNodes(index, qmgr, root);
        reached.insert(r.begin(), r.end());
      }
      ASSERT_FALSE(reached.empty());
      const FlatId lo = *reached.begin();
      const FlatId hi = *reached.rbegin();
      // The batch really jumps: a gap of more than one bitmap word and
      // thousands of blocks between its first and last visited node.
      FlatId max_gap = 0;
      for (auto it = std::next(reached.begin()); it != reached.end(); ++it) {
        max_gap = std::max(max_gap, *it - *std::prev(it));
      }
      EXPECT_GT(max_gap, 64) << "batch " << bi;
      EXPECT_GE(BlockOfNode(index, hi) - BlockOfNode(index, lo), 1000u)
          << "batch " << bi;

      CcSweepScratch scratch;
      std::vector<ScaledDouble> batched;
      index.CCMVIntersectBatchScaled(batch, &scratch, &batched);
      // The work counters: one visit per filled chain, and the bitmap
      // walk reads one word per visit plus one per 64 nodes of span.
      const size_t span = static_cast<size_t>(hi - lo) + 1;
      EXPECT_EQ(scratch.last_nodes_visited(), reached.size())
          << "batch " << bi << " fast=" << fast;
      EXPECT_LE(scratch.last_words_read(),
                scratch.last_nodes_visited() + (span + 63) / 64 + 1)
          << "batch " << bi << " fast=" << fast;

      ASSERT_EQ(batched.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        CcSweepScratch solo_scratch;
        const ScaledDouble solo =
            index.CCMVIntersectScaled(batch[i], &solo_scratch);
        EXPECT_TRUE(SameBits(batched[i], solo))
            << "batch " << bi << " root " << i << " fast=" << fast;
        // The top-down MVIntersect shares no sweep code (it finds each
        // credit's block by binary search): same Eq. 5 ratio to rounding.
        const double want = (index.MVIntersectScaled(batch[i].root) /
                             index.ProbNotWScaled()).ToDouble();
        EXPECT_NEAR((solo / index.ProbNotWScaled()).ToDouble(), want, 1e-9)
            << "batch " << bi << " root " << i;
        EXPECT_EQ(solo_scratch.last_nodes_visited(),
                  ReachedFlatNodes(index, qmgr, batch[i].root).size());
        // The same scratch again: a sweep leaves it empty for the next.
        EXPECT_TRUE(SameBits(index.CCMVIntersectScaled(batch[i], &scratch),
                             solo));
      }
    }
  }
  index.set_use_fast_intersect(true);
}

TEST(IntersectKernelTest, ScratchReusedAcrossIndexesMatchesFreshScratch) {
  // One scratch serves a 10K-author index, a 2K-author index and the first
  // again: its chains were sized by the longer chain and its arena grown by
  // earlier calls. Every batch must equal a fresh scratch's sweep: the same
  // numerator bits and the same work counters.
  CcSweepScratch reused;
  size_t visited = 0;
  for (SharedWorkload* s : {&LongChain(), &ShortChain(), &LongChain()}) {
    const MvIndex& index = s->engine->index();
    BddManager qmgr(index.manager().order());
    const std::vector<NodeId> pool = RandomQueryPool(index, &qmgr, 64);
    for (size_t begin = 0; begin < pool.size(); begin += 8) {
      std::vector<CcQuery> batch;
      for (size_t i = begin; i < begin + 8; ++i) {
        batch.push_back(CcQuery{&qmgr, pool[i]});
      }
      std::vector<ScaledDouble> got, want;
      index.CCMVIntersectBatchScaled(batch, &reused, &got);
      CcSweepScratch fresh;
      index.CCMVIntersectBatchScaled(batch, &fresh, &want);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(SameBits(got[i], want[i])) << "root " << begin + i;
      }
      EXPECT_EQ(reused.last_nodes_visited(), fresh.last_nodes_visited());
      EXPECT_EQ(reused.last_words_read(), fresh.last_words_read());
      visited += fresh.last_nodes_visited();
    }
  }
  EXPECT_GT(visited, 1000u);  // the batches really sweep
}

}  // namespace
}  // namespace mvdb

// Concurrency battery for the serving layer, extending the golden-hash
// discipline of pipeline_golden_test to the READ path: N client threads
// hammer Eval + CC-MVIntersect on one shared index through a Server, across
// worker counts {1, 2, 8, 0}, with batching on and off — and every single
// result must be bit-identical to the serial first-principles evaluation
// (Eval + fresh-manager synthesis + solo CC sweep). The serial reference
// itself is pinned by a golden hash, so a change that silently moves answer
// bits fails even with the concurrency machinery agreeing with itself.
// QueryEngine::Query runs the same body and is pinned to the same bits.
// Runs under the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "mvindex/mv_index.h"
#include "query/eval.h"
#include "serve/server.h"
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

bool BitEqual(const std::vector<AnswerProb>& a,
              const std::vector<AnswerProb>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].head != b[i].head) return false;
    if (std::memcmp(&a[i].prob, &b[i].prob, sizeof(double)) != 0) return false;
  }
  return true;
}

/// The DBLP-400 workload (affiliation views on — same instance the
/// template golden test pins), compiled once and shared: the serving layer
/// treats it as immutable, which is exactly what this suite stresses.
struct SharedWorkload {
  std::unique_ptr<Mvdb> mvdb;
  std::unique_ptr<QueryEngine> engine;
  std::vector<Ucq> queries;
  std::vector<std::vector<AnswerProb>> reference;  // serial answers, in order
};

/// The Fig. 10/11 mix: six students-of-advisor and three
/// affiliation-of-author questions, parsed into `mvdb`'s dictionary.
std::vector<Ucq> Fig1011Queries(Mvdb* mvdb) {
  std::vector<Ucq> queries;
  const Table* advisor = mvdb->db().Find("Advisor");
  MVDB_CHECK(advisor != nullptr && advisor->size() >= 6);
  const size_t stride = advisor->size() / 6;
  for (size_t i = 0; i < 6; ++i) {
    const Value senior = advisor->At(static_cast<RowId>(i * stride), 1);
    queries.push_back(dblp::StudentsOfAdvisorQuery(
        mvdb, dblp::AuthorName(static_cast<int>(senior))));
  }
  const Table* aff = mvdb->db().Find("Affiliation");
  MVDB_CHECK(aff != nullptr && aff->size() >= 3);
  for (size_t i = 0; i < 3; ++i) {
    const Value aid = aff->At(static_cast<RowId>(i), 0);
    queries.push_back(dblp::AffiliationOfAuthorQuery(
        mvdb, dblp::AuthorName(static_cast<int>(aid))));
  }
  return queries;
}

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

    // The Fig. 10/11 mix: students-of-advisor and affiliation-of-author
    // queries (repeated shapes, different constants), plus an empty-answer
    // query — all pre-parsed, since parsing interns into the shared dict.
    s->queries = Fig1011Queries(s->mvdb.get());
    s->queries.push_back(
        dblp::StudentsOfAdvisorQuery(s->mvdb.get(), "no-such-author"));

    // Serial first-principles reference: Eval, synthesize each answer's
    // lineage into a FRESH manager (the serving bit-identity invariant),
    // one SOLO CC sweep per root. No Server code involved.
    const MvIndex& index = s->engine->index();
    const ScaledDouble denom = index.ProbNotWScaled();
    CcSweepScratch scratch;
    for (const Ucq& q : s->queries) {
      AnswerMap answers;
      MVDB_CHECK(Eval(s->mvdb->db(), q, EvalOptions{}, &answers).ok());
      BddManager qmgr(index.manager().order());
      std::vector<AnswerProb> out;
      for (const auto& [head, info] : answers) {
        const NodeId root = qmgr.FromLineageSynthesis(info.lineage);
        const ScaledDouble num =
            index.CCMVIntersectScaled(CcQuery{&qmgr, root}, &scratch);
        out.push_back(AnswerProb{head, ClampProb((num / denom).ToDouble())});
      }
      s->reference.push_back(std::move(out));
    }
    return s;
  }();
  return *shared;
}

// Golden hash of the serial reference answers on DBLP-400. If an
// intentional pipeline change moves this value, re-pin it together with
// the pipeline_golden_test / mvindex_template_test hashes.
constexpr uint64_t kGoldenAnswers = 9734561884288702949ULL;

TEST(ServeConcurrencyTest, SerialReferenceMatchesGoldenHash) {
  SharedWorkload& s = Shared();
  size_t nonempty = 0, total_answers = 0;
  for (const auto& answers : s.reference) {
    if (!answers.empty()) ++nonempty;
    total_answers += answers.size();
  }
  EXPECT_EQ(nonempty, 9u);  // every query but the no-such-author one
  EXPECT_TRUE(s.reference.back().empty());
  EXPECT_GT(total_answers, 9u);
  EXPECT_EQ(HashAnswers(s.reference), kGoldenAnswers);
}

TEST(ServeConcurrencyTest, SynchronousExecuteMatchesReferenceBitwise) {
  SharedWorkload& s = Shared();
  ServeOptions opts;
  opts.start_workers = false;  // Execute() needs no workers
  auto server = s.engine->Serve(opts);
  ASSERT_TRUE(server.ok());
  for (size_t i = 0; i < s.queries.size(); ++i) {
    ServeRequest req;
    req.query = s.queries[i];
    const ServeResult res = (*server)->Execute(req);
    ASSERT_TRUE(res.status.ok()) << res.status.ToString();
    EXPECT_TRUE(BitEqual(res.answers, s.reference[i])) << "query " << i;
  }
}

/// Hammers one server config from `clients` threads, `reps` passes over the
/// full query mix each, and verifies EVERY result bit-identical to the
/// serial reference. Returns the number of verified results.
size_t Hammer(Server* server, int clients, int reps) {
  SharedWorkload& s = Shared();
  const size_t nq = s.queries.size();
  struct Slot {
    size_t query = 0;
    ServeResult result;
  };
  std::vector<std::vector<Slot>> per_client(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& slots = per_client[static_cast<size_t>(c)];
      // Stagger each client's starting offset so concurrent batches mix
      // different query shapes.
      for (int r = 0; r < reps; ++r) {
        for (size_t k = 0; k < nq; ++k) {
          const size_t qi = (k + static_cast<size_t>(c)) % nq;
          ServeRequest req;
          req.query = s.queries[qi];
          auto fut = server->Submit(req);
          slots.push_back(Slot{qi, fut.get()});
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  size_t verified = 0;
  for (const auto& slots : per_client) {
    for (const Slot& slot : slots) {
      EXPECT_TRUE(slot.result.status.ok()) << slot.result.status.ToString();
      EXPECT_TRUE(BitEqual(slot.result.answers, s.reference[slot.query]))
          << "query " << slot.query;
      ++verified;
    }
  }
  return verified;
}

TEST(ServeConcurrencyTest, BitIdenticalAcrossWorkerThreadCounts) {
  SharedWorkload& s = Shared();
  for (const int workers : {1, 2, 8, 0}) {  // 0 = one per hardware thread
    ServeOptions opts;
    opts.num_threads = workers;
    opts.max_batch = 4;
    auto server = s.engine->Serve(opts);
    ASSERT_TRUE(server.ok());
    const size_t verified = Hammer(server->get(), /*clients=*/4, /*reps=*/3);
    EXPECT_EQ(verified, 4u * 3u * s.queries.size()) << "workers=" << workers;
    (*server)->Shutdown();
    const ServerStats stats = (*server)->stats();
    EXPECT_EQ(stats.completed, verified) << "workers=" << workers;
    EXPECT_EQ(stats.failed, 0u);
    // The repeated shapes actually hit the cache under concurrency.
    const PlanCacheStats cache = (*server)->plan_cache_stats();
    EXPECT_GT(cache.hits, 0u);
    EXPECT_GE(cache.misses, 2u);  // two distinct shapes in the mix
  }
}

TEST(ServeConcurrencyTest, BitIdenticalWithBatchingOff) {
  SharedWorkload& s = Shared();
  ServeOptions opts;
  opts.num_threads = 8;
  opts.max_batch = 1;  // no cross-request batching
  auto server = s.engine->Serve(opts);
  ASSERT_TRUE(server.ok());
  Hammer(server->get(), 4, 2);
  (*server)->Shutdown();
  EXPECT_EQ((*server)->stats().batched_requests, 0u);
}

TEST(ServeConcurrencyTest, BatchedSweepMatchesSoloSweepPerRoot) {
  // Direct MvIndex-level check, independent of the Server: a batch of all
  // reference roots in one pass must reproduce each solo sweep bit for bit
  // (the batching invariant the serving layer is built on).
  SharedWorkload& s = Shared();
  const MvIndex& index = s.engine->index();
  BddManager qmgr(index.manager().order());
  std::vector<CcQuery> roots;
  for (const Ucq& q : s.queries) {
    AnswerMap answers;
    MVDB_CHECK(Eval(s.mvdb->db(), q, EvalOptions{}, &answers).ok());
    for (const auto& [head, info] : answers) {
      roots.push_back(CcQuery{&qmgr, qmgr.FromLineageSynthesis(info.lineage)});
    }
  }
  ASSERT_GT(roots.size(), 10u);

  CcSweepScratch scratch;
  std::vector<ScaledDouble> batched;
  index.CCMVIntersectBatchScaled(roots, &scratch, &batched);
  ASSERT_EQ(batched.size(), roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    const ScaledDouble solo = index.CCMVIntersectScaled(roots[i], &scratch);
    const double a = batched[i].ToDouble();
    const double b = solo.ToDouble();
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << "root " << i;
  }
}

TEST(ServeConcurrencyTest, EngineQueryMatchesReferenceBitwise) {
  // QueryEngine::Query runs the serving body (a pooled manager reset per
  // query, one batched sweep), so its answers carry the serial reference's
  // bits.
  SharedWorkload& s = Shared();
  std::vector<std::vector<AnswerProb>> engine_answers;
  for (const Ucq& q : s.queries) {
    auto answers = s.engine->Query(q);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    engine_answers.push_back(std::move(answers).value());
  }
  EXPECT_EQ(HashAnswers(engine_answers), kGoldenAnswers);
}

TEST(ServeConcurrencyTest, PooledManagersFollowAStructuralDelta) {
  // Query managers are pooled per batch slot and reset between requests.
  // A structural delta binds the index to a new VarOrder, so every pool
  // must be rebuilt on it rather than reset on the old one. A 1-worker
  // server and the engine first fill their pools on the old order; after a
  // Student insert under a fresh aid, Submit, Execute and the engine's
  // Query must agree bit for bit and match a fresh Compile of the mutated
  // MVDB.
  dblp::DblpConfig cfg;
  cfg.num_authors = 400;
  cfg.include_affiliation = true;
  auto built = dblp::BuildDblpMvdb(cfg, nullptr);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<Mvdb> mvdb = std::move(built).value();
  QueryEngine engine(mvdb.get());
  ASSERT_TRUE(engine.Compile().ok());
  const std::vector<Ucq> queries = Fig1011Queries(mvdb.get());

  ServeOptions opts;
  opts.num_threads = 1;
  opts.start_workers = false;
  auto server = engine.Serve(opts);
  ASSERT_TRUE(server.ok());
  auto submit_all = [&] {
    std::vector<std::future<ServeResult>> futures;
    for (const Ucq& q : queries) futures.push_back((*server)->Submit({q, 0}));
    (*server)->Start();  // a no-op after the first call
    std::vector<std::vector<AnswerProb>> out;
    for (auto& f : futures) {
      ServeResult res = f.get();
      EXPECT_TRUE(res.status.ok()) << res.status.ToString();
      out.push_back(std::move(res.answers));
    }
    return out;
  };
  // Warm: the queued requests fill a whole batch, so every slot of the
  // worker's pool and the engine's slot 0 hold a manager on the old order.
  submit_all();
  for (const Ucq& q : queries) ASSERT_TRUE(engine.Query(q).ok());

  DeltaOp insert;
  insert.kind = DeltaOp::Kind::kInsert;
  insert.table = "Student";
  insert.values = {testing_util::FreshAid(mvdb->db()), 2001};
  insert.weight = 0.8;
  const std::shared_ptr<const VarOrder> old_order =
      engine.index().manager().order();
  ASSERT_TRUE(engine.ApplyDelta({insert}, server->get()).ok());
  ASSERT_NE(engine.index().manager().order(), old_order);
  ASSERT_GT(engine.index().manager().num_levels(), old_order->num_levels());

  const std::vector<std::vector<AnswerProb>> submitted = submit_all();
  std::vector<std::vector<AnswerProb>> executed, queried;
  for (const Ucq& q : queries) {
    ServeResult res = (*server)->Execute(ServeRequest{q, 0});
    ASSERT_TRUE(res.status.ok()) << res.status.ToString();
    executed.push_back(std::move(res.answers));
    auto answers = engine.Query(q);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    queried.push_back(std::move(answers).value());
  }

  // The reference: the same delta on a twin MVDB, then a cold Compile.
  auto twin_built = dblp::BuildDblpMvdb(cfg, nullptr);
  ASSERT_TRUE(twin_built.ok());
  std::unique_ptr<Mvdb> twin = std::move(twin_built).value();
  TranslateOptions topts;
  topts.num_threads = CompileOptions{}.num_threads;
  ASSERT_TRUE(twin->Translate(topts).ok());
  DeltaEffects effects;
  ASSERT_TRUE(twin->ApplyBaseDelta({insert}, &effects).ok());
  ASSERT_FALSE(effects.new_vars.empty());
  QueryEngine cold(twin.get());
  ASSERT_TRUE(cold.Compile().ok());
  std::vector<std::vector<AnswerProb>> reference;
  for (const Ucq& q : Fig1011Queries(twin.get())) {
    auto answers = cold.Query(q);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    reference.push_back(std::move(answers).value());
  }

  ASSERT_EQ(reference.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_FALSE(reference[i].empty()) << "query " << i;
    EXPECT_TRUE(BitEqual(submitted[i], reference[i])) << "query " << i;
    EXPECT_TRUE(BitEqual(executed[i], reference[i])) << "query " << i;
    EXPECT_TRUE(BitEqual(queried[i], reference[i])) << "query " << i;
  }
}

/// One client thread that keeps a server busy: it submits `queries` in
/// rounds, waits for each round, and counts the outcomes (and, when
/// `expected` is non-empty, answers whose bits differ from it).
class BusyClient {
 public:
  BusyClient(Server* server, const std::vector<Ucq>& queries,
             std::vector<std::vector<AnswerProb>> expected = {})
      : queries_(queries),
        expected_(std::move(expected)),
        thread_([this, server] {
          while (!stop_.load()) {
            std::vector<std::future<ServeResult>> round;
            for (const Ucq& q : queries_) {
              round.push_back(server->Submit(ServeRequest{q, 0}));
            }
            for (size_t i = 0; i < round.size(); ++i) {
              const ServeResult res = round[i].get();
              if (!expected_.empty() && res.status.ok() &&
                  !BitEqual(res.answers, expected_[i])) {
                mismatched_.fetch_add(1);
              }
              (res.status.ok() ? served_ : failed_).fetch_add(1);
            }
          }
        }) {}
  ~BusyClient() { Stop(); }

  /// Returns once at least one more round has completed.
  void AwaitRound() const {
    const size_t target = Done() + queries_.size();
    while (Done() < target) std::this_thread::yield();
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  size_t failed() const { return failed_.load(); }
  size_t mismatched() const { return mismatched_.load(); }

 private:
  size_t Done() const { return served_.load() + failed_.load(); }

  const std::vector<Ucq>& queries_;
  const std::vector<std::vector<AnswerProb>> expected_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> served_{0}, failed_{0}, mismatched_{0};
  std::thread thread_;  // last: starts after the counters exist
};

TEST(ServeConcurrencyTest, StructuralDeltasPauseBeforeTheBaseTableWrites) {
  // A structural delta appends rows, which drops the table's lazy column
  // indexes, and view maintenance evaluates over the same tables the
  // workers probe. All of it must run while the workers are paused. One
  // client thread keeps a 4-worker server busy with the Fig. 10/11 mix
  // while five Student inserts go through ApplyDelta, and after each delta
  // the engine answers the mix beside the server; under TSan any overlap
  // is a reported race.
  dblp::DblpConfig cfg;
  cfg.num_authors = 400;
  cfg.include_affiliation = true;
  auto built = dblp::BuildDblpMvdb(cfg, nullptr);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<Mvdb> mvdb = std::move(built).value();
  QueryEngine engine(mvdb.get());
  ASSERT_TRUE(engine.Compile().ok());
  const std::vector<Ucq> queries = Fig1011Queries(mvdb.get());
  const Value fresh = testing_util::FreshAid(mvdb->db());

  ServeOptions opts;
  opts.num_threads = 4;
  auto server = engine.Serve(opts);
  ASSERT_TRUE(server.ok());
  BusyClient client(server->get(), queries);
  bool applied = true;
  for (int k = 0; k < 5 && applied; ++k) {
    client.AwaitRound();
    DeltaOp insert;
    insert.kind = DeltaOp::Kind::kInsert;
    insert.table = "Student";
    insert.values = {fresh + k, 2001};
    insert.weight = 0.8;
    const Status st = engine.ApplyDelta({insert}, server->get());
    EXPECT_TRUE(st.ok()) << st.ToString();
    applied = st.ok();
    for (const Ucq& q : queries) {
      auto answers = engine.Query(q);
      EXPECT_TRUE(answers.ok()) << answers.status().ToString();
    }
  }
  client.AwaitRound();
  client.Stop();
  ASSERT_TRUE(applied);
  EXPECT_EQ(client.failed(), 0u);

  // After the last delta, Submit, Execute and the engine agree bit for bit.
  for (size_t i = 0; i < queries.size(); ++i) {
    ServeResult submitted = (*server)->Submit(ServeRequest{queries[i], 0}).get();
    ASSERT_TRUE(submitted.status.ok()) << submitted.status.ToString();
    ServeResult executed = (*server)->Execute(ServeRequest{queries[i], 0});
    ASSERT_TRUE(executed.status.ok()) << executed.status.ToString();
    auto queried = engine.Query(queries[i]);
    ASSERT_TRUE(queried.ok()) << queried.status().ToString();
    EXPECT_FALSE(queried->empty()) << "query " << i;
    EXPECT_TRUE(BitEqual(submitted.answers, *queried)) << "query " << i;
    EXPECT_TRUE(BitEqual(executed.answers, *queried)) << "query " << i;
  }
}

TEST(ServeConcurrencyTest, InvalidatePlansRewarmsTheTableIndexes) {
  // The server handshake ApplyDelta relies on: a row appended between
  // Pause() and Resume() drops the table's lazy column indexes, and
  // InvalidatePlans() must build them again before Resume(), or a worker
  // and the engine's own queries build one concurrently (a TSan race).
  // (ApplyDelta's structural repair happens to rebuild the indexes the
  // Fig. 10/11 mix probes; this write repairs nothing.) The row is a
  // deterministic Author under an unused id and name, so every answer
  // keeps its bits.
  dblp::DblpConfig cfg;
  cfg.num_authors = 400;
  cfg.include_affiliation = true;
  auto built = dblp::BuildDblpMvdb(cfg, nullptr);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<Mvdb> mvdb = std::move(built).value();
  QueryEngine engine(mvdb.get());
  ASSERT_TRUE(engine.Compile().ok());
  const std::vector<Ucq> queries = Fig1011Queries(mvdb.get());
  std::vector<std::vector<AnswerProb>> expected;
  for (const Ucq& q : queries) {
    auto answers = engine.Query(q);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    expected.push_back(std::move(answers).value());
  }
  Database& db = mvdb->db();
  const Value aid = testing_util::FreshAid(db);
  const Value name = db.Str("author-added-while-paused");

  ServeOptions opts;
  opts.num_threads = 4;
  auto server = engine.Serve(opts);
  ASSERT_TRUE(server.ok());
  BusyClient client(server->get(), queries, expected);
  client.AwaitRound();
  (*server)->Pause();
  db.InsertDeterministic("Author", {aid, name});
  (*server)->InvalidatePlans();
  (*server)->Resume();
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < queries.size(); ++i) {
      auto answers = engine.Query(queries[i]);
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
      EXPECT_TRUE(BitEqual(*answers, expected[i])) << "query " << i;
    }
  }
  client.AwaitRound();
  client.Stop();
  EXPECT_EQ(client.failed(), 0u);
  EXPECT_EQ(client.mismatched(), 0u);
}

TEST(ServeConcurrencyTest, EngineEqualsServerOnRandomMvdbs) {
  // Random small MVDBs (mostly non-zero view weights, so W spans many
  // blocks) and UCQs with self-joins and unions. QueryEngine::Query must
  // return Server::Execute's bits, and an engine's answers must not depend
  // on what it was asked before: a second engine asked the same queries in
  // reverse order returns the same bits.
  const char* const kQueries[] = {
      "Q(x) :- S(x,y), S(y,z), R(z).",
      "Q(x) :- R(x), S(x,y).",
      "Q(y) :- S(x,y), R(x), R(y).",
      "Q(x,y) :- S(x,y), S(y,x).",
      "Q(x) :- S(x,y), R(y). Q(x) :- R(x), S(y,x).",
      "Q(z) :- S(x,y), S(y,z).",
      "Q :- R(x), S(x,y), S(y,z), R(z).",
      "Q(x) :- S(x,x).",
  };
  constexpr size_t kNumQueries = std::size(kQueries);
  size_t answers_checked = 0;
  for (uint64_t seed = 5001; seed <= 5012; ++seed) {
    Rng rng(seed);
    testing_util::RandomMvdbSpec spec;
    spec.domain = 5 + static_cast<int>(rng.Below(4));
    spec.denial_chance = 0.1;
    auto mvdb = testing_util::RandomMvdb(&rng, spec);
    std::vector<Ucq> queries;
    for (const char* text : kQueries) {
      queries.push_back(testing_util::MustParse(text, &mvdb->db().dict()));
    }
    QueryEngine forward(mvdb.get());
    ASSERT_TRUE(forward.Compile().ok());
    QueryEngine backward(mvdb.get());
    ASSERT_TRUE(backward.Compile().ok());
    ServeOptions opts;
    opts.start_workers = false;
    auto server = forward.Serve(opts);
    ASSERT_TRUE(server.ok());

    std::vector<std::vector<AnswerProb>> fwd(kNumQueries), bwd(kNumQueries),
        served(kNumQueries);
    for (size_t i = 0; i < kNumQueries; ++i) {
      auto answers = forward.Query(queries[i]);
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
      fwd[i] = std::move(answers).value();
      answers_checked += fwd[i].size();
    }
    for (size_t i = kNumQueries; i-- > 0;) {
      auto answers = backward.Query(queries[i]);
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
      bwd[i] = std::move(answers).value();
    }
    for (size_t i = 0; i < kNumQueries; ++i) {
      ServeResult res = (*server)->Execute(ServeRequest{queries[i], 0});
      ASSERT_TRUE(res.status.ok()) << res.status.ToString();
      served[i] = std::move(res.answers);
    }
    EXPECT_EQ(HashAnswers(fwd), HashAnswers(served)) << "seed " << seed;
    EXPECT_EQ(HashAnswers(fwd), HashAnswers(bwd)) << "seed " << seed;
  }
  EXPECT_GT(answers_checked, 500u);
}

}  // namespace
}  // namespace mvdb

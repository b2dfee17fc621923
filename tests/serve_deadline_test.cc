// Scheduler-contract battery for the serving layer: expired deadlines
// complete with kDeadlineExceeded WITHOUT executing (the plan cache's miss
// counter proves no evaluation ran), the queue/inflight admission limits
// shed with typed kUnavailable instead of blocking, and shutdown drains
// cleanly — started workers finish every admitted request, unstarted
// servers fail queued requests instead of hanging them. Runs under the
// ASan/UBSan CI job; every path must also be leak- and hang-free.
//
// Determinism: tests that need a full queue construct the server with
// start_workers=false, so nothing dequeues until Start() — admission
// decisions then depend only on the submit sequence, never on timing. The
// sleeps let an already-admitted request's deadline expire before workers
// start, and let a paused worker park again before Resume — both are
// racefree by construction (a slow machine only weakens the wake check).

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "serve/server.h"
#include "test_util.h"

namespace mvdb {
namespace {

/// One compiled DBLP workload shared by every test (compiling per test
/// would dominate the suite; the serving layer never mutates it).
struct SharedEngine {
  std::unique_ptr<Mvdb> mvdb;
  std::unique_ptr<QueryEngine> engine;
  Ucq query;  // a students-of-advisor query with a nonempty answer set
};

SharedEngine& Shared() {
  static SharedEngine* shared = [] {
    auto* s = new SharedEngine();
    dblp::DblpConfig cfg;
    cfg.num_authors = 150;
    auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
    MVDB_CHECK(mvdb.ok());
    s->mvdb = std::move(mvdb).value();
    s->engine = std::make_unique<QueryEngine>(s->mvdb.get());
    MVDB_CHECK(s->engine->Compile().ok());
    const Table* advisor = s->mvdb->db().Find("Advisor");
    MVDB_CHECK(advisor != nullptr && advisor->size() > 0);
    const Value senior = advisor->At(0, 1);
    s->query = dblp::StudentsOfAdvisorQuery(
        s->mvdb.get(), dblp::AuthorName(static_cast<int>(senior)));
    return s;
  }();
  return *shared;
}

std::unique_ptr<Server> MakeServer(ServeOptions opts) {
  auto server = Shared().engine->Serve(opts);
  MVDB_CHECK(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

ServeRequest Req(double deadline_ms = -1.0) {
  ServeRequest req;
  req.query = Shared().query;
  req.deadline_ms = deadline_ms;
  return req;
}

TEST(ServeDeadlineTest, ExpiredDeadlineCompletesWithoutExecuting) {
  ServeOptions opts;
  opts.num_threads = 1;
  opts.start_workers = false;
  auto server = MakeServer(opts);

  auto fut = server->Submit(Req(/*deadline_ms=*/1.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server->Start();  // worker dequeues an already-expired request
  const ServeResult res = fut.get();
  EXPECT_EQ(res.status.code(), StatusCode::kDeadlineExceeded)
      << res.status.ToString();
  EXPECT_TRUE(res.answers.empty());

  server->Shutdown();
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, 0u);
  // The request never reached evaluation: the plan cache was never consulted.
  EXPECT_EQ(server->plan_cache_stats().misses, 0u);
  EXPECT_EQ(server->plan_cache_stats().hits, 0u);
}

TEST(ServeDeadlineTest, DefaultDeadlineFromOptionsApplies) {
  ServeOptions opts;
  opts.num_threads = 1;
  opts.start_workers = false;
  opts.default_deadline_ms = 1.0;
  auto server = MakeServer(opts);

  auto expired = server->Submit(Req());  // deadline_ms < 0: inherit default
  auto unbounded = server->Submit(Req(/*deadline_ms=*/0.0));  // 0: none
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server->Start();
  EXPECT_EQ(expired.get().status.code(), StatusCode::kDeadlineExceeded);
  const ServeResult ok = unbounded.get();
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_GT(ok.answers.size(), 0u);
}

TEST(ServeDeadlineTest, QueueFullShedsWithTypedUnavailable) {
  ServeOptions opts;
  opts.num_threads = 1;
  opts.start_workers = false;  // nothing dequeues: the queue fills exactly
  opts.queue_capacity = 2;
  auto server = MakeServer(opts);

  auto f1 = server->Submit(Req());
  auto f2 = server->Submit(Req());
  auto f3 = server->Submit(Req());  // over capacity: shed, not blocked
  const ServeResult shed = f3.get();
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable)
      << shed.status.ToString();
  EXPECT_EQ(server->stats().shed_queue_full, 1u);

  // The admitted requests still complete once workers start.
  server->Start();
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  EXPECT_EQ(server->stats().completed, 2u);
}

TEST(ServeDeadlineTest, InflightLimiterShedsAtCapacity) {
  ServeOptions opts;
  opts.num_threads = 1;
  opts.start_workers = false;
  opts.queue_capacity = 100;
  opts.max_inflight = 2;  // bites before the queue bound
  auto server = MakeServer(opts);

  auto f1 = server->Submit(Req());
  auto f2 = server->Submit(Req());
  auto f3 = server->Submit(Req());
  EXPECT_EQ(f3.get().status.code(), StatusCode::kUnavailable);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.shed_inflight, 1u);
  EXPECT_EQ(stats.shed_queue_full, 0u);

  server->Start();
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  // Completion released the inflight slots: admission works again.
  auto f4 = server->Submit(Req());
  EXPECT_TRUE(f4.get().status.ok());
}

TEST(ServeDeadlineTest, ShutdownDrainsAdmittedRequests) {
  ServeOptions opts;
  opts.num_threads = 2;
  opts.max_batch = 4;
  auto server = MakeServer(opts);

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 24; ++i) futures.push_back(server->Submit(Req()));
  server->Shutdown();  // must drain every admitted request, then join

  size_t ok = 0;
  for (auto& f : futures) {
    const ServeResult res = f.get();  // completes — no hangs
    if (res.status.ok()) {
      ++ok;
      EXPECT_GT(res.answers.size(), 0u);
    } else {
      // Anything not drained must carry the typed shutdown error.
      EXPECT_EQ(res.status.code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_EQ(ok, 24u);  // started workers drain the whole queue
  EXPECT_EQ(server->stats().completed, 24u);
}

TEST(ServeDeadlineTest, ShutdownWithoutWorkersFailsQueuedRequestsCleanly) {
  ServeOptions opts;
  opts.num_threads = 1;
  opts.start_workers = false;
  auto server = MakeServer(opts);

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(server->Submit(Req()));
  server->Shutdown();  // no workers ever started: queued requests must fail
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status.code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(server->stats().rejected_shutdown, 3u);
}

/// Waits at most 10 s for `fut` — a missed wake-up fails the test instead
/// of hanging it.
bool CompletesInTime(const std::future<ServeResult>& fut) {
  return fut.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
}

void ExpectSameBits(const ServeResult& got, const ServeResult& want) {
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  ASSERT_EQ(got.answers.size(), want.answers.size());
  for (size_t i = 0; i < got.answers.size(); ++i) {
    EXPECT_EQ(got.answers[i].head, want.answers[i].head) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.answers[i].prob),
              std::bit_cast<uint64_t>(want.answers[i].prob))
        << i;
  }
}

TEST(ServeDeadlineTest, ResumeWakesWorkersOnlyForQueuedRequests) {
  ServeOptions opts;
  opts.num_threads = 1;
  auto server = MakeServer(opts);
  const ServeResult want = server->Execute(Req());
  ASSERT_TRUE(want.status.ok()) << want.status.ToString();
  ASSERT_GT(want.answers.size(), 0u);

  // Requests admitted while paused wait for Resume, which must wake the
  // parked worker: their Submit-time notifications found it paused.
  server->Pause();
  std::vector<std::future<ServeResult>> queued;
  for (int i = 0; i < 3; ++i) queued.push_back(server->Submit(Req()));
  // Let the worker take those notifications while still paused and park
  // again, so only Resume's own wake can start it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server->Resume();
  for (auto& f : queued) {
    ASSERT_TRUE(CompletesInTime(f)) << "queued request never ran";
    ExpectSameBits(f.get(), want);
  }

  // An idle Resume wakes nobody; the next Submit's own notification must
  // still reach the worker.
  server->Pause();
  server->Resume();
  auto after = server->Submit(Req());
  ASSERT_TRUE(CompletesInTime(after)) << "request after idle Resume never ran";
  ExpectSameBits(after.get(), want);
  EXPECT_EQ(server->stats().completed, 4u);
}

TEST(ServeDeadlineTest, SubmitAfterShutdownIsRejected) {
  auto server = MakeServer(ServeOptions{});
  server->Shutdown();
  auto fut = server->Submit(Req());
  EXPECT_EQ(fut.get().status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(server->stats().rejected_shutdown, 1u);
  server->Shutdown();  // idempotent
}

}  // namespace
}  // namespace mvdb

// Copyright 2026 The MarkoView Authors.
//
// Online serving layer over a compiled MV-index. The index's flat chain is
// immutable at serve time, so concurrent reads need no locks; everything
// mutable is per-request or per-worker:
//
//   plan cache    — repeated query shapes skip the cost-based planner
//                   (serve/plan_cache.h);
//   scheduler     — a fixed-size worker pool (util/parallel.h ThreadPool)
//                   behind a bounded queue, with per-request deadlines, an
//                   inflight limiter, and queue-full shedding that returns
//                   typed Status (kDeadlineExceeded / kUnavailable) instead
//                   of blocking the caller;
//   batched sweep — a worker drains up to max_batch requests at once and
//                   answers all of their tuples in ONE CC-MVIntersect pass
//                   over the flat chain (MvIndex::CCMVIntersectBatchScaled).
//
// Each request runs the online algorithm of Section 4.3, whose only copy
// is below (QueryEngine::Query's default backend runs it as a batch of
// one): (1) plan through the cache and execute, (2) synthesize every
// answer's lineage into ONE query manager over the index's order — pooled
// per batch slot and reset to its two-sink state, which hands out a fresh
// manager's NodeIds — (3) one CC sweep over all roots of the batch, (4)
// Eq. 5 with one ClampProb. The reset manager makes NodeIds — and with them
// every hash-map iteration order in the sweep — a function of the query
// alone, and a batched sweep reproduces each solo sweep bit for bit, so
// answer bits never depend on the caller, scheduling, batching, cache
// state, or what was asked before (serve_concurrency_test pins golden
// hashes). The order and P0(NOT W) are read off the index per batch.

#ifndef MVDB_SERVE_SERVER_H_
#define MVDB_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "mvindex/mv_index.h"
#include "query/ast.h"
#include "query/eval.h"
#include "relational/database.h"
#include "serve/plan_cache.h"
#include "util/parallel.h"
#include "util/status.h"

namespace mvdb {

/// One query after steps 1-2, waiting for its sweep.
struct SynthesizedQuery {
  Status status;
  bool plan_cache_hit = false;
  /// The pooled manager of the query's batch slot (owned by the
  /// PipelineScratch; valid until the slot is borrowed again).
  BddManager* qmgr = nullptr;
  std::vector<std::vector<Value>> heads;
  std::vector<NodeId> roots;  ///< one per head, in qmgr
};

/// Per-caller scratch of the body, kept across calls (one per serving
/// worker, one per engine), so that a warm call allocates neither O(index)
/// nor per-request managers, sweep state or batch vectors.
struct PipelineScratch {
  EvalScratch eval;
  CcSweepScratch sweep;
  std::vector<SynthesizedQuery> queries;  ///< the batch, one per slot
  std::vector<CcQuery> roots;             ///< SweepNumerators' batch
  std::vector<ScaledDouble> nums;         ///< the batch's numerators

  /// Slot `slot`'s query manager in its two-sink state over `order`:
  /// Reset() while the pool is on that order, and the whole pool is
  /// rebuilt when the order changed (a structural delta swaps the index's
  /// VarOrder), so no slot pins an old order past its next batch. A reset
  /// manager hands out a fresh manager's NodeIds.
  BddManager* BorrowManager(size_t slot,
                            const std::shared_ptr<const VarOrder>& order);

 private:
  std::shared_ptr<const VarOrder> pool_order_;
  std::vector<std::unique_ptr<BddManager>> managers_;
};

/// Clamps values within floating-point noise of [0, 1].
double ClampProb(double p);

/// Step 1: bit-identical to Eval(q); the cache only saves planning. The
/// answers go to `answers`, or with `answers` null stay in
/// scratch->answers (the table the serving body reads).
Status PlanAndExecute(const Database& db, PlanCache* plans, const Ucq& q,
                      EvalScratch* scratch, AnswerMap* answers,
                      bool* plan_cache_hit = nullptr);

/// Steps 1-2 into the pooled manager of batch slot `slot`: each head's
/// canonical clauses are synthesized straight from the scratch's answer
/// table, and only the head values are copied out. Failures land in
/// out->status.
void SynthesizeQuery(const Database& db, const MvIndex& index,
                     PlanCache* plans, const Ucq& q, PipelineScratch* scratch,
                     size_t slot, SynthesizedQuery* out);

/// Step 3 for a batch: one sweep over the roots of every OK query, the
/// numerators in query-then-answer order.
void SweepNumerators(const MvIndex& index,
                     std::span<const SynthesizedQuery> queries,
                     PipelineScratch* scratch, std::vector<ScaledDouble>* nums);

/// Step 4 for the answer heads whose numerators start at nums[*cursor]:
/// moves the heads into `answers` and advances the cursor past them.
Status Eq5Answers(const MvIndex& index, std::vector<std::vector<Value>>* heads,
                  const std::vector<ScaledDouble>& nums, size_t* cursor,
                  std::vector<AnswerProb>* answers);

struct ServeOptions {
  /// Worker threads executing requests. <= 0 = one per hardware thread.
  int num_threads = 4;
  /// Admission bound on queued (not yet dequeued) requests; submits beyond
  /// it are shed with kUnavailable.
  size_t queue_capacity = 1024;
  /// Admission bound on requests admitted but not yet completed. 0 derives
  /// queue_capacity + worker slots (i.e. only the queue bound sheds).
  size_t max_inflight = 0;
  /// Max requests one worker drains per dequeue; their answer tuples share
  /// one batched CC sweep. 1 disables cross-request batching.
  size_t max_batch = 8;
  /// Query shapes the plan cache keeps (LRU). A hit is bit-identical to
  /// planning from scratch; the capacity only bounds planning cost.
  size_t plan_cache_capacity = 128;
  /// Deadline applied to requests that don't carry their own. 0 = none.
  double default_deadline_ms = 0.0;
  /// Tests set false to control worker startup (Server::Start) explicitly —
  /// e.g. to fill the queue deterministically before any dequeue.
  bool start_workers = true;
};

struct ServeRequest {
  /// Pre-parsed query. Parsing interns constants into the Database dict, so
  /// requests must be built before concurrent submission.
  Ucq query;
  /// Relative deadline from Submit(). < 0 = use ServeOptions default;
  /// 0 = no deadline. Checked at admission and again at dequeue — an
  /// expired request completes with kDeadlineExceeded without executing.
  double deadline_ms = -1.0;
};

struct ServeResult {
  Status status;
  std::vector<AnswerProb> answers;  ///< Eq. 5 probability per answer tuple
  bool plan_cache_hit = false;
  double queue_ms = 0.0;  ///< admission -> dequeue
  double exec_ms = 0.0;   ///< dequeue -> completion (shared batch time)
};

/// Lifetime counters (snapshot). Every submitted request lands in exactly
/// one of completed / failed / deadline_exceeded / shed_* / rejected_shutdown.
struct ServerStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;           ///< finished with OK status
  uint64_t failed = 0;              ///< finished with a non-OK eval status
  uint64_t deadline_exceeded = 0;   ///< expired at admission or dequeue
  uint64_t shed_queue_full = 0;
  uint64_t shed_inflight = 0;
  uint64_t rejected_shutdown = 0;
  uint64_t batches = 0;             ///< worker dequeues
  uint64_t batched_requests = 0;    ///< requests sharing a multi-request batch
  size_t max_queue_depth = 0;
};

/// One serving instance over a compiled index. `db` and `index` must
/// outlive the server and must not be mutated while it serves (the engine's
/// Serve() warms all table indexes first, making the eval path read-only).
class Server {
 public:
  Server(const Database* db, const MvIndex* index, const ServeOptions& options);
  ~Server();  // Shutdown()

  /// Spawns the worker pool. Idempotent; called from the constructor unless
  /// options.start_workers was false.
  void Start();

  /// Enqueues a request; never blocks. The future always completes: with
  /// answers, or with a typed error (kUnavailable when shed or shut down,
  /// kDeadlineExceeded when expired). The order in which the futures of
  /// one batch complete is not a contract: a worker completes its batch
  /// newest-first, so a client waiting on its oldest request is woken
  /// once, with the whole batch ready.
  std::future<ServeResult> Submit(ServeRequest req);

  /// Synchronous in-caller execution — the serial reference path. Bypasses
  /// the queue, deadlines, and admission; runs as a batch of one, which by
  /// the batching invariant is bit-identical to any concurrent schedule.
  ServeResult Execute(const ServeRequest& req);

  /// Stops admission, drains every queued request (workers finish them; if
  /// none were started, queued requests complete with kUnavailable), joins.
  /// Idempotent.
  void Shutdown();

  /// Quiesces the worker pool for an index/database mutation: blocks until
  /// every dequeued batch has completed, then keeps workers parked on the
  /// dequeue condition. Admission stays open — requests queue up and are
  /// served after Resume(). Every write to the database or the index must
  /// happen inside a Pause()/Resume() pair, and a structural mutation (rows
  /// appended, which drops a table's lazy column indexes) must also call
  /// InvalidatePlans() before Resume(). Callers must not Pause() twice
  /// without an intervening Resume(), must not Shutdown() while paused, and
  /// must not call Execute() concurrently (it bypasses the queue and the
  /// pause).
  void Pause();

  /// Unparks the workers, waking them only when requests queued during the
  /// pause (an idle worker waits for a non-empty queue; a later Submit
  /// wakes one). The server keeps no copy of index state: every batch
  /// reads the variable order and P0(NOT W) off the index when it runs, so
  /// every request dequeued afterwards sees the post-mutation index. It
  /// does not touch the database: after a structural mutation,
  /// InvalidatePlans() must already have re-warmed its indexes.
  void Resume();

  /// For a structural mutation, between Pause() and Resume(): re-warms the
  /// database's lazy table indexes (row appends dropped them, and workers
  /// only read) and drops every cached plan (costed against the old table
  /// statistics; workers read the cache pointer without a lock). A
  /// weight-only delta writes only tuple weights, so it skips this call and
  /// keeps both warm.
  void InvalidatePlans();

  ServerStats stats() const;
  PlanCacheStats plan_cache_stats() const;
  const ServeOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    ServeRequest req;
    Clock::time_point submitted_at;
    Clock::time_point deadline;
    bool has_deadline = false;
    std::promise<ServeResult> promise;
  };

  void ExecuteBatch(std::vector<Pending>* batch, PipelineScratch* scratch,
                    bool admitted = true);
  void WorkerLoop();

  const Database* db_;
  const MvIndex* index_;
  ServeOptions options_;
  size_t max_inflight_;
  std::unique_ptr<PlanCache> plan_cache_;
  ThreadPool pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  size_t inflight_ = 0;   ///< admitted, not yet completed (includes queued)
  size_t executing_ = 0;  ///< batches dequeued, not yet completed — what
                          ///< Pause() drains; waiting on inflight_ instead
                          ///< would deadlock against the paused queue
  bool started_ = false;
  bool stopping_ = false;
  bool paused_ = false;
  ServerStats stats_;
};

}  // namespace mvdb

#endif  // MVDB_SERVE_SERVER_H_

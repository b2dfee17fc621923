#include "serve/server.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "query/analysis.h"
#include "util/logging.h"

namespace mvdb {
namespace {

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

int NumWorkers(int requested) {
  return requested > 0
             ? requested
             : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace

double ClampProb(double p) {
  if (p < 0.0 && p > -1e-9) return 0.0;
  if (p > 1.0 && p < 1.0 + 1e-9) return 1.0;
  return p;
}

Status PlanAndExecute(const Database& db, PlanCache* plans, const Ucq& q,
                      EvalScratch* scratch, AnswerMap* answers,
                      bool* plan_cache_hit) {
  const UcqSignature sig = ComputeUcqSignature(q);
  auto tmpl = plans->GetOrPlan(db, q, sig, EvalOptions{}, plan_cache_hit);
  MVDB_RETURN_NOT_OK(tmpl.status());
  // Executing with the query's own slot binding is bit-identical to
  // Eval(q) (the plan-template invariant).
  return answers != nullptr ? (*tmpl)->Execute(sig.slots, scratch, answers)
                            : (*tmpl)->Execute(sig.slots, scratch);
}

BddManager* PipelineScratch::BorrowManager(
    size_t slot, const std::shared_ptr<const VarOrder>& order) {
  if (order != pool_order_) {
    managers_.clear();
    pool_order_ = order;
  }
  if (managers_.size() <= slot) managers_.resize(slot + 1);
  std::unique_ptr<BddManager>& m = managers_[slot];
  if (m == nullptr) {
    m = std::make_unique<BddManager>(order);
  } else {
    m->Reset();
  }
  return m.get();
}

void SynthesizeQuery(const Database& db, const MvIndex& index,
                     PlanCache* plans, const Ucq& q, PipelineScratch* scratch,
                     size_t slot, SynthesizedQuery* out) {
  out->qmgr = nullptr;
  out->heads.clear();
  out->roots.clear();
  out->status = PlanAndExecute(db, plans, q, &scratch->eval,
                               /*answers=*/nullptr, &out->plan_cache_hit);
  if (!out->status.ok()) return;
  out->qmgr = scratch->BorrowManager(slot, index.manager().order());
  // The table holds the heads in AnswerMap order with canonical clauses:
  // the same lineages, and so the same NodeIds, as the map would give.
  const AnswerTable& table = scratch->eval.answers;
  for (size_t h = 0; h < table.num_heads(); ++h) {
    out->roots.push_back(out->qmgr->FromClauseListSynthesis(table.clauses(h)));
    const std::span<const Value> head = table.head(h);
    out->heads.emplace_back(head.begin(), head.end());
  }
}

void SweepNumerators(const MvIndex& index,
                     std::span<const SynthesizedQuery> queries,
                     PipelineScratch* scratch, std::vector<ScaledDouble>* nums) {
  std::vector<CcQuery>& roots = scratch->roots;
  roots.clear();
  for (const SynthesizedQuery& q : queries) {
    if (!q.status.ok()) continue;
    for (const NodeId r : q.roots) roots.push_back(CcQuery{q.qmgr, r});
  }
  nums->clear();
  if (!roots.empty()) index.CCMVIntersectBatchScaled(roots, &scratch->sweep, nums);
}

Status Eq5Answers(const MvIndex& index, std::vector<std::vector<Value>>* heads,
                  const std::vector<ScaledDouble>& nums, size_t* cursor,
                  std::vector<AnswerProb>* answers) {
  const ScaledDouble denom = index.ProbNotWScaled();
  if (denom.IsZero()) {
    return Status::Internal("P0(NOT W) = 0: the MVDB admits no possible world");
  }
  // The huge common block factors cancel in the ratio; only the final
  // probability is converted back to double.
  answers->reserve(heads->size());
  for (size_t j = 0; j < heads->size(); ++j) {
    answers->push_back(AnswerProb{
        std::move((*heads)[j]),
        ClampProb((nums[*cursor + j] / denom).ToDouble())});
  }
  *cursor += heads->size();
  return Status::OK();
}

Server::Server(const Database* db, const MvIndex* index,
               const ServeOptions& options)
    : db_(db), index_(index), options_(options) {
  if (options_.max_batch == 0) options_.max_batch = 1;
  max_inflight_ =
      options_.max_inflight > 0
          ? options_.max_inflight
          : options_.queue_capacity + static_cast<size_t>(NumWorkers(
                                          options_.num_threads)) *
                                          options_.max_batch;
  plan_cache_ = std::make_unique<PlanCache>(options_.plan_cache_capacity);
  // Every lazy table index the eval path can probe becomes a pure read
  // before any worker exists.
  db_->WarmIndexes();
  if (options_.start_workers) Start();
}

Server::~Server() { Shutdown(); }

void Server::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_ || stopping_) return;
    started_ = true;
  }
  const int n = NumWorkers(options_.num_threads);
  pool_.Start(n);
  for (int i = 0; i < n; ++i) {
    pool_.Submit([this] { WorkerLoop(); });
  }
}

std::future<ServeResult> Server::Submit(ServeRequest req) {
  Pending p;
  p.req = std::move(req);
  p.submitted_at = Clock::now();
  const double ms = p.req.deadline_ms < 0.0 ? options_.default_deadline_ms
                                            : p.req.deadline_ms;
  if (ms > 0.0) {
    p.has_deadline = true;
    p.deadline = p.submitted_at +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(ms));
  }
  std::future<ServeResult> fut = p.promise.get_future();

  Status reject = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (stopping_) {
      ++stats_.rejected_shutdown;
      reject = Status::Unavailable("server is shutting down");
    } else if (p.has_deadline && Clock::now() >= p.deadline) {
      ++stats_.deadline_exceeded;
      reject = Status::DeadlineExceeded("deadline expired before admission");
    } else if (inflight_ >= max_inflight_) {
      ++stats_.shed_inflight;
      reject = Status::Unavailable("inflight limit reached");
    } else if (queue_.size() >= options_.queue_capacity) {
      ++stats_.shed_queue_full;
      reject = Status::Unavailable("request queue full");
    } else {
      ++inflight_;
      queue_.push_back(std::move(p));
      stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
    }
  }
  if (!reject.ok()) {
    ServeResult res;
    res.status = reject;
    p.promise.set_value(std::move(res));
    return fut;
  }
  cv_.notify_one();
  return fut;
}

ServeResult Server::Execute(const ServeRequest& req) {
  PipelineScratch scratch;
  std::vector<Pending> batch(1);
  batch[0].req = req;
  batch[0].submitted_at = Clock::now();
  std::future<ServeResult> fut = batch[0].promise.get_future();
  ExecuteBatch(&batch, &scratch, /*admitted=*/false);
  return fut.get();
}

void Server::WorkerLoop() {
  PipelineScratch scratch;
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock,
               [this] { return stopping_ || (!paused_ && !queue_.empty()); });
      if (queue_.empty()) return;  // stopping_ && drained
      const size_t take = std::min(options_.max_batch, queue_.size());
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ++executing_;
    }
    ExecuteBatch(&batch, &scratch);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --executing_;
    }
    cv_.notify_all();  // wake a Pause() waiting for the drain
  }
}

void Server::ExecuteBatch(std::vector<Pending>* batch,
                          PipelineScratch* scratch, bool admitted) {
  const Clock::time_point dequeued_at = Clock::now();
  const size_t n = batch->size();
  std::vector<SynthesizedQuery>& queries = scratch->queries;
  queries.resize(n);

  // Phase 1: deadline check + relational eval + per-request OBDD synthesis.
  for (size_t i = 0; i < n; ++i) {
    Pending& p = (*batch)[i];
    if (p.has_deadline && Clock::now() >= p.deadline) {
      queries[i].status =
          Status::DeadlineExceeded("deadline expired before execution");
      queries[i].plan_cache_hit = false;
      continue;
    }
    SynthesizeQuery(*db_, *index_, plan_cache_.get(), p.req.query, scratch, i,
                    &queries[i]);
  }

  // Phase 2: one batched CC sweep answers every tuple of every request.
  std::vector<ScaledDouble>& nums = scratch->nums;
  SweepNumerators(*index_, queries, scratch, &nums);

  // Phase 3: assemble Eq. 5 ratios.
  const Clock::time_point done_at = Clock::now();
  uint64_t completed = 0, failed = 0, deadline_exceeded = 0;
  size_t cursor = 0;
  std::vector<ServeResult> results(n);
  for (size_t i = 0; i < n; ++i) {
    SynthesizedQuery& q = queries[i];
    ServeResult& res = results[i];
    res.status = q.status;
    res.plan_cache_hit = q.plan_cache_hit;
    res.queue_ms = MsBetween((*batch)[i].submitted_at, dequeued_at);
    res.exec_ms = MsBetween(dequeued_at, done_at);
    if (q.status.ok()) {
      res.status = Eq5Answers(*index_, &q.heads, nums, &cursor, &res.answers);
    }
    if (res.status.ok()) {
      ++completed;
    } else if (res.status.code() == StatusCode::kDeadlineExceeded) {
      ++deadline_exceeded;
    } else {
      ++failed;
    }
  }

  // Account BEFORE completing the promises, so a caller that observed a
  // future complete sees stats that already include it.
  if (admitted) {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_ -= n;
    ++stats_.batches;
    if (n > 1) stats_.batched_requests += n;
    stats_.completed += completed;
    stats_.failed += failed;
    stats_.deadline_exceeded += deadline_exceeded;
  }
  // Newest-first: a pipelined client blocks on its oldest request, and
  // set_value wakes a waiter at once. Completing that one last lets the
  // others land unwatched, so the client wakes once to a finished batch
  // instead of once per request.
  for (size_t i = n; i-- > 0;) {
    (*batch)[i].promise.set_value(std::move(results[i]));
  }
}

void Server::Pause() {
  std::unique_lock<std::mutex> lock(mu_);
  MVDB_CHECK(!paused_) << "Server::Pause while already paused";
  paused_ = true;
  cv_.wait(lock, [this] { return executing_ == 0; });
}

void Server::Resume() {
  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    MVDB_CHECK(paused_) << "Server::Resume without a matching Pause";
    paused_ = false;
    queued = !queue_.empty();
  }
  // Only requests queued during the pause need a worker woken: an idle
  // worker waits for a non-empty queue, and a later Submit notifies one.
  // Skipping the wake keeps an idle server's delta free of a futex wake.
  if (queued) cv_.notify_all();
}

void Server::InvalidatePlans() {
  // Paused, so no batch is executing: the warm-up races with nothing.
  db_->WarmIndexes();
  plan_cache_ = std::make_unique<PlanCache>(options_.plan_cache_capacity);
}

void Server::Shutdown() {
  std::deque<Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    if (!started_) orphans.swap(queue_);
  }
  cv_.notify_all();
  // Workers drain the remaining queue (the wait predicate admits work until
  // it is empty), then exit; the pool joins them.
  pool_.Shutdown();
  if (!orphans.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_ -= orphans.size();
    stats_.rejected_shutdown += orphans.size();
  }
  for (Pending& p : orphans) {
    ServeResult res;
    res.status = Status::Unavailable("server shut down before execution");
    p.promise.set_value(std::move(res));
  }
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

PlanCacheStats Server::plan_cache_stats() const {
  return plan_cache_->stats();
}

}  // namespace mvdb

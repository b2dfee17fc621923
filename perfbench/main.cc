// End-to-end benchmark of the MVDB (see README.md).
//
//   mvdb_perfbench --workload <inline_server|delta_feed>
//                  --seed <n> --seconds <s> --trace <0|1>
//   mvdb_perfbench --self-test
//
// One run builds the default synthetic DBLP MVDB at 15K authors, sets up
// the engine and its server several times to time set-up, then drives one
// workload from a single client thread through the program's public entry
// points for --seconds, cut into 2.5 s windows. The last stdout line is the
// JSON result: end-to-end metrics with --trace 0, the per-layer split with
// --trace 1 (which needs --seconds 26 or more for its p99s).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "dblp/dblp.h"
#include "query/analysis.h"
#include "query/parser.h"
#include "serve/plan_cache.h"
#include "serve/server.h"
#include "trace.h"

namespace perfbench {
namespace {

using mvdb::AnswerMap;
using mvdb::AnswerProb;
using mvdb::DeltaOp;
using mvdb::Mvdb;
using mvdb::QueryEngine;
using mvdb::ScaledDouble;
using mvdb::Server;
using mvdb::ServeRequest;
using mvdb::ServeResult;
using mvdb::Status;
using mvdb::Ucq;
using mvdb::Value;

// --- Fixed shape of every workload -----------------------------------------

// Small enough that the MV-index a request sweeps (~0.8 MB) stays in a
// core's private 2 MiB L2: on the shared host, L3 latency swings with the
// neighbours' traffic, and at 50K authors whole runs moved 40% with it
// (README.md, Steadiness).
constexpr int kAuthors = 15000;
constexpr int kBuildThreads = 2;     // DBLP generation and Compile
// One server worker: on a shared 4-vCPU KVM guest, two workers raised
// hypervisor steal from ~1% to ~25% of a vCPU, and that steal dominated the
// run-to-run spread (README.md).
constexpr int kServeThreads = 1;     // ServeOptions::num_threads
constexpr size_t kMaxBatch = 8;      // ServeOptions::max_batch, the default
// Two full batches outstanding: while the worker runs one batch the next is
// queued whole, so every batch holds kMaxBatch requests and the worker waits
// on the client only when the client is a whole batch late.
constexpr size_t kWindow = 2 * kMaxBatch;
constexpr int kSetupReps = 11;       // set-ups per run; setup_s is their median
// Tail percentile of the printed, ungated tails (README.md: on a shared VM
// the tail of a sub-millisecond operation tracks hypervisor steal).
constexpr double kTail = 0.90;
// The measured phase is cut into stat windows of about this length. Every
// end-to-end timing is the median over windows of the window's own median,
// so a host slowdown that covers fewer than half of them does not move it.
constexpr double kStatWindowSeconds = 2.5;
// Every window ends with an idle-server sub-phase: reads drained, then one
// delta due every kIdleDeltaPeriodMs for kIdleDeltaSeconds.
constexpr double kIdleDeltaSeconds = 0.5;
constexpr double kIdleDeltaPeriodMs = 5.0;  // 100 deltas per window
constexpr double kDeltaPeriodMs = 20.0;     // delta_feed: ~100 during a window's reads
constexpr size_t kUpsertsPerDelta = 7;      // plus one tombstone
// The client sleeps until this long before a delta is due and polls from
// there on, so its wake-up latency stays out of the delta's lag.
constexpr auto kSpinLead = std::chrono::microseconds(500);
constexpr size_t kTracedRequests = 2000;
constexpr size_t kParityPerClass = 20;

Clock::duration Ms(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

enum class Workload { kInlineServer, kDeltaFeed };
enum QueryClass : uint8_t { kStudents = 0, kAffiliation = 1 };

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kInlineServer: return "inline_server";
    case Workload::kDeltaFeed: return "delta_feed";
  }
  return "?";
}

struct Options {
  Workload workload = Workload::kInlineServer;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool self_test = false;
};

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng r(seed * 0x9e3779b97f4a7c15ULL + stream);
  return r.Next();
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(mvdb::StatusOr<T> so, const char* what) {
  if (!so.ok()) Fail(std::string(what) + ": " + so.status().ToString());
  return std::move(so).value();
}

/// Same clamp as the engine's and the server's Eq. 5 ratio.
double ClampProb(double p) {
  if (p < 0.0 && p > -1e-9) return 0.0;
  if (p > 1.0 && p < 1.0 + 1e-9) return 1.0;
  return p;
}

// --- Instance: MVDB + engine + server ----------------------------------------

struct SetupTimes {
  std::vector<double> cpu_s, wall_s, translate_s, order_s, partition_s, compile_s,
      stitch_s, import_s, serve_start_s;
};

struct Instance {
  std::unique_ptr<Mvdb> mvdb;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<Server> server;

  void Reset() {
    server.reset();
    engine.reset();
    mvdb.reset();
  }
};

mvdb::ServeOptions BenchServeOptions() {
  mvdb::ServeOptions o;
  o.num_threads = kServeThreads;  // the plan cache stays on
  o.max_batch = kMaxBatch;
  return o;
}

mvdb::CompileOptions BenchCompileOptions() {
  mvdb::CompileOptions c;
  c.num_threads = kBuildThreads;
  return c;
}

std::unique_ptr<Mvdb> GenerateMvdb(int authors) {
  mvdb::dblp::DblpConfig cfg;  // the default configuration
  cfg.num_authors = authors;
  cfg.num_threads = kBuildThreads;
  return Unwrap(mvdb::dblp::BuildDblpMvdb(cfg, nullptr), "generate DBLP");
}

/// Sets up `reps` times from a freshly generated MVDB (generation untimed)
/// and keeps the last instance. Times Compile plus Serve(), in CPU seconds
/// of all threads (nothing else runs meanwhile) and in wall seconds.
void SetUp(int authors, int reps, Instance* inst, SetupTimes* t, uint64_t* attempted) {
  for (int rep = 0; rep < reps; ++rep) {
    inst->Reset();
    inst->mvdb = GenerateMvdb(authors);
    inst->engine = std::make_unique<QueryEngine>(inst->mvdb.get());
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    ++*attempted;
    const Status st = inst->engine->Compile(BenchCompileOptions());
    if (!st.ok()) Fail("Compile: " + st.ToString());
    const Clock::time_point t1 = Clock::now();
    ++*attempted;
    inst->server = Unwrap(inst->engine->Serve(BenchServeOptions()), "Serve");
    const Clock::time_point t2 = Clock::now();
    t->cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    const mvdb::MvIndexBuildStats& b = inst->engine->index().build_stats();
    t->wall_s.push_back(SecondsBetween(t0, t2));
    t->translate_s.push_back(b.translate_seconds);
    t->order_s.push_back(b.order_seconds);
    t->partition_s.push_back(b.partition_seconds);
    t->compile_s.push_back(b.compile_seconds);
    t->stitch_s.push_back(b.stitch_seconds);
    t->import_s.push_back(b.import_seconds);
    t->serve_start_s.push_back(SecondsBetween(t1, t2));
  }
}

// --- Query targets and their base-table oracles ------------------------------

/// One name a request can ask about, with its expected head set derived
/// directly from the base tables (sorted, distinct).
struct Target {
  std::string name;
  std::vector<Value> expected;
};

struct Targets {
  std::vector<Target> of[2];
  std::vector<Ucq> paper[2];   // "n1 = name" comparison form
  std::vector<Ucq> inline_[2]; // constant inside the atom
};

Targets BuildTargets(Mvdb* mvdb) {
  const mvdb::Database& db = mvdb->db();
  const mvdb::Table* author = db.Find("Author");
  const mvdb::Table* student = db.Find("Student");
  const mvdb::Table* advisor = db.Find("Advisor");
  const mvdb::Table* affiliation = db.Find("Affiliation");
  if (!author || !student || !advisor || !affiliation) Fail("DBLP tables missing");
  auto row = [](const mvdb::Table* t, size_t r, size_t c) {
    return t->At(static_cast<mvdb::RowId>(r), c);
  };
  std::unordered_map<Value, Value> name_of;
  for (size_t r = 0; r < author->size(); ++r) name_of[row(author, r, 0)] = row(author, r, 1);
  std::unordered_set<Value> has_student;
  for (size_t r = 0; r < student->size(); ++r) has_student.insert(row(student, r, 0));

  // Students of advisor a1: the aid of every Advisor(aid, a1) row whose aid
  // has a Student row and an Author row.
  std::map<Value, std::set<Value>> students_of;
  for (size_t r = 0; r < advisor->size(); ++r) {
    const Value aid = row(advisor, r, 0), a1 = row(advisor, r, 1);
    if (has_student.count(aid) && name_of.count(aid)) students_of[a1].insert(aid);
  }
  // Affiliations of author aid: its Affiliation rows.
  std::map<Value, std::set<Value>> insts_of;
  for (size_t r = 0; r < affiliation->size(); ++r) {
    insts_of[row(affiliation, r, 0)].insert(row(affiliation, r, 1));
  }

  Targets t;
  auto add = [&](QueryClass c, const std::map<Value, std::set<Value>>& m) {
    for (const auto& [aid, heads] : m) {
      auto it = name_of.find(aid);
      if (it == name_of.end()) continue;
      t.of[c].push_back(Target{db.dict().Lookup(it->second),
                               std::vector<Value>(heads.begin(), heads.end())});
    }
  };
  add(kStudents, students_of);
  add(kAffiliation, insts_of);
  if (t.of[kStudents].empty() || t.of[kAffiliation].empty()) Fail("no query targets");

  // Parsing interns the constants, so every request is built up front.
  mvdb::Interner* dict = &mvdb->db().dict();
  for (int c = 0; c < 2; ++c) {
    for (const Target& tg : t.of[c]) {
      if (c == kStudents) {
        t.paper[c].push_back(mvdb::dblp::StudentsOfAdvisorQuery(mvdb, tg.name));
        t.inline_[c].push_back(Unwrap(
            mvdb::ParseUcq("Q(aid) :- Student(aid,y), Advisor(aid,a1), "
                           "Author(aid,n), Author(a1,\"" + tg.name + "\").",
                           dict),
            "parse"));
      } else {
        t.paper[c].push_back(mvdb::dblp::AffiliationOfAuthorQuery(mvdb, tg.name));
        t.inline_[c].push_back(Unwrap(
            mvdb::ParseUcq("Q(inst) :- Affiliation(aid,inst), Author(aid,\"" +
                               tg.name + "\").",
                           dict),
            "parse"));
      }
    }
  }
  return t;
}

// --- Seeded request and delta sequences --------------------------------------

struct Request {
  QueryClass cls;
  uint32_t idx;  // into Targets::of[cls]
};

/// The 3:1 mix: every block of four requests holds three students-of-advisor
/// requests and one affiliation request at a seeded position; each request
/// samples a new name.
class RequestStream {
 public:
  RequestStream(uint64_t seed, size_t n_students, size_t n_affiliation)
      : rng_(seed), n_{n_students, n_affiliation} {}

  Request Next() {
    if (pos_ == 0) affil_slot_ = static_cast<int>(rng_.Below(4));
    const QueryClass c = pos_ == affil_slot_ ? kAffiliation : kStudents;
    pos_ = (pos_ + 1) % 4;
    return Request{c, static_cast<uint32_t>(rng_.Below(n_[c]))};
  }

 private:
  Rng rng_;
  size_t n_[2];
  int pos_ = 0;
  int affil_slot_ = 0;
};

/// Student tuples that appear in the NOT W chain (bench_apply_delta's
/// honest selection: a tuple outside every view derivation would make its
/// weight delta a table overwrite), split by a seeded shuffle into a
/// tombstone list consumed in order (three quarters of the rows: a 50 s
/// delta_feed run uses ~4,000) and an upsert pool.
class DeltaSource {
 public:
  DeltaSource(const QueryEngine& engine, const Mvdb& mvdb, uint64_t seed)
      : rng_(seed) {
    const mvdb::Table* student = mvdb.db().Find("Student");
    const mvdb::BddManager& mgr = engine.index().manager();
    std::vector<std::vector<Value>> rows;
    for (size_t r = 0; r < student->size(); ++r) {
      const mvdb::VarId v = student->var(static_cast<mvdb::RowId>(r));
      if (!mgr.has_var(v)) continue;
      const auto [begin, end] = engine.index().flat().NodesAtLevel(mgr.level_of_var(v));
      if (begin == end) continue;
      std::vector<Value> tuple;
      for (size_t c = 0; c < student->arity(); ++c) {
        tuple.push_back(student->At(static_cast<mvdb::RowId>(r), c));
      }
      rows.push_back(std::move(tuple));
    }
    for (size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[rng_.Below(i)]);
    }
    const size_t n_tomb = rows.size() * 3 / 4;
    tombstones_.assign(rows.begin(), rows.begin() + static_cast<long>(n_tomb));
    upserts_.assign(rows.begin() + static_cast<long>(n_tomb), rows.end());
    if (upserts_.size() < 2 * kUpsertsPerDelta) Fail("too few chain Student rows");
  }

  size_t tombstones_left() const { return tombstones_.size() - next_tomb_; }
  size_t chain_rows() const { return tombstones_.size() + upserts_.size(); }

  /// Seven weight upserts on distinct rows and one tombstone.
  std::vector<DeltaOp> Next() {
    if (tombstones_left() == 0) Fail("tombstone pool exhausted");
    std::vector<DeltaOp> ops;
    std::vector<uint64_t> picked;
    while (picked.size() < kUpsertsPerDelta) {
      const uint64_t i = rng_.Below(upserts_.size());
      if (std::find(picked.begin(), picked.end(), i) != picked.end()) continue;
      picked.push_back(i);
      DeltaOp op;
      op.kind = DeltaOp::Kind::kUpdateWeight;
      op.table = "Student";
      op.values = upserts_[i];
      op.weight = 0.5 + 3.5 * rng_.Uniform();
      ops.push_back(std::move(op));
    }
    DeltaOp del;
    del.kind = DeltaOp::Kind::kDelete;
    del.table = "Student";
    del.values = tombstones_[next_tomb_++];
    ops.push_back(std::move(del));
    return ops;
  }

 private:
  Rng rng_;
  std::vector<std::vector<Value>> tombstones_, upserts_;
  size_t next_tomb_ = 0;
};

void DigestOps(const std::vector<DeltaOp>& ops, Digest* d) {
  for (const DeltaOp& op : ops) {
    d->Mix(static_cast<uint64_t>(op.kind));
    for (Value v : op.values) d->Mix(static_cast<uint64_t>(v));
    d->MixDouble(op.weight);
  }
}

// --- Index hash (bench_apply_delta's differential rule) ----------------------

uint64_t HashIndex(const mvdb::MvIndex& index) {
  Digest d;
  const mvdb::FlatObdd& flat = index.flat();
  d.Mix(static_cast<uint64_t>(static_cast<int64_t>(flat.root())));
  d.Mix(flat.size());
  for (mvdb::FlatId u = 0; u < static_cast<mvdb::FlatId>(flat.size()); ++u) {
    d.Mix(static_cast<uint64_t>(static_cast<uint32_t>(flat.level(u))));
    d.Mix(static_cast<uint64_t>(static_cast<uint32_t>(flat.lo(u))));
    d.Mix(static_cast<uint64_t>(static_cast<uint32_t>(flat.hi(u))));
  }
  for (const mvdb::MvBlock& b : index.blocks()) {
    d.Mix(b.prob.mantissa_bits());
    d.Mix(static_cast<uint64_t>(b.prob.exponent_word()));
  }
  d.MixDouble(index.ProbNotW());
  return d.value();
}

// --- Answer checks -------------------------------------------------------------

struct Checks {
  uint64_t verified = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> notes;

  void Mismatch(const std::string& what) {
    ++mismatches;
    if (notes.size() < 8) notes.push_back(what);
  }
};

/// Head set equals the base-table oracle; every probability finite, in [0,1].
void VerifyAnswers(const std::vector<AnswerProb>& answers, const Target& t,
                   Checks* checks) {
  ++checks->verified;
  std::vector<Value> heads;
  for (const AnswerProb& a : answers) {
    if (a.head.size() != 1) {
      checks->Mismatch("answer head arity for " + t.name);
      return;
    }
    heads.push_back(a.head[0]);
    if (!std::isfinite(a.prob) || a.prob < 0.0 || a.prob > 1.0) {
      checks->Mismatch("probability out of [0,1] for " + t.name);
      return;
    }
  }
  std::sort(heads.begin(), heads.end());
  heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
  if (heads != t.expected || heads.size() != answers.size()) {
    checks->Mismatch("head set differs from base tables for " + t.name);
  }
}

bool SameBits(const std::vector<AnswerProb>& a, const std::vector<AnswerProb>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].head != b[i].head) return false;
    if (std::memcmp(&a[i].prob, &b[i].prob, sizeof(double)) != 0) return false;
  }
  return true;
}

bool WithinTolerance(const std::vector<AnswerProb>& a,
                     const std::vector<AnswerProb>& b, double tol) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].head != b[i].head || !(std::fabs(a[i].prob - b[i].prob) <= tol)) {
      return false;
    }
  }
  return true;
}

// --- Samples of one run ----------------------------------------------------------

/// Samples of one stat window. A read counts in the window in which the
/// client sees its answer, a delta in the window in which it falls due.
struct WindowSamples {
  bool traced = false;      // traced run: spans are recorded in odd windows only
  double read_seconds = 0;  // time the window spent serving reads
  std::vector<double> latency_ms, idle_lag_ms, feed_lag_ms;
  std::vector<double> batch_qps;  // per server batch: its reads / its cycle time

  void Reset(bool trace) {
    traced = trace;
    read_seconds = 0;
    latency_ms.clear();  // keeps the capacity: memory stays flat over a run
    idle_lag_ms.clear();
    feed_lag_ms.clear();
    batch_qps.clear();
  }
};

/// One window's end-to-end values; the feed's are NaN without a feed.
struct WindowStat {
  bool traced = false;
  double qps = 0, read_qps = 0, p50 = 0, tail = 0, p99 = 0;
  double delta_p50 = 0, delta_tail = 0, feed_p50 = 0;
};

/// Per-delta samples of one kind of delta, bounded by the delta schedule.
struct DeltaSamples {
  std::vector<double> lag_ms, apply_ms, wait_ms, rest_ms;
  std::vector<double> replay_us, reprobe_us, products_ms, dirty_blocks;
};

/// What the measured phase keeps beyond its windows. Per-read samples for
/// the per-layer split are kept by the traced run only, so an untraced
/// run's memory does not grow with its throughput.
struct PhaseSamples {
  std::vector<WindowStat> windows;
  std::vector<double> queue_ms, exec_ms, handoff_us;  // traced run only
  DeltaSamples idle, feed;
  uint64_t answers = 0;
  uint64_t attempted = 0, failed = 0;
};

/// Per-layer samples of the traced replay.
struct LayerSamples {
  std::vector<double> plan_us, eval_ms, synth_us, sweep_us;
  double answers = 0, clauses = 0, nodes = 0;
  size_t requests = 0;
};

struct Run {
  Options opt;
  Instance inst;
  Targets targets;
  std::unique_ptr<DeltaSource> deltas;
  Checks checks;
  uint64_t attempted = 0, failed = 0;
  std::unique_ptr<Tracer> tracer;
  Clock::time_point origin = Clock::now();
};

// --- Measured phase: one client thread, reads and deltas ---------------------------

struct InFlight {
  std::future<ServeResult> fut;
  Clock::time_point sent;
  Request req;
};

/// A harvested read whose answers still await the base-table oracle.
struct Harvested {
  std::vector<AnswerProb> answers;
  Request req;
};

bool Ready(const std::future<ServeResult>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Sleeps until kSpinLead before `due`, then polls the clock until `due`:
/// the caller is running, not waking up, when `due` comes.
void SleepThenSpin(Clock::time_point due) {
  std::this_thread::sleep_until(due - kSpinLead);
  while (Clock::now() < due) {
  }
}

/// The single client thread. It keeps kWindow reads outstanding through
/// Server::Submit and blocks on the oldest one. The worker has the next
/// full batch queued, so unless the client wakes a whole batch late, its
/// wake-up latency lands in the read's latency, not in the server's pace.
class Client {
 public:
  Client(Run* run, RequestStream* stream, PhaseSamples* ps)
      : run_(run), stream_(stream), ps_(ps) {}

  /// Serves reads until `end`. With the feed, also applies a delta due
  /// every kDeltaPeriodMs, from this thread, the moment it is due.
  void Reads(Clock::time_point end, bool feed, WindowSamples* ws) {
    Clock::time_point next_due = Clock::now() + Ms(kDeltaPeriodMs);
    for (;;) {
      const Clock::time_point now = Clock::now();
      if (now >= end) return;
      if (feed && now >= next_due) {
        ApplyOneDelta(next_due, ws->traced, &ws->feed_lag_ms, &ps_->feed);
        next_due += Ms(kDeltaPeriodMs);
        continue;
      }
      Refill();
      // The oracle checks the last harvest while the server works.
      Verify();
      std::future<ServeResult>& front = window_.front().fut;
      if (!feed) {
        if (front.wait_until(end) != std::future_status::ready) continue;
      } else {
        // Sleep until kSpinLead before the next due time, then poll.
        const Clock::time_point deadline = std::min(end, next_due);
        if (front.wait_until(deadline - kSpinLead) != std::future_status::ready) {
          while (!Ready(front) && Clock::now() < deadline) {
          }
          if (!Ready(front)) continue;
        }
      }
      HarvestReady(ws);
    }
  }

  /// Stops submitting and waits for every outstanding read. The server
  /// goes idle, so the next batch has no cycle to measure.
  void Drain(WindowSamples* ws) {
    while (!window_.empty()) {
      window_.front().fut.wait();
      HarvestReady(ws);
    }
    Verify();
    CloseBatch(ws);
    has_prev_ = false;
  }

  /// No reads in flight: one delta due every kIdleDeltaPeriodMs for
  /// `seconds`.
  void IdleDeltas(double seconds, WindowSamples* ws) {
    const Clock::duration period = Ms(kIdleDeltaPeriodMs);
    const Clock::time_point start = Clock::now();
    const auto n = static_cast<int>(seconds * 1e3 / kIdleDeltaPeriodMs);
    for (int i = 1; i <= n; ++i) {
      const Clock::time_point due = start + i * period;
      SleepThenSpin(due);
      ApplyOneDelta(due, ws->traced, &ws->idle_lag_ms, &ps_->idle);
    }
  }

 private:
  /// Follows the server's batches through the reads' ServeResults. Reads of
  /// one batch share its exec_ms bit for bit and arrive together (one
  /// worker, FIFO). A batch's completion is sent + queue_ms + exec_ms, which
  /// reads a little early when the client was slow between taking `sent`
  /// and entering Submit, so the batch keeps the latest of its reads'.
  /// Each batch's cycle time runs from the previous batch's completion to
  /// its own: the server's own pace, on its own clock.
  void TrackBatch(Clock::time_point done, double exec_ms, WindowSamples* ws) {
    if (cur_reads_ > 0 && std::memcmp(&exec_ms, &cur_exec_ms_, sizeof(double)) == 0) {
      ++cur_reads_;
      cur_done_ = std::max(cur_done_, done);
      return;
    }
    CloseBatch(ws);
    cur_exec_ms_ = exec_ms;
    cur_done_ = done;
    cur_reads_ = 1;
  }

  void CloseBatch(WindowSamples* ws) {
    if (cur_reads_ == 0) return;
    if (has_prev_ && cur_done_ > prev_done_) {
      ws->batch_qps.push_back(static_cast<double>(cur_reads_) /
                              SecondsBetween(prev_done_, cur_done_));
    }
    has_prev_ = true;
    prev_done_ = cur_done_;
    cur_reads_ = 0;
  }

  void Refill() {
    while (window_.size() < kWindow) {
      const Request r = stream_->Next();
      ServeRequest req;
      req.query = run_->targets.inline_[r.cls][r.idx];
      InFlight f;
      f.req = r;
      f.sent = Clock::now();
      f.fut = run_->inst.server->Submit(std::move(req));
      window_.push_back(std::move(f));
    }
  }

  void Verify() {
    for (const Harvested& h : harvested_) {
      VerifyAnswers(h.answers, run_->targets.of[h.req.cls][h.req.idx], &run_->checks);
    }
    harvested_.clear();
  }

  void HarvestReady(WindowSamples* ws) {
    const Clock::time_point seen = Clock::now();
    for (auto it = window_.begin(); it != window_.end();) {
      if (Ready(it->fut)) {
        Harvest(*it, seen, ws);
        it = window_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void Harvest(InFlight& f, Clock::time_point seen, WindowSamples* ws) {
    ServeResult res = f.fut.get();
    const int64_t id = static_cast<int64_t>(kTracedRequests + ps_->attempted);
    ++ps_->attempted;
    if (!res.status.ok()) {
      ++ps_->failed;
      run_->checks.Mismatch("Submit: " + res.status.ToString());
      return;
    }
    const double lat = MsBetween(f.sent, seen);
    ws->latency_ms.push_back(lat);
    TrackBatch(f.sent + Ms(res.queue_ms + res.exec_ms), res.exec_ms, ws);
    ps_->answers += res.answers.size();
    if (run_->tracer != nullptr) {
      ps_->queue_ms.push_back(res.queue_ms);
      ps_->exec_ms.push_back(res.exec_ms);
      ps_->handoff_us.push_back((lat - res.queue_ms - res.exec_ms) * 1e3);
      if (ws->traced) {
        run_->tracer->Add("read", f.sent, seen, Tracer::kNoParent, id);
      }
    }
    harvested_.push_back(Harvested{std::move(res.answers), f.req});
  }

  /// Applies one delta and records its lag from `due` in `window_lag`, and
  /// its lag, apply time and the repair phases the index publishes in `ds`.
  void ApplyOneDelta(Clock::time_point due, bool traced, std::vector<double>* window_lag,
                     DeltaSamples* ds) {
    std::vector<DeltaOp> ops = run_->deltas->Next();
    const Clock::time_point start = Clock::now();
    const Status st = run_->inst.engine->ApplyDelta(ops, run_->inst.server.get());
    const Clock::time_point end = Clock::now();
    ++ps_->attempted;
    if (!st.ok()) {
      ++ps_->failed;
      run_->checks.Mismatch("ApplyDelta: " + st.ToString());
      return;
    }
    const double apply = MsBetween(start, end);
    window_lag->push_back(MsBetween(due, end));
    ds->lag_ms.push_back(window_lag->back());
    ds->apply_ms.push_back(apply);
    ds->wait_ms.push_back(MsBetween(due, start));
    const mvdb::MvIndexRepairStats& rs = run_->inst.engine->index().last_repair_stats();
    ds->replay_us.push_back(rs.replay_seconds * 1e6);
    ds->reprobe_us.push_back(rs.reprobe_seconds * 1e6);
    ds->products_ms.push_back(rs.products_seconds * 1e3);
    ds->dirty_blocks.push_back(static_cast<double>(rs.dirty_blocks));
    ds->rest_ms.push_back(
        apply - (rs.replay_seconds + rs.reprobe_seconds + rs.products_seconds) * 1e3);
    if (traced) {
      // Deltas carry negative ids, reads their non-negative sequence number.
      const int64_t id = -static_cast<int64_t>(++deltas_traced_);
      const int64_t root = run_->tracer->Add("delta", due, end, Tracer::kNoParent, id);
      run_->tracer->Add("core.ApplyDelta", start, end, root, id);
    }
  }

  Run* run_;
  RequestStream* stream_;
  PhaseSamples* ps_;
  std::deque<InFlight> window_;
  std::vector<Harvested> harvested_;
  int64_t deltas_traced_ = 0;
  // The batch being harvested and the one before it.
  size_t cur_reads_ = 0;
  double cur_exec_ms_ = 0;
  Clock::time_point cur_done_, prev_done_;
  bool has_prev_ = false;
};

double Need(std::optional<double> v, const char* what, Checks* checks) {
  if (!v.has_value()) {
    checks->Mismatch(std::string("too few samples for ") + what);
    return 0.0;
  }
  return *v;
}

WindowStat Summarize(const WindowSamples& ws, Checks* ck) {
  WindowStat s;
  s.traced = ws.traced;
  s.qps = Need(Percentile(ws.batch_qps, 0.50), "qps", ck);
  s.read_qps =
      ws.read_seconds > 0 ? static_cast<double>(ws.latency_ms.size()) / ws.read_seconds : 0;
  s.p50 = Need(Percentile(ws.latency_ms, 0.50), "query_p50_ms", ck);
  s.tail = Percentile(ws.latency_ms, kTail).value_or(NAN);
  s.p99 = Percentile(ws.latency_ms, 0.99).value_or(NAN);
  s.delta_p50 = Need(Percentile(ws.idle_lag_ms, 0.50), "delta_p50_ms", ck);
  s.delta_tail = Percentile(ws.idle_lag_ms, kTail).value_or(NAN);
  s.feed_p50 = Percentile(ws.feed_lag_ms, 0.50).value_or(NAN);
  return s;
}

/// The measured phase: --seconds cut into stat windows. Every window
/// serves reads (delta_feed: with the feed), drains them, and ends with
/// idle-server deltas.
void MeasuredPhase(Run* run, RequestStream* stream, PhaseSamples* ps) {
  const bool feed = run->opt.workload == Workload::kDeltaFeed;
  const int n = std::max(1, static_cast<int>(run->opt.seconds / kStatWindowSeconds));
  const double window_s = run->opt.seconds / n;
  const double idle_s = std::min(kIdleDeltaSeconds, window_s / 2);
  Client client(run, stream, ps);
  WindowSamples ws;
  for (int w = 0; w < n; ++w) {
    const Clock::time_point t = Clock::now();
    ws.Reset(run->tracer != nullptr && w % 2 == 1);
    client.Reads(t + Ms((window_s - idle_s) * 1e3), feed, &ws);
    client.Drain(&ws);
    ws.read_seconds = SecondsBetween(t, Clock::now());
    client.IdleDeltas(idle_s, &ws);
    ps->windows.push_back(Summarize(ws, &run->checks));
  }
}

// --- Traced replay: the layers driven through their public calls ------------------

/// Replays `n` requests of the traced stream. For each, the replica runs
/// signature + plan cache, plan execution, OBDD synthesis into a fresh
/// per-request manager, the batched CC sweep and the Eq. 5 ratio, recording
/// a span around each; then Server::Submit answers the same request and the
/// two must agree bit for bit.
void TracedReplay(Run* run, RequestStream* stream, size_t n, LayerSamples* ls) {
  const mvdb::MvIndex& index = run->inst.engine->index();
  const mvdb::Database& db = run->inst.mvdb->db();
  mvdb::PlanCache cache(BenchServeOptions().plan_cache_capacity);
  mvdb::EvalScratch scratch;
  mvdb::CcSweepScratch sweep_scratch;
  Tracer& tr = *run->tracer;

  for (size_t i = 0; i < n; ++i) {
    const Request r = stream->Next();
    const Ucq& q = run->targets.inline_[r.cls][r.idx];
    const int64_t req_id = static_cast<int64_t>(i);
    const Clock::time_point t0 = Clock::now();
    const mvdb::UcqSignature sig = mvdb::ComputeUcqSignature(q);
    auto tmpl = cache.GetOrPlan(db, q, sig, mvdb::EvalOptions{});
    const Clock::time_point t1 = Clock::now();
    ++run->attempted;
    if (!tmpl.ok()) {
      ++run->failed;
      run->checks.Mismatch("GetOrPlan: " + tmpl.status().ToString());
      continue;
    }
    AnswerMap answers;
    const Status est = (*tmpl)->Execute(sig.slots, &scratch, &answers);
    const Clock::time_point t2 = Clock::now();
    if (!est.ok()) {
      ++run->failed;
      run->checks.Mismatch("Execute: " + est.ToString());
      continue;
    }

    mvdb::BddManager mgr(index.manager().order());
    std::vector<mvdb::NodeId> roots;
    size_t clauses = 0;
    for (const auto& [head, info] : answers) {
      roots.push_back(mgr.FromLineageSynthesis(info.lineage));
      clauses += info.lineage.size();
    }
    const Clock::time_point t3 = Clock::now();

    std::vector<ScaledDouble> nums;
    if (!roots.empty()) {
      std::vector<mvdb::CcQuery> qs;
      for (mvdb::NodeId root : roots) qs.push_back(mvdb::CcQuery{&mgr, root});
      index.CCMVIntersectBatchScaled(qs, &sweep_scratch, &nums);
    }
    const Clock::time_point t4 = Clock::now();

    const ScaledDouble denom = index.ProbNotWScaled();
    std::vector<AnswerProb> replica;
    size_t k = 0;
    for (const auto& [head, info] : answers) {
      replica.push_back(AnswerProb{head, ClampProb((nums[k++] / denom).ToDouble())});
    }
    const Clock::time_point t5 = Clock::now();

    // The real entry point answers the same request.
    ServeRequest req;
    req.query = q;
    ServeResult real = run->inst.server->Submit(std::move(req)).get();
    const Clock::time_point t6 = Clock::now();
    if (!real.status.ok()) {
      ++run->failed;
      run->checks.Mismatch("Submit on a traced request: " + real.status.ToString());
      continue;
    }
    if (!SameBits(replica, real.answers)) run->checks.Mismatch("replica != Submit (bits)");
    VerifyAnswers(real.answers, run->targets.of[r.cls][r.idx], &run->checks);

    const int64_t root = tr.Add("request", t0, t6, Tracer::kNoParent, req_id);
    tr.Add("query.plan", t0, t1, root, req_id);
    tr.Add("query.execute", t1, t2, root, req_id);
    tr.Add("obdd.synthesis", t2, t3, root, req_id);
    tr.Add("mvindex.sweep", t3, t4, root, req_id);
    tr.Add("core.eq5_ratio", t4, t5, root, req_id);
    tr.Add("serve.Submit", t5, t6, root, req_id);

    ls->plan_us.push_back(MsBetween(t0, t1) * 1e3);
    ls->eval_ms.push_back(MsBetween(t1, t2));
    ls->synth_us.push_back(MsBetween(t2, t3) * 1e3);
    ls->sweep_us.push_back(MsBetween(t3, t4) * 1e3);
    ls->answers += static_cast<double>(answers.size());
    ls->clauses += static_cast<double>(clauses);
    for (mvdb::NodeId root_id : roots) ls->nodes += static_cast<double>(mgr.CountNodes(root_id));
    ++ls->requests;
  }
}

// --- Correctness gates after the measured phase -----------------------------------

/// On a fixed sample: Submit == Server::Execute bit for bit, and the inline
/// form equals the paper form through QueryEngine::Query within 1e-9.
void ParityGate(Run* run, uint64_t seed) {
  Server& server = *run->inst.server;
  QueryEngine& engine = *run->inst.engine;
  Rng rng(seed);
  size_t exact = 0, close = 0;
  double max_dp = 0.0;
  for (int c = 0; c < 2; ++c) {
    for (size_t k = 0; k < kParityPerClass; ++k) {
      const size_t idx = rng.Below(run->targets.of[c].size());
      ServeRequest a, b;
      a.query = run->targets.inline_[c][idx];
      b.query = run->targets.inline_[c][idx];
      ServeResult sub = server.Submit(std::move(a)).get();
      ServeResult exe = server.Execute(b);
      auto paper = engine.Query(run->targets.paper[c][idx]);
      const int failed = !sub.status.ok() + !exe.status.ok() + !paper.ok();
      run->attempted += 3;
      if (failed > 0) {
        run->failed += static_cast<uint64_t>(failed);
        run->checks.Mismatch("parity request failed");
        continue;
      }
      if (SameBits(sub.answers, exe.answers)) {
        ++exact;
      } else {
        run->checks.Mismatch("Submit != Execute (bits) for " + run->targets.of[c][idx].name);
      }
      if (WithinTolerance(sub.answers, paper.value(), 1e-9)) {
        ++close;
      } else {
        run->checks.Mismatch("inline form != paper form for " + run->targets.of[c][idx].name);
      }
      for (size_t i = 0; i < std::min(sub.answers.size(), paper.value().size()); ++i) {
        max_dp = std::max(max_dp, std::fabs(sub.answers[i].prob - paper.value()[i].prob));
      }
      VerifyAnswers(sub.answers, run->targets.of[c][idx], &run->checks);
    }
  }
  std::printf("gate parity: submit==execute %zu/%zu, inline~paper %zu/%zu, max|dp| %.3g\n",
              exact, 2 * kParityPerClass, close, 2 * kParityPerClass, max_dp);
}

/// The maintained index must hash bit-identical to a from-scratch Compile
/// over the mutated MVDB.
void RebuildGate(Run* run) {
  const uint64_t maintained = HashIndex(run->inst.engine->index());
  run->inst.server.reset();
  run->inst.engine.reset();
  QueryEngine rebuilt(run->inst.mvdb.get());
  ++run->attempted;
  const Status st = rebuilt.Compile(BenchCompileOptions());
  if (!st.ok()) {
    ++run->failed;
    run->checks.Mismatch("rebuild Compile: " + st.ToString());
    return;
  }
  const uint64_t fresh = HashIndex(rebuilt.index());
  if (maintained != fresh) run->checks.Mismatch("maintained index != rebuild");
  std::printf("gate rebuild: maintained %016llx rebuild %016llx %s\n",
              static_cast<unsigned long long>(maintained),
              static_cast<unsigned long long>(fresh),
              maintained == fresh ? "ok" : "MISMATCH");
}

// --- Metric assembly ----------------------------------------------------------------

/// Median over the phase's windows of one field: all windows with
/// `traced` = -1, else only the windows that recorded spans (1) or did not
/// (0). nullopt when no window qualifies.
std::optional<double> WindowMedian(const std::vector<WindowStat>& windows,
                                   double WindowStat::*field, int traced = -1) {
  std::vector<double> v;
  for (const WindowStat& w : windows) {
    if (traced < 0 || w.traced == (traced == 1)) v.push_back(w.*field);
  }
  if (v.empty()) return std::nullopt;
  return Median(v);
}

/// Tracing overhead per end-to-end metric: the median over the traced run's
/// span-recording windows minus the median over its other windows, under
/// the same loop and load. Set-up is never traced; tracing's memory is its
/// span buffer.
std::string OverheadJson(const std::vector<WindowStat>& windows, const Tracer& tr) {
  auto diff = [&](double WindowStat::*field) {
    const std::optional<double> on = WindowMedian(windows, field, 1);
    const std::optional<double> off = WindowMedian(windows, field, 0);
    if (!on || !off) return std::string("null");
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.4g", *on - *off);
    return std::string(buf);
  };
  char rss[40];
  std::snprintf(rss, sizeof(rss), "%.4g", static_cast<double>(tr.bytes()) / (1024.0 * 1024.0));
  return std::string("{\"setup_s\": 0, \"peak_rss_mb\": ") + rss +
         ", \"qps\": " + diff(&WindowStat::qps) +
         ", \"query_p50_ms\": " + diff(&WindowStat::p50) +
         ", \"delta_p50_ms\": " + diff(&WindowStat::delta_p50) + "}";
}

int RunWorkload(const Options& opt) {
  Run run;
  run.opt = opt;
  if (opt.trace) run.tracer = std::make_unique<Tracer>(run.origin);

  // Set-up, timed: Compile + Serve from a freshly generated MVDB.
  SetupTimes setup;
  SetUp(kAuthors, kSetupReps, &run.inst, &setup, &run.attempted);
  // setup_s is CPU time: a set-up is one 0.1 s stretch of work, and wall
  // time absorbs every hypervisor steal chunk that lands in it, which moved
  // the wall median 60% between runs of the same code (README.md).
  const double setup_s = Median(setup.cpu_s);
  std::printf("setup: reps %d, cpu median %.4f s (", kSetupReps, setup_s);
  for (double s : setup.cpu_s) std::printf(" %.4f", s);
  std::printf(" ), wall median %.4f s (", Median(setup.wall_s));
  for (double s : setup.wall_s) std::printf(" %.4f", s);
  std::printf(" )\n");

  // Inputs, untimed: query targets with their oracles, the delta pools.
  run.targets = BuildTargets(run.inst.mvdb.get());
  run.deltas = std::make_unique<DeltaSource>(*run.inst.engine, *run.inst.mvdb,
                                             StreamSeed(opt.seed, 3));
  const mvdb::MvIndex& index0 = run.inst.engine->index();
  std::printf("dataset: %d authors, %zu blocks, %zu flat nodes, %zu students-of-advisor "
              "targets, %zu affiliation targets, %zu chain Student rows\n",
              kAuthors, index0.blocks().size(), index0.size(),
              run.targets.of[kStudents].size(), run.targets.of[kAffiliation].size(),
              run.deltas->chain_rows());
  const size_t flat_nodes = index0.size(), blocks = index0.blocks().size();

  // Warm-up: one request per query shape.
  for (int c = 0; c < 2; ++c) {
    ++run.attempted;
    ServeRequest req;
    req.query = run.targets.inline_[c][0];
    if (!run.inst.server->Submit(std::move(req)).get().status.ok()) {
      Fail("warm-up request failed");
    }
  }

  // Traced replay first, so it starts from the same state for a seed.
  LayerSamples layers;
  if (opt.trace) {
    RequestStream traced(StreamSeed(opt.seed, 2), run.targets.of[kStudents].size(),
                         run.targets.of[kAffiliation].size());
    TracedReplay(&run, &traced, kTracedRequests, &layers);
  }

  // Measured phase.
  RequestStream stream(StreamSeed(opt.seed, 1), run.targets.of[kStudents].size(),
                       run.targets.of[kAffiliation].size());
  PhaseSamples ps;
  const mvdb::ServerStats stats0 = run.inst.server->stats();
  const long long steal0 = StealTicks();
  const double calib_before = CalibrationMs();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point phase0 = Clock::now();
  MeasuredPhase(&run, &stream, &ps);
  const double wall = SecondsBetween(phase0, Clock::now());
  const double cpu = ProcessCpuSeconds() - cpu0;
  const double calib_after = CalibrationMs();
  const long long steal1 = StealTicks();
  const mvdb::ServerStats stats1 = run.inst.server->stats();
  const mvdb::PlanCacheStats plan_stats = run.inst.server->plan_cache_stats();
  run.attempted += ps.attempted;
  run.failed += ps.failed;

  ParityGate(&run, StreamSeed(opt.seed, 5));

  const double peak_rss = PeakRssMb();
  RebuildGate(&run);

  const bool feed = opt.workload == Workload::kDeltaFeed;
  const double batches = static_cast<double>(stats1.batches - stats0.batches);
  const double completed = static_cast<double>(stats1.completed - stats0.completed);
  std::printf("phase: %zu windows, %.0f reads in %.3f s, %.2f per batch, %zu idle deltas, "
              "%zu fed deltas, %llu answer sets verified\n",
              ps.windows.size(), completed, wall, batches > 0 ? completed / batches : 0.0,
              ps.idle.lag_ms.size(), ps.feed.lag_ms.size(),
              static_cast<unsigned long long>(run.checks.verified));
  std::printf("windows qps:");
  for (const WindowStat& w : ps.windows) std::printf(" %.0f", w.qps);
  std::printf("\n");
  // Printed, not gated: the observed read rate, the tails and the feed's
  // lag absorb hypervisor steal whole (README.md, Steadiness). Window
  // medians, except the delta tails that a window holds too few deltas for,
  // which pool the run.
  std::printf("tails {\"read_qps\": %.6g, \"query_p90_ms\": %.6g, \"query_p99_ms\": %.6g, "
              "\"delta_p90_ms\": %.6g, \"delta_p99_ms\": %.6g, \"feed_p50_ms\": %.6g, "
              "\"feed_p90_ms\": %.6g, \"feed_p99_ms\": %.6g}\n",
              WindowMedian(ps.windows, &WindowStat::read_qps).value_or(NAN),
              WindowMedian(ps.windows, &WindowStat::tail).value_or(NAN),
              WindowMedian(ps.windows, &WindowStat::p99).value_or(NAN),
              WindowMedian(ps.windows, &WindowStat::delta_tail).value_or(NAN),
              Percentile(ps.idle.lag_ms, 0.99).value_or(NAN),
              feed ? WindowMedian(ps.windows, &WindowStat::feed_p50).value_or(NAN) : NAN,
              Percentile(ps.feed.lag_ms, kTail).value_or(NAN),
              Percentile(ps.feed.lag_ms, 0.99).value_or(NAN));
  std::printf("diag {\"steal_ticks\": %lld, \"cpu_s\": %.3f, \"wall_s\": %.3f, "
              "\"cpu_per_wall\": %.3f, \"calib_before_ms\": %.3f, \"calib_after_ms\": %.3f}\n",
              (steal0 >= 0 && steal1 >= 0) ? steal1 - steal0 : -1LL, cpu, wall,
              wall > 0 ? cpu / wall : 0.0, calib_before, calib_after);

  std::vector<Metric> metrics;
  Checks* ck = &run.checks;
  auto window_median = [&](double WindowStat::*field, const char* what) {
    return Need(WindowMedian(ps.windows, field), what, ck);
  };
  if (!opt.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss, "MiB"},
        {"qps", window_median(&WindowStat::qps, "qps"), "1/s"},
        {"query_p50_ms", window_median(&WindowStat::p50, "query_p50_ms"), "ms"},
        {"delta_p50_ms", window_median(&WindowStat::delta_p50, "delta_p50_ms"), "ms"},
    };
  } else {
    // The delta layers are reported for the deltas that define the
    // workload: the feed's on delta_feed, the idle server's otherwise.
    const DeltaSamples& ds = feed ? ps.feed : ps.idle;
    const double per_req = layers.requests > 0 ? static_cast<double>(layers.requests) : 1.0;
    metrics = {
        {"core.translate_s", Median(setup.translate_s), "s"},
        {"core.apply_delta_ms_p50", Need(Percentile(ds.apply_ms, 0.5), "apply p50", ck), "ms"},
        {"core.apply_delta_ms_p99", Need(Percentile(ds.apply_ms, 0.99), "apply p99", ck), "ms"},
        {"core.delta_wait_ms_p50", Need(Percentile(ds.wait_ms, 0.5), "wait p50", ck), "ms"},
        {"core.delta_rest_ms_p50", Need(Percentile(ds.rest_ms, 0.5), "rest p50", ck), "ms"},
        {"query.plan_us_p50", Need(Percentile(layers.plan_us, 0.5), "plan p50", ck), "us"},
        {"query.eval_ms_p50", Need(Percentile(layers.eval_ms, 0.5), "eval p50", ck), "ms"},
        {"query.eval_ms_p99", Need(Percentile(layers.eval_ms, 0.99), "eval p99", ck), "ms"},
        {"query.answers_per_req", layers.answers / per_req, "count"},
        {"prob.clauses_per_req", layers.clauses / per_req, "count"},
        {"obdd.order_s", Median(setup.order_s), "s"},
        {"obdd.import_s", Median(setup.import_s), "s"},
        {"obdd.synth_us_p50", Need(Percentile(layers.synth_us, 0.5), "synth p50", ck), "us"},
        {"obdd.nodes_per_req", layers.nodes / per_req, "count"},
        {"mvindex.partition_s", Median(setup.partition_s), "s"},
        {"mvindex.compile_s", Median(setup.compile_s), "s"},
        {"mvindex.stitch_s", Median(setup.stitch_s), "s"},
        {"mvindex.flat_nodes", static_cast<double>(flat_nodes), "count"},
        {"mvindex.blocks", static_cast<double>(blocks), "count"},
        {"mvindex.sweep_us_p50", Need(Percentile(layers.sweep_us, 0.5), "sweep p50", ck), "us"},
        {"mvindex.sweep_us_p99", Need(Percentile(layers.sweep_us, 0.99), "sweep p99", ck), "us"},
        {"mvindex.roots_per_sweep", batches > 0 ? static_cast<double>(ps.answers) / batches : 0.0,
         "count"},
        {"mvindex.repair_replay_us_p50", Need(Percentile(ds.replay_us, 0.5), "replay", ck), "us"},
        {"mvindex.repair_reprobe_us_p50", Need(Percentile(ds.reprobe_us, 0.5), "reprobe", ck), "us"},
        {"mvindex.repair_products_ms_p50", Need(Percentile(ds.products_ms, 0.5), "products", ck), "ms"},
        {"mvindex.repair_dirty_blocks", Need(Percentile(ds.dirty_blocks, 0.5), "dirty", ck), "count"},
        {"serve.start_s", Median(setup.serve_start_s), "s"},
        {"serve.queue_ms_p50", Need(Percentile(ps.queue_ms, 0.5), "queue p50", ck), "ms"},
        {"serve.queue_ms_p99", Need(Percentile(ps.queue_ms, 0.99), "queue p99", ck), "ms"},
        {"serve.exec_ms_p50", Need(Percentile(ps.exec_ms, 0.5), "exec p50", ck), "ms"},
        {"serve.handoff_us_p50", Need(Percentile(ps.handoff_us, 0.5), "handoff p50", ck), "us"},
        {"serve.batch_fill", batches > 0 ? completed / batches : 0.0, "req/batch"},
        {"serve.plan_hit_rate", plan_stats.HitRate(), "ratio"},
    };
    std::printf("overhead %s\n", OverheadJson(ps.windows, *run.tracer).c_str());
    const std::string dir = ".bench_build/perfbench/traces";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + WorkloadName(opt.workload) + ".jsonl";
    if (!run.tracer->WriteJsonLines(path)) Fail("cannot write " + path);
    std::printf("trace: %zu spans -> %s\n", run.tracer->size(), path.c_str());
  }

  for (const std::string& n : run.checks.notes) std::printf("CHECK FAILED: %s\n", n.c_str());
  const bool correct = run.checks.mismatches == 0;
  std::printf("%s\n", ResultJson(correct, run.attempted, run.failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- Self-tests ---------------------------------------------------------------------

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  // 1. Percentiles with fewer than 10 samples beyond their rank are refused.
  {
    std::vector<double> v(1000);
    for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
    expect(Percentile(v, 0.99).has_value(), "p99 of 1000 samples is reported");
    v.pop_back();
    expect(!Percentile(v, 0.99).has_value(), "p99 of 999 samples is refused");
    std::vector<double> small(20, 1.0);
    expect(Percentile(small, 0.5).has_value(), "p50 of 20 samples is reported");
    expect(!Percentile(std::vector<double>(19, 1.0), 0.5).has_value(),
           "p50 of 19 samples is refused");
  }

  // 2. The 3:1 mix keeps the p50, p90 and p99 ranks each inside one class,
  //    whichever class is faster, in any window a run can measure: every
  //    stretch of at least 1,000 consecutive requests, at any offset.
  {
    constexpr size_t kShortestWindow = 1000;
    bool ok = true;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      RequestStream s(StreamSeed(seed, 1), 100, 100);
      std::vector<size_t> students(1, 0);  // prefix counts
      for (size_t i = 0; i < 40000; ++i) {
        students.push_back(students.back() + (s.Next().cls == kStudents ? 1 : 0));
      }
      for (size_t start : {0, 1, 2, 3, 997, 5003, 12345}) {
        for (size_t n = kShortestWindow; start + n < students.size(); ++n) {
          const double f = static_cast<double>(students[start + n] - students[start]) /
                           static_cast<double>(n);
          // Students fast: they fill ranks [0, f); p50 inside, p90/p99 beyond.
          // Students slow: they fill ranks [1 - f, 1); all three inside.
          const double margin = 10.0 / static_cast<double>(n);
          if (!(0.5 + margin < f && f < kTail - margin && 1.0 - f < 0.5 - margin)) ok = false;
        }
      }
    }
    expect(ok, "3:1 mix keeps p50, p90 and p99 inside one class in every window");
  }

  // 3. Same seed -> same request/delta sequence and per-layer counts;
  //    another seed -> another sequence. Runs at a small scale.
  {
    const int authors = 20000;
    struct Outcome {
      uint64_t digest;
      double answers, clauses, nodes;
    };
    auto once = [&](uint64_t seed) {
      Run run;
      run.opt.seed = seed;
      run.opt.trace = true;
      run.tracer = std::make_unique<Tracer>(run.origin);
      SetupTimes st;
      SetUp(authors, 1, &run.inst, &st, &run.attempted);
      run.targets = BuildTargets(run.inst.mvdb.get());
      run.deltas = std::make_unique<DeltaSource>(*run.inst.engine, *run.inst.mvdb,
                                                 StreamSeed(seed, 3));
      Digest d;
      RequestStream s(StreamSeed(seed, 1), run.targets.of[kStudents].size(),
                      run.targets.of[kAffiliation].size());
      for (int i = 0; i < 5000; ++i) {
        const Request r = s.Next();
        d.Mix(r.cls);
        d.Mix(r.idx);
      }
      for (int i = 0; i < 50; ++i) DigestOps(run.deltas->Next(), &d);
      RequestStream traced(StreamSeed(seed, 2), run.targets.of[kStudents].size(),
                           run.targets.of[kAffiliation].size());
      LayerSamples ls;
      TracedReplay(&run, &traced, 60, &ls);
      for (const std::string& n : run.checks.notes) std::printf("  %s\n", n.c_str());
      expect(run.checks.mismatches == 0, "traced replay matches Submit and the oracle");
      return Outcome{d.value(), ls.answers, ls.clauses, ls.nodes};
    };
    const Outcome a = once(11), b = once(11), c = once(12);
    std::printf("  digest %016llx/%016llx/%016llx answers %.0f clauses %.0f nodes %.0f\n",
                static_cast<unsigned long long>(a.digest),
                static_cast<unsigned long long>(b.digest),
                static_cast<unsigned long long>(c.digest), a.answers, a.clauses, a.nodes);
    expect(a.digest == b.digest, "same seed gives the same sequence digest");
    expect(a.digest != c.digest, "another seed changes the digest");
    expect(a.answers == b.answers && a.clauses == b.clauses && a.nodes == b.nodes,
           "same seed gives identical per-layer counts");
  }
  std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--self-test") {
      opt->self_test = true;
    } else if (a == "--workload" && value(&v)) {
      have_workload = true;
      if (v == "inline_server") opt->workload = Workload::kInlineServer;
      else if (v == "delta_feed") opt->workload = Workload::kDeltaFeed;
      else return false;
    } else if (a == "--seed" && value(&v)) {
      opt->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds" && value(&v)) {
      opt->seconds = std::atof(v.c_str());
      if (!(opt->seconds > 0)) return false;
    } else if (a == "--trace" && value(&v)) {
      if (v != "0" && v != "1") return false;
      opt->trace = v == "1";
    } else {
      return false;
    }
  }
  return opt->self_test || have_workload;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: mvdb_perfbench --workload <inline_server|delta_feed> --seed N "
                 "--seconds S --trace <0|1> | --self-test\n");
    return 2;
  }
  return opt.self_test ? perfbench::SelfTest() : perfbench::RunWorkload(opt);
}

// Serving throughput: QPS and tail latency of the concurrent serving layer
// (src/serve/) on the Figure 10/11 query mix — students-of-advisor and
// affiliation-of-author against the full-scale synthetic DBLP.
//
// Sweeps client concurrency (closed-loop clients, one outstanding request
// each); each cell reports QPS, p50 and p99 latency, batching and plan-cache
// counters as one BENCH_JSON line. The paper serves queries one at a time
// (Figures 10/11, <6 ms each); this harness measures what the same index
// sustains under concurrent load.
//
//   bench_serve_qps [scale] [--threads=N]   # N = server workers, default 4

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench_common.h"
#include "serve/server.h"

namespace mvdb {
namespace bench {
namespace {

int g_scale = 50000;
int g_threads = 4;

/// The Figure 10/11 mix: 10 students-of-advisor + 10 affiliation-of-author
/// queries, pre-parsed once (parsing interns into the dictionary, which is
/// not thread-safe; serving takes parsed Ucqs).
std::vector<Ucq> MakeQueryMix(const Workload& w) {
  std::vector<Ucq> mix;
  const Table* advisor = w.mvdb->db().Find("Advisor");
  const size_t astride = std::max<size_t>(1, advisor->size() / 10);
  for (size_t r = 0, n = 0; r < advisor->size() && n < 10; r += astride, ++n) {
    const Value senior = advisor->At(static_cast<RowId>(r), 1);
    mix.push_back(dblp::StudentsOfAdvisorQuery(
        w.mvdb.get(), dblp::AuthorName(static_cast<int>(senior))));
  }
  const Table* aff = w.mvdb->db().Find("Affiliation");
  const size_t fstride = std::max<size_t>(1, aff->size() / 10);
  for (size_t r = 0, n = 0; r < aff->size() && n < 10; r += fstride, ++n) {
    const Value aid = aff->At(static_cast<RowId>(r), 0);
    mix.push_back(dblp::AffiliationOfAuthorQuery(
        w.mvdb.get(), dblp::AuthorName(static_cast<int>(aid))));
  }
  MVDB_CHECK(!mix.empty());
  return mix;
}

struct CellResult {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  size_t completed = 0;
  size_t errors = 0;
};

double Percentile(std::vector<double>* ms, double p) {
  if (ms->empty()) return 0;
  const size_t k = std::min(ms->size() - 1,
                            static_cast<size_t>(p * (ms->size() - 1) + 0.5));
  std::nth_element(ms->begin(), ms->begin() + k, ms->end());
  return (*ms)[k];
}

/// Closed loop: each client keeps exactly one request outstanding, cycling
/// through the mix from a staggered offset so concurrent clients hit
/// different (and sometimes the same) shapes.
CellResult RunCell(Server* server, const std::vector<Ucq>& mix, int clients,
                   int reps_per_client) {
  std::vector<std::vector<double>> lat(clients);
  std::atomic<size_t> errors{0};
  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      lat[c].reserve(reps_per_client);
      for (int i = 0; i < reps_per_client; ++i) {
        ServeRequest req;
        req.query = mix[(c + i) % mix.size()];
        Timer t;
        const ServeResult res = server->Submit(std::move(req)).get();
        lat[c].push_back(t.Millis());
        if (!res.status.ok()) errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = wall.Seconds();

  CellResult cell;
  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  cell.completed = all.size() - errors.load();
  cell.errors = errors.load();
  cell.qps = wall_s > 0 ? all.size() / wall_s : 0;
  cell.p50_ms = Percentile(&all, 0.50);
  cell.p99_ms = Percentile(&all, 0.99);
  return cell;
}

void RunSweep() {
  dblp::DblpConfig cfg;
  cfg.num_authors = g_scale;
  cfg.include_affiliation = true;

  CompileOptions copts;
  copts.num_threads = g_threads;
  copts.reserve_hint = static_cast<size_t>(g_scale) * 16;
  Timer build_timer;
  Workload w = MakeWorkload(cfg, copts);
  std::printf("full scale: %d authors, MV-index %zu nodes, compiled in %.1f s; "
              "%d server workers\n\n",
              g_scale, w.engine->index().size(), build_timer.Seconds(),
              g_threads);
  const std::vector<Ucq> mix = MakeQueryMix(w);

  std::printf("%-8s %10s %10s %10s %10s %9s\n", "clients", "qps", "p50(ms)",
              "p99(ms)", "batched", "hit rate");
  for (const int clients : {1, 2, 4, 8, 16}) {
    ServeOptions opts;
    opts.num_threads = g_threads;
    auto server = Unwrap(w.engine->Serve(opts));
    // Warm one request per shape so the sweep measures steady state, not
    // first-plan cost (the cold plan is fig10/11's "planned" row).
    for (const Ucq& q : mix) {
      ServeRequest req;
      req.query = q;
      Die(server->Execute(req).status);
    }
    const int reps = std::max(40, 400 / clients);
    const CellResult cell = RunCell(server.get(), mix, clients, reps);
    const ServerStats stats = server->stats();
    const PlanCacheStats pc = server->plan_cache_stats();
    server->Shutdown();
    if (cell.errors > 0) {
      std::fprintf(stderr, "bench error: %zu serving errors\n", cell.errors);
      std::exit(1);
    }
    std::printf("%-8d %10.0f %10.3f %10.3f %10zu %8.0f%%\n", clients,
                cell.qps, cell.p50_ms, cell.p99_ms,
                static_cast<size_t>(stats.batched_requests),
                100.0 * pc.HitRate());
    JsonLine("serve_qps")
        .Field("authors", g_scale)
        .Field("server_threads", g_threads)
        .Field("clients", clients)
        .Field("requests", cell.completed)
        .Field("qps", cell.qps)
        .Field("p50_ms", cell.p50_ms)
        .Field("p99_ms", cell.p99_ms)
        .Field("batches", static_cast<size_t>(stats.batches))
        .Field("batched_requests", static_cast<size_t>(stats.batched_requests))
        .Field("cache_hit_rate", pc.HitRate())
        .Emit();
  }
}

}  // namespace
}  // namespace bench
}  // namespace mvdb

int main(int argc, char** argv) {
  // ParseThreadsFlag falls back to 1 when the flag is absent; this bench
  // wants a small pool by default, so detect presence first.
  bool has_threads_flag = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads", 9) == 0) has_threads_flag = true;
  }
  const int threads = mvdb::bench::ParseThreadsFlag(&argc, argv);
  mvdb::bench::g_threads = has_threads_flag ? threads : 4;
  if (argc > 1 && argv[1][0] != '-') {
    mvdb::bench::g_scale = std::atoi(argv[1]);
  }
  mvdb::bench::PrintFigureHeader(
      "Serving", "QPS / tail latency under concurrent load (Fig. 10/11 mix)");
  mvdb::bench::RunSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

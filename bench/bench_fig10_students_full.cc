// Figure 10: scalability to the full dataset — 10 queries of the form
// "find all students of advisor X" against the full-scale synthetic DBLP,
// evaluated with CC-MVIntersect over the precompiled MV-index.
//
// Paper shape: every query under 5 ms, many under 1 ms (their full DBLP is
// 1M authors with a 1.38M-node index; our default full scale is 50K
// authors — pass a different scale as argv[1]).

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace mvdb {
namespace bench {
namespace {

int g_scale = 50000;
int g_threads = 1;

void RunTenQueries() {
  dblp::DblpConfig cfg;
  cfg.num_authors = g_scale;
  cfg.include_affiliation = true;

  CompileOptions copts;
  copts.num_threads = g_threads;
  copts.reserve_hint = static_cast<size_t>(g_scale) * 16;
  Timer build_timer;
  Workload w = MakeWorkload(cfg, copts);
  const double build_s = build_timer.Seconds();
  std::printf("full scale: %d authors, MV-index %zu nodes / %zu blocks, "
              "compiled in %.1f s (%d threads)\n\n",
              g_scale, w.engine->index().size(), w.engine->index().blocks().size(),
              build_s, g_threads);
  JsonLine("fig10_build")
      .Field("authors", g_scale)
      .Field("threads", g_threads)
      .Field("build_s", build_s)
      .Field("flat_nodes", w.engine->index().size())
      .Field("blocks", w.engine->index().blocks().size())
      .Emit();

  // All 10 queries share one shape: q1 plans it, q2..q10 reuse the
  // engine's cached template and skip planning entirely.
  const Table* advisor = w.mvdb->db().Find("Advisor");
  std::printf("%-6s %-14s %10s %10s  %s\n", "query", "advisor", "answers",
              "time(ms)", "plan");
  const size_t stride = std::max<size_t>(1, advisor->size() / 10);
  int qno = 0;
  for (size_t r = 0; r < advisor->size() && qno < 10; r += stride, ++qno) {
    const Value senior = advisor->At(static_cast<RowId>(r), 1);
    const std::string name = dblp::AuthorName(static_cast<int>(senior));
    Ucq q = dblp::StudentsOfAdvisorQuery(w.mvdb.get(), name);
    const PlanCacheStats before = w.engine->plan_cache_stats();
    Timer t;
    auto answers = w.engine->Query(q, Backend::kMvIndexCC);
    const double ms = t.Millis();
    Die(answers.status());
    const bool hit = w.engine->plan_cache_stats().hits > before.hits;
    std::printf("q%-5d %-14s %10zu %10.3f  %s\n", qno + 1, name.c_str(),
                answers->size(), ms, hit ? "cached" : "planned");
  }
  const PlanCacheStats pc = w.engine->plan_cache_stats();
  std::printf("\nplan cache: %llu hits / %llu misses (hit rate %.0f%%)\n",
              static_cast<unsigned long long>(pc.hits),
              static_cast<unsigned long long>(pc.misses), 100.0 * pc.HitRate());
  JsonLine("fig10_plan_cache")
      .Field("authors", g_scale)
      .Field("cache_hits", static_cast<size_t>(pc.hits))
      .Field("cache_misses", static_cast<size_t>(pc.misses))
      .Field("hit_rate", pc.HitRate())
      .Emit();
}

}  // namespace
}  // namespace bench
}  // namespace mvdb

int main(int argc, char** argv) {
  mvdb::bench::g_threads = mvdb::bench::ParseThreadsFlag(&argc, argv);
  if (argc > 1 && argv[1][0] != '-') {
    mvdb::bench::g_scale = std::atoi(argv[1]);
  }
  mvdb::bench::PrintFigureHeader(
      "Figure 10", "querying students of an advisor, full dataset");
  mvdb::bench::RunTenQueries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

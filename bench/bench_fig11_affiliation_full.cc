// Figure 11: scalability to the full dataset — 10 queries of the form
// "find the affiliation of author Y" (the V3 workload), CC-MVIntersect
// over the precompiled MV-index.
//
// Paper shape: all queries below ~6 ms.

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
  cfg.num_prolific_pairs = 12;

  CompileOptions copts;
  copts.num_threads = g_threads;
  copts.reserve_hint = static_cast<size_t>(g_scale) * 16;
  Timer build_timer;
  Workload w = MakeWorkload(cfg, copts);
  const double build_s = build_timer.Seconds();
  std::printf("full scale: %d authors, MV-index %zu nodes, compiled in %.1f s "
              "(%d threads)\n\n",
              g_scale, w.engine->index().size(), build_s, g_threads);
  JsonLine("fig11_build")
      .Field("authors", g_scale)
      .Field("threads", g_threads)
      .Field("build_s", build_s)
      .Field("flat_nodes", w.engine->index().size())
      .Emit();

  const Table* aff = w.mvdb->db().Find("Affiliation");
  if (aff->size() == 0) {
    std::printf("no Affiliation tuples at this scale\n");
    return;
  }
  // One shared query shape: the first query plans, the other nine hit the
  // engine's plan cache.
  std::printf("%-6s %-14s %10s %10s  %s\n", "query", "author", "answers",
              "time(ms)", "plan");
  const size_t stride = std::max<size_t>(1, aff->size() / 10);
  int qno = 0;
  for (size_t r = 0; r < aff->size() && qno < 10; r += stride, ++qno) {
    const Value aid = aff->At(static_cast<RowId>(r), 0);
    const std::string name = dblp::AuthorName(static_cast<int>(aid));
    Ucq q = dblp::AffiliationOfAuthorQuery(w.mvdb.get(), name);
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
  JsonLine("fig11_plan_cache")
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
      "Figure 11", "querying affiliations of an author, full dataset");
  mvdb::bench::RunTenQueries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

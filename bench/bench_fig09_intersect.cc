// Figure 9: MVIntersect vs CC-MVIntersect on the worst-case query — a
// 20-tuple lineage spread across the entire MV-index, forcing a complete
// traversal (all block-skipping shortcuts useless).
//
// Paper shape: both linear in the index size, the cache-conscious variant
// ~2x faster.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "bench_common.h"

namespace mvdb {
namespace bench {
namespace {

/// --classic-intersect: run the sweeps with the branch-light fast walk
/// disabled (MvIndex::set_use_fast_intersect(false)) for A/B numbers on the
/// same binary. Results are bit-identical either way; only timing moves.
bool g_classic_intersect = false;

/// A query lineage of ~20 Advisor tuples spaced evenly across the index's
/// variable range — the paper's "worst case scenario: it forced the system
/// to traverse entire MV-index".
Lineage WorstCaseLineage(const Mvdb& mvdb) {
  const Table* advisor = mvdb.db().Find("Advisor");
  Lineage q;
  const size_t n = advisor->size();
  const size_t stride = std::max<size_t>(1, n / 20);
  Clause clause;
  for (size_t r = 0; r < n; r += stride) {
    // One disjunct per tuple: DNF over spread-out variables.
    q.AddClause({advisor->var(static_cast<RowId>(r))});
  }
  (void)clause;
  return q;
}

/// Prints the series; returns false if any row's sweeps disagree (the
/// caller turns that into a failing exit code).
bool PrintSeries() {
  bool all_agree = true;
  std::printf("%-12s %14s %16s %20s %18s %12s\n", "aid domain", "index nodes",
              "mvintersect(s)", "cc-mvintersect(s)", "cc-batch8/q(s)",
              "agree");
  for (int n : AidDomainSweep()) {
    Workload w = MakeWorkload(SweepConfig(n));
    w.engine->mutable_index().set_use_fast_intersect(!g_classic_intersect);
    const Lineage q = WorstCaseLineage(*w.mvdb);
    const NodeId qb = w.engine->manager().FromLineageSynthesis(q);

    // Compare final Eq. 5 probabilities: the raw numerators leave double
    // range by design (extended-range arithmetic; the ratio is ordinary).
    const ScaledDouble denom = w.engine->index().ProbNotWScaled();
    constexpr int kReps = 200;
    Timer td_timer;
    ScaledDouble td_num;
    for (int i = 0; i < kReps; ++i) {
      td_num = w.engine->index().MVIntersectScaled(qb);
    }
    const double td_s = td_timer.Seconds() / kReps;
    const double td = (td_num / denom).ToDouble();

    // One scratch across the reps, as a serving worker keeps its own.
    const CcQuery cc_query{&w.engine->manager(), qb};
    CcSweepScratch cc_scratch;
    Timer cc_timer;
    ScaledDouble cc_num;
    for (int i = 0; i < kReps; ++i) {
      cc_num = w.engine->index().CCMVIntersectScaled(cc_query, &cc_scratch);
    }
    const double cc_s = cc_timer.Seconds() / kReps;
    const double cc = (cc_num / denom).ToDouble();

    // Serving-layer amortization: 8 in-flight copies of the worst-case
    // query share a single pass over the flat chain.
    const std::vector<CcQuery> batch(8, CcQuery{&w.engine->manager(), qb});
    CcSweepScratch scratch;
    std::vector<ScaledDouble> out;
    Timer batch_timer;
    for (int i = 0; i < kReps / 8; ++i) {
      w.engine->index().CCMVIntersectBatchScaled(batch, &scratch, &out);
    }
    const double batch_s = batch_timer.Seconds() / (kReps / 8) / 8;

    // The recursive and the sweeping algorithms agree to rounding; every
    // root of the batch must equal the solo sweep's numerator exactly.
    const bool agree =
        std::abs(td - cc) <= 1e-9 * std::max(1.0, std::abs(td)) &&
        std::all_of(out.begin(), out.end(),
                    [&](const ScaledDouble& b) { return b == cc_num; });
    all_agree &= agree;
    std::printf("%-12d %14zu %16.6f %20.6f %18.6f %12s\n", n,
                w.engine->index().size(), td_s, cc_s, batch_s,
                agree ? "yes" : "NO");
    JsonLine("fig09_intersect")
        .Field("aid_domain", n)
        .Field("flat_nodes", w.engine->index().size())
        .Field("mvintersect_s", td_s)
        .Field("cc_mvintersect_s", cc_s)
        .Field("cc_batch8_per_query_s", batch_s)
        .Emit();
  }
  return all_agree;
}

void BM_MVIntersect(benchmark::State& state) {
  Workload w = MakeWorkload(SweepConfig(static_cast<int>(state.range(0))));
  w.engine->mutable_index().set_use_fast_intersect(!g_classic_intersect);
  const Lineage q = WorstCaseLineage(*w.mvdb);
  const NodeId qb = w.engine->manager().FromLineageSynthesis(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.engine->index().MVIntersectScaled(qb));
  }
}
BENCHMARK(BM_MVIntersect)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_CCMVIntersect(benchmark::State& state) {
  Workload w = MakeWorkload(SweepConfig(static_cast<int>(state.range(0))));
  w.engine->mutable_index().set_use_fast_intersect(!g_classic_intersect);
  const Lineage q = WorstCaseLineage(*w.mvdb);
  const CcQuery cc_query{&w.engine->manager(),
                        w.engine->manager().FromLineageSynthesis(q)};
  CcSweepScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.engine->index().CCMVIntersectScaled(cc_query, &scratch));
  }
}
BENCHMARK(BM_CCMVIntersect)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

/// The serving layer's batched sweep: 8 concurrent worst-case queries share
/// one forward pass over the flat chain instead of eight. Compare against
/// 8x BM_CCMVIntersect at the same Arg to read the amortization.
void BM_CCMVIntersectBatch8(benchmark::State& state) {
  Workload w = MakeWorkload(SweepConfig(static_cast<int>(state.range(0))));
  w.engine->mutable_index().set_use_fast_intersect(!g_classic_intersect);
  const Lineage q = WorstCaseLineage(*w.mvdb);
  const NodeId qb = w.engine->manager().FromLineageSynthesis(q);
  const std::vector<CcQuery> batch(8, CcQuery{&w.engine->manager(), qb});
  CcSweepScratch scratch;
  std::vector<ScaledDouble> out;
  for (auto _ : state) {
    w.engine->index().CCMVIntersectBatchScaled(batch, &scratch, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CCMVIntersectBatch8)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace mvdb

int main(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--classic-intersect") {
      mvdb::bench::g_classic_intersect = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  mvdb::bench::PrintFigureHeader(
      "Figure 9", "MVIntersect vs CC-MVIntersect, worst-case query");
  const bool agree = mvdb::bench::PrintSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!agree) {
    std::fprintf(stderr, "fig09: intersect algorithms disagree (agree NO)\n");
    return 1;
  }
  return 0;
}

// Offline scaling bench (beyond the paper's figures): MV-index build time
// as a function of dataset size and compilation shards. The paper's nearest
// target is the 1M-author DBLP index (1.38M nodes, Section 5); this bench
// tracks how far the sharded pipeline pushes the build along that axis.
//
// For each (authors, threads) cell it reports wall-clock build time, the
// per-phase split (translate / order / partition / compile / stitch /
// import — the full offline pipeline including the front-end), peak shard
// manager nodes, bytes/node of both the shard node stores (open-addressed
// unique table + direct-mapped op caches) and the flat layout, the op-cache
// bytes returned by the end-of-compile ClearOpCaches shrinks, and the process peak
// RSS — and checks that every threaded build is bit-identical to the serial
// one (same block count, same node-by-node flat layout via an FNV digest,
// same extended-range P0(NOT W)). The dataset itself is generated with the
// cell's thread count, so the parity gate covers generator and partition
// parallelism too. Any MISMATCH makes the process exit non-zero.
//
// Usage: bench_build_scale [authors ...] [--threads=1,2,4] [--scale-sweep]
//                          [--repeat N]
//   bench_build_scale                      # sweep {10000, 50000} x {1,2,4}
//   bench_build_scale --scale-sweep        # {10000,50000,100000,200000,500000}
//                                          # x {1,4}: the 1M-author trajectory
//   bench_build_scale 500000 --threads=4   # one large cell
//   bench_build_scale --repeat 5           # build every cell 5 times; the
//                                          # table and phase split show the
//                                          # fastest run, the JSON adds
//                                          # build_s_min / build_s_median,
//                                          # and the parity gate also checks
//                                          # repeat-to-repeat determinism

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"

namespace mvdb {
namespace bench {
namespace {

struct BuildResult {
  double total_s = 0;
  MvIndexBuildStats stats;
  size_t blocks = 0;
  ScaledDouble prob_not_w;
  uint64_t layout_hash = 0;  ///< FNV-1a over the flat topology, node by node
  // Timing spread across --repeat runs of this cell (equal to total_s when
  // the cell ran once). The representative run is the fastest one.
  int repeat = 1;
  double total_min_s = 0;
  double total_median_s = 0;
};

/// Hashes the stitched layout (levels, edges, root) so parity detects any
/// node-level divergence, not just size/probability drift.
uint64_t HashLayout(const FlatObdd& flat) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](int32_t v) {
    h = (h ^ static_cast<uint32_t>(v)) * 1099511628211ULL;
  };
  mix(flat.root());
  for (FlatId u = 0; u < static_cast<FlatId>(flat.size()); ++u) {
    mix(flat.level(u));
    mix(flat.lo(u));
    mix(flat.hi(u));
  }
  return h;
}

bool g_parity_failed = false;
int g_repeat = 1;

/// Peak resident set of this process so far, in MiB (Linux ru_maxrss is in
/// KiB). Monotone across cells; meaningful for the largest cell of a sweep.
double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

BuildResult BuildOnce(int authors, int threads) {
  dblp::DblpConfig cfg;
  cfg.num_authors = authors;
  cfg.include_affiliation = true;
  // Generate with the cell's thread count: the parity check then also
  // covers the generator's per-entity RNG streams.
  cfg.num_threads = threads;
  auto mvdb = Unwrap(dblp::BuildDblpMvdb(cfg, nullptr));
  QueryEngine engine(mvdb.get());
  CompileOptions copts;
  copts.num_threads = threads;
  // The chain is ~14 nodes per author at this workload shape; hint the
  // shard managers so the unique tables do not rehash mid-build.
  copts.reserve_hint = static_cast<size_t>(authors) * 16;
  Timer t;
  Die(engine.Compile(copts));
  BuildResult r;
  r.total_s = t.Seconds();
  r.stats = engine.index().build_stats();
  r.blocks = engine.index().blocks().size();
  r.prob_not_w = engine.index().ProbNotWScaled();
  r.layout_hash = HashLayout(engine.index().flat());
  return r;
}

/// Builds the cell g_repeat times. Timing noise goes into min/median; the
/// returned (fastest) run supplies the stats and phase split. Repeats must
/// reproduce the serial-vs-threaded invariant run to run — any layout or
/// probability drift across repeats is nondeterminism and fails the
/// parity gate.
BuildResult BuildRepeated(int authors, int threads) {
  std::vector<BuildResult> runs;
  runs.reserve(static_cast<size_t>(g_repeat));
  for (int i = 0; i < g_repeat; ++i) runs.push_back(BuildOnce(authors, threads));
  size_t best = 0;
  std::vector<double> totals;
  totals.reserve(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    totals.push_back(runs[i].total_s);
    if (runs[i].total_s < runs[best].total_s) best = i;
    if (runs[i].layout_hash != runs[0].layout_hash ||
        runs[i].blocks != runs[0].blocks ||
        !(runs[i].prob_not_w == runs[0].prob_not_w)) {
      std::fprintf(stderr,
                   "MISMATCH: repeat %zu of authors=%d threads=%d diverged "
                   "from repeat 0\n",
                   i, authors, threads);
      g_parity_failed = true;
    }
  }
  std::sort(totals.begin(), totals.end());
  BuildResult r = runs[best];
  r.repeat = g_repeat;
  r.total_min_s = totals.front();
  r.total_median_s = totals[totals.size() / 2];  // upper median for even N
  return r;
}

void ReportCell(int authors, int threads, const BuildResult& r,
                const BuildResult* serial_ref, bool is_ref) {
  // Parity vs the serial reference is only meaningful when one was built in
  // this sweep (serial cells are the reference; threaded cells without a
  // preceding threads=1 run report "n/a" and omit the JSON field).
  const char* parity = "ref";
  if (!is_ref) {
    parity = serial_ref == nullptr ? "n/a"
             : (r.blocks == serial_ref->blocks &&
                r.stats.flat_nodes == serial_ref->stats.flat_nodes &&
                r.layout_hash == serial_ref->layout_hash &&
                r.prob_not_w == serial_ref->prob_not_w)
                 ? "ok"
                 : "MISMATCH";
    if (std::strcmp(parity, "MISMATCH") == 0) g_parity_failed = true;
  }
  const double bytes_per_node =
      r.stats.flat_nodes == 0
          ? 0.0
          : static_cast<double>(r.stats.flat_bytes) /
                static_cast<double>(r.stats.flat_nodes);
  // Construction-side footprint: shard node stores (node vectors +
  // open-addressed unique tables + op caches) per manager node at peak.
  const double mgr_bytes_per_node =
      r.stats.peak_manager_nodes == 0
          ? 0.0
          : static_cast<double>(r.stats.peak_manager_bytes) /
                static_cast<double>(r.stats.peak_manager_nodes);
  const double rss_mb = PeakRssMb();
  std::printf(
      "%-9d %-8d %9.2f %9.2f %9.2f %9.2f %9.2f %10zu %10zu %8.1f %8.1f %8.0f "
      "%8s\n",
      authors, threads, r.total_s, r.stats.translate_seconds,
      r.stats.order_seconds, r.stats.compile_seconds,
      r.stats.stitch_seconds + r.stats.import_seconds,
      r.stats.peak_manager_nodes, r.stats.flat_nodes, bytes_per_node,
      mgr_bytes_per_node, rss_mb, parity);
  if (r.repeat > 1) {
    std::printf("          repeat=%d  min=%.2fs  median=%.2fs\n", r.repeat,
                r.total_min_s, r.total_median_s);
  }
  JsonLine json("build_scale");
  json.Field("authors", authors)
      .Field("threads", threads)
      .Field("build_s", r.total_s)
      .Field("total_s", r.stats.total_seconds)
      .Field("translate_s", r.stats.translate_seconds)
      .Field("order_s", r.stats.order_seconds)
      .Field("partition_s", r.stats.partition_seconds)
      .Field("compile_s", r.stats.compile_seconds)
      .Field("stitch_s", r.stats.stitch_seconds)
      .Field("import_s", r.stats.import_seconds)
      .Field("plan_templates", r.stats.plan_templates)
      .Field("template_blocks", r.stats.template_blocks)
      .Field("template_plan_s", r.stats.template_plan_seconds)
      .Field("blocks", r.blocks)
      .Field("peak_manager_nodes", r.stats.peak_manager_nodes)
      .Field("peak_manager_bytes", r.stats.peak_manager_bytes)
      .Field("manager_bytes_per_node", mgr_bytes_per_node)
      .Field("op_cache_freed_bytes", r.stats.op_cache_freed_bytes)
      .Field("flat_nodes", r.stats.flat_nodes)
      .Field("bytes_per_node", bytes_per_node)
      .Field("peak_rss_mb", rss_mb);
  if (r.repeat > 1) {
    json.Field("repeat", r.repeat)
        .Field("build_s_min", r.total_min_s)
        .Field("build_s_median", r.total_median_s);
  }
  if (!is_ref && serial_ref != nullptr) {
    json.Field("parity", std::strcmp(parity, "ok") == 0 ? 1 : 0);
  }
  json.Emit();
}

void RunSweep(const std::vector<int>& authors_sweep,
              const std::vector<int>& threads_sweep) {
  std::printf("%-9s %-8s %9s %9s %9s %9s %9s %10s %10s %8s %8s %8s %8s\n",
              "authors", "threads", "build(s)", "translate", "order",
              "compile", "stitch", "peak nodes", "flat", "B/node", "mgrB/nd",
              "rss(MB)", "parity");
  for (int authors : authors_sweep) {
    const BuildResult* ref = nullptr;
    BuildResult serial;
    for (int threads : threads_sweep) {
      // threads passes through untouched: 1 is the serial reference, <= 0
      // means one shard per hardware thread (MvIndexBuildOptions semantics);
      // the reported thread count is the shards actually used.
      const BuildResult r = BuildRepeated(authors, threads);
      const bool is_ref = (threads == 1);
      if (is_ref) {
        serial = r;
        ref = &serial;
      }
      ReportCell(authors, r.stats.shards, r, is_ref ? nullptr : ref, is_ref);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace mvdb

int main(int argc, char** argv) {
  std::vector<int> authors;
  std::vector<int> threads;
  auto parse_thread_list = [&threads](const char* p) {
    while (*p != '\0') {
      threads.push_back(std::atoi(p));
      while (*p != '\0' && *p != ',') ++p;
      if (*p == ',') ++p;
    }
  };
  bool scale_sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      parse_thread_list(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc &&
               argv[i + 1][0] != '-') {
      parse_thread_list(argv[++i]);
    } else if (std::strcmp(argv[i], "--scale-sweep") == 0) {
      scale_sweep = true;
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      mvdb::bench::g_repeat = std::atoi(argv[i] + 9);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc &&
               argv[i + 1][0] != '-') {
      mvdb::bench::g_repeat = std::atoi(argv[++i]);
    } else if (argv[i][0] != '-') {
      authors.push_back(std::atoi(argv[i]));
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: bench_build_scale [authors ...] "
                   "[--threads=1,2,4] [--scale-sweep] [--repeat N]\n",
                   argv[i]);
      return 2;
    }
  }
  if (scale_sweep) {
    // The 1M-author trajectory (ROADMAP): half-decade steps up to 500K.
    // Explicitly listed author counts take precedence over the preset.
    if (authors.empty()) {
      authors = {10000, 50000, 100000, 200000, 500000};
    } else {
      std::fprintf(stderr,
                   "note: explicit author counts given; ignoring the "
                   "--scale-sweep preset scales\n");
    }
    if (threads.empty()) threads = {1, 4};
  }
  if (authors.empty()) authors = {10000, 50000};
  if (threads.empty()) threads = {1, 2, 4};
  if (mvdb::bench::g_repeat < 1) mvdb::bench::g_repeat = 1;
  mvdb::bench::PrintFigureHeader(
      "Build scale", "sharded MV-index compilation, authors x threads");
  mvdb::bench::RunSweep(authors, threads);
  // Scripted acceptance runs gate on the exit code, not on scraping the
  // parity column.
  return mvdb::bench::g_parity_failed ? 1 : 0;
}

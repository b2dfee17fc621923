// End-to-end golden test for the offline pipeline: a 2K-author DBLP build
// (generate -> translate -> order -> partition -> compile -> stitch ->
// import) pins an FNV hash of the compiled flat MV-index — node-by-node
// topology, block layout, and the extended-range P0(NOT W) — so any
// front-end refactor that silently changes the output fails tier-1 instead
// of skewing every benchmark. The same hash must come out of every thread
// count: the whole pipeline is required to be bit-identical under
// parallelism.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "test_util.h"

namespace mvdb {
namespace {

using testing_util::HashIndex;

uint64_t BuildAndHash(int threads) {
  dblp::DblpConfig cfg;
  cfg.num_authors = 2000;
  cfg.include_affiliation = true;
  cfg.num_threads = threads;
  auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
  MVDB_CHECK(mvdb.ok());
  QueryEngine engine(mvdb->get());
  CompileOptions opts;
  opts.num_threads = threads;
  MVDB_CHECK(engine.Compile(opts).ok());
  return HashIndex(engine.index());
}

TEST(PipelineGoldenTest, TwoKAuthorBuildMatchesGoldenForEveryThreadCount) {
  // If an intentional pipeline change moves this value, re-pin it and
  // expect every DBLP-derived benchmark and the 1M-author trajectory
  // numbers to shift with it.
  constexpr uint64_t kGolden = 5664119462779828691ULL;
  EXPECT_EQ(BuildAndHash(1), kGolden);
  EXPECT_EQ(BuildAndHash(2), kGolden);
  EXPECT_EQ(BuildAndHash(8), kGolden);
}

}  // namespace
}  // namespace mvdb

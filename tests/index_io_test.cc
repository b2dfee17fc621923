// Round-trip battery for the persistent MV-index format (mvindex/index_io):
// Save -> Load and Save -> LoadMapped must reproduce the compiled index BIT
// FOR BIT — flat topology, block directory, every extended-range
// probability — and an engine stood up from the file (OpenIndex) must serve
// the exact answer bits of the engine that built the index, at any worker
// count. Two golden hashes pin this against the rest of the suite: the
// DBLP-400 serving reference (serve_concurrency_test) and the 2K-author
// pipeline hash (pipeline_golden_test). A fork-based test proves two
// processes can map one index file simultaneously and answer identically.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "mvindex/index_io.h"
#include "mvindex/mv_index.h"
#include "query/eval.h"
#include "serve/server.h"
#include "test_util.h"
#include "util/scaled_double.h"

namespace mvdb {
namespace {

using testing_util::HashAnswers;
using testing_util::HashIndex;
using testing_util::HashScaledBits;

double ClampProb(double p) {
  if (p < 0.0 && p > -1e-9) return 0.0;
  if (p > 1.0 && p < 1.0 + 1e-9) return 1.0;
  return p;
}

/// Golden hash of the DBLP-400 serial reference answers — the same value
/// serve_concurrency_test pins for the engine that BUILT its index. The
/// loaded index must reproduce it exactly.
constexpr uint64_t kGoldenAnswers = 9734561884288702949ULL;

std::unique_ptr<Mvdb> BuildDblp400() {
  dblp::DblpConfig cfg;
  cfg.num_authors = 400;
  cfg.include_affiliation = true;
  auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
  MVDB_CHECK(mvdb.ok());
  return std::move(mvdb).value();
}

/// The serve_concurrency_test query mix against a given (translated) MVDB.
std::vector<Ucq> BuildQueries(Mvdb* mvdb) {
  std::vector<Ucq> queries;
  const Table* advisor = mvdb->db().Find("Advisor");
  MVDB_CHECK(advisor != nullptr && advisor->size() >= 6);
  const size_t stride = advisor->size() / 6;
  for (size_t i = 0; i < 6; ++i) {
    const Value senior = advisor->At(static_cast<RowId>(i * stride), 1);
    queries.push_back(dblp::StudentsOfAdvisorQuery(
        mvdb, dblp::AuthorName(static_cast<int>(senior))));
  }
  const Table* aff = mvdb->db().Find("Affiliation");
  MVDB_CHECK(aff != nullptr && aff->size() >= 3);
  for (size_t i = 0; i < 3; ++i) {
    const Value aid = aff->At(static_cast<RowId>(i), 0);
    queries.push_back(dblp::AffiliationOfAuthorQuery(
        mvdb, dblp::AuthorName(static_cast<int>(aid))));
  }
  queries.push_back(dblp::StudentsOfAdvisorQuery(mvdb, "no-such-author"));
  return queries;
}

/// Serial first-principles answers (Eval + fresh-manager synthesis + solo
/// CC sweep) over whichever index `engine` holds — built or loaded.
std::vector<std::vector<AnswerProb>> SerialReference(
    Mvdb* mvdb, QueryEngine* engine, const std::vector<Ucq>& queries) {
  std::vector<std::vector<AnswerProb>> reference;
  const MvIndex& index = engine->index();
  const ScaledDouble denom = index.ProbNotWScaled();
  CcSweepScratch scratch;
  for (const Ucq& q : queries) {
    AnswerMap answers;
    MVDB_CHECK(Eval(mvdb->db(), q, EvalOptions{}, &answers).ok());
    BddManager qmgr(index.manager().order());
    std::vector<AnswerProb> out;
    for (const auto& [head, info] : answers) {
      const NodeId root = qmgr.FromLineageSynthesis(info.lineage);
      const ScaledDouble num =
          index.CCMVIntersectScaled(CcQuery{&qmgr, root}, &scratch);
      out.push_back(AnswerProb{head, ClampProb((num / denom).ToDouble())});
    }
    reference.push_back(std::move(out));
  }
  return reference;
}

/// Builds DBLP-400, compiles, saves — once for the whole suite.
struct SavedWorkload {
  std::unique_ptr<Mvdb> mvdb;
  std::unique_ptr<QueryEngine> engine;
  std::string path;
  uint64_t built_index_hash = 0;
  uint64_t built_scaled_hash = 0;
};

SavedWorkload& Saved() {
  static SavedWorkload* shared = [] {
    auto* s = new SavedWorkload();
    s->mvdb = BuildDblp400();
    s->engine = std::make_unique<QueryEngine>(s->mvdb.get());
    MVDB_CHECK(s->engine->Compile().ok());
    s->path = ::testing::TempDir() + "/dblp400.mvidx";
    MVDB_CHECK(s->engine->SaveIndex(s->path).ok());
    s->built_index_hash = HashIndex(s->engine->index());
    s->built_scaled_hash = HashScaledBits(s->engine->index());
    return s;
  }();
  return *shared;
}

TEST(IndexIoTest, FormatVersionIsPinned) {
  // A bump invalidates every saved index; CI's golden-artifact cache keys
  // on this value. Bump deliberately, never accidentally. v3: probUnder
  // became block-local and the header grew the annotation-scheme tag;
  // older files are rejected and rebuilt from the database.
  EXPECT_EQ(kIndexFormatVersion, 3u);
}

TEST(IndexIoTest, RoundTripReproducesIndexBitsOwnedAndMapped) {
  SavedWorkload& s = Saved();
  BddManager mgr(s.engine->manager().order());

  auto owned = MvIndex::Load(s.path, &mgr);
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  EXPECT_FALSE((*owned)->flat().mapped());
  EXPECT_EQ(HashIndex(**owned), s.built_index_hash);
  EXPECT_EQ(HashScaledBits(**owned), s.built_scaled_hash);

  auto mapped = MvIndex::LoadMapped(s.path, &mgr);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE((*mapped)->flat().mapped());
  EXPECT_EQ(HashIndex(**mapped), s.built_index_hash);
  EXPECT_EQ(HashScaledBits(**mapped), s.built_scaled_hash);

  // The full integrity pass holds for a freshly written file.
  auto reader = IndexFileReader::OpenMapped(s.path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->VerifyChecksums().ok());
  EXPECT_EQ(reader->header().num_nodes, s.engine->index().flat().size());
  EXPECT_EQ(reader->header().num_blocks, s.engine->index().blocks().size());
}

TEST(IndexIoTest, OpenIndexServesGoldenAnswerBits) {
  SavedWorkload& s = Saved();
  // A fresh process's view: new MVDB instance (same deterministic
  // generator), engine stood up from the file alone.
  for (const bool mapped : {true, false}) {
    auto mvdb = BuildDblp400();
    QueryEngine engine(mvdb.get());
    QueryEngine::OpenIndexOptions opts;
    opts.mapped = mapped;
    ASSERT_TRUE(engine.OpenIndex(s.path, opts).ok()) << "mapped=" << mapped;
    ASSERT_TRUE(engine.compiled());
    const std::vector<Ucq> queries = BuildQueries(mvdb.get());
    const auto reference = SerialReference(mvdb.get(), &engine, queries);
    EXPECT_EQ(HashAnswers(reference), kGoldenAnswers) << "mapped=" << mapped;
  }
}

TEST(IndexIoTest, LoadedIndexServesBitIdenticallyAtEveryWorkerCount) {
  SavedWorkload& s = Saved();
  auto mvdb = BuildDblp400();
  QueryEngine engine(mvdb.get());
  ASSERT_TRUE(engine.OpenIndex(s.path).ok());
  const std::vector<Ucq> queries = BuildQueries(mvdb.get());
  const auto reference = SerialReference(mvdb.get(), &engine, queries);
  ASSERT_EQ(HashAnswers(reference), kGoldenAnswers);

  for (const int workers : {1, 2, 8}) {
    ServeOptions opts;
    opts.num_threads = workers;
    auto server = engine.Serve(opts);
    ASSERT_TRUE(server.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      ServeRequest req;
      req.query = queries[i];
      const ServeResult res = (*server)->Submit(req).get();
      ASSERT_TRUE(res.status.ok()) << res.status.ToString();
      ASSERT_EQ(res.answers.size(), reference[i].size());
      for (size_t j = 0; j < res.answers.size(); ++j) {
        EXPECT_EQ(res.answers[j].head, reference[i][j].head);
        EXPECT_EQ(std::memcmp(&res.answers[j].prob, &reference[i][j].prob,
                              sizeof(double)),
                  0)
            << "workers=" << workers << " query=" << i;
      }
    }
    (*server)->Shutdown();
  }
}

TEST(IndexIoTest, ObddReuseBackendWorksViaLazyChainImport) {
  SavedWorkload& s = Saved();
  auto mvdb = BuildDblp400();
  QueryEngine engine(mvdb.get());
  ASSERT_TRUE(engine.OpenIndex(s.path).ok());
  EXPECT_FALSE(engine.index().chain_imported());
  const std::vector<Ucq> queries = BuildQueries(mvdb.get());
  // kObddReuse needs the manager-side chain; the engine must import it on
  // first use and then agree with the CC backend.
  auto reuse = engine.Query(queries[0], Backend::kObddReuse);
  ASSERT_TRUE(reuse.ok()) << reuse.status().ToString();
  EXPECT_TRUE(engine.index().chain_imported());
  auto cc = engine.Query(queries[0], Backend::kMvIndexCC);
  ASSERT_TRUE(cc.ok());
  ASSERT_EQ(reuse->size(), cc->size());
  for (size_t j = 0; j < reuse->size(); ++j) {
    EXPECT_EQ((*reuse)[j].head, (*cc)[j].head);
    EXPECT_NEAR((*reuse)[j].prob, (*cc)[j].prob, 1e-9);
  }
}

TEST(IndexIoTest, TwoProcessesShareOneMappedIndexAndAnswerIdentically) {
  SavedWorkload& s = Saved();
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: map the same file (MAP_SHARED pages come from the same page
    // cache as the parent's), serve, ship the answer hash back.
    close(fds[0]);
    uint64_t hash = 0;
    {
      auto mvdb = BuildDblp400();
      QueryEngine engine(mvdb.get());
      if (engine.OpenIndex(s.path).ok()) {
        const std::vector<Ucq> queries = BuildQueries(mvdb.get());
        hash = HashAnswers(SerialReference(mvdb.get(), &engine, queries));
      }
    }
    ssize_t written = write(fds[1], &hash, sizeof(hash));
    close(fds[1]);
    _exit(written == sizeof(hash) ? 0 : 1);
  }
  close(fds[1]);
  // Parent: map concurrently (both mappings alive at once), then compare.
  auto mvdb = BuildDblp400();
  QueryEngine engine(mvdb.get());
  ASSERT_TRUE(engine.OpenIndex(s.path).ok());
  const std::vector<Ucq> queries = BuildQueries(mvdb.get());
  const uint64_t parent_hash =
      HashAnswers(SerialReference(mvdb.get(), &engine, queries));

  uint64_t child_hash = 0;
  ASSERT_EQ(read(fds[0], &child_hash, sizeof(child_hash)),
            static_cast<ssize_t>(sizeof(child_hash)));
  close(fds[0]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(parent_hash, kGoldenAnswers);
  EXPECT_EQ(child_hash, kGoldenAnswers);
}

TEST(IndexIoTest, WrongOrderManagerIsRejected) {
  SavedWorkload& s = Saved();
  // A manager over the same variables in a different permutation: digest
  // check must refuse (the flat ids would be meaningless against it).
  std::vector<VarId> reversed(s.engine->manager().order()->vars());
  std::reverse(reversed.begin(), reversed.end());
  BddManager wrong(std::move(reversed));
  auto loaded = MvIndex::LoadMapped(s.path, &wrong);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(IndexIoTest, MissingFileIsNotFound) {
  SavedWorkload& s = Saved();
  BddManager mgr(s.engine->manager().order());
  const std::string missing = ::testing::TempDir() + "/no-such-index.mvidx";
  auto owned = MvIndex::Load(missing, &mgr);
  ASSERT_FALSE(owned.ok());
  EXPECT_EQ(owned.status().code(), StatusCode::kNotFound);
  auto mapped = MvIndex::LoadMapped(missing, &mgr);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kNotFound);
}

TEST(IndexIoTest, ScaledDoubleRawWordsRoundTripExactly) {
  // The serialization primitive itself, on values double IO would mangle:
  // extreme exponents (outside double range), negatives (Section 3.3
  // weights), zero, and values with full mantissa entropy.
  const ScaledDouble cases[] = {
      ScaledDouble::Zero(),
      ScaledDouble::One(),
      ScaledDouble(0.1) * ScaledDouble(1e300) * ScaledDouble(1e300),
      ScaledDouble(-0.7) / (ScaledDouble(1e308) * ScaledDouble(1e308)),
      ScaledDouble(1.0) - ScaledDouble(1e-17),
      ScaledDouble(-3.14159265358979312),
  };
  for (const ScaledDouble& v : cases) {
    const ScaledDouble back = ScaledDouble::FromRaw(v.mantissa_bits(),
                                                    v.exponent_word());
    EXPECT_EQ(back.mantissa_bits(), v.mantissa_bits());
    EXPECT_EQ(back.exponent_word(), v.exponent_word());
    EXPECT_TRUE(back == v);
  }
}

TEST(IndexIoTest, PipelineGoldenSurvivesRoundTrip) {
  // The 2K-author pipeline hash (pipeline_golden_test) must come out of a
  // save/load cycle unchanged — the strongest whole-image pin we have.
  constexpr uint64_t kPipelineGolden = 5664119462779828691ULL;
  dblp::DblpConfig cfg;
  cfg.num_authors = 2000;
  cfg.include_affiliation = true;
  auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
  ASSERT_TRUE(mvdb.ok());
  QueryEngine engine(mvdb->get());
  ASSERT_TRUE(engine.Compile().ok());
  ASSERT_EQ(HashIndex(engine.index()), kPipelineGolden);

  const std::string path = ::testing::TempDir() + "/dblp2k.mvidx";
  ASSERT_TRUE(engine.SaveIndex(path).ok());
  BddManager mgr(engine.manager().order());
  auto owned = MvIndex::Load(path, &mgr);
  ASSERT_TRUE(owned.ok());
  EXPECT_EQ(HashIndex(**owned), kPipelineGolden);
  auto mapped = MvIndex::LoadMapped(path, &mgr);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(HashIndex(**mapped), kPipelineGolden);
}

}  // namespace
}  // namespace mvdb

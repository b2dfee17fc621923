// Differential battery for incremental MV-index maintenance (ISSUE 9).
//
// The non-negotiable invariant: QueryEngine::ApplyDelta over a compiled
// index must leave the engine BIT-IDENTICAL to a from-scratch Compile over
// the identically mutated MVDB — same variable order, same flat chain
// annotations, same block directory, same answer bits — at every compile
// thread count. Weight-only deltas (updates / tombstone deletes) exercise
// the in-place annotation repair (MvIndex::ApplyWeightDelta); inserts
// exercise the structural path (order splice + dirty-block recompile +
// re-stitch, MvIndex::ApplyStructuralDelta). A golden hash pins the
// post-delta index against silent drift, and a Save -> ApplyDelta ->
// PatchFile -> OpenIndex(mapped) round trip proves the persisted image
// follows the in-memory index bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/mvdb.h"
#include "dblp/dblp.h"
#include "mvindex/mv_index.h"
#include "mvindex/partition.h"
#include "query/eval.h"
#include "relational/database.h"
#include "test_util.h"
#include "util/scaled_double.h"

namespace mvdb {
namespace {

using testing_util::HashAnswers;
using testing_util::HashIndex;
using testing_util::HashScaledBits;

std::unique_ptr<Mvdb> BuildDblp(int authors) {
  dblp::DblpConfig cfg;
  cfg.num_authors = authors;
  cfg.include_affiliation = true;
  auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
  MVDB_CHECK(mvdb.ok());
  return std::move(mvdb).value();
}

/// The delta workload, phrased as plain values so the identical op list
/// applies to independently built MVDB instances (the generator is
/// deterministic, so both sides hold the same rows and dictionary ids).
struct DeltaWorkload {
  std::vector<DeltaOp> weight_ops;      ///< updates + tombstone deletes
  std::vector<DeltaOp> structural_ops;  ///< base-tuple inserts
};

DeltaOp Op(DeltaOp::Kind kind, const std::string& table,
           std::vector<Value> values, double weight = 1.0) {
  DeltaOp op;
  op.kind = kind;
  op.table = table;
  op.values = std::move(values);
  op.weight = weight;
  return op;
}

/// Deterministic mixed workload over an (untranslated is fine) DBLP MVDB:
/// strided weight moves and tombstones across all three probabilistic
/// relations, then inserts that hit both structural flavors — a brand-new
/// separator value (fresh block) and new tuples under existing separator
/// values (dirty-block recompiles, including new V2 denial heads through
/// the view-maintenance path).
DeltaWorkload BuildWorkload(const Database& db) {
  DeltaWorkload wl;
  const Table* student = db.Find("Student");
  const Table* advisor = db.Find("Advisor");
  const Table* affiliation = db.Find("Affiliation");
  MVDB_CHECK(student != nullptr && student->size() >= 8);
  MVDB_CHECK(advisor != nullptr && advisor->size() >= 8);
  MVDB_CHECK(affiliation != nullptr && affiliation->size() >= 4);

  auto row_of = [](const Table* t, size_t r) {
    std::vector<Value> v;
    for (size_t c = 0; c < t->arity(); ++c) {
      v.push_back(t->At(static_cast<RowId>(r), c));
    }
    return v;
  };

  // Weight moves: three strided Student rows, two Advisor rows, one
  // Affiliation row, with distinct new weights.
  const size_t s_stride = student->size() / 4;
  for (size_t i = 0; i < 3; ++i) {
    wl.weight_ops.push_back(Op(DeltaOp::Kind::kUpdateWeight, "Student",
                               row_of(student, i * s_stride),
                               0.5 + 0.75 * static_cast<double>(i)));
  }
  const size_t a_stride = advisor->size() / 3;
  for (size_t i = 0; i < 2; ++i) {
    wl.weight_ops.push_back(Op(DeltaOp::Kind::kUpdateWeight, "Advisor",
                               row_of(advisor, i * a_stride),
                               3.25 - static_cast<double>(i)));
  }
  wl.weight_ops.push_back(Op(DeltaOp::Kind::kUpdateWeight, "Affiliation",
                             row_of(affiliation, 1), 1.75));
  // Tombstones: delete one Student and one Advisor tuple (weight -> 0; the
  // tuples stay in I_poss, so view weights and W's shape are untouched).
  wl.weight_ops.push_back(
      Op(DeltaOp::Kind::kDelete, "Student", row_of(student, s_stride + 1)));
  wl.weight_ops.push_back(
      Op(DeltaOp::Kind::kDelete, "Advisor", row_of(advisor, a_stride + 1)));

  // Inserts. A Student under an aid no probabilistic relation has seen
  // forces a brand-new separator value; a second advisor for an existing
  // advisee creates new V2 denial heads (weight-0 view tuples, no NV rows)
  // inside existing blocks.
  const Value fresh_aid = testing_util::FreshAid(db);
  wl.structural_ops.push_back(
      Op(DeltaOp::Kind::kInsert, "Student", {fresh_aid, 2001}, 0.8));

  const Value advisee = advisor->At(0, 0);
  const Value old_advisor = advisor->At(0, 1);
  Value second_advisor = old_advisor;
  for (size_t r = 0; r < advisor->size() && second_advisor == old_advisor;
       ++r) {
    const Value cand = advisor->At(static_cast<RowId>(r), 1);
    if (cand != old_advisor) second_advisor = cand;
  }
  MVDB_CHECK(second_advisor != old_advisor);
  wl.structural_ops.push_back(Op(DeltaOp::Kind::kInsert, "Advisor",
                                 {advisee, second_advisor}, 1.4));
  // And one more weight move in the same structural batch, so the batch
  // exercises the mixed path (recompile covers the moved weights too).
  wl.structural_ops.push_back(Op(DeltaOp::Kind::kUpdateWeight, "Student",
                                 row_of(student, 2 * s_stride + 1), 2.5));
  return wl;
}

std::vector<Ucq> BuildQueries(Mvdb* mvdb) {
  std::vector<Ucq> queries;
  const Table* advisor = mvdb->db().Find("Advisor");
  MVDB_CHECK(advisor != nullptr && advisor->size() >= 4);
  const size_t stride = advisor->size() / 4;
  for (size_t i = 0; i < 4; ++i) {
    const Value senior = advisor->At(static_cast<RowId>(i * stride), 1);
    queries.push_back(dblp::StudentsOfAdvisorQuery(
        mvdb, dblp::AuthorName(static_cast<int>(senior))));
  }
  const Table* aff = mvdb->db().Find("Affiliation");
  MVDB_CHECK(aff != nullptr && aff->size() >= 2);
  queries.push_back(dblp::AffiliationOfAuthorQuery(
      mvdb, dblp::AuthorName(static_cast<int>(aff->At(0, 0)))));
  return queries;
}

std::vector<std::vector<AnswerProb>> Answers(QueryEngine* engine,
                                             const std::vector<Ucq>& queries) {
  std::vector<std::vector<AnswerProb>> out;
  for (const Ucq& q : queries) {
    auto a = engine->Query(q, Backend::kMvIndexCC);
    MVDB_CHECK(a.ok()) << a.status().ToString();
    out.push_back(std::move(a).value());
  }
  return out;
}

/// Translate exactly the way QueryEngine::Compile(opts) would, so the
/// reference rebuild shares every front-end bit with the incremental side.
void TranslateLikeCompile(Mvdb* mvdb) {
  TranslateOptions topts;
  const CompileOptions copts;
  topts.num_threads = copts.num_threads;
  MVDB_CHECK(mvdb->Translate(topts).ok());
}

/// From-scratch reference: fresh MVDB, same deltas applied through the same
/// Mvdb maintenance path, then a cold Compile at `num_threads`.
struct Reference {
  std::unique_ptr<Mvdb> mvdb;
  std::unique_ptr<QueryEngine> engine;
};

Reference BuildReference(int authors, const std::vector<DeltaOp>& ops,
                         int num_threads) {
  Reference ref;
  ref.mvdb = BuildDblp(authors);
  TranslateLikeCompile(ref.mvdb.get());
  DeltaEffects effects;
  MVDB_CHECK(ref.mvdb->ApplyBaseDelta(ops, &effects).ok());
  ref.engine = std::make_unique<QueryEngine>(ref.mvdb.get());
  CompileOptions copts;
  copts.num_threads = num_threads;
  MVDB_CHECK(ref.engine->Compile(copts).ok());
  return ref;
}

constexpr int kAuthors = 300;

/// Golden post-delta digests: the full workload (weight batch + structural
/// batch) applied incrementally to the compiled DBLP-300 index. Pins the
/// maintenance output against silent drift; the differential assertions
/// below prove it equals a from-scratch rebuild.
constexpr uint64_t kGoldenIndexHash = 10882744800569622648ULL;
constexpr uint64_t kGoldenAnswerHash = 3048997045620430114ULL;

TEST(DeltaMaintenanceTest, IncrementalEqualsRebuildBitIdentically) {
  auto mvdb = BuildDblp(kAuthors);
  QueryEngine engine(mvdb.get());
  ASSERT_TRUE(engine.Compile().ok());
  const DeltaWorkload wl = BuildWorkload(mvdb->db());

  // Weight-only batch: in-place annotation repair.
  ASSERT_TRUE(engine.ApplyDelta(wl.weight_ops).ok());
  {
    Reference ref = BuildReference(kAuthors, wl.weight_ops, 1);
    EXPECT_EQ(HashIndex(engine.index()), HashIndex(ref.engine->index()));
    EXPECT_EQ(HashScaledBits(engine.index()),
              HashScaledBits(ref.engine->index()));
  }

  // Structural batch on top: order splice + dirty-block recompile.
  ASSERT_TRUE(engine.ApplyDelta(wl.structural_ops).ok());

  std::vector<DeltaOp> all_ops = wl.weight_ops;
  all_ops.insert(all_ops.end(), wl.structural_ops.begin(),
                 wl.structural_ops.end());
  const uint64_t index_hash = HashIndex(engine.index());
  const uint64_t scaled_hash = HashScaledBits(engine.index());
  const auto queries = BuildQueries(mvdb.get());
  const uint64_t answer_hash = HashAnswers(Answers(&engine, queries));

  // The incremental result must match a cold rebuild at EVERY thread count
  // (builds are thread-count-invariant; the splice must preserve that).
  for (const int threads : {1, 2, 8, 0}) {
    Reference ref = BuildReference(kAuthors, all_ops, threads);
    EXPECT_EQ(engine.manager().order()->vars(),
              ref.engine->manager().order()->vars())
        << "spliced variable order diverges at num_threads=" << threads;
    EXPECT_EQ(index_hash, HashIndex(ref.engine->index()))
        << "flat chain diverges at num_threads=" << threads;
    EXPECT_EQ(scaled_hash, HashScaledBits(ref.engine->index()))
        << "annotations diverge at num_threads=" << threads;
    EXPECT_EQ(answer_hash, HashAnswers(Answers(ref.engine.get(), queries)))
        << "answer bits diverge at num_threads=" << threads;
  }

  EXPECT_EQ(index_hash, kGoldenIndexHash);
  EXPECT_EQ(answer_hash, kGoldenAnswerHash);
}

TEST(DeltaMaintenanceTest, StructuralInsertRecompilesOnlyDirtyTasks) {
  // One Student insert under a brand-new aid. A clean task's query and data
  // are unchanged, so the delta recompiles only the tasks its touched tuples
  // name — never the clean tasks absent from the chain (NOT W_b true), of
  // which DBLP-300 has ~250.
  const std::vector<DeltaOp> ops = {
      BuildWorkload(BuildDblp(kAuthors)->db()).structural_ops.front()};
  ASSERT_EQ(ops[0].table, "Student");
  ASSERT_EQ(ops[0].kind, DeltaOp::Kind::kInsert);

  auto mvdb = BuildDblp(kAuthors);
  QueryEngine engine(mvdb.get());
  ASSERT_TRUE(engine.Compile().ok());
  ASSERT_TRUE(engine.ApplyDelta(ops).ok());

  // The dirty keys, derived the way the engine derives them, on an
  // identically mutated twin that then serves as the rebuild reference.
  Reference ref;
  ref.mvdb = BuildDblp(kAuthors);
  TranslateLikeCompile(ref.mvdb.get());
  DeltaEffects effects;
  ASSERT_TRUE(ref.mvdb->ApplyBaseDelta(ops, &effects).ok());
  const Database& db = ref.mvdb->db();
  std::vector<TupleRef> touched;
  for (const VarId v : effects.new_vars) touched.push_back(db.var_tuple(v));
  for (const VarId v : effects.changed_weight_vars) {
    touched.push_back(db.var_tuple(v));
  }
  auto is_prob = [&db](const std::string& rel) {
    const Table* t = db.Find(rel);
    return t != nullptr && t->probabilistic();
  };
  const auto dirty = DirtyBlockKeys(db, ref.mvdb->W(), is_prob, touched);
  ASSERT_FALSE(dirty.empty());
  EXPECT_LE(engine.index().build_stats().template_blocks, dirty.size());

  ref.engine = std::make_unique<QueryEngine>(ref.mvdb.get());
  ASSERT_TRUE(ref.engine->Compile().ok());
  EXPECT_EQ(HashIndex(engine.index()), HashIndex(ref.engine->index()));
  EXPECT_EQ(HashScaledBits(engine.index()), HashScaledBits(ref.engine->index()));
}

TEST(DeltaMaintenanceTest, WeightDeltaSurvivesPatchFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/delta_patch.mvidx";
  auto mvdb = BuildDblp(kAuthors);
  QueryEngine engine(mvdb.get());
  ASSERT_TRUE(engine.Compile().ok());
  ASSERT_TRUE(engine.SaveIndex(path).ok());

  const DeltaWorkload wl = BuildWorkload(mvdb->db());
  ASSERT_TRUE(engine.ApplyDelta(wl.weight_ops).ok());
  ASSERT_TRUE(engine.index().PatchFile(path).ok());

  // A second MVDB with the same deltas opens the patched file mapped: the
  // marginal binding gate passes only because the patch moved the level
  // probabilities, and the served image must match the in-memory index bit
  // for bit.
  auto mvdb2 = BuildDblp(kAuthors);
  TranslateLikeCompile(mvdb2.get());
  DeltaEffects effects;
  ASSERT_TRUE(mvdb2->ApplyBaseDelta(wl.weight_ops, &effects).ok());
  QueryEngine loaded(mvdb2.get());
  ASSERT_TRUE(loaded.OpenIndex(path).ok());
  EXPECT_EQ(HashIndex(engine.index()), HashIndex(loaded.index()));
  EXPECT_EQ(HashScaledBits(engine.index()), HashScaledBits(loaded.index()));

  const auto queries = BuildQueries(mvdb.get());
  EXPECT_EQ(HashAnswers(Answers(&engine, queries)),
            HashAnswers(Answers(&loaded, queries)));

  // A STALE database (no deltas applied) must be rejected by the marginal
  // binding gate — the patched file no longer describes it.
  auto mvdb3 = BuildDblp(kAuthors);
  QueryEngine stale(mvdb3.get());
  const Status st = stale.OpenIndex(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(DeltaMaintenanceTest, CrashedPatchIsRejectedUntilRepatched) {
  const std::string path = ::testing::TempDir() + "/delta_crash.mvidx";
  auto mvdb = BuildDblp(120);
  QueryEngine engine(mvdb.get());
  ASSERT_TRUE(engine.Compile().ok());
  ASSERT_TRUE(engine.SaveIndex(path).ok());
  const DeltaWorkload wl = BuildWorkload(mvdb->db());
  ASSERT_TRUE(engine.ApplyDelta(wl.weight_ops).ok());

  BddManager probe(engine.manager().order()->vars());

  // Crash right after the durable dirty mark: payloads are the OLD bits,
  // but the dirty flag makes both loaders refuse — never torn data.
  IndexPatchOptions crash1;
  crash1.crash_after_dirty_mark = true;
  ASSERT_TRUE(engine.index().PatchFile(path, crash1).ok());
  EXPECT_EQ(MvIndex::Load(path, &probe).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(MvIndex::LoadMapped(path, &probe).status().code(),
            StatusCode::kFailedPrecondition);

  // Crash after the payload rewrite but before the clean header: the
  // payloads are complete, yet the file still reads as dirty.
  IndexPatchOptions crash2;
  crash2.crash_after_payload = true;
  ASSERT_TRUE(engine.index().PatchFile(path, crash2).ok());
  EXPECT_EQ(MvIndex::Load(path, &probe).status().code(),
            StatusCode::kFailedPrecondition);

  // Re-running the full patch over the crashed file recovers it, and the
  // recovered image equals the in-memory post-delta index bit for bit.
  ASSERT_TRUE(engine.index().PatchFile(path).ok());
  auto recovered = MvIndex::Load(path, &probe);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(HashIndex(engine.index()), HashIndex(**recovered));
  EXPECT_EQ(HashScaledBits(engine.index()), HashScaledBits(**recovered));
}

/// The block owning the chain nodes on `level` (the directory entry whose
/// slice holds its first node), or none when no chain node branches on it.
std::optional<size_t> DirtyBlockOf(const MvIndex& index, int32_t level) {
  const auto [begin, end] = index.flat().NodesAtLevel(level);
  if (begin == end) return std::nullopt;
  const std::vector<MvBlock>& blocks = index.blocks();
  size_t b = 0;
  while (b + 1 < blocks.size() && blocks[b + 1].chain_root <= begin) ++b;
  return b;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(DeltaMaintenanceTest, PatchTrackingIsBoundedAndDistinct) {
  auto mvdb = BuildDblp(400);
  QueryEngine engine(mvdb.get());
  ASSERT_TRUE(engine.Compile().ok());
  const Table* student = mvdb->db().Find("Student");
  ASSERT_NE(student, nullptr);
  // Student rows with chain nodes, so every delta repairs a block.
  std::vector<RowId> rows;
  for (size_t r = 0; r < student->size(); ++r) {
    const VarId v = student->var(static_cast<RowId>(r));
    if (engine.manager().has_var(v) &&
        DirtyBlockOf(engine.index(), engine.manager().level_of_var(v))) {
      rows.push_back(static_cast<RowId>(r));
    }
  }
  ASSERT_GE(rows.size(), 20u);
  auto values_of = [&](RowId r) {
    std::vector<Value> v;
    for (size_t c = 0; c < student->arity(); ++c) v.push_back(student->At(r, c));
    return v;
  };
  double weight = 0.5;
  auto move = [&](RowId r) {
    weight += 0.001;
    return engine.ApplyDelta(
        {Op(DeltaOp::Kind::kUpdateWeight, "Student", values_of(r), weight)});
  };

  // Never saved: PatchFile would rewrite whole sections, so 1,000 deltas
  // must leave nothing tracked.
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(move(rows[i % rows.size()]).ok());
  }
  const MvIndexRepairStats& stats = engine.index().last_repair_stats();
  ASSERT_TRUE(stats.valid);
  EXPECT_EQ(stats.pending_patch_levels, 0u);
  EXPECT_EQ(stats.pending_patch_blocks, 0u);

  // Saved: the sets hold exactly the distinct levels and blocks changed
  // since, however often a row repeats.
  const std::string path = ::testing::TempDir() + "/delta_pending.mvidx";
  ASSERT_TRUE(engine.index().Save(path).ok());
  std::set<int32_t> levels;
  std::set<size_t> blocks;
  for (size_t k = 0; k < 60; ++k) {
    const RowId r = rows[(k * 7) % 20];
    ASSERT_TRUE(move(r).ok());
    const int32_t l = engine.manager().level_of_var(student->var(r));
    levels.insert(l);
    blocks.insert(*DirtyBlockOf(engine.index(), l));
  }
  EXPECT_EQ(stats.pending_patch_levels, levels.size());
  EXPECT_EQ(stats.pending_patch_blocks, blocks.size());

  // The slice patch leaves the file byte-identical to a fresh Save.
  ASSERT_TRUE(engine.index().PatchFile(path).ok());
  const std::string fresh = ::testing::TempDir() + "/delta_pending_fresh.mvidx";
  ASSERT_TRUE(engine.index().Save(fresh).ok());
  const std::string patched_bytes = FileBytes(path);
  ASSERT_FALSE(patched_bytes.empty());
  EXPECT_TRUE(patched_bytes == FileBytes(fresh));
  std::remove(path.c_str());
  std::remove(fresh.c_str());
}

}  // namespace
}  // namespace mvdb

// Copyright 2026 The MarkoView Authors.
//
// Shared helpers for the test suite: tiny databases, random lineages,
// random MVDB instances for the property tests, and the FNV-1a digests the
// golden hashes are pinned with.

#ifndef MVDB_TESTS_TEST_UTIL_H_
#define MVDB_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/mvdb.h"
#include "mvindex/mv_index.h"
#include "prob/lineage.h"
#include "query/eval.h"
#include "query/parser.h"
#include "relational/database.h"
#include "util/logging.h"
#include "util/rng.h"

namespace mvdb {
namespace testing_util {

/// Parses a UCQ or CHECK-fails (tests only).
inline Ucq MustParse(const std::string& text, Interner* dict) {
  auto result = ParseUcq(text, dict);
  MVDB_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// The running-example database of Fig. 3: R = {a1, a2} and
/// S = {(a1,b1), (a1,b2), (a2,b3), (a2,b4)}, all probabilistic.
/// Domain encoding: a1=1, a2=2, b1=11, b2=12, b3=13, b4=14.
inline std::unique_ptr<Database> Fig3Database(double weight = 1.0) {
  auto db = std::make_unique<Database>();
  MVDB_CHECK(db->CreateTable("R", {"a"}, true).ok());
  MVDB_CHECK(db->CreateTable("S", {"a", "b"}, true).ok());
  db->InsertProbabilistic("R", {1}, weight);
  db->InsertProbabilistic("R", {2}, weight);
  db->InsertProbabilistic("S", {1, 11}, weight);
  db->InsertProbabilistic("S", {1, 12}, weight);
  db->InsertProbabilistic("S", {2, 13}, weight);
  db->InsertProbabilistic("S", {2, 14}, weight);
  return db;
}

/// Random positive DNF over `num_vars` variables.
inline Lineage RandomLineage(Rng* rng, int num_vars, int num_clauses,
                             int max_clause_len) {
  Lineage lineage;
  for (int c = 0; c < num_clauses; ++c) {
    Clause clause;
    const int len = 1 + static_cast<int>(rng->Below(
                            static_cast<uint64_t>(max_clause_len)));
    for (int i = 0; i < len; ++i) {
      clause.push_back(static_cast<VarId>(rng->Below(
          static_cast<uint64_t>(num_vars))));
    }
    lineage.AddClause(clause);
  }
  lineage.Normalize();
  return lineage;
}

/// Random marginal probabilities; with `allow_negative`, a fraction lie
/// outside [0,1] to exercise Section 3.3.
inline std::vector<double> RandomProbs(Rng* rng, int num_vars,
                                       bool allow_negative = false) {
  std::vector<double> probs(static_cast<size_t>(num_vars));
  for (double& p : probs) {
    p = rng->Uniform();
    if (allow_negative && rng->Chance(0.3)) p = -rng->Uniform() * 2.0;
  }
  return probs;
}

/// A small random MVDB for the Theorem 1 property test: two probabilistic
/// relations R(x), S(x,y) over a tiny domain plus 1-2 MarkoViews with
/// weights drawn from {0, 0.4, 1, 2.5, 7}.
struct RandomMvdbSpec {
  int domain = 3;
  double denial_chance = 0.25;
  bool with_binary_view = true;
};

inline std::unique_ptr<Mvdb> RandomMvdb(Rng* rng, const RandomMvdbSpec& spec) {
  auto mvdb = std::make_unique<Mvdb>();
  Database& db = mvdb->db();
  MVDB_CHECK(db.CreateTable("R", {"x"}, true).ok());
  MVDB_CHECK(db.CreateTable("S", {"x", "y"}, true).ok());
  auto rand_weight = [&]() { return 0.2 + rng->Uniform() * 3.0; };
  for (int x = 1; x <= spec.domain; ++x) {
    if (rng->Chance(0.8)) db.InsertProbabilistic("R", {x}, rand_weight());
    for (int y = 1; y <= spec.domain; ++y) {
      if (rng->Chance(0.5)) db.InsertProbabilistic("S", {x, y}, rand_weight());
    }
  }
  auto view_weight = [&]() -> double {
    const double choices[] = {0.0, 0.4, 1.0, 2.5, 7.0};
    if (rng->Chance(spec.denial_chance)) return 0.0;
    return choices[1 + rng->Below(4)];
  };
  Ucq v1 = MustParse("V1(x) :- R(x), S(x,y).", &db.dict());
  MVDB_CHECK(mvdb->AddView(MarkoView::Constant("V1", std::move(v1),
                                               view_weight())).ok());
  if (spec.with_binary_view) {
    Ucq v2 = MustParse("V2(x,y) :- S(x,y), R(y).", &db.dict());
    MVDB_CHECK(mvdb->AddView(MarkoView::Constant("V2", std::move(v2),
                                                 view_weight())).ok());
  }
  return mvdb;
}

/// A DBLP author id that no Student or Advisor tuple mentions: inserting a
/// Student under it forces a brand-new separator value (a structural delta).
inline Value FreshAid(const Database& db) {
  const Table* student = db.Find("Student");
  const Table* advisor = db.Find("Advisor");
  MVDB_CHECK(student != nullptr && advisor != nullptr);
  Value aid = 0;
  for (size_t r = 0; r < student->size(); ++r) {
    aid = std::max(aid, student->At(static_cast<RowId>(r), 0));
  }
  for (size_t r = 0; r < advisor->size(); ++r) {
    aid = std::max(aid, advisor->At(static_cast<RowId>(r), 0));
    aid = std::max(aid, advisor->At(static_cast<RowId>(r), 1));
  }
  return aid + 1000;
}

/// One FNV-1a step (64-bit prime); digests start from 1469598103934665603.
inline void FnvMix(uint64_t v, uint64_t* h) {
  *h = (*h ^ v) * 1099511628211ULL;
}

inline uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Every answer's head values and probability bits, query by query: equal
/// digests mean bit-identical answers.
inline uint64_t HashAnswers(
    const std::vector<std::vector<AnswerProb>>& per_query) {
  uint64_t h = 1469598103934665603ULL;
  FnvMix(per_query.size(), &h);
  for (const auto& answers : per_query) {
    FnvMix(answers.size(), &h);
    for (const AnswerProb& a : answers) {
      for (const Value v : a.head) {
        FnvMix(static_cast<uint64_t>(static_cast<int64_t>(v)), &h);
      }
      FnvMix(DoubleBits(a.prob), &h);
    }
  }
  return h;
}

/// The full compiled index: flat topology (root, levels, edges), the block
/// directory (keys, chain roots, level ranges, probability bits), and
/// P0(NOT W).
inline uint64_t HashIndex(const MvIndex& index) {
  uint64_t h = 1469598103934665603ULL;
  const FlatObdd& flat = index.flat();
  FnvMix(static_cast<uint64_t>(static_cast<int64_t>(flat.root())), &h);
  FnvMix(flat.size(), &h);
  for (FlatId u = 0; u < static_cast<FlatId>(flat.size()); ++u) {
    FnvMix(static_cast<uint64_t>(static_cast<uint32_t>(flat.level(u))), &h);
    FnvMix(static_cast<uint64_t>(static_cast<uint32_t>(flat.lo(u))), &h);
    FnvMix(static_cast<uint64_t>(static_cast<uint32_t>(flat.hi(u))), &h);
  }
  FnvMix(index.blocks().size(), &h);
  for (size_t i = 0; i < index.blocks().size(); ++i) {
    const MvBlock& b = index.blocks()[i];
    for (char c : index.block_key(i)) FnvMix(static_cast<uint64_t>(c), &h);
    FnvMix(static_cast<uint64_t>(static_cast<uint32_t>(b.chain_root)), &h);
    FnvMix(static_cast<uint64_t>(static_cast<uint32_t>(b.first_level)), &h);
    FnvMix(static_cast<uint64_t>(static_cast<uint32_t>(b.last_level)), &h);
    FnvMix(DoubleBits(b.prob.ToDouble()), &h);
  }
  FnvMix(DoubleBits(index.ProbNotW()), &h);
  return h;
}

/// Raw bits of every ScaledDouble the index holds (probUnder annotations +
/// block probabilities): no mantissa bit may drift through a repair, a
/// save/load round trip, or a text conversion.
inline uint64_t HashScaledBits(const MvIndex& index) {
  uint64_t h = 1469598103934665603ULL;
  const FlatObdd& flat = index.flat();
  for (size_t i = 0; i < flat.size(); ++i) {
    const ScaledDouble pu = flat.prob_under_data()[i];
    FnvMix(pu.mantissa_bits(), &h);
    FnvMix(static_cast<uint64_t>(pu.exponent_word()), &h);
  }
  for (const MvBlock& b : index.blocks()) {
    FnvMix(b.prob.mantissa_bits(), &h);
    FnvMix(static_cast<uint64_t>(b.prob.exponent_word()), &h);
  }
  return h;
}

}  // namespace testing_util
}  // namespace mvdb

#endif  // MVDB_TESTS_TEST_UTIL_H_

// Tests for MV-index block metadata (the Inter/Intra index structures) and
// the ConOBDD construction counters that Figure 8 and Ablation A report.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "mvindex/mv_index.h"
#include "obdd/order.h"
#include "query/eval.h"
#include "test_util.h"

namespace mvdb {
namespace {

using testing_util::MustParse;

TEST(MvBlockTest, BlocksAreLevelOrderedAndDisjoint) {
  auto mvdb = dblp::BuildDblpMvdb(dblp::DblpConfig{.num_authors = 200}, nullptr);
  ASSERT_TRUE(mvdb.ok());
  QueryEngine engine(mvdb->get());
  ASSERT_TRUE(engine.Compile().ok());
  const auto& blocks = engine.index().blocks();
  ASSERT_GT(blocks.size(), 1u);
  for (size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_LE(blocks[i].first_level, blocks[i].last_level) << i;
    if (i > 0) {
      // Strictly increasing, non-overlapping level ranges: the chain
      // invariant that makes fast-forward skipping sound.
      EXPECT_GT(blocks[i].first_level, blocks[i - 1].last_level) << i;
    }
  }
  // The chain entry of the first block is the root of the whole index.
  EXPECT_EQ(blocks[0].chain_root, engine.index().flat().root());
}

TEST(MvBlockTest, BlockProbProductIsProbNotW) {
  auto mvdb = dblp::BuildDblpMvdb(dblp::DblpConfig{.num_authors = 150}, nullptr);
  ASSERT_TRUE(mvdb.ok());
  QueryEngine engine(mvdb->get());
  ASSERT_TRUE(engine.Compile().ok());
  // ProbNotWScaled is defined as the left-to-right prefix product over the
  // block probabilities, and this loop multiplies in the same order, so
  // the identity holds bitwise — not just to tolerance.
  ScaledDouble product = ScaledDouble::One();
  for (const MvBlock& b : engine.index().blocks()) product *= b.prob;
  const ScaledDouble total = engine.index().ProbNotWScaled();
  EXPECT_TRUE(product == total)
      << product.ToString() << " vs " << total.ToString();
}

TEST(MvBlockTest, ChainRootProbUnderIsBlockProb) {
  auto mvdb = dblp::BuildDblpMvdb(dblp::DblpConfig{.num_authors = 120}, nullptr);
  ASSERT_TRUE(mvdb.ok());
  QueryEngine engine(mvdb->get());
  ASSERT_TRUE(engine.Compile().ok());
  const auto& index = engine.index();
  const auto& blocks = index.blocks();
  ASSERT_GT(blocks.size(), 2u);
  // Annotations are block-local: the value at block i's chain entry is the
  // standalone P(NOT W_i) — the same recurrence FinishBlock ran on the
  // standalone piece — NOT a suffix product over the rest of the chain.
  // Bitwise, because the weight-delta repair's O(1) block reprobe reads
  // exactly this identity.
  for (size_t i = 0; i < blocks.size(); ++i) {
    const ScaledDouble got =
        index.flat().prob_under_scaled(blocks[i].chain_root);
    EXPECT_TRUE(got == blocks[i].prob)
        << "block " << i << ": " << got.ToString() << " vs "
        << blocks[i].prob.ToString();
  }
}

/// The per-step ScaledDouble loops FoldBlockProducts replaces, verbatim.
void NaiveFold(const std::vector<MvBlock>& blocks, size_t prefix_from,
               size_t suffix_to, std::vector<ScaledDouble>* prefix,
               std::vector<ScaledDouble>* suffix) {
  ScaledDouble p = (*prefix)[prefix_from];
  for (size_t i = prefix_from; i < blocks.size(); ++i) {
    p *= blocks[i].prob;
    (*prefix)[i + 1] = p;
  }
  for (size_t i = suffix_to; i-- > 0;) {
    (*suffix)[i] = blocks[i].prob * (*suffix)[i + 1];
  }
}

/// Full products of `blocks`, as the build stores them.
void FullProducts(const std::vector<MvBlock>& blocks,
                  std::vector<ScaledDouble>* prefix,
                  std::vector<ScaledDouble>* suffix) {
  prefix->assign(blocks.size() + 1, ScaledDouble::One());
  suffix->assign(blocks.size() + 1, ScaledDouble::One());
  NaiveFold(blocks, 0, blocks.size(), prefix, suffix);
}

/// Scales a factor by 2^shift without touching its mantissa.
ScaledDouble Shifted(const ScaledDouble& f, int64_t shift) {
  return ScaledDouble::FromRaw(f.mantissa_bits(), f.exponent_word() + shift);
}

/// n factors of mixed sign with |p| in [0.01, 4), each shifted by up to
/// +-`max_shift` binary orders.
std::vector<MvBlock> RandomDirectory(size_t n, int64_t max_shift,
                                     uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> magnitude(0.01, 4.0);
  std::uniform_int_distribution<int64_t> shift(-max_shift, max_shift);
  std::vector<MvBlock> blocks(n);
  for (size_t i = 0; i < n; ++i) {
    const double sign = (rng() & 1) != 0 ? -1.0 : 1.0;
    blocks[i] = MvBlock{static_cast<FlatId>(i), static_cast<int32_t>(i),
                        static_cast<int32_t>(i),
                        Shifted(ScaledDouble(sign * magnitude(rng)),
                                shift(rng))};
  }
  return blocks;
}

/// Runs FoldBlockProducts and the naive loops from the same starting
/// arrays and compares every entry — written or not — on mantissa bits
/// and exponent word.
void ExpectFoldMatchesNaive(const std::vector<MvBlock>& blocks,
                            size_t prefix_from, size_t suffix_to,
                            const std::vector<ScaledDouble>& prefix0,
                            const std::vector<ScaledDouble>& suffix0) {
  std::vector<ScaledDouble> want_prefix = prefix0, want_suffix = suffix0;
  NaiveFold(blocks, prefix_from, suffix_to, &want_prefix, &want_suffix);
  std::vector<ScaledDouble> prefix = prefix0, suffix = suffix0;
  FoldBlockProducts(blocks, prefix_from, suffix_to, prefix, suffix);
  auto same = [](const ScaledDouble& a, const ScaledDouble& b) {
    return a.mantissa_bits() == b.mantissa_bits() &&
           a.exponent_word() == b.exponent_word();
  };
  for (size_t i = 0; i <= blocks.size(); ++i) {
    ASSERT_TRUE(same(prefix[i], want_prefix[i]))
        << "prefix[" << i << "] of " << blocks.size() << " (from "
        << prefix_from << ", to " << suffix_to << "): "
        << prefix[i].ToString() << " vs " << want_prefix[i].ToString();
    ASSERT_TRUE(same(suffix[i], want_suffix[i]))
        << "suffix[" << i << "] of " << blocks.size() << " (from "
        << prefix_from << ", to " << suffix_to << "): "
        << suffix[i].ToString() << " vs " << want_suffix[i].ToString();
  }
}

TEST(BlockProductFoldTest, EveryRangeOfASmallDirectoryIsBitIdentical) {
  const std::vector<MvBlock> blocks = RandomDirectory(40, 3000, 7);
  // Start from another directory's products, so every seed is a valid
  // stored entry and an entry the fold must not write differs from the
  // one it would write.
  std::vector<ScaledDouble> prefix0, suffix0;
  FullProducts(RandomDirectory(40, 3000, 8), &prefix0, &suffix0);
  for (size_t from = 0; from <= blocks.size(); ++from) {
    for (size_t to = 0; to <= blocks.size(); ++to) {
      ExpectFoldMatchesNaive(blocks, from, to, prefix0, suffix0);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BlockProductFoldTest, LongDirectoriesAreBitIdentical) {
  for (const size_t n : {size_t{1000}, size_t{5000}}) {
    for (const int64_t max_shift : {int64_t{0}, int64_t{3000}}) {
      const std::vector<MvBlock> blocks = RandomDirectory(n, max_shift, n);
      std::vector<ScaledDouble> prefix0(n + 1, ScaledDouble::One());
      std::vector<ScaledDouble> suffix0(n + 1, ScaledDouble::One());
      ExpectFoldMatchesNaive(blocks, 0, n, prefix0, suffix0);
      // A repair's ranges: seeds are the stored neighbors.
      FullProducts(RandomDirectory(n, max_shift, n + 1), &prefix0, &suffix0);
      for (const auto& [from, to] : {std::pair<size_t, size_t>{1, n},
                                     {n / 3, 2 * n / 3},
                                     {n - 1, 1},
                                     {255, 257},
                                     {n, 0}}) {
        ExpectFoldMatchesNaive(blocks, from, to, prefix0, suffix0);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(BlockProductFoldTest, ZeroNonFiniteAndOffRangeFactorsFallBack) {
  const size_t n = 1000;
  const ScaledDouble specials[] = {
      ScaledDouble::Zero(),
      ScaledDouble(std::numeric_limits<double>::infinity()),
      ScaledDouble(-std::numeric_limits<double>::infinity()),
      ScaledDouble(std::numeric_limits<double>::quiet_NaN()),
      // A mantissa outside [0.5, 1), as a damaged file could hold.
      ScaledDouble::FromRaw(std::bit_cast<uint64_t>(0.25), 5),
  };
  for (const ScaledDouble& special : specials) {
    for (const size_t at : {size_t{0}, size_t{1}, size_t{255}, size_t{256},
                            size_t{517}, n - 1}) {
      std::vector<MvBlock> blocks = RandomDirectory(n, 3000, at);
      blocks[at].prob = special;
      std::vector<ScaledDouble> prefix0(n + 1, ScaledDouble::One());
      std::vector<ScaledDouble> suffix0(n + 1, ScaledDouble::One());
      ExpectFoldMatchesNaive(blocks, 0, n, prefix0, suffix0);
      // Seeds downstream of the special factor are themselves zero or
      // non-finite.
      FullProducts(blocks, &prefix0, &suffix0);
      blocks[n / 2].prob = blocks[n / 3].prob;
      ExpectFoldMatchesNaive(blocks, std::min(at + 1, n), at, prefix0,
                             suffix0);
      ExpectFoldMatchesNaive(blocks, n / 3, 2 * n / 3, prefix0, suffix0);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(FlatObddIndexTest, NodesAtLevelIsContiguousAndComplete) {
  auto db = testing_util::Fig3Database();
  BddManager mgr(BuildDefaultOrder(*db));
  ConObddBuilder builder(*db, &mgr);
  Ucq q = MustParse("Q :- R(x), S(x,y).", &db->dict());
  const NodeId f = std::move(builder.Build(q)).value();
  FlatObdd flat(mgr, f, db->VarProbs());
  size_t covered = 0;
  for (size_t l = 0; l < mgr.num_levels(); ++l) {
    const auto [b, e] = flat.NodesAtLevel(static_cast<int32_t>(l));
    for (FlatId u = b; u < e; ++u) {
      EXPECT_EQ(flat.level(u), static_cast<int32_t>(l));
      ++covered;
    }
  }
  EXPECT_EQ(covered, flat.size());
}

TEST(ConObddCountersTest, SeparatorQueryOnlyConcatenates) {
  auto db = testing_util::Fig3Database();
  BddManager mgr(BuildDefaultOrder(*db));
  ConObddBuilder builder(*db, &mgr);
  Ucq q = MustParse("Q :- R(x), S(x,y).", &db->dict());
  ASSERT_TRUE(builder.Build(q).ok());
  EXPECT_GT(builder.concat_count(), 0u);
  EXPECT_EQ(builder.synthesis_count(), 0u);
}

TEST(ConObddCountersTest, InversionForcesSynthesis) {
  Database db;
  ASSERT_TRUE(db.CreateTable("R", {"a"}, true).ok());
  ASSERT_TRUE(db.CreateTable("S", {"a", "b"}, true).ok());
  ASSERT_TRUE(db.CreateTable("T", {"b"}, true).ok());
  for (int x = 1; x <= 3; ++x) {
    db.InsertProbabilistic("R", {x}, 1.0);
    db.InsertProbabilistic("T", {10 + x}, 1.0);
    for (int y = 1; y <= 3; ++y) {
      db.InsertProbabilistic("S", {x, 10 + y}, 1.0);
    }
  }
  BddManager mgr(BuildDefaultOrder(db));
  ConObddBuilder builder(db, &mgr);
  // H0 has no separator: the residual conjunction must synthesize.
  Ucq q = MustParse("Q :- R(x), S(x,y), T(y).", &db.dict());
  ASSERT_TRUE(builder.Build(q).ok());
  EXPECT_GT(builder.synthesis_count(), 0u);
}

TEST(OrderSpecTest, SeparatorFirstKeepsBlocksContiguous) {
  // With pi placing the separator attribute first, each separator value's
  // variables occupy one contiguous level range (the property concat needs).
  Database db;
  ASSERT_TRUE(db.CreateTable("S", {"a", "b"}, true).ok());
  for (int a = 1; a <= 4; ++a) {
    for (int b = 1; b <= 3; ++b) {
      db.InsertProbabilistic("S", {a, 100 + b}, 1.0);
    }
  }
  OrderSpec spec;
  spec.pi["S"] = {0, 1};
  const auto order = BuildVariableOrder(db, spec);
  const Table* s = db.Find("S");
  // Walk the order: the first-column value must be non-decreasing.
  Value prev = -1;
  for (VarId v : order) {
    const TupleRef& ref = db.var_tuple(v);
    const Value a = s->At(ref.row, 0);
    EXPECT_GE(a, prev);
    prev = a;
  }
}

}  // namespace
}  // namespace mvdb

// Unit tests for src/prob/lineage: DNF normalization, evaluation, stats,
// and a randomized differential check of the flat canonicalization
// against the vector-of-vectors Normalize it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "prob/lineage.h"
#include "test_util.h"

namespace mvdb {
namespace {

Clause Pos(const Lineage& l, size_t i) {
  return Clause(l.pos(i).begin(), l.pos(i).end());
}
Clause Neg(const Lineage& l, size_t i) {
  return Clause(l.neg(i).begin(), l.neg(i).end());
}

TEST(LineageTest, EmptyIsFalse) {
  Lineage l;
  EXPECT_TRUE(l.IsFalse());
  EXPECT_FALSE(l.IsTrue());
  EXPECT_EQ(l.size(), 0u);
}

TEST(LineageTest, EmptyClauseIsTrue) {
  Lineage l;
  l.AddClause({});
  EXPECT_TRUE(l.IsTrue());
  EXPECT_FALSE(l.IsFalse());
}

TEST(LineageTest, ClauseSortedAndDeduped) {
  Lineage l;
  l.AddClause({3, 1, 3, 2});
  EXPECT_EQ(Pos(l, 0), (Clause{1, 2, 3}));
}

TEST(LineageTest, NormalizeRemovesDuplicateClauses) {
  Lineage l;
  l.AddClause({1, 2});
  l.AddClause({2, 1});
  l.Normalize();
  EXPECT_EQ(l.size(), 1u);
}

TEST(LineageTest, NormalizeAbsorption) {
  Lineage l;
  l.AddClause({1});
  l.AddClause({1, 2});  // absorbed by {1}
  l.AddClause({3, 4});
  l.Normalize();
  EXPECT_EQ(l.size(), 2u);
  EXPECT_EQ(Pos(l, 0), (Clause{1}));
  EXPECT_EQ(Pos(l, 1), (Clause{3, 4}));
}

TEST(LineageTest, UnionIsClauseUnion) {
  Lineage a, b;
  a.AddClause({1});
  b.AddClause({2});
  a.Union(b);
  a.Normalize();
  EXPECT_EQ(a.size(), 2u);
}

TEST(LineageTest, Vars) {
  Lineage l;
  l.AddClause({5, 1});
  l.AddClause({3, 5});
  EXPECT_EQ(l.Vars(), (std::vector<VarId>{1, 3, 5}));
  EXPECT_EQ(l.NumDistinctVars(), 3u);
  EXPECT_EQ(l.NumLiterals(), 4u);
}

TEST(LineageTest, Eval) {
  Lineage l;  // x0 x1 | x2
  l.AddClause({0, 1});
  l.AddClause({2});
  EXPECT_TRUE(l.Eval({true, true, false}));
  EXPECT_TRUE(l.Eval({false, false, true}));
  EXPECT_FALSE(l.Eval({true, false, false}));
  EXPECT_FALSE(l.Eval({false, true, false}));
}

TEST(LineageTest, ToString) {
  Lineage l;
  EXPECT_EQ(l.ToString(), "false");
  l.AddClause({1, 2});
  EXPECT_EQ(l.ToString(), "x1 x2");
  l.AddClause({3});
  EXPECT_EQ(l.ToString(), "x1 x2 | x3");
}

TEST(LineageTest, Fig3Lineage) {
  // Phi_Q = X1Y1 v X1Y2 v X2Y3 v X2Y4 with vars 0..5 =
  // X1,X2,Y1,Y2,Y3,Y4.
  Lineage l;
  l.AddClause({0, 2});
  l.AddClause({0, 3});
  l.AddClause({1, 4});
  l.AddClause({1, 5});
  l.Normalize();
  EXPECT_EQ(l.size(), 4u);
  EXPECT_EQ(l.NumDistinctVars(), 6u);
  EXPECT_TRUE(l.Eval({true, false, false, true, false, false}));
  EXPECT_FALSE(l.Eval({true, true, false, false, false, false}));
}

/// The vector-of-vectors lineage the flat one replaced: AddSignedClause
/// and Normalize exactly as they were, kept here as the reference for
/// CanonicalizeClauses.
struct ReferenceLineage {
  std::vector<Clause> clauses;
  std::vector<Clause> neg_clauses;  // parallel to clauses

  void AddSignedClause(Clause pos, Clause neg) {
    auto canon = [](Clause* c) {
      std::sort(c->begin(), c->end());
      c->erase(std::unique(c->begin(), c->end()), c->end());
    };
    canon(&pos);
    canon(&neg);
    for (VarId v : pos) {
      if (std::binary_search(neg.begin(), neg.end(), v)) return;  // x ^ !x
    }
    clauses.push_back(std::move(pos));
    neg_clauses.push_back(std::move(neg));
  }

  void Normalize() {
    const size_t n = clauses.size();
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (clauses[a] != clauses[b]) return clauses[a] < clauses[b];
      return neg_clauses[a] < neg_clauses[b];
    });
    std::vector<Clause> pos_sorted, neg_sorted;
    for (size_t i : order) {
      pos_sorted.push_back(clauses[i]);
      neg_sorted.push_back(neg_clauses[i]);
    }
    size_t kept = 0;
    for (size_t j = 0; j < n; ++j) {
      bool absorbed = kept > 0 && pos_sorted[kept - 1] == pos_sorted[j] &&
                      neg_sorted[kept - 1] == neg_sorted[j];
      for (size_t i = 0; i < kept && !absorbed; ++i) {
        absorbed = std::includes(pos_sorted[j].begin(), pos_sorted[j].end(),
                                 pos_sorted[i].begin(), pos_sorted[i].end()) &&
                   std::includes(neg_sorted[j].begin(), neg_sorted[j].end(),
                                 neg_sorted[i].begin(), neg_sorted[i].end());
      }
      if (absorbed) continue;
      if (kept != j) {
        pos_sorted[kept] = std::move(pos_sorted[j]);
        neg_sorted[kept] = std::move(neg_sorted[j]);
      }
      ++kept;
    }
    pos_sorted.resize(kept);
    neg_sorted.resize(kept);
    clauses = std::move(pos_sorted);
    neg_clauses = std::move(neg_sorted);
  }
};

void ExpectSameClauses(const Lineage& got, const ReferenceLineage& ref) {
  ASSERT_EQ(got.size(), ref.clauses.size()) << got.ToString();
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Pos(got, i), ref.clauses[i]) << "clause " << i;
    EXPECT_EQ(Neg(got, i), ref.neg_clauses[i]) << "clause " << i;
  }
}

TEST(LineageTest, NormalizeMatchesVectorOfVectorsReference) {
  // Few variables, so random clause lists are dense in repeats, absorbed
  // clauses, x ^ !x contradictions and empty clauses.
  Rng rng(24);
  for (int round = 0; round < 2000; ++round) {
    const int num_vars = 2 + static_cast<int>(rng.Below(5));
    const int num_clauses = static_cast<int>(rng.Below(14));
    std::vector<std::pair<Clause, Clause>> raw;
    for (int c = 0; c < num_clauses; ++c) {
      if (!raw.empty() && rng.Below(6) == 0) {
        raw.push_back(raw[rng.Below(raw.size())]);  // a repeat
        continue;
      }
      Clause pos, neg;
      const size_t np = rng.Below(4);  // 0 = the empty (true) clause
      for (size_t k = 0; k < np; ++k) {
        pos.push_back(static_cast<VarId>(rng.Below(static_cast<uint64_t>(num_vars))));
      }
      if (rng.Below(2) == 0) {
        const size_t nn = 1 + rng.Below(2);
        for (size_t k = 0; k < nn; ++k) {
          neg.push_back(static_cast<VarId>(rng.Below(static_cast<uint64_t>(num_vars))));
        }
      }
      raw.emplace_back(std::move(pos), std::move(neg));
    }

    ReferenceLineage ref;
    Lineage flat, left, right;
    for (size_t c = 0; c < raw.size(); ++c) {
      ref.AddSignedClause(raw[c].first, raw[c].second);
      flat.AddSignedClause(raw[c].first, raw[c].second);
      (c % 2 == 0 ? left : right).AddSignedClause(raw[c].first, raw[c].second);
    }
    ref.Normalize();
    flat.Normalize();
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectSameClauses(flat, ref);
    // Union of two partial lineages canonicalizes to the same list, and a
    // second Normalize is a no-op.
    left.Normalize();
    left.Union(right);
    left.Normalize();
    ExpectSameClauses(left, ref);
    EXPECT_EQ(left, flat);
    flat.Normalize();
    ExpectSameClauses(flat, ref);
  }
}

}  // namespace
}  // namespace mvdb

// Copyright 2026 The MarkoView Authors.
//
// Lineage formulas. The lineage of a Boolean UCQ over a probabilistic
// database is a positive DNF over the tuple variables X_t (Section 4, and
// Fig. 3 of the paper): a disjunction of clauses, each clause a conjunction
// of variables (one per probabilistic tuple used by one join result).

#ifndef MVDB_PROB_LINEAGE_H_
#define MVDB_PROB_LINEAGE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "relational/types.h"

namespace mvdb {

/// One conjunction of tuple variables, kept sorted and deduplicated.
/// An empty clause is the constant `true`.
using Clause = std::vector<VarId>;

/// A DNF: disjunction of clauses. Clauses are conjunctions of positive
/// variables plus — for the Section 2.5 negation extension (MarkoViews with
/// `not R(...)` atoms, e.g. the transitively-closed penalty view) — an
/// optional set of *negated* variables. An empty lineage is the constant
/// `false`; a lineage containing an empty clause is `true`.
class Lineage {
 public:
  Lineage() = default;
  explicit Lineage(std::vector<Clause> clauses) : clauses_(std::move(clauses)) {
    neg_clauses_.resize(clauses_.size());
    Normalize();
  }

  /// Adds a conjunction of positive variables (sorted/deduped internally).
  void AddClause(Clause c) { AddSignedClause(std::move(c), {}); }

  /// Adds a conjunction `pos ^ !neg`: every variable in `pos` must be true
  /// and every variable in `neg` false. A variable in both makes the clause
  /// contradictory and it is dropped.
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
    clauses_.push_back(std::move(pos));
    neg_clauses_.push_back(std::move(neg));
    normalized_ = false;
  }

  /// Disjunction with another lineage (lineage of Q1 v Q2 is the union of
  /// the two clause sets — the property Theorem 1's remark relies on).
  void Union(const Lineage& other) {
    clauses_.insert(clauses_.end(), other.clauses_.begin(), other.clauses_.end());
    neg_clauses_.insert(neg_clauses_.end(), other.neg_clauses_.begin(),
                        other.neg_clauses_.end());
    normalized_ = false;
  }

  /// Positive parts of the clauses (parallel to neg_clauses()).
  const std::vector<Clause>& clauses() const { return clauses_; }
  /// Negated parts, parallel to clauses(); empty vectors for pure-positive
  /// clauses.
  const std::vector<Clause>& neg_clauses() const { return neg_clauses_; }
  /// True if some clause carries a negated variable.
  bool HasNegation() const {
    return std::any_of(neg_clauses_.begin(), neg_clauses_.end(),
                       [](const Clause& c) { return !c.empty(); });
  }

  size_t size() const { return clauses_.size(); }
  bool IsFalse() const { return clauses_.empty(); }
  bool IsTrue() const {
    for (size_t i = 0; i < clauses_.size(); ++i) {
      if (clauses_[i].empty() && neg_clauses_[i].empty()) return true;
    }
    return false;
  }

  /// Sorts clauses, removes duplicates and absorbed clauses (c1 subset of c2
  /// implies c2 is redundant). Quadratic in the clause count. It runs on
  /// every answer of every evaluation (the online path included), so it
  /// works in place: a lineage without negated literals allocates nothing.
  void Normalize();

  /// Distinct variables mentioned, sorted ascending.
  std::vector<VarId> Vars() const;

  /// Total number of variable occurrences; the paper's "lineage size"
  /// (Fig. 4) counts the tuples involved in the constraints, i.e. distinct
  /// variables — exposed separately as NumDistinctVars().
  size_t NumLiterals() const;
  size_t NumDistinctVars() const { return Vars().size(); }

  /// Evaluates the DNF under a truth assignment (indexed by VarId).
  bool Eval(const std::vector<bool>& assignment) const;

  /// Debug rendering, e.g. "x1 x3 | x2".
  std::string ToString() const;

 private:
  std::vector<Clause> clauses_;
  std::vector<Clause> neg_clauses_;  // parallel to clauses_
  bool normalized_ = false;
};

}  // namespace mvdb

#endif  // MVDB_PROB_LINEAGE_H_

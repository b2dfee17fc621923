// Copyright 2026 The MarkoView Authors.
//
// Lineage formulas. The lineage of a Boolean UCQ over a probabilistic
// database is a positive DNF over the tuple variables X_t (Section 4, and
// Fig. 3 of the paper): a disjunction of clauses, each clause a conjunction
// of variables (one per probabilistic tuple used by one join result).
//
// Clauses are stored flat: one literal array holding every clause's
// positive literals and then its negated ones, plus per-clause bounds into
// it. The same (literals, bounds) layout is what query evaluation writes
// per answer head (query/eval.h, AnswerTable), so one canonicalization
// routine (CanonicalizeClauses) and one synthesis loop
// (BddManager::FromClauseListSynthesis) serve both.

#ifndef MVDB_PROB_LINEAGE_H_
#define MVDB_PROB_LINEAGE_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "relational/types.h"

namespace mvdb {

/// One conjunction of tuple variables, kept sorted and deduplicated.
/// An empty clause is the constant `true`.
using Clause = std::vector<VarId>;

/// Clause bounds in a flat literal array: positive literals at
/// [begin, mid), negated ones at [mid, end), each part sorted ascending
/// and free of repeats.
struct ClauseBounds {
  uint32_t begin = 0;
  uint32_t mid = 0;
  uint32_t end = 0;

  bool operator==(const ClauseBounds&) const = default;
};

/// A read-only clause list over a literal array: what a Lineage holds and
/// what one head group of an AnswerTable holds.
struct ClauseList {
  std::span<const VarId> lits;
  std::span<const ClauseBounds> bounds;

  size_t size() const { return bounds.size(); }
  std::span<const VarId> pos(size_t i) const {
    return lits.subspan(bounds[i].begin, bounds[i].mid - bounds[i].begin);
  }
  std::span<const VarId> neg(size_t i) const {
    return lits.subspan(bounds[i].mid, bounds[i].end - bounds[i].mid);
  }
};

/// Appends the clause `pos ^ !neg` to `lits` with both parts sorted and
/// deduplicated, and sets `*out` to its bounds. A variable in both parts
/// makes the clause contradictory: nothing is appended and it returns
/// false. `pos` and `neg` must not point into `lits`.
bool AppendSignedClause(std::span<const VarId> pos, std::span<const VarId> neg,
                        std::vector<VarId>* lits, ClauseBounds* out);

/// The canonical form of a DNF, on clauses that are internally canonical
/// (as AppendSignedClause leaves them): sorts `bounds` by (pos, neg), then
/// drops repeats and absorbed clauses (pos_i subset pos_j and neg_i subset
/// neg_j make clause j redundant). Returns the number kept, which are
/// bounds[0, kept) in canonical order; `lits` is only read. Quadratic in
/// the clause count, allocation-free.
size_t CanonicalizeClauses(std::span<const VarId> lits,
                           std::span<ClauseBounds> bounds);

/// A DNF: disjunction of clauses. Clauses are conjunctions of positive
/// variables plus — for the Section 2.5 negation extension (MarkoViews with
/// `not R(...)` atoms, e.g. the transitively-closed penalty view) — an
/// optional set of *negated* variables. An empty lineage is the constant
/// `false`; a lineage containing an empty clause is `true`.
class Lineage {
 public:
  Lineage() = default;

  /// Adds a conjunction of positive variables (sorted/deduped internally).
  void AddClause(std::span<const VarId> pos) { AddSignedClause(pos, {}); }
  void AddClause(std::initializer_list<VarId> pos) {
    AddClause(std::span<const VarId>(pos.begin(), pos.size()));
  }

  /// Adds a conjunction `pos ^ !neg`: every variable in `pos` must be true
  /// and every variable in `neg` false. A variable in both makes the clause
  /// contradictory and it is dropped. `pos` and `neg` must not point into
  /// this lineage.
  void AddSignedClause(std::span<const VarId> pos, std::span<const VarId> neg);
  void AddSignedClause(std::initializer_list<VarId> pos,
                       std::initializer_list<VarId> neg) {
    AddSignedClause(std::span<const VarId>(pos.begin(), pos.size()),
                    std::span<const VarId>(neg.begin(), neg.size()));
  }

  /// Disjunction with another lineage (lineage of Q1 v Q2 is the union of
  /// the two clause sets — the property Theorem 1's remark relies on).
  void Union(const Lineage& other) { Union(other.clause_list()); }
  /// Appends `clauses` (internally canonical) after the current ones.
  void Union(ClauseList clauses);

  /// Replaces the clauses by `clauses` (internally canonical, e.g. one
  /// AnswerTable head), keeping this lineage's capacity.
  void Assign(ClauseList clauses) {
    clear();
    Union(clauses);
  }

  /// Drops every clause (the constant `false`), keeping the capacity.
  void clear() {
    lits_.clear();
    bounds_.clear();
  }

  size_t size() const { return bounds_.size(); }
  /// Positive / negated literals of clause i.
  std::span<const VarId> pos(size_t i) const { return clause_list().pos(i); }
  std::span<const VarId> neg(size_t i) const { return clause_list().neg(i); }
  ClauseList clause_list() const { return ClauseList{lits_, bounds_}; }

  /// True if some clause carries a negated variable.
  bool HasNegation() const;
  bool IsFalse() const { return bounds_.empty(); }
  bool IsTrue() const;

  /// Sorts clauses, removes duplicates and absorbed clauses (c1 subset of c2
  /// implies c2 is redundant): CanonicalizeClauses over this lineage, then
  /// the literals repacked in clause order. Quadratic in the clause count.
  void Normalize();

  /// Distinct variables mentioned, sorted ascending.
  std::vector<VarId> Vars() const;

  /// Total number of variable occurrences; the paper's "lineage size"
  /// (Fig. 4) counts the tuples involved in the constraints, i.e. distinct
  /// variables — exposed separately as NumDistinctVars().
  size_t NumLiterals() const { return lits_.size(); }
  size_t NumDistinctVars() const { return Vars().size(); }

  /// Evaluates the DNF under a truth assignment (indexed by VarId).
  bool Eval(const std::vector<bool>& assignment) const;

  /// Debug rendering, e.g. "x1 x3 | x2".
  std::string ToString() const;

  /// Same clauses in the same order.
  bool operator==(const Lineage&) const = default;

 private:
  std::vector<VarId> lits_;           ///< every clause's pos, then neg
  std::vector<ClauseBounds> bounds_;  ///< in clause order, packed
};

}  // namespace mvdb

#endif  // MVDB_PROB_LINEAGE_H_

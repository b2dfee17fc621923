#include "prob/lineage.h"

#include <algorithm>

namespace mvdb {

void Lineage::Normalize() {
  // Canonicalize clause internals (AddSignedClause already sorts; Union and
  // the vector constructor may not have).
  if (neg_clauses_.size() < clauses_.size()) neg_clauses_.resize(clauses_.size());
  for (Clause& c : clauses_) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
  }
  for (Clause& c : neg_clauses_) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
  }
  // Sort the clause pairs by (pos, neg). Pairs that compare equal are
  // identical, so any sort gives the same sequence. Without negated
  // literals the positive parts sort alone; otherwise a sorted index
  // permutation is applied in place, cycle by cycle.
  const size_t n = clauses_.size();
  if (!HasNegation()) {
    std::sort(clauses_.begin(), clauses_.end());
  } else {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (clauses_[a] != clauses_[b]) return clauses_[a] < clauses_[b];
      return neg_clauses_[a] < neg_clauses_[b];
    });
    for (size_t i = 0; i < n; ++i) {
      if (order[i] == i) continue;
      Clause pos = std::move(clauses_[i]);
      Clause neg = std::move(neg_clauses_[i]);
      size_t j = i;
      while (order[j] != i) {
        clauses_[j] = std::move(clauses_[order[j]]);
        neg_clauses_[j] = std::move(neg_clauses_[order[j]]);
        const size_t next = order[j];
        order[j] = j;
        j = next;
      }
      clauses_[j] = std::move(pos);
      neg_clauses_[j] = std::move(neg);
      order[j] = j;
    }
  }
  // Dedupe and absorb in one compaction over the sorted pairs: clause j is
  // dropped when it repeats the last kept clause, or when some kept clause
  // i satisfies pos_i subset pos_j and neg_i subset neg_j.
  size_t kept = 0;
  for (size_t j = 0; j < n; ++j) {
    bool absorbed = kept > 0 && clauses_[kept - 1] == clauses_[j] &&
                    neg_clauses_[kept - 1] == neg_clauses_[j];
    for (size_t i = 0; i < kept && !absorbed; ++i) {
      absorbed = std::includes(clauses_[j].begin(), clauses_[j].end(),
                               clauses_[i].begin(), clauses_[i].end()) &&
                 std::includes(neg_clauses_[j].begin(), neg_clauses_[j].end(),
                               neg_clauses_[i].begin(), neg_clauses_[i].end());
    }
    if (absorbed) continue;
    if (kept != j) {
      clauses_[kept] = std::move(clauses_[j]);
      neg_clauses_[kept] = std::move(neg_clauses_[j]);
    }
    ++kept;
  }
  clauses_.resize(kept);
  neg_clauses_.resize(kept);
  normalized_ = true;
}

std::vector<VarId> Lineage::Vars() const {
  std::vector<VarId> vars;
  for (const Clause& c : clauses_) {
    vars.insert(vars.end(), c.begin(), c.end());
  }
  for (const Clause& c : neg_clauses_) {
    vars.insert(vars.end(), c.begin(), c.end());
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

size_t Lineage::NumLiterals() const {
  size_t n = 0;
  for (const Clause& c : clauses_) n += c.size();
  for (const Clause& c : neg_clauses_) n += c.size();
  return n;
}

bool Lineage::Eval(const std::vector<bool>& assignment) const {
  for (size_t i = 0; i < clauses_.size(); ++i) {
    bool sat = true;
    for (VarId v : clauses_[i]) {
      if (!assignment[static_cast<size_t>(v)]) {
        sat = false;
        break;
      }
    }
    if (sat && i < neg_clauses_.size()) {
      for (VarId v : neg_clauses_[i]) {
        if (assignment[static_cast<size_t>(v)]) {
          sat = false;
          break;
        }
      }
    }
    if (sat) return true;
  }
  return false;
}

std::string Lineage::ToString() const {
  if (clauses_.empty()) return "false";
  std::string out;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    if (i > 0) out += " | ";
    bool first = true;
    for (VarId v : clauses_[i]) {
      if (!first) out += " ";
      first = false;
      out += "x" + std::to_string(v);
    }
    if (i < neg_clauses_.size()) {
      for (VarId v : neg_clauses_[i]) {
        if (!first) out += " ";
        first = false;
        out += "!x" + std::to_string(v);
      }
    }
    if (first) out += "true";
  }
  return out;
}

}  // namespace mvdb

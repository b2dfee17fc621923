#include "prob/lineage.h"

#include <algorithm>
#include <compare>

namespace mvdb {
namespace {

/// Sorts and deduplicates lits[from, end) in place; returns the new end.
size_t SortUnique(std::vector<VarId>* lits, size_t from) {
  const auto first = lits->begin() + static_cast<std::ptrdiff_t>(from);
  std::sort(first, lits->end());
  lits->erase(std::unique(first, lits->end()), lits->end());
  return lits->size();
}

}  // namespace

bool AppendSignedClause(std::span<const VarId> pos, std::span<const VarId> neg,
                        std::vector<VarId>* lits, ClauseBounds* out) {
  const size_t begin = lits->size();
  lits->insert(lits->end(), pos.begin(), pos.end());
  const size_t mid = SortUnique(lits, begin);
  lits->insert(lits->end(), neg.begin(), neg.end());
  const size_t end = SortUnique(lits, mid);
  // x ^ !x: one merge walk over the two sorted parts.
  const VarId* p = lits->data() + begin;
  const VarId* n = lits->data() + mid;
  const VarId* const p_end = lits->data() + mid;
  const VarId* const n_end = lits->data() + end;
  while (p != p_end && n != n_end) {
    if (*p == *n) {
      lits->resize(begin);
      return false;
    }
    if (*p < *n) {
      ++p;
    } else {
      ++n;
    }
  }
  *out = ClauseBounds{static_cast<uint32_t>(begin), static_cast<uint32_t>(mid),
                      static_cast<uint32_t>(end)};
  return true;
}

size_t CanonicalizeClauses(std::span<const VarId> lits,
                           std::span<ClauseBounds> bounds) {
  auto pos = [&](const ClauseBounds& b) {
    return lits.subspan(b.begin, b.mid - b.begin);
  };
  auto neg = [&](const ClauseBounds& b) {
    return lits.subspan(b.mid, b.end - b.mid);
  };
  // Sort by (pos, neg), each compared lexicographically. Clauses that
  // compare equal are identical, so any sort gives the same sequence.
  std::sort(bounds.begin(), bounds.end(),
            [&](const ClauseBounds& a, const ClauseBounds& b) {
              const auto pa = pos(a), pb = pos(b);
              const auto c = std::lexicographical_compare_three_way(
                  pa.begin(), pa.end(), pb.begin(), pb.end());
              if (c != 0) return c < 0;
              const auto na = neg(a), nb = neg(b);
              return std::lexicographical_compare(na.begin(), na.end(),
                                                  nb.begin(), nb.end());
            });
  // Dedupe and absorb in one compaction over the sorted clauses: clause j
  // is dropped when it repeats the last kept clause, or when some kept
  // clause i satisfies pos_i subset pos_j and neg_i subset neg_j.
  auto same = [&](const ClauseBounds& a, const ClauseBounds& b) {
    const auto pa = pos(a), pb = pos(b), na = neg(a), nb = neg(b);
    return std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()) &&
           std::equal(na.begin(), na.end(), nb.begin(), nb.end());
  };
  size_t kept = 0;
  for (size_t j = 0; j < bounds.size(); ++j) {
    const auto pj = pos(bounds[j]), nj = neg(bounds[j]);
    bool absorbed = kept > 0 && same(bounds[kept - 1], bounds[j]);
    for (size_t i = 0; i < kept && !absorbed; ++i) {
      const auto pi = pos(bounds[i]), ni = neg(bounds[i]);
      absorbed = std::includes(pj.begin(), pj.end(), pi.begin(), pi.end()) &&
                 std::includes(nj.begin(), nj.end(), ni.begin(), ni.end());
    }
    if (!absorbed) bounds[kept++] = bounds[j];
  }
  return kept;
}

void Lineage::AddSignedClause(std::span<const VarId> pos,
                              std::span<const VarId> neg) {
  ClauseBounds b;
  if (AppendSignedClause(pos, neg, &lits_, &b)) bounds_.push_back(b);
}

void Lineage::Union(ClauseList clauses) {
  // Reserve first: `clauses` may be this lineage's own (Union with itself),
  // and the copy below must not reallocate under it.
  const size_t n = clauses.size();
  const size_t num_lits = clauses.lits.size();
  const bool self = clauses.bounds.data() == bounds_.data();
  lits_.reserve(lits_.size() + num_lits);
  bounds_.reserve(bounds_.size() + n);
  if (self) clauses = clause_list();
  for (size_t i = 0; i < n; ++i) {
    const ClauseBounds& src = clauses.bounds[i];
    const uint32_t at = static_cast<uint32_t>(lits_.size());
    for (uint32_t k = src.begin; k < src.end; ++k) {
      lits_.push_back(clauses.lits[k]);
    }
    bounds_.push_back(ClauseBounds{at, at + (src.mid - src.begin),
                                   at + (src.end - src.begin)});
  }
}

bool Lineage::HasNegation() const {
  return std::any_of(bounds_.begin(), bounds_.end(),
                     [](const ClauseBounds& b) { return b.mid != b.end; });
}

bool Lineage::IsTrue() const {
  return std::any_of(bounds_.begin(), bounds_.end(),
                     [](const ClauseBounds& b) { return b.begin == b.end; });
}

void Lineage::Normalize() {
  bounds_.resize(CanonicalizeClauses(lits_, bounds_));
  // Repack the literals in clause order, unless they already are.
  uint32_t at = 0;
  bool packed = true;
  for (const ClauseBounds& b : bounds_) {
    packed &= b.begin == at;
    at = b.end;
  }
  if (packed && at == lits_.size()) return;
  std::vector<VarId> lits;
  lits.reserve(lits_.size());
  for (ClauseBounds& b : bounds_) {
    const uint32_t begin = static_cast<uint32_t>(lits.size());
    lits.insert(lits.end(), lits_.begin() + b.begin, lits_.begin() + b.end);
    b = ClauseBounds{begin, begin + (b.mid - b.begin),
                     static_cast<uint32_t>(lits.size())};
  }
  lits_.swap(lits);
}

std::vector<VarId> Lineage::Vars() const {
  std::vector<VarId> vars = lits_;
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

bool Lineage::Eval(const std::vector<bool>& assignment) const {
  for (size_t i = 0; i < size(); ++i) {
    const bool sat =
        std::all_of(pos(i).begin(), pos(i).end(),
                    [&](VarId v) { return assignment[static_cast<size_t>(v)]; }) &&
        std::none_of(neg(i).begin(), neg(i).end(),
                     [&](VarId v) { return assignment[static_cast<size_t>(v)]; });
    if (sat) return true;
  }
  return false;
}

std::string Lineage::ToString() const {
  if (IsFalse()) return "false";
  std::string out;
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) out += " | ";
    bool first = true;
    for (VarId v : pos(i)) {
      if (!first) out += " ";
      first = false;
      out += "x" + std::to_string(v);
    }
    for (VarId v : neg(i)) {
      if (!first) out += " ";
      first = false;
      out += "!x" + std::to_string(v);
    }
    if (first) out += "true";
  }
  return out;
}

}  // namespace mvdb

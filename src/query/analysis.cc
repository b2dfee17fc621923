#include "query/analysis.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <set>

#include "util/logging.h"

namespace mvdb {
namespace {

/// Simple union-find over [0, n).
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// Positions at which variable v occurs in the atom.
std::vector<size_t> VarPositions(const Atom& atom, int v) {
  std::vector<size_t> out;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (atom.args[i].is_var() && atom.args[i].var == v) out.push_back(i);
  }
  return out;
}

}  // namespace

std::vector<int> AtomVars(const Atom& atom) {
  std::vector<int> vars;
  for (const Term& t : atom.args) {
    if (t.is_var()) vars.push_back(t.var);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

std::vector<int> CqVars(const ConjunctiveQuery& cq) {
  std::vector<int> vars;
  for (const Atom& a : cq.atoms) {
    const auto av = AtomVars(a);
    vars.insert(vars.end(), av.begin(), av.end());
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

bool HasProbAtom(const ConjunctiveQuery& cq, const IsProbFn& is_prob) {
  return std::any_of(cq.atoms.begin(), cq.atoms.end(),
                     [&](const Atom& a) { return is_prob(a.relation); });
}

std::vector<int> RootVars(const ConjunctiveQuery& cq, const IsProbFn& is_prob) {
  std::vector<int> roots;
  bool first = true;
  for (const Atom& a : cq.atoms) {
    if (!is_prob(a.relation)) continue;
    std::vector<int> av = AtomVars(a);
    if (first) {
      roots = std::move(av);
      first = false;
    } else {
      std::vector<int> merged;
      std::set_intersection(roots.begin(), roots.end(), av.begin(), av.end(),
                            std::back_inserter(merged));
      roots = std::move(merged);
    }
    if (roots.empty()) break;
  }
  if (first) return {};  // no probabilistic atoms
  return roots;
}

namespace {

/// Candidate (root var, per-symbol position set) choices for one disjunct.
struct DisjunctChoice {
  int var;
  // For each prob symbol in the disjunct: positions on which `var` occurs in
  // every atom of that symbol.
  std::unordered_map<std::string, std::set<size_t>> positions;
};

std::vector<DisjunctChoice> DisjunctChoices(const ConjunctiveQuery& cq,
                                            const IsProbFn& is_prob) {
  std::vector<DisjunctChoice> out;
  for (int v : RootVars(cq, is_prob)) {
    DisjunctChoice choice;
    choice.var = v;
    bool ok = true;
    for (const Atom& a : cq.atoms) {
      if (!is_prob(a.relation)) continue;
      std::vector<size_t> pos = VarPositions(a, v);
      if (pos.empty()) { ok = false; break; }
      std::set<size_t> pos_set(pos.begin(), pos.end());
      auto it = choice.positions.find(a.relation);
      if (it == choice.positions.end()) {
        choice.positions.emplace(a.relation, std::move(pos_set));
      } else {
        std::set<size_t> merged;
        std::set_intersection(it->second.begin(), it->second.end(),
                              pos_set.begin(), pos_set.end(),
                              std::inserter(merged, merged.begin()));
        if (merged.empty()) { ok = false; break; }
        it->second = std::move(merged);
      }
    }
    if (ok) out.push_back(std::move(choice));
  }
  return out;
}

/// Backtracking search for a consistent separator assignment. `allowed`
/// restricts the admissible positions per symbol (used by the
/// inversion-freeness check to respect already-consumed positions);
/// empty map = no restriction.
bool SearchSeparator(
    const Ucq& q, const IsProbFn& is_prob, size_t d,
    const std::unordered_map<std::string, std::set<size_t>>* allowed,
    std::unordered_map<std::string, std::set<size_t>>* sym_positions,
    Separator* out) {
  // Skip disjuncts with no probabilistic atoms.
  while (d < q.disjuncts.size() && !HasProbAtom(q.disjuncts[d], is_prob)) {
    out->var_of_disjunct[d] = -1;
    ++d;
  }
  if (d == q.disjuncts.size()) {
    // Fix one position per symbol (smallest admissible).
    for (const auto& [sym, set] : *sym_positions) {
      if (set.empty()) return false;
      out->position[sym] = *set.begin();
    }
    return true;
  }
  for (const DisjunctChoice& choice : DisjunctChoices(q.disjuncts[d], is_prob)) {
    // Intersect this choice's position sets into the global per-symbol sets.
    std::unordered_map<std::string, std::set<size_t>> saved = *sym_positions;
    bool feasible = true;
    for (const auto& [sym, pos_set] : choice.positions) {
      std::set<size_t> filtered = pos_set;
      if (allowed != nullptr) {
        auto ait = allowed->find(sym);
        if (ait != allowed->end()) {
          std::set<size_t> merged;
          std::set_intersection(filtered.begin(), filtered.end(),
                                ait->second.begin(), ait->second.end(),
                                std::inserter(merged, merged.begin()));
          filtered = std::move(merged);
        }
      }
      auto it = sym_positions->find(sym);
      if (it == sym_positions->end()) {
        (*sym_positions)[sym] = filtered;
      } else {
        std::set<size_t> merged;
        std::set_intersection(it->second.begin(), it->second.end(),
                              filtered.begin(), filtered.end(),
                              std::inserter(merged, merged.begin()));
        it->second = std::move(merged);
      }
      if ((*sym_positions)[sym].empty()) { feasible = false; break; }
    }
    if (feasible) {
      out->var_of_disjunct[d] = choice.var;
      if (SearchSeparator(q, is_prob, d + 1, allowed, sym_positions, out)) {
        return true;
      }
    }
    *sym_positions = std::move(saved);
  }
  return false;
}

}  // namespace

std::optional<Separator> FindSeparator(const Ucq& q, const IsProbFn& is_prob) {
  Separator sep;
  sep.var_of_disjunct.assign(q.disjuncts.size(), -1);
  std::unordered_map<std::string, std::set<size_t>> sym_positions;
  if (SearchSeparator(q, is_prob, 0, nullptr, &sym_positions, &sep)) {
    return sep;
  }
  return std::nullopt;
}

std::vector<std::vector<size_t>> IndependentUnionComponents(
    const Ucq& q, const IsProbFn& is_prob) {
  const size_t n = q.disjuncts.size();
  UnionFind uf(n);
  std::unordered_map<std::string, size_t> first_use;
  for (size_t d = 0; d < n; ++d) {
    for (const Atom& a : q.disjuncts[d].atoms) {
      if (!is_prob(a.relation)) continue;
      auto [it, inserted] = first_use.emplace(a.relation, d);
      if (!inserted) uf.Union(d, it->second);
    }
  }
  std::unordered_map<size_t, size_t> group_of_root;
  std::vector<std::vector<size_t>> groups;
  for (size_t d = 0; d < n; ++d) {
    const size_t root = uf.Find(d);
    auto [it, inserted] = group_of_root.emplace(root, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(d);
  }
  return groups;
}

namespace {

/// THE canonical walk: disjuncts in order; within a disjunct, atoms
/// left-to-right (arguments in position order), then comparisons (lhs,
/// rhs). Slot numbering — hence plan-template sharing — is defined by the
/// order this function visits constant terms in, so every signature/slot
/// routine below and ForEachUcqTerm go through it; never hand-roll the
/// loop elsewhere. The structural callbacks (disjunct/atom/comparison) let
/// the key encoder interleave punctuation; plain term walks pass no-ops.
template <typename UcqT, typename DisjFn, typename AtomFn, typename AtomEndFn,
          typename CmpFn, typename TermFn>
void WalkUcqCanonical(UcqT& q, DisjFn&& disjunct_begin, AtomFn&& atom_begin,
                      AtomEndFn&& atom_end, CmpFn&& comparison_begin,
                      TermFn&& term) {
  for (size_t d = 0; d < q.disjuncts.size(); ++d) {
    auto& cq = q.disjuncts[d];
    disjunct_begin(d);
    for (auto& a : cq.atoms) {
      atom_begin(a);
      for (auto& t : a.args) term(d, t);
      atom_end(a);
    }
    for (auto& c : cq.comparisons) {
      comparison_begin(c);
      term(d, c.lhs);
      term(d, c.rhs);
    }
  }
}

/// No-op structural callbacks for plain term walks.
constexpr auto kIgnoreDisjunct = [](size_t) {};
constexpr auto kIgnoreAtom = [](const Atom&) {};
constexpr auto kIgnoreComparison = [](const Comparison&) {};

/// Plain term walk in the canonical order (ForEachUcqTerm's engine).
template <typename UcqT, typename TermFn>
void WalkUcqTerms(UcqT& q, TermFn&& term) {
  WalkUcqCanonical(q, kIgnoreDisjunct, kIgnoreAtom, kIgnoreAtom,
                   kIgnoreComparison, term);
}

/// Incremental signature encoder. The canonical walk (head variables, then
/// per disjunct: atoms left-to-right, then comparisons lhs/rhs) fixes both
/// the slot numbering (constants, by first occurrence) and the canonical
/// variable numbering, so structurally isomorphic queries produce the same
/// key and ComputeUcqSignature / AbstractUcqConstants / the grounded variant
/// always agree on slot order.
class SignatureEncoder {
 public:
  SignatureEncoder() {
    sig_.key.reserve(128);
    var_of_.fill(-1);
  }

  void AddVar(int v) {
    int& id = CanonicalVar(v);
    if (id < 0) id = num_vars_++;
    AddNumbered('v', static_cast<size_t>(id));
  }
  void AddConst(Value c) {
    // Slots are the distinct constants by first occurrence, so a constant's
    // slot is its position in sig_.slots.
    const auto it = std::find(sig_.slots.begin(), sig_.slots.end(), c);
    const size_t slot = static_cast<size_t>(it - sig_.slots.begin());
    if (it == sig_.slots.end()) sig_.slots.push_back(c);
    AddNumbered('s', slot);
  }
  void AddAtomHeader(const Atom& a) {
    if (a.negated) sig_.key += '~';
    sig_.key += a.relation;
    sig_.key += '(';
  }
  void Punct(char c) { sig_.key += c; }

  UcqSignature Take() { return std::move(sig_); }

 private:
  static constexpr size_t kInlineVars = 32;

  /// `tag`, the decimal digits of `n`, then ','.
  void AddNumbered(char tag, size_t n) {
    char digits[20];
    size_t len = 0;
    do {
      digits[len++] = static_cast<char>('0' + n % 10);
      n /= 10;
    } while (n != 0);
    sig_.key += tag;
    while (len > 0) sig_.key += digits[--len];
    sig_.key += ',';
  }

  /// Canonical number of query variable v (-1 until first seen).
  int& CanonicalVar(int v) {
    MVDB_DCHECK(v >= 0);  // variable ids index Ucq::var_names
    const size_t at = static_cast<size_t>(v);
    if (at < kInlineVars) return var_of_[at];
    if (more_vars_.size() <= at - kInlineVars) {
      more_vars_.resize(at - kInlineVars + 1, -1);
    }
    return more_vars_[at - kInlineVars];
  }

  UcqSignature sig_;
  std::array<int, kInlineVars> var_of_;
  std::vector<int> more_vars_;  ///< variables kInlineVars and up
  int num_vars_ = 0;
};

/// Shared signature walk. `as_const(d, v)` tells whether the variable v of
/// disjunct d is to be treated as a bound constant (the grounded-signature
/// variant); `bound` supplies its value.
template <typename IsBoundFn>
UcqSignature EncodeSignature(const Ucq& q, const IsBoundFn& as_const,
                             Value bound) {
  SignatureEncoder enc;
  enc.Punct('H');
  for (int hv : q.head_vars) enc.AddVar(hv);
  WalkUcqCanonical(
      q, [&](size_t) { enc.Punct('D'); },
      [&](const Atom& a) { enc.AddAtomHeader(a); },
      [&](const Atom&) { enc.Punct(')'); },
      [&](const Comparison& c) {
        enc.Punct('C');
        enc.Punct(static_cast<char>('0' + static_cast<int>(c.op)));
      },
      [&](size_t d, const Term& t) {
        if (!t.is_var()) {
          enc.AddConst(t.constant);
        } else if (as_const(d, t.var)) {
          enc.AddConst(bound);
        } else {
          enc.AddVar(t.var);
        }
      });
  return enc.Take();
}

}  // namespace

UcqSignature ComputeUcqSignature(const Ucq& q) {
  return EncodeSignature(q, [](size_t, int) { return false; }, 0);
}

UcqSignature ComputeGroundedSignature(const Ucq& shape,
                                      const std::vector<int>& sub_var_of_disjunct,
                                      Value binding) {
  return EncodeSignature(
      shape,
      [&](size_t d, int v) {
        return d < sub_var_of_disjunct.size() && sub_var_of_disjunct[d] == v;
      },
      binding);
}

std::vector<Value> AbstractUcqConstants(Ucq* q) {
  std::vector<Value> slots;
  std::unordered_map<Value, size_t> slot_of;
  WalkUcqTerms(*q, [&](size_t, Term& t) {
    if (t.is_var()) return;
    auto [it, inserted] = slot_of.emplace(t.constant, slots.size());
    if (inserted) slots.push_back(t.constant);
    t.constant = static_cast<Value>(it->second);
  });
  return slots;
}

void BindUcqConstants(Ucq* q, std::span<const Value> slots) {
  WalkUcqTerms(*q, [&](size_t, Term& t) {
    if (!t.is_var()) t.constant = slots[static_cast<size_t>(t.constant)];
  });
}

void ForEachUcqTerm(const Ucq& q,
                    const std::function<void(size_t, const Term&)>& fn) {
  WalkUcqTerms(q, fn);
}

bool Unifiable(const Atom& a, const Atom& b) {
  if (a.relation != b.relation || a.args.size() != b.args.size()) return false;
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!a.args[i].is_var() && !b.args[i].is_var() &&
        a.args[i].constant != b.args[i].constant) {
      return false;
    }
  }
  return true;
}

bool MapsInto(const ConjunctiveQuery& general, const ConjunctiveQuery& specific) {
  if (!general.comparisons.empty()) return false;  // conservative
  // Backtracking search for a homomorphism on atoms.
  std::unordered_map<int, Term> mapping;  // general var -> specific term
  auto match_atom = [&](auto&& self, size_t gi) -> bool {
    if (gi == general.atoms.size()) return true;
    const Atom& g = general.atoms[gi];
    for (const Atom& s : specific.atoms) {
      if (s.relation != g.relation || s.args.size() != g.args.size()) continue;
      std::vector<int> newly_mapped;
      bool ok = true;
      for (size_t p = 0; p < g.args.size(); ++p) {
        const Term& gt = g.args[p];
        const Term& st = s.args[p];
        if (!gt.is_var()) {
          if (st.is_var() || st.constant != gt.constant) { ok = false; break; }
          continue;
        }
        auto it = mapping.find(gt.var);
        if (it == mapping.end()) {
          mapping.emplace(gt.var, st);
          newly_mapped.push_back(gt.var);
        } else if (!(it->second == st)) {
          ok = false;
          break;
        }
      }
      if (ok && self(self, gi + 1)) return true;
      for (int v : newly_mapped) mapping.erase(v);
    }
    return false;
  };
  return match_atom(match_atom, 0);
}

ConjunctiveQuery MinimizeCq(const ConjunctiveQuery& cq) {
  // Occurrence counts of each variable across atoms and comparisons.
  std::unordered_map<int, int> atom_occurrences;  // # atoms containing var
  for (const Atom& a : cq.atoms) {
    for (int v : AtomVars(a)) ++atom_occurrences[v];
  }
  std::unordered_map<int, bool> in_comparison;
  for (const Comparison& c : cq.comparisons) {
    if (c.lhs.is_var()) in_comparison[c.lhs.var] = true;
    if (c.rhs.is_var()) in_comparison[c.rhs.var] = true;
  }
  std::vector<bool> removed(cq.atoms.size(), false);

  auto exclusive_to = [&](int v, size_t atom_idx) {
    if (in_comparison.count(v)) return false;
    // Var occurs in exactly one atom (this one).
    (void)atom_idx;
    return atom_occurrences[v] == 1;
  };

  auto subsumed_by = [&](size_t ai, size_t bi) {
    const Atom& a = cq.atoms[ai];
    const Atom& b = cq.atoms[bi];
    if (a.relation != b.relation || a.args.size() != b.args.size()) return false;
    std::unordered_map<int, Term> mapping;  // exclusive var of A -> term of B
    for (size_t p = 0; p < a.args.size(); ++p) {
      const Term& ta = a.args[p];
      const Term& tb = b.args[p];
      if (ta == tb) continue;
      if (!ta.is_var() || !exclusive_to(ta.var, ai)) return false;
      auto [it, inserted] = mapping.emplace(ta.var, tb);
      if (!inserted && !(it->second == tb)) return false;
    }
    return true;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < cq.atoms.size() && !changed; ++i) {
      if (removed[i]) continue;
      for (size_t j = 0; j < cq.atoms.size(); ++j) {
        if (i == j || removed[j]) continue;
        if (subsumed_by(i, j)) {
          // Removing atom i frees its exclusive-variable occurrences; the
          // occurrence counts stay conservative (vars can only become "more
          // exclusive"), so we recompute them for soundness.
          removed[i] = true;
          for (int v : AtomVars(cq.atoms[i])) --atom_occurrences[v];
          changed = true;
          break;
        }
      }
    }
  }
  ConjunctiveQuery out;
  for (size_t i = 0; i < cq.atoms.size(); ++i) {
    if (!removed[i]) out.atoms.push_back(cq.atoms[i]);
  }
  out.comparisons = cq.comparisons;
  return out;
}

std::vector<ConjunctiveQuery> ConnectedComponents(const ConjunctiveQuery& cq,
                                                  const IsProbFn& is_prob) {
  const size_t n = cq.atoms.size();
  if (n == 0) return {cq};
  UnionFind uf(n);
  std::unordered_map<int, size_t> atom_of_var;
  for (size_t i = 0; i < n; ++i) {
    for (int v : AtomVars(cq.atoms[i])) {
      auto [it, inserted] = atom_of_var.emplace(v, i);
      if (!inserted) uf.Union(i, it->second);
    }
    if (!is_prob(cq.atoms[i].relation)) continue;
    // Same probabilistic symbol with unifiable patterns: potential tuple
    // sharing connects the atoms.
    for (size_t j = 0; j < i; ++j) {
      if (is_prob(cq.atoms[j].relation) && Unifiable(cq.atoms[i], cq.atoms[j])) {
        uf.Union(i, j);
      }
    }
  }
  // Comparisons link the components of their variables.
  for (const Comparison& c : cq.comparisons) {
    int a = -1;
    if (c.lhs.is_var() && atom_of_var.count(c.lhs.var)) a = static_cast<int>(atom_of_var[c.lhs.var]);
    int b = -1;
    if (c.rhs.is_var() && atom_of_var.count(c.rhs.var)) b = static_cast<int>(atom_of_var[c.rhs.var]);
    if (a >= 0 && b >= 0) uf.Union(static_cast<size_t>(a), static_cast<size_t>(b));
  }
  std::unordered_map<size_t, size_t> comp_of_root;
  std::vector<ConjunctiveQuery> comps;
  std::vector<size_t> comp_of_atom(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t root = uf.Find(i);
    auto [it, inserted] = comp_of_root.emplace(root, comps.size());
    if (inserted) comps.emplace_back();
    comp_of_atom[i] = it->second;
    comps[it->second].atoms.push_back(cq.atoms[i]);
  }
  for (const Comparison& c : cq.comparisons) {
    size_t target = 0;
    if (c.lhs.is_var() && atom_of_var.count(c.lhs.var)) {
      target = comp_of_atom[atom_of_var[c.lhs.var]];
    } else if (c.rhs.is_var() && atom_of_var.count(c.rhs.var)) {
      target = comp_of_atom[atom_of_var[c.rhs.var]];
    }
    comps[target].comparisons.push_back(c);
  }
  return comps;
}

namespace {

/// Fresh generic constants for the data-independent inversion-freeness
/// check. They never collide with real Values, which are non-negative
/// (interned ids) or small integers (years, counts) well above this range.
Value GenericConstant(int depth) { return -1000000 - depth; }

bool AllProbAtomsGround(const Ucq& q, const IsProbFn& is_prob) {
  for (const auto& cq : q.disjuncts) {
    for (const Atom& a : cq.atoms) {
      if (!is_prob(a.relation)) continue;
      for (const Term& t : a.args) {
        if (t.is_var()) return false;
      }
    }
  }
  return true;
}

/// Builds a sub-UCQ from a subset of disjunct indices.
Ucq SubUcq(const Ucq& q, const std::vector<size_t>& disjuncts) {
  Ucq out = q;
  out.disjuncts.clear();
  for (size_t d : disjuncts) out.disjuncts.push_back(q.disjuncts[d]);
  return out;
}

/// Recursive inversion-freeness check; appends consumed separator positions
/// per symbol into `consumed` (which doubles as the permutation prefix).
bool InversionFreeRec(const Ucq& q, const IsProbFn& is_prob, int depth,
                      std::unordered_map<std::string, std::vector<size_t>>* consumed) {
  // Drop disjuncts with no probabilistic atoms; they contribute no variables.
  Ucq pruned = q;
  std::erase_if(pruned.disjuncts, [&](const ConjunctiveQuery& cq) {
    return !HasProbAtom(cq, is_prob);
  });
  if (pruned.disjuncts.empty()) return true;
  if (AllProbAtomsGround(pruned, is_prob)) return true;

  // R1: independent unions recurse separately (disjoint symbols: consumed
  // bookkeeping cannot conflict).
  const auto groups = IndependentUnionComponents(pruned, is_prob);
  if (groups.size() > 1) {
    for (const auto& g : groups) {
      if (!InversionFreeRec(SubUcq(pruned, g), is_prob, depth, consumed)) {
        return false;
      }
    }
    return true;
  }

  // R2: a single CQ may split into independent components.
  if (pruned.disjuncts.size() == 1) {
    auto comps = ConnectedComponents(pruned.disjuncts[0], is_prob);
    if (comps.size() > 1) {
      for (auto& comp : comps) {
        Ucq sub = pruned;
        sub.disjuncts = {std::move(comp)};
        if (!InversionFreeRec(sub, is_prob, depth, consumed)) return false;
      }
      return true;
    }
  }

  // R3: need a separator whose positions have not been consumed yet.
  std::unordered_map<std::string, std::set<size_t>> allowed;
  // Build 'not yet consumed' position sets lazily: a symbol absent from the
  // map is unrestricted, so only symbols with consumed positions matter.
  std::unordered_map<std::string, size_t> arity_of;
  for (const auto& cq : pruned.disjuncts) {
    for (const Atom& a : cq.atoms) {
      if (is_prob(a.relation)) arity_of[a.relation] = a.args.size();
    }
  }
  for (const auto& [sym, cons] : *consumed) {
    auto it = arity_of.find(sym);
    if (it == arity_of.end()) continue;
    std::set<size_t> rest;
    for (size_t p = 0; p < it->second; ++p) {
      if (std::find(cons.begin(), cons.end(), p) == cons.end()) rest.insert(p);
    }
    allowed[sym] = std::move(rest);
  }

  Separator sep;
  sep.var_of_disjunct.assign(pruned.disjuncts.size(), -1);
  std::unordered_map<std::string, std::set<size_t>> sym_positions;
  if (!SearchSeparator(pruned, is_prob, 0, allowed.empty() ? nullptr : &allowed,
                       &sym_positions, &sep)) {
    return false;
  }
  // Consume the chosen positions.
  for (const auto& [sym, pos] : sep.position) {
    auto& cons = (*consumed)[sym];
    if (std::find(cons.begin(), cons.end(), pos) == cons.end()) {
      cons.push_back(pos);
    }
  }
  // Substitute every disjunct's separator variable by one generic constant:
  // one representative value suffices for the data-independent check.
  Ucq next = pruned;
  const Value c = GenericConstant(depth);
  for (size_t d = 0; d < next.disjuncts.size(); ++d) {
    if (sep.var_of_disjunct[d] < 0) continue;
    Ucq tmp;
    tmp.disjuncts = {next.disjuncts[d]};
    tmp.var_names = next.var_names;
    tmp = Substitute(tmp, sep.var_of_disjunct[d], c);
    next.disjuncts[d] = tmp.disjuncts[0];
  }
  return InversionFreeRec(next, is_prob, depth + 1, consumed);
}

}  // namespace

std::optional<AttrPerm> FindInversionFreePi(
    const Ucq& q, const IsProbFn& is_prob,
    const std::unordered_map<std::string, size_t>& arity) {
  std::unordered_map<std::string, std::vector<size_t>> consumed;
  if (!InversionFreeRec(q, is_prob, 0, &consumed)) return std::nullopt;
  AttrPerm pi;
  for (const auto& [sym, k] : arity) {
    std::vector<size_t> perm;
    auto it = consumed.find(sym);
    if (it != consumed.end()) perm = it->second;
    for (size_t p = 0; p < k; ++p) {
      if (std::find(perm.begin(), perm.end(), p) == perm.end()) perm.push_back(p);
    }
    pi[sym] = std::move(perm);
  }
  return pi;
}

}  // namespace mvdb

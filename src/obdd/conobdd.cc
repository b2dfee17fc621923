#include "obdd/conobdd.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>

#include "query/eval.h"
#include "util/logging.h"

namespace mvdb {
namespace {

/// Distinct values at column `pos` among the rows compatible with the
/// atom's ground arguments (an index probe keeps nested separator
/// decompositions linear instead of rescanning whole columns).
std::vector<Value> AtomColumnDomain(const Database& db, const Atom& atom,
                                    size_t pos) {
  const Table* t = db.Find(atom.relation);
  MVDB_CHECK(t != nullptr);
  int probe_col = -1;
  Value probe_val = 0;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (!atom.args[i].is_var()) {
      probe_col = static_cast<int>(i);
      probe_val = atom.args[i].constant;
      break;
    }
  }
  std::vector<Value> out;
  auto consider = [&](RowId r) {
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (!atom.args[i].is_var() && t->At(r, i) != atom.args[i].constant) return;
    }
    out.push_back(t->At(r, pos));
  };
  if (probe_col >= 0) {
    for (RowId r : t->Probe(static_cast<size_t>(probe_col), probe_val)) consider(r);
  } else {
    const size_t n = t->size();
    for (size_t r = 0; r < n; ++r) consider(static_cast<RowId>(r));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Builds a sub-UCQ keeping only the listed disjuncts.
Ucq SubUcq(const Ucq& q, const std::vector<size_t>& disjuncts) {
  Ucq out = q;
  out.disjuncts.clear();
  for (size_t d : disjuncts) out.disjuncts.push_back(q.disjuncts[d]);
  return out;
}

void SortByMinLevel(std::vector<ConResult>* parts) {
  std::sort(parts->begin(), parts->end(),
            [](const ConResult& a, const ConResult& b) {
              return a.min_level < b.min_level;
            });
}

/// Folds non-empty `parts` right to left: Concat(f, g) rebuilds f only, so
/// folding from the back rebuilds each part once (linear) instead of
/// rebuilding the growing chain at every step (quadratic).
ConResult FoldRight(const std::vector<ConResult>& parts, ConObddBuilder* b,
                    ConResult (ConObddBuilder::*combine)(const ConResult&,
                                                         const ConResult&)) {
  ConResult acc = parts.back();
  for (size_t i = parts.size() - 1; i-- > 0;) {
    acc = (b->*combine)(parts[i], acc);
  }
  return acc;
}

}  // namespace

ConResult ConObddBuilder::CombineOr(const ConResult& a,
                                    const ConResult& b) {
  ConResult out;
  out.min_level = std::min(a.min_level, b.min_level);
  out.max_level = std::max(a.max_level, b.max_level);
  if (a.id == BddManager::kFalse) { out.id = b.id; return out; }
  if (b.id == BddManager::kFalse) { out.id = a.id; return out; }
  if (a.id == BddManager::kTrue || b.id == BddManager::kTrue) {
    out.id = BddManager::kTrue;
    return out;
  }
  if (a.max_level < b.min_level) {
    out.id = mgr_->ConcatOr(a.id, b.id);
    ++concat_count_;
  } else if (b.max_level < a.min_level) {
    out.id = mgr_->ConcatOr(b.id, a.id);
    ++concat_count_;
  } else {
    out.id = mgr_->Or(a.id, b.id);
    ++synthesis_count_;
  }
  return out;
}

ConResult ConObddBuilder::CombineAnd(const ConResult& a,
                                     const ConResult& b) {
  ConResult out;
  out.min_level = std::min(a.min_level, b.min_level);
  out.max_level = std::max(a.max_level, b.max_level);
  if (a.id == BddManager::kTrue) { out.id = b.id; return out; }
  if (b.id == BddManager::kTrue) { out.id = a.id; return out; }
  if (a.id == BddManager::kFalse || b.id == BddManager::kFalse) {
    out.id = BddManager::kFalse;
    return out;
  }
  if (a.max_level < b.min_level) {
    out.id = mgr_->ConcatAnd(a.id, b.id);
    ++concat_count_;
  } else if (b.max_level < a.min_level) {
    out.id = mgr_->ConcatAnd(b.id, a.id);
    ++concat_count_;
  } else {
    out.id = mgr_->And(a.id, b.id);
    ++synthesis_count_;
  }
  return out;
}

ConResult ConObddBuilder::FromLineage(const Lineage& lineage) {
  ConResult out;
  if (lineage.IsTrue()) {
    out.id = BddManager::kTrue;
    return out;
  }
  if (lineage.IsFalse()) {
    out.id = BddManager::kFalse;
    return out;
  }
  // One pass: the synthesis already touches every literal's level, so it
  // widens the range as it goes.
  out.id = mgr_->FromClauseListSynthesis(lineage.clause_list(),
                                         &out.min_level, &out.max_level);
  // A single clause is a chain built directly, no apply: concatenation-grade.
  if (lineage.size() > 1) {
    ++synthesis_count_;
  } else {
    ++concat_count_;
  }
  return out;
}

// ---------------------------------------------------------------------------
// ConObddTemplate: the Section 4.2 recursion, planned once per shape.
// ---------------------------------------------------------------------------

/// One step of the recursion on a (sub-)query. `det_checks` replays the
/// deterministic-disjunct prune (value-dependent truth, so evaluated per
/// binding); the kind records which rule the signature selects.
struct ConObddTemplateNode {
  enum class Kind {
    kFalse,    ///< no probabilistic disjunct survives the prune
    kLeaf,     ///< R4 residual: prepared join plans + lineage synthesis
    kOrFold,   ///< R1 independent unions
    kAndFold,  ///< R2 independent join components
    kGeneric,  ///< R3 separator decomposition: the active domain is
               ///< value-dependent, so it is expanded per binding; each
               ///< distinct sub-query shape is planned once per expansion
  };

  /// R2 child: either a probabilistic sub-node or a deterministic-only
  /// component check (false kills the conjunction, true is dropped).
  struct Child {
    std::unique_ptr<ConObddTemplateNode> sub;
    std::unique_ptr<const PlanTemplate> det;
  };

  Kind kind = Kind::kFalse;
  std::vector<std::unique_ptr<const PlanTemplate>> det_checks;
  std::unique_ptr<const PlanTemplate> leaf;
  std::vector<Child> children;
  Ucq generic;    ///< kGeneric: abstracted residual
  Separator sep;  ///< kGeneric: its separator (constant-independent)
};

ConObddTemplate::ConObddTemplate() = default;
ConObddTemplate::~ConObddTemplate() = default;

Status ConObddTemplate::PlanNode(const Database& db, const IsProbFn& is_prob,
                                 const Ucq& q, ConObddTemplateNode* out) {
  // Deterministic-only disjuncts: truth is binding-dependent, so record a
  // prepared plan per disjunct (evaluated in disjunct order at execution).
  for (size_t d = 0; d < q.disjuncts.size(); ++d) {
    if (HasProbAtom(q.disjuncts[d], is_prob)) continue;
    MVDB_ASSIGN_OR_RETURN(
        std::unique_ptr<const PlanTemplate> check,
        PlanTemplate::PlanAbstracted(db, SubUcq(q, {d}), EvalOptions{}));
    out->det_checks.push_back(std::move(check));
  }
  Ucq pruned = q;
  std::erase_if(pruned.disjuncts, [&](const ConjunctiveQuery& cq) {
    return !HasProbAtom(cq, is_prob);
  });
  if (pruned.disjuncts.empty()) {
    out->kind = ConObddTemplateNode::Kind::kFalse;
    return Status::OK();
  }

  // R1: independent unions — the grouping is a function of the relation
  // symbols alone, hence of the signature.
  const auto groups = IndependentUnionComponents(pruned, is_prob);
  if (groups.size() > 1) {
    out->kind = ConObddTemplateNode::Kind::kOrFold;
    for (const auto& g : groups) {
      ConObddTemplateNode::Child child;
      child.sub = std::make_unique<ConObddTemplateNode>();
      MVDB_RETURN_NOT_OK(PlanNode(db, is_prob, SubUcq(pruned, g),
                                  child.sub.get()));
      out->children.push_back(std::move(child));
    }
    return Status::OK();
  }

  // R2: join components. Unifiable() compares abstracted constants by slot
  // id, which is exactly value equality for every binding of the signature,
  // so the component split is shared too.
  if (pruned.disjuncts.size() == 1) {
    auto comps = ConnectedComponents(pruned.disjuncts[0], is_prob);
    if (comps.size() > 1) {
      out->kind = ConObddTemplateNode::Kind::kAndFold;
      for (auto& comp : comps) {
        Ucq sub = pruned;
        const bool det = !HasProbAtom(comp, is_prob);
        sub.disjuncts = {std::move(comp)};
        ConObddTemplateNode::Child child;
        if (det) {
          MVDB_ASSIGN_OR_RETURN(
              child.det,
              PlanTemplate::PlanAbstracted(db, std::move(sub), EvalOptions{}));
        } else {
          child.sub = std::make_unique<ConObddTemplateNode>();
          MVDB_RETURN_NOT_OK(PlanNode(db, is_prob, sub, child.sub.get()));
        }
        out->children.push_back(std::move(child));
      }
      return Status::OK();
    }
  }

  // R3: the separator depends on variables alone, so it is fixed at plan
  // time; its active domain is expanded per binding.
  if (auto sep = FindSeparator(pruned, is_prob); sep.has_value()) {
    // Only decompose if at least one disjunct still has a variable to ground
    // (all-ground queries go to the R4 leaf).
    bool any_var = false;
    for (int v : sep->var_of_disjunct) any_var |= (v >= 0);
    if (any_var) {
      out->kind = ConObddTemplateNode::Kind::kGeneric;
      out->generic = std::move(pruned);
      out->sep = std::move(*sep);
      return Status::OK();
    }
  }

  // R4: residual subquery — prepared join plans, lineage synthesis at exec.
  out->kind = ConObddTemplateNode::Kind::kLeaf;
  MVDB_ASSIGN_OR_RETURN(
      out->leaf,
      PlanTemplate::PlanAbstracted(db, std::move(pruned), EvalOptions{}));
  return Status::OK();
}

StatusOr<std::unique_ptr<const ConObddTemplate>> ConObddTemplate::Plan(
    const Database& db, const IsProbFn& is_prob, const Ucq& exemplar,
    std::vector<Value>* exemplar_slots) {
  if (!exemplar.IsBoolean()) {
    return Status::InvalidArgument("ConObdd requires a Boolean query");
  }
  std::unique_ptr<ConObddTemplate> tmpl(new ConObddTemplate());
  tmpl->db_ = &db;
  Ucq abstracted = exemplar;
  std::vector<Value> slots = AbstractUcqConstants(&abstracted);
  if (exemplar_slots != nullptr) *exemplar_slots = std::move(slots);
  tmpl->root_ = std::make_unique<ConObddTemplateNode>();
  MVDB_RETURN_NOT_OK(PlanNode(db, is_prob, abstracted, tmpl->root_.get()));
  return std::unique_ptr<const ConObddTemplate>(std::move(tmpl));
}

StatusOr<ConResult> ConObddTemplate::ExecNode(const ConObddTemplateNode& node,
                                              std::span<const Value> slots,
                                              ConObddScratch* scratch,
                                              ConObddBuilder* helper) const {
  // Deterministic-disjunct prune: a true disjunct makes the whole query
  // certainly true on I_poss.
  for (const auto& check : node.det_checks) {
    MVDB_RETURN_NOT_OK(
        check->ExecuteBoolean(slots, &scratch->eval, &scratch->lineage));
    if (scratch->lineage.IsTrue()) {
      ConResult out;
      out.id = BddManager::kTrue;
      return out;
    }
  }
  switch (node.kind) {
    case ConObddTemplateNode::Kind::kFalse:
      return ConResult{};
    case ConObddTemplateNode::Kind::kLeaf: {
      MVDB_RETURN_NOT_OK(
          node.leaf->ExecuteBoolean(slots, &scratch->eval, &scratch->lineage));
      return helper->FromLineage(scratch->lineage);
    }
    case ConObddTemplateNode::Kind::kOrFold: {
      std::vector<ConResult> parts;
      parts.reserve(node.children.size());
      for (const auto& child : node.children) {
        MVDB_ASSIGN_OR_RETURN(ConResult r,
                              ExecNode(*child.sub, slots, scratch, helper));
        parts.push_back(r);
      }
      SortByMinLevel(&parts);
      return FoldRight(parts, helper, &ConObddBuilder::CombineOr);
    }
    case ConObddTemplateNode::Kind::kAndFold: {
      std::vector<ConResult> parts;
      parts.reserve(node.children.size());
      for (const auto& child : node.children) {
        if (child.det != nullptr) {
          // Deterministic component: true keeps the conjunction, false
          // kills it.
          MVDB_RETURN_NOT_OK(child.det->ExecuteBoolean(slots, &scratch->eval,
                                                       &scratch->lineage));
          if (!scratch->lineage.IsTrue()) return ConResult{};  // false conjunct
          continue;
        }
        MVDB_ASSIGN_OR_RETURN(ConResult r,
                              ExecNode(*child.sub, slots, scratch, helper));
        parts.push_back(r);
      }
      if (parts.empty()) {
        ConResult out;
        out.id = BddManager::kTrue;
        return out;
      }
      SortByMinLevel(&parts);
      return FoldRight(parts, helper, &ConObddBuilder::CombineAnd);
    }
    case ConObddTemplateNode::Kind::kGeneric: {
      Ucq grounded = node.generic;
      BindUcqConstants(&grounded, slots);
      // Candidate separator values: per disjunct, intersect the distinct
      // values of the separator column across its probabilistic atoms;
      // union across disjuncts.
      std::set<Value> domain;
      for (size_t d = 0; d < grounded.disjuncts.size(); ++d) {
        if (node.sep.var_of_disjunct[d] < 0) continue;
        std::vector<Value> values;
        bool first = true;
        for (const Atom& a : grounded.disjuncts[d].atoms) {
          if (!helper->is_prob_(a.relation)) continue;
          std::vector<Value> col = AtomColumnDomain(
              helper->db_, a, node.sep.position.at(a.relation));
          if (first) {
            values = std::move(col);
            first = false;
          } else {
            std::vector<Value> merged;
            std::set_intersection(values.begin(), values.end(), col.begin(),
                                  col.end(), std::back_inserter(merged));
            values = std::move(merged);
          }
        }
        domain.insert(values.begin(), values.end());
      }
      std::vector<ConResult> blocks;
      blocks.reserve(domain.size());
      // Every value that does not collide with a query constant gives the
      // same signature, so each shape is planned once (as PlanBlockTasks
      // plans the block shapes) and every value executes it with its own
      // slots — bit-identical to planning the value's sub-query afresh.
      std::unordered_map<std::string, std::unique_ptr<const ConObddTemplate>>
          shapes;
      for (Value a : domain) {
        Ucq sub = grounded;
        for (size_t d = 0; d < sub.disjuncts.size(); ++d) {
          const int z = node.sep.var_of_disjunct[d];
          if (z >= 0) SubstituteInDisjunct(&sub, d, z, a);
        }
        UcqSignature sig = ComputeUcqSignature(sub);
        auto it = shapes.find(sig.key);
        if (it == shapes.end()) {
          MVDB_ASSIGN_OR_RETURN(std::unique_ptr<const ConObddTemplate> planned,
                                Plan(helper->db_, helper->is_prob_, sub));
          it = shapes.emplace(std::move(sig.key), std::move(planned)).first;
        }
        const ConObddTemplate& sub_tmpl = *it->second;
        MVDB_ASSIGN_OR_RETURN(
            ConResult r,
            sub_tmpl.ExecNode(*sub_tmpl.root_, sig.slots, scratch, helper));
        if (r.id == BddManager::kTrue) return r;
        if (r.id != BddManager::kFalse) blocks.push_back(r);
      }
      if (blocks.empty()) return ConResult{};  // false
      // Domain values ascend, and the separator-first order makes block
      // ranges ascend with them; the right-to-left fold rebuilds each block
      // at most once (Proposition 1's linear bound).
      return FoldRight(blocks, helper, &ConObddBuilder::CombineOr);
    }
  }
  return Status::Internal("unreachable template node kind");
}

StatusOr<NodeId> ConObddTemplate::Execute(std::span<const Value> slots,
                                          BddManager* mgr,
                                          ConObddScratch* scratch) const {
  ConObddBuilder helper(*db_, mgr);
  MVDB_ASSIGN_OR_RETURN(ConResult r, ExecNode(*root_, slots, scratch, &helper));
  return r.id;
}

StatusOr<NodeId> ConObddBuilder::Build(const Ucq& boolean_query) {
  std::vector<Value> slots;
  MVDB_ASSIGN_OR_RETURN(
      std::unique_ptr<const ConObddTemplate> tmpl,
      ConObddTemplate::Plan(db_, is_prob_, boolean_query, &slots));
  ConObddScratch scratch;
  MVDB_ASSIGN_OR_RETURN(ConResult r,
                        tmpl->ExecNode(*tmpl->root_, slots, &scratch, this));
  return r.id;
}

}  // namespace mvdb

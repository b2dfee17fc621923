#include "core/mvdb.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "query/eval.h"
#include "util/logging.h"

namespace mvdb {
namespace {

/// Appends the disjuncts of `def` (head cleared) to the Boolean query `w`,
/// renaming variables apart. When `nv_relation` is non-null, each disjunct
/// additionally receives the atom NV(head terms) in front — Eq. 4's
/// NV_i(x) ^ Q_i(x).
void MergeIntoW(Ucq* w, const Ucq& def, const std::string* nv_relation,
                const std::string& view_name) {
  std::vector<int> remap(static_cast<size_t>(def.num_vars()), -1);
  auto map_var = [&](int v) {
    int& m = remap[static_cast<size_t>(v)];
    if (m < 0) {
      m = w->AddVar(view_name + "." + def.var_names[static_cast<size_t>(v)]);
    }
    return m;
  };
  auto map_term = [&](const Term& t) {
    return t.is_var() ? Term::Var(map_var(t.var)) : t;
  };
  for (const ConjunctiveQuery& cq : def.disjuncts) {
    ConjunctiveQuery out;
    if (nv_relation != nullptr) {
      Atom nv;
      nv.relation = *nv_relation;
      for (int hv : def.head_vars) nv.args.push_back(Term::Var(map_var(hv)));
      out.atoms.push_back(std::move(nv));
    }
    for (const Atom& a : cq.atoms) {
      Atom atom;
      atom.relation = a.relation;
      atom.negated = a.negated;
      for (const Term& t : a.args) atom.args.push_back(map_term(t));
      out.atoms.push_back(std::move(atom));
    }
    for (const Comparison& c : cq.comparisons) {
      out.comparisons.push_back(Comparison{map_term(c.lhs), c.op, map_term(c.rhs)});
    }
    w->disjuncts.push_back(std::move(out));
  }
}

}  // namespace

Status Mvdb::AddView(MarkoView view) {
  if (translated_) {
    return Status::InvalidArgument("cannot add views after Translate()");
  }
  if (view.definition().head_vars.empty()) {
    return Status::InvalidArgument("MarkoView '" + view.name() +
                                   "' must have head variables");
  }
  views_.push_back(std::move(view));
  return Status::OK();
}

Status Mvdb::Translate(const TranslateOptions& options) {
  if (translated_) return Status::AlreadyExists("Translate() already ran");
  base_num_vars_ = db_.num_vars();
  w_ = Ucq{};
  // Not `= "W"`: the char* assignment trips GCC 12's -Wrestrict false
  // positive on short literals (GCC PR105651) under -O2 -Werror.
  w_.name = std::string("W");

  view_tuples_.resize(views_.size());
  nv_tables_.assign(views_.size(), nullptr);
  for (size_t i = 0; i < views_.size(); ++i) {
    const MarkoView& view = views_[i];

    // Materialize the view over I_poss with lineage + distinct counts. The
    // evaluation shards the view's driver atom over the thread budget; the
    // answer map is bit-identical for any thread count.
    AnswerMap answers;
    EvalOptions opts;
    opts.count_var = view.count_var();
    opts.num_threads = options.num_threads;
    MVDB_RETURN_NOT_OK(Eval(db_, view.definition(), opts, &answers));

    std::vector<ViewTuple>& tuples = view_tuples_[i];
    tuples.reserve(answers.size());
    bool all_denial = !answers.empty();
    // One pass touches each materialized tuple exactly once: the weight,
    // its sanity check and the pure-denial detection ride the loop that
    // moves the lineage out of the answer map.
    for (auto& [head, info] : answers) {
      const double w =
          view.Weight(head, static_cast<int64_t>(info.count_values.size()));
      if (std::isinf(w)) {
        return Status::InvalidArgument("view '" + view.name() +
                                       "' produced an infinite weight");
      }
      if (w < 0.0 || std::isnan(w)) {
        return Status::InvalidArgument("view '" + view.name() +
                                       "' produced an invalid weight");
      }
      if (w != 0.0) all_denial = false;
      tuples.push_back(ViewTuple{head, w, std::move(info.lineage), kNoVar});
    }

    if (tuples.empty()) continue;  // empty view: no features, no W disjunct

    if (all_denial) {
      // Paper's simplification: NV is deterministic and can be dropped from
      // W_i entirely; the constraint is the view body itself.
      MergeIntoW(&w_, view.definition(), nullptr, view.name());
      continue;
    }

    // Create the NV relation and populate it with w0 = (1-w)/w.
    const std::string nv_name = NvTableName(i);
    std::vector<std::string> attrs;
    for (int hv : view.definition().head_vars) {
      attrs.push_back(view.definition().var_names[static_cast<size_t>(hv)]);
    }
    MVDB_ASSIGN_OR_RETURN(Table * nv, db_.CreateTable(nv_name, attrs, true));
    nv_tables_[i] = nv;
    for (ViewTuple& t : tuples) {
      if (t.weight == 1.0) continue;  // independence: no feature, no NV tuple
      const double w0 =
          (t.weight == 0.0) ? kCertainWeight : (1.0 - t.weight) / t.weight;
      t.nv_var = db_.InsertProbabilistic(nv_name, std::span<const Value>(t.head),
                                         w0);
    }
    MergeIntoW(&w_, view.definition(), &nv_name, view.name());
  }

  translated_ = true;
  return Status::OK();
}

Status Mvdb::ApplyBaseDelta(const std::vector<DeltaOp>& ops,
                            DeltaEffects* effects) {
  *effects = DeltaEffects{};
  if (!translated_) {
    return Status::InvalidArgument(
        "ApplyBaseDelta maintains the translated INDB; call Translate() first");
  }
  for (const DeltaOp& op : ops) {
    MVDB_RETURN_NOT_OK(ApplyOneDelta(op, effects));
  }
  return Status::OK();
}

Status Mvdb::ApplyOneDelta(const DeltaOp& op, DeltaEffects* effects) {
  Table* t = db_.FindMutable(op.table);
  if (t == nullptr) {
    return Status::NotFound("no such table: " + op.table);
  }
  if (std::find(nv_tables_.begin(), nv_tables_.end(), t) != nv_tables_.end()) {
    return Status::InvalidArgument(
        "NV relations are maintained by the translation; mutate the base "
        "tables instead: " + op.table);
  }
  if (!t->probabilistic()) {
    return Status::Unimplemented(
        "delta on deterministic table '" + op.table +
        "': aggregate counts range over deterministic tables, so such a "
        "change can reshape every view weight; rebuild instead");
  }
  if (op.values.size() != t->arity()) {
    return Status::InvalidArgument(
        "arity mismatch for " + op.table + ": got " +
        std::to_string(op.values.size()) + ", want " +
        std::to_string(t->arity()));
  }
  const double w =
      op.kind == DeltaOp::Kind::kDelete ? 0.0 : op.weight;
  if (std::isnan(w) || std::isinf(w) || w < 0.0) {
    return Status::InvalidArgument("invalid tuple weight for " + op.table);
  }

  if (op.kind != DeltaOp::Kind::kInsert) {
    RowId row;
    if (!t->FindRow(std::span<const Value>(op.values), &row)) {
      return Status::NotFound("no such tuple in " + op.table);
    }
    const VarId v = t->var(row);
    if (db_.var_weight(v) == w) return Status::OK();  // no-op
    // Weight moves never touch view output: materialization, lineage and
    // counts all range over I_poss (Section 2.4), and a tombstoned tuple
    // stays *possible* — only its marginal drops to zero.
    db_.set_var_weight(v, w);
    effects->changed_weight_vars.push_back(v);
    return Status::OK();
  }

  // Insert: the tuple must be new (upserts decompose into find + update).
  {
    RowId row;
    if (t->FindRow(std::span<const Value>(op.values), &row)) {
      return Status::AlreadyExists("tuple already exists in " + op.table +
                                   "; use a weight update");
    }
  }
  const VarId v =
      db_.InsertProbabilistic(op.table, std::span<const Value>(op.values), w);
  effects->new_vars.push_back(v);
  for (size_t i = 0; i < views_.size(); ++i) {
    MVDB_RETURN_NOT_OK(MaintainViewForInsert(
        i, op.table, std::span<const Value>(op.values), effects));
  }
  return Status::OK();
}

Status Mvdb::MaintainViewForInsert(size_t view_index, const std::string& table,
                                   std::span<const Value> values,
                                   DeltaEffects* effects) {
  const MarkoView& view = views_[view_index];
  const Ucq& def = view.definition();

  // Stage 1: candidate discovery. Any head whose Q_i(t) derivations gained
  // the new tuple uses it at some atom of some disjunct, with that atom's
  // terms unifying against the tuple — so evaluating each such disjunct
  // with the unification pinned by equality predicates enumerates a
  // superset of the affected heads.
  std::set<std::vector<Value>> candidates;
  for (const ConjunctiveQuery& cq : def.disjuncts) {
    for (const Atom& a : cq.atoms) {
      if (a.relation != table) continue;
      if (a.negated) {
        return Status::Unimplemented(
            "view '" + view.name() + "' reads " + table +
            " under negation; deletions from derivations need a rebuild");
      }
      std::map<int, Value> binding;
      bool match = true;
      for (size_t k = 0; k < a.args.size() && match; ++k) {
        const Term& arg = a.args[k];
        if (!arg.is_var()) {
          match = arg.constant == values[k];
        } else {
          const auto [it, inserted] = binding.emplace(arg.var, values[k]);
          match = inserted || it->second == values[k];
        }
      }
      if (!match) continue;
      Ucq restricted;
      restricted.name = def.name;
      restricted.head_vars = def.head_vars;
      restricted.var_names = def.var_names;
      restricted.disjuncts.push_back(cq);
      for (const auto& [var, value] : binding) {
        restricted.disjuncts[0].comparisons.push_back(
            Comparison{Term::Var(var), CmpOp::kEq, Term::Const(value)});
      }
      AnswerMap answers;
      MVDB_RETURN_NOT_OK(Eval(db_, restricted, EvalOptions{}, &answers));
      for (const auto& [head, info] : answers) candidates.insert(head);
    }
  }
  if (candidates.empty()) return Status::OK();

  std::vector<ViewTuple>& tuples = view_tuples_[view_index];
  if (head_index_.size() < views_.size()) head_index_.resize(views_.size());
  std::map<std::vector<Value>, size_t>& index = head_index_[view_index];
  if (index.empty() && !tuples.empty()) {
    for (size_t j = 0; j < tuples.size(); ++j) index.emplace(tuples[j].head, j);
  }

  const std::string nv_name = NvTableName(view_index);
  const bool has_nv_table = nv_tables_[view_index] != nullptr;

  // Stage 2: point-wise reconciliation, in the candidates' deterministic
  // order. Each head is re-grounded over the full definition, yielding its
  // updated lineage and distinct count, and the stored ViewTuple / NV
  // weight is brought in line with what Translate() would now produce.
  for (const std::vector<Value>& head : candidates) {
    const Ucq grounded = GroundHead(def, head);
    AnswerMap answers;
    EvalOptions opts;
    opts.count_var = view.count_var();
    MVDB_RETURN_NOT_OK(Eval(db_, grounded, opts, &answers));
    if (answers.empty()) continue;  // candidate superset: not derivable
    AnswerInfo& info = answers.begin()->second;
    const double w = view.Weight(
        head, static_cast<int64_t>(info.count_values.size()));
    if (std::isinf(w)) {
      return Status::InvalidArgument("view '" + view.name() +
                                     "' produced an infinite weight");
    }
    if (w < 0.0 || std::isnan(w)) {
      return Status::InvalidArgument("view '" + view.name() +
                                     "' produced an invalid weight");
    }

    const auto it = index.find(head);
    if (it == index.end()) {
      // New view tuple. An empty view has no W disjunct and an all-denial
      // view has no NV relation — a first tuple (or a weighted tuple in a
      // denial view) would change W's shape, not just its tables.
      if (tuples.empty()) {
        return Status::Unimplemented(
            "view '" + view.name() +
            "' transitions empty -> nonempty: W gains a disjunct; rebuild");
      }
      if (!has_nv_table && w != 0.0) {
        return Status::Unimplemented(
            "all-denial view '" + view.name() +
            "' gains a weighted tuple: W's simplified form changes; rebuild");
      }
      ViewTuple vt{head, w, std::move(info.lineage), kNoVar};
      if (has_nv_table && w != 1.0) {
        const double w0 = w == 0.0 ? kCertainWeight : (1.0 - w) / w;
        vt.nv_var = db_.InsertProbabilistic(
            nv_name, std::span<const Value>(head), w0);
        effects->new_vars.push_back(vt.nv_var);
      }
      index.emplace(head, tuples.size());
      tuples.push_back(std::move(vt));
      continue;
    }

    // Existing view tuple: the lineage always absorbs the new derivations;
    // the weight (and its NV image) only when the count moved it.
    ViewTuple& vt = tuples[it->second];
    vt.feature = std::move(info.lineage);
    if (w == vt.weight) continue;
    if (vt.nv_var != kNoVar) {
      // w == 1 maps to NV weight 0 (marginal 0): the feature can never
      // fire, which is observationally the translation's "no NV tuple".
      const double w0 = w == 0.0 ? kCertainWeight : (1.0 - w) / w;
      db_.set_var_weight(vt.nv_var, w0);
      effects->changed_weight_vars.push_back(vt.nv_var);
    } else if (has_nv_table) {
      // Old weight was 1 (independence: no NV tuple existed); the head now
      // needs one.
      const double w0 = w == 0.0 ? kCertainWeight : (1.0 - w) / w;
      vt.nv_var = db_.InsertProbabilistic(
          nv_name, std::span<const Value>(head), w0);
      effects->new_vars.push_back(vt.nv_var);
    } else {
      return Status::Unimplemented(
          "all-denial view '" + view.name() +
          "' tuple moves off weight 0: W's simplified form changes; rebuild");
    }
    vt.weight = w;
  }
  return Status::OK();
}

StatusOr<GroundMln> Mvdb::ToGroundMln() const {
  if (!translated_) {
    return Status::InvalidArgument("call Translate() before ToGroundMln()");
  }
  std::vector<double> tuple_weights(base_num_vars_);
  for (size_t v = 0; v < base_num_vars_; ++v) {
    tuple_weights[v] = db_.var_weight(static_cast<VarId>(v));
  }
  GroundMln mln(base_num_vars_, std::move(tuple_weights));
  for (const auto& tuples : view_tuples_) {
    for (const ViewTuple& t : tuples) {
      if (t.weight == 1.0) continue;  // no-op feature
      mln.AddFeature(t.feature, t.weight);
    }
  }
  return mln;
}

}  // namespace mvdb

#include "query/eval.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "query/analysis.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace mvdb {
namespace {

/// Minimum driver rows per worker before sharding pays for itself (thread
/// spawn + per-worker map merge); below this the evaluation stays serial.
constexpr size_t kMinRowsPerWorker = 512;

/// Per-execution view threaded through the join recursion: the reusable
/// scratch buffers, the slot binding of this execution, and the output sink
/// (an answer map, or else the scratch's answer table).
struct ExecContext {
  EvalScratch* scratch = nullptr;
  const Value* slots = nullptr;
  AnswerMap* out = nullptr;
};

}  // namespace

/// Immutable join plan for one conjunctive query of the template: atom
/// order, probe columns and the per-depth comparison schedule, produced by
/// the cost-based planner. Prepare() reads only value-independent inputs —
/// query structure, table sizes, per-column distinct counts — never the
/// constants themselves, which is what makes one plan exact for every
/// binding of the same signature. Execution
/// resolves constant terms through the slot vector at run time (the
/// template's constant terms hold slot ids, not values).
class CqPlan {
 public:
  CqPlan(const Database& db, const Ucq& q, const ConjunctiveQuery& cq,
         const EvalOptions& opts)
      : db_(db), q_(q), cq_(cq), opts_(opts) {}

  /// Validates the query, resolves tables, and builds the join plan (atom
  /// order, probe columns, per-depth comparison schedule).
  Status Prepare() {
    tables_.resize(cq_.atoms.size());
    for (size_t i = 0; i < cq_.atoms.size(); ++i) {
      const Atom& a = cq_.atoms[i];
      tables_[i] = db_.Find(a.relation);
      if (tables_[i] == nullptr) {
        return Status::NotFound("no such table: " + a.relation);
      }
      if (tables_[i]->arity() != a.args.size()) {
        return Status::InvalidArgument("arity mismatch on " + a.relation);
      }
      (a.negated ? negatives_ : positives_).push_back(i);
    }
    MVDB_RETURN_NOT_OK(Validate());
    PlanCostBased();
    ScheduleComparisons();
    driver_is_probe_ = !order_.empty() && probe_cols_[0] >= 0;
    return Status::OK();
  }

  /// Driver row source for a binding: a probe span when the driver atom has
  /// a usable constant argument, else the full row range. The probe value
  /// is slot-resolved, so this is the one plan ingredient bound at
  /// execution time rather than plan time.
  std::span<const RowId> DriverRows(const Value* slots) const {
    MVDB_DCHECK(driver_is_probe_);
    const Atom& a = cq_.atoms[order_[0]];
    const Term& t = a.args[static_cast<size_t>(probe_cols_[0])];
    MVDB_CHECK(!t.is_var());
    return tables_[order_[0]]->Probe(
        static_cast<size_t>(probe_cols_[0]),
        slots[static_cast<size_t>(t.constant)]);
  }

  size_t NumDriverRows(const Value* slots) const {
    if (order_.empty()) return 0;
    return driver_is_probe_ ? DriverRows(slots).size()
                            : tables_[order_[0]]->size();
  }

  /// Builds every index Execute() can touch, so concurrent workers only
  /// read shared state (Table::EnsureIndex is not thread-safe). The probe
  /// columns are static, so the plan names every index it can touch.
  void WarmPlanIndexes() const {
    for (size_t d = 0; d < order_.size(); ++d) {
      if (probe_cols_[d] >= 0) {
        tables_[order_[d]]->WarmIndex(static_cast<size_t>(probe_cols_[d]));
      }
    }
    for (size_t i : negatives_) tables_[i]->WarmIndex(0);  // FindRow probes 0
  }

  /// Evaluates driver rows [begin, end) of the driver source into the
  /// context's sink. Reentrant: concurrent calls need distinct contexts.
  void Execute(size_t begin, size_t end, const ExecContext& ctx) const {
    EvalScratch& st = *ctx.scratch;
    st.binding.assign(static_cast<size_t>(q_.num_vars()), 0);
    st.bound.assign(static_cast<size_t>(q_.num_vars()), 0);
    st.newly_bound.clear();
    st.clause_vars.clear();
    if (order_.empty()) {
      // No positive atoms (a constant negation-only disjunct): the single
      // empty binding goes straight to the negated-atom checks.
      if (begin == 0) Emit(ctx);
      return;
    }
    std::span<const RowId> rows;
    if (driver_is_probe_) rows = DriverRows(ctx.slots);
    for (size_t i = begin; i < end; ++i) {
      TryRow(ctx, 0, driver_is_probe_ ? rows[i] : static_cast<RowId>(i));
    }
  }

 private:
  Status Validate() {
    // Range-restriction: every head variable and every comparison variable
    // must occur in some *positive* atom, or evaluation cannot bind it; the
    // same holds for the variables of negated atoms (safe negation).
    std::vector<int> atom_vars;
    for (size_t i : positives_) {
      const auto av = AtomVars(cq_.atoms[i]);
      atom_vars.insert(atom_vars.end(), av.begin(), av.end());
    }
    std::sort(atom_vars.begin(), atom_vars.end());
    atom_vars.erase(std::unique(atom_vars.begin(), atom_vars.end()),
                    atom_vars.end());
    auto occurs = [&](int v) {
      return std::binary_search(atom_vars.begin(), atom_vars.end(), v);
    };
    for (int hv : q_.head_vars) {
      if (!occurs(hv)) {
        return Status::InvalidArgument("head variable '" +
                                       q_.var_names[static_cast<size_t>(hv)] +
                                       "' not bound by any atom");
      }
    }
    for (const Comparison& c : cq_.comparisons) {
      for (const Term* t : {&c.lhs, &c.rhs}) {
        if (t->is_var() && !occurs(t->var)) {
          return Status::InvalidArgument(
              "comparison variable '" + q_.var_names[static_cast<size_t>(t->var)] +
              "' not bound by any atom");
        }
      }
    }
    for (size_t i : negatives_) {
      for (int v : AtomVars(cq_.atoms[i])) {
        if (!occurs(v)) {
          return Status::InvalidArgument(
              "unsafe negation: variable '" +
              q_.var_names[static_cast<size_t>(v)] +
              "' of a negated atom is not bound by a positive atom");
        }
      }
    }
    return Status::OK();
  }

  /// Cost-based greedy order: each step picks the positive atom whose index
  /// probe visits the fewest rows — estimated as size / distinct(probe
  /// column), probing the most selective (max-distinct) bound column — with
  /// the estimated output cardinality (all bound-column selectivities
  /// applied) as tie-break. This is what routes a join through a
  /// high-fan-out column (Wrote.aid, ~3 rows per probe) instead of a
  /// low-selectivity one (Affiliation.inst, ~1/12 of the table per probe):
  /// the failure mode that made the old order quadratic on V3.
  void PlanCostBased() {
    const size_t n = cq_.atoms.size();
    std::vector<bool> used(n, false);
    for (size_t i = 0; i < n; ++i) used[i] = cq_.atoms[i].negated;
    std::vector<bool> bound(static_cast<size_t>(q_.num_vars()), false);
    for (size_t step = 0; step < positives_.size(); ++step) {
      size_t best = n;
      int best_probe = -1;
      double best_visited = std::numeric_limits<double>::infinity();
      double best_output = std::numeric_limits<double>::infinity();
      size_t best_size = 0;
      for (size_t i = 0; i < n; ++i) {
        if (used[i]) continue;
        const Table* t = tables_[i];
        const double size = static_cast<double>(std::max<size_t>(t->size(), 1));
        int probe = -1;
        size_t probe_distinct = 0;
        double output = size;
        for (size_t c = 0; c < cq_.atoms[i].args.size(); ++c) {
          const Term& term = cq_.atoms[i].args[c];
          const bool is_bound =
              !term.is_var() || bound[static_cast<size_t>(term.var)];
          if (!is_bound) continue;
          const size_t d = std::max<size_t>(t->DistinctCount(c), 1);
          output /= static_cast<double>(d);
          if (d > probe_distinct) {
            probe_distinct = d;
            probe = static_cast<int>(c);
          }
        }
        const double visited =
            probe >= 0 ? size / static_cast<double>(probe_distinct) : size;
        if (best == n || visited < best_visited ||
            (visited == best_visited &&
             (output < best_output ||
              (output == best_output && t->size() < best_size)))) {
          best = i;
          best_probe = probe;
          best_visited = visited;
          best_output = output;
          best_size = t->size();
        }
      }
      used[best] = true;
      order_.push_back(best);
      probe_cols_.push_back(best_probe);
      for (const Term& t : cq_.atoms[best].args) {
        if (t.is_var()) bound[static_cast<size_t>(t.var)] = true;
      }
    }
  }

  /// Assigns each comparison to the first depth at which both sides are
  /// bound, so it is checked exactly once per candidate binding instead of
  /// re-scanned after every atom. Constant-only comparisons check at depth
  /// 0. Stored flat (schedule + per-depth offsets): one immutable schedule
  /// per template, shared by every execution.
  void ScheduleComparisons() {
    comp_offsets_.assign(order_.size() + 1, 0);
    if (order_.empty()) return;
    std::vector<int> bound_depth(static_cast<size_t>(q_.num_vars()), -1);
    for (size_t d = 0; d < order_.size(); ++d) {
      for (const Term& t : cq_.atoms[order_[d]].args) {
        if (t.is_var() && bound_depth[static_cast<size_t>(t.var)] < 0) {
          bound_depth[static_cast<size_t>(t.var)] = static_cast<int>(d);
        }
      }
    }
    const size_t nc = cq_.comparisons.size();
    std::vector<uint32_t> depth_of(nc, 0);
    for (size_t c = 0; c < nc; ++c) {
      int depth = 0;
      for (const Term* t :
           {&cq_.comparisons[c].lhs, &cq_.comparisons[c].rhs}) {
        if (t->is_var()) {
          depth = std::max(depth, bound_depth[static_cast<size_t>(t->var)]);
        }
      }
      depth_of[c] = static_cast<uint32_t>(depth);
      ++comp_offsets_[static_cast<size_t>(depth) + 1];
    }
    for (size_t d = 1; d < comp_offsets_.size(); ++d) {
      comp_offsets_[d] += comp_offsets_[d - 1];
    }
    comp_sched_.resize(nc);
    std::vector<uint32_t> cursor(comp_offsets_.begin(), comp_offsets_.end() - 1);
    for (size_t c = 0; c < nc; ++c) {
      comp_sched_[cursor[depth_of[c]]++] = static_cast<uint32_t>(c);
    }
  }

  /// Resolves a term under the current binding; constant terms go through
  /// the execution's slot vector (the term's `constant` field is a slot id).
  bool TermValue(const ExecContext& ctx, const Term& t, Value* out) const {
    if (!t.is_var()) {
      *out = ctx.slots[static_cast<size_t>(t.constant)];
      return true;
    }
    const EvalScratch& st = *ctx.scratch;
    if (st.bound[static_cast<size_t>(t.var)]) {
      *out = st.binding[static_cast<size_t>(t.var)];
      return true;
    }
    return false;
  }

  bool ComparisonsHoldAt(const ExecContext& ctx, size_t depth) const {
    for (size_t k = comp_offsets_[depth]; k < comp_offsets_[depth + 1]; ++k) {
      const Comparison& cmp = cq_.comparisons[comp_sched_[k]];
      Value a = 0, b = 0;
      const bool ba = TermValue(ctx, cmp.lhs, &a);
      const bool bb = TermValue(ctx, cmp.rhs, &b);
      MVDB_DCHECK(ba && bb);  // the schedule binds both sides by this depth
      (void)ba;
      (void)bb;
      if (!Comparison::Apply(cmp.op, a, b)) return false;
    }
    return true;
  }

  void TryRow(const ExecContext& ctx, size_t depth, RowId r) const {
    EvalScratch* st = ctx.scratch;
    const Atom& atom = cq_.atoms[order_[depth]];
    const Table* table = tables_[order_[depth]];
    const auto row = table->Row(r);
    // Match and bind, recording newly bound variables on the shared undo
    // stack. Repeated variables within the atom: subsequent occurrences go
    // through the TermValue branch.
    const size_t undo_mark = st->newly_bound.size();
    bool ok = true;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Term& t = atom.args[i];
      Value expect;
      if (TermValue(ctx, t, &expect)) {
        if (row[i] != expect) { ok = false; break; }
      } else {
        st->binding[static_cast<size_t>(t.var)] = row[i];
        st->bound[static_cast<size_t>(t.var)] = 1;
        st->newly_bound.push_back(t.var);
      }
    }
    if (ok && ComparisonsHoldAt(ctx, depth)) {
      const VarId var = table->var(r);
      const bool pushed = (var != kNoVar);
      if (pushed) st->clause_vars.push_back(var);
      if (depth + 1 == order_.size()) {
        Emit(ctx);
      } else {
        Join(ctx, depth + 1);
      }
      if (pushed) st->clause_vars.pop_back();
    }
    for (size_t k = undo_mark; k < st->newly_bound.size(); ++k) {
      st->bound[static_cast<size_t>(st->newly_bound[k])] = 0;
    }
    st->newly_bound.resize(undo_mark);
  }

  void Join(const ExecContext& ctx, size_t depth) const {
    const Atom& atom = cq_.atoms[order_[depth]];
    const Table* table = tables_[order_[depth]];
    const int probe_col = probe_cols_[depth];
    if (probe_col >= 0) {
      Value probe_val = 0;
      MVDB_CHECK(TermValue(ctx, atom.args[static_cast<size_t>(probe_col)],
                           &probe_val));
      for (RowId r : table->Probe(static_cast<size_t>(probe_col), probe_val)) {
        TryRow(ctx, depth, r);
      }
    } else {
      const size_t n = table->size();
      for (size_t r = 0; r < n; ++r) TryRow(ctx, depth, static_cast<RowId>(r));
    }
  }

  void Emit(const ExecContext& ctx) const {
    EvalScratch* st = ctx.scratch;
    // Safe negation: all variables of negated atoms are bound here. A
    // negated *deterministic* atom whose tuple exists kills the binding; a
    // negated *probabilistic* atom whose tuple is possible contributes a
    // negated literal (Section 2.5's extension).
    st->neg_vars.clear();
    for (size_t i : negatives_) {
      const Atom& atom = cq_.atoms[i];
      const Table* table = tables_[i];
      st->row_buf.clear();
      for (const Term& t : atom.args) {
        Value v;
        MVDB_CHECK(TermValue(ctx, t, &v));
        st->row_buf.push_back(v);
      }
      RowId r;
      if (!table->FindRow(st->row_buf, &r)) continue;  // impossible: not holds
      const VarId var = table->var(r);
      if (var == kNoVar) return;  // deterministic tuple present: binding dies
      st->neg_vars.push_back(var);
    }
    std::vector<Value>& head = st->head;
    head.clear();
    for (int hv : q_.head_vars) {
      MVDB_DCHECK(st->bound[static_cast<size_t>(hv)]);
      head.push_back(st->binding[static_cast<size_t>(hv)]);
    }
    if (ctx.out == nullptr) {
      st->answers.AddRow(head, st->clause_vars, st->neg_vars);
      return;
    }
    // Look the head up in the scratch buffer; only a new answer copies it.
    auto it = ctx.out->lower_bound(head);
    if (it == ctx.out->end() || it->first != head) {
      it = ctx.out->emplace_hint(it, head, AnswerInfo{});
    }
    AnswerInfo& info = it->second;
    info.lineage.AddSignedClause(st->clause_vars, st->neg_vars);
    if (opts_.count_var >= 0 &&
        st->bound[static_cast<size_t>(opts_.count_var)]) {
      info.count_values.insert(st->binding[static_cast<size_t>(opts_.count_var)]);
    }
  }

  const Database& db_;
  const Ucq& q_;                  // the template's abstracted query
  const ConjunctiveQuery& cq_;
  const EvalOptions& opts_;
  std::vector<const Table*> tables_;      // parallel to cq_.atoms
  std::vector<size_t> positives_;
  std::vector<size_t> negatives_;
  std::vector<size_t> order_;             // positive atoms, execution order
  std::vector<int> probe_cols_;           // parallel to order_; -1 = scan
  std::vector<uint32_t> comp_sched_;      // comparison ids grouped by depth
  std::vector<uint32_t> comp_offsets_;    // per-depth ranges in comp_sched_
  bool driver_is_probe_ = false;
};

void AnswerTable::Clear(size_t head_arity) {
  head_arity_ = head_arity;
  head_vals_.clear();
  lits_.clear();
  rows_.clear();
  order_.clear();
  canon_.clear();
  heads_.clear();
}

void AnswerTable::AddRow(std::span<const Value> head, std::span<const VarId> pos,
                         std::span<const VarId> neg) {
  MVDB_DCHECK(head.size() == head_arity_);
  head_vals_.insert(head_vals_.end(), head.begin(), head.end());
  Row row;
  // A contradictory clause leaves no literals, but its row keeps the head.
  row.contradictory = !AppendSignedClause(pos, neg, &lits_, &row.clause);
  rows_.push_back(row);
}

void AnswerTable::Group() {
  const size_t n = rows_.size();
  const size_t k = head_arity_;
  auto head_of = [&](size_t r) { return head_vals_.data() + r * k; };
  order_.resize(n);
  for (size_t r = 0; r < n; ++r) order_[r] = static_cast<uint32_t>(r);
  // AnswerMap's key order. Rows of one head may land in any order: the
  // canonical clause list below is a function of the head's clause set.
  if (k > 0) {
    std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
      return std::lexicographical_compare(head_of(a), head_of(a) + k,
                                          head_of(b), head_of(b) + k);
    });
  }
  heads_.clear();
  canon_.clear();
  for (size_t i = 0; i < n; ++i) {
    const size_t r = order_[i];
    if (i == 0 ||
        !std::equal(head_of(order_[i - 1]), head_of(order_[i - 1]) + k,
                    head_of(r))) {
      heads_.push_back(HeadGroup{static_cast<uint32_t>(i),
                                 static_cast<uint32_t>(canon_.size()),
                                 static_cast<uint32_t>(canon_.size())});
    }
    if (!rows_[r].contradictory) {
      canon_.push_back(rows_[r].clause);
      heads_.back().clause_end = static_cast<uint32_t>(canon_.size());
    }
  }
  for (HeadGroup& g : heads_) {
    g.clause_end =
        g.clause_begin +
        static_cast<uint32_t>(CanonicalizeClauses(
            lits_, std::span<ClauseBounds>(canon_).subspan(
                       g.clause_begin, g.clause_end - g.clause_begin)));
  }
}

namespace {

/// Folds `src` into `dst`. Clause order across workers is scheduling-
/// dependent, but the final Normalize() canonicalizes each answer, so the
/// merged result is bit-identical for every thread count and schedule.
void MergeAnswers(AnswerMap&& src, AnswerMap* dst) {
  for (auto& [head, info] : src) {
    auto [it, inserted] = dst->try_emplace(head, std::move(info));
    if (!inserted) {
      it->second.lineage.Union(info.lineage);
      it->second.count_values.merge(info.count_values);
    }
  }
}

}  // namespace

PlanTemplate::PlanTemplate() = default;
PlanTemplate::~PlanTemplate() = default;

StatusOr<std::unique_ptr<PlanTemplate>> PlanTemplate::PlanImpl(
    const Database& db, Ucq q_abstracted, const EvalOptions& opts) {
  std::unique_ptr<PlanTemplate> tmpl(new PlanTemplate());
  tmpl->q_ = std::move(q_abstracted);
  tmpl->opts_ = opts;
  tmpl->plans_.reserve(tmpl->q_.disjuncts.size());
  for (const ConjunctiveQuery& cq : tmpl->q_.disjuncts) {
    if (cq.atoms.empty()) {
      return Status::InvalidArgument("disjunct with no atoms");
    }
    tmpl->plans_.push_back(
        std::make_unique<CqPlan>(db, tmpl->q_, cq, tmpl->opts_));
    MVDB_RETURN_NOT_OK(tmpl->plans_.back()->Prepare());
  }
  return tmpl;
}

StatusOr<std::unique_ptr<const PlanTemplate>> PlanTemplate::Plan(
    const Database& db, const Ucq& q, const EvalOptions& opts) {
  Ucq abstracted = q;
  std::vector<Value> slots = AbstractUcqConstants(&abstracted);
  MVDB_ASSIGN_OR_RETURN(std::unique_ptr<PlanTemplate> tmpl,
                        PlanImpl(db, std::move(abstracted), opts));
  tmpl->exemplar_slots_ = std::move(slots);
  return std::unique_ptr<const PlanTemplate>(std::move(tmpl));
}

StatusOr<std::unique_ptr<const PlanTemplate>> PlanTemplate::PlanAbstracted(
    const Database& db, Ucq q_abstracted, const EvalOptions& opts) {
  MVDB_ASSIGN_OR_RETURN(std::unique_ptr<PlanTemplate> tmpl,
                        PlanImpl(db, std::move(q_abstracted), opts));
  return std::unique_ptr<const PlanTemplate>(std::move(tmpl));
}

void PlanTemplate::WarmIndexes() const {
  for (const auto& plan : plans_) plan->WarmPlanIndexes();
}

Status PlanTemplate::Execute(std::span<const Value> slots,
                             EvalScratch* scratch) const {
  MVDB_DCHECK(opts_.count_var < 0);
  AnswerTable& table = scratch->answers;
  table.Clear(q_.head_vars.size());
  ExecContext ctx;
  ctx.scratch = scratch;
  ctx.slots = slots.data();
  for (const auto& plan : plans_) {
    plan->Execute(0, plan->NumDriverRows(slots.data()), ctx);
  }
  table.Group();
  return Status::OK();
}

Status PlanTemplate::Execute(std::span<const Value> slots, EvalScratch* scratch,
                             AnswerMap* out) const {
  for (const auto& plan : plans_) {
    const size_t rows = plan->NumDriverRows(slots.data());
    const int shards =
        opts_.num_threads == 1
            ? 1
            : EffectiveThreads(opts_.num_threads, rows / kMinRowsPerWorker);
    if (shards <= 1) {
      ExecContext ctx;
      ctx.scratch = scratch;
      ctx.slots = slots.data();
      ctx.out = out;
      plan->Execute(0, rows, ctx);
      continue;
    }
    // Shard the driver rows: workers pull chunks dynamically and fill
    // per-worker maps; the merge below plus the final Normalize make the
    // output independent of the schedule.
    plan->WarmPlanIndexes();
    std::vector<AnswerMap> worker_maps(static_cast<size_t>(shards));
    std::vector<EvalScratch> worker_scratch(static_cast<size_t>(shards));
    const size_t num_chunks =
        std::min(rows, static_cast<size_t>(shards) * 8);
    const size_t chunk = (rows + num_chunks - 1) / num_chunks;
    ParallelFor(shards, num_chunks, [&](int w, size_t c) {
      const size_t begin = c * chunk;
      const size_t end = std::min(rows, begin + chunk);
      ExecContext ctx;
      ctx.scratch = &worker_scratch[static_cast<size_t>(w)];
      ctx.slots = slots.data();
      ctx.out = &worker_maps[static_cast<size_t>(w)];
      plan->Execute(begin, end, ctx);
    });
    for (AnswerMap& m : worker_maps) MergeAnswers(std::move(m), out);
  }
  // Normalize lineages (sorting, dedup, absorption) so downstream consumers
  // see canonical DNFs — this is also what makes the serial and sharded
  // evaluations bit-identical. Independent per answer, so it fans
  // out over the same thread budget.
  std::vector<AnswerInfo*> infos;
  infos.reserve(out->size());
  for (auto& [head, info] : *out) infos.push_back(&info);
  ParallelForChunked(opts_.num_threads, infos.size(), 256,
                     [&](size_t i) { infos[i]->lineage.Normalize(); });
  return Status::OK();
}

Status PlanTemplate::ExecuteBoolean(std::span<const Value> slots,
                                    EvalScratch* scratch, Lineage* out) const {
  MVDB_DCHECK(q_.IsBoolean());
  MVDB_RETURN_NOT_OK(Execute(slots, scratch));
  const AnswerTable& table = scratch->answers;
  if (table.num_heads() == 0) {
    out->clear();
  } else {
    out->Assign(table.clauses(0));
  }
  return Status::OK();
}

Status Eval(const Database& db, const Ucq& q, const EvalOptions& opts,
            AnswerMap* out) {
  MVDB_ASSIGN_OR_RETURN(std::unique_ptr<const PlanTemplate> tmpl,
                        PlanTemplate::Plan(db, q, opts));
  EvalScratch scratch;
  return tmpl->Execute(tmpl->exemplar_slots(), &scratch, out);
}

StatusOr<Lineage> EvalBoolean(const Database& db, const Ucq& q) {
  if (!q.IsBoolean()) {
    return Status::InvalidArgument("EvalBoolean requires a Boolean query");
  }
  MVDB_ASSIGN_OR_RETURN(std::unique_ptr<const PlanTemplate> tmpl,
                        PlanTemplate::Plan(db, q, EvalOptions{}));
  EvalScratch scratch;
  Lineage out;
  MVDB_RETURN_NOT_OK(tmpl->ExecuteBoolean(tmpl->exemplar_slots(), &scratch, &out));
  return out;
}

}  // namespace mvdb

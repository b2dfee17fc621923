// Copyright 2026 The MarkoView Authors.
//
// UCQ evaluation over a Database, producing per-answer lineage: the role
// Postgres plays in the paper's prototype ("round trip call to Postgres, to
// compute the query's lineage", Section 5.4).
//
// Evaluation is cost-based join ordering driven by per-column distinct
// counts (Table::DistinctCount): each step picks the atom whose index probe
// visits the fewest rows, probing the most selective bound column of the
// table's hash-grouped index — an index-nested-loop join whose probe side is
// exactly a hash join's build table. The driver (first) atom can
// additionally be sharded across worker threads (EvalOptions::num_threads)
// with per-worker result maps merged deterministically.
//
// Every join result emits one lineage clause containing the Boolean
// variables of the probabilistic tuples it used, into its answer's lineage
// (AnswerMap) or as one row of an answer table (AnswerTable, the serving
// body's sink). Each answer's clauses are canonicalized
// (CanonicalizeClauses, the routine behind Lineage::Normalize) before
// returning, which is what makes every thread count and both sinks agree
// bit-for-bit (and what eval_join_test compares against a naive
// scan-everything evaluator).

#ifndef MVDB_QUERY_EVAL_H_
#define MVDB_QUERY_EVAL_H_

#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "prob/lineage.h"
#include "query/ast.h"
#include "relational/database.h"
#include "util/status.h"

namespace mvdb {

/// Per-answer evaluation result.
struct AnswerInfo {
  Lineage lineage;
  /// Distinct bindings of EvalOptions::count_var within this head group —
  /// the `count(pid)` style aggregate the paper's weight expressions use.
  std::set<Value> count_values;
};

/// Answers keyed by head tuple (deterministic order for reproducibility).
using AnswerMap = std::map<std::vector<Value>, AnswerInfo>;

/// One fully evaluated answer: head tuple plus its Eq. 5 probability. The
/// end product of the engine's Query() and of the serving layer.
struct AnswerProb {
  std::vector<Value> head;
  double prob;
};

struct EvalOptions {
  /// Variable id whose distinct bindings are counted per head group, or -1.
  int count_var = -1;
  /// Worker threads sharding the driver atom. 1 = serial; <= 0 = one per
  /// hardware thread. The answer map, lineages and count sets are
  /// bit-identical for every value.
  int num_threads = 1;
};

/// Evaluates a UCQ over the set of *possible* tuples (I_poss): probabilistic
/// tables are treated as containing all their possible tuples, which is
/// exactly the instance lineage is defined over (Section 2.4).
Status Eval(const Database& db, const Ucq& q, const EvalOptions& opts,
            AnswerMap* out);

/// Evaluates a Boolean UCQ, returning its lineage (false lineage if no
/// derivations exist).
StatusOr<Lineage> EvalBoolean(const Database& db, const Ucq& q);

/// The answer table of PlanTemplate::Execute(slots, scratch), the sink the
/// serving body and ExecuteBoolean read. Every join result appends a row:
/// its head values and its clause, canonicalized as
/// Lineage::AddSignedClause does. After the execution the heads are in
/// AnswerMap order and each head's clauses are canonical
/// (CanonicalizeClauses), so head h's clause list is exactly the lineage
/// the AnswerMap sink holds for it. A head whose every clause is
/// contradictory (x ^ !x) keeps its place with no clauses: a false lineage,
/// as in the map. The buffers keep their capacity across executions.
class AnswerTable {
 public:
  size_t num_heads() const { return heads_.size(); }
  std::span<const Value> head(size_t h) const {
    return {head_vals_.data() + order_[heads_[h].row] * head_arity_,
            head_arity_};
  }
  ClauseList clauses(size_t h) const {
    return ClauseList{lits_, std::span<const ClauseBounds>(canon_).subspan(
                                 heads_[h].clause_begin,
                                 heads_[h].clause_end - heads_[h].clause_begin)};
  }

 private:
  friend class CqPlan;
  friend class PlanTemplate;

  struct Row {
    ClauseBounds clause;
    bool contradictory = false;
  };
  /// One head: its first row order_[row], its canonical clauses
  /// canon_[clause_begin, clause_end).
  struct HeadGroup {
    uint32_t row;
    uint32_t clause_begin, clause_end;
  };

  void Clear(size_t head_arity);
  void AddRow(std::span<const Value> head, std::span<const VarId> pos,
              std::span<const VarId> neg);
  /// Sorts the rows by head and canonicalizes each head's clauses.
  void Group();

  size_t head_arity_ = 0;
  std::vector<Value> head_vals_;     ///< row r's head at [r * arity, +arity)
  std::vector<VarId> lits_;          ///< every row's clause literals
  std::vector<Row> rows_;
  std::vector<uint32_t> order_;      ///< row ids sorted by head
  std::vector<ClauseBounds> canon_;  ///< per head, its canonical clauses
  std::vector<HeadGroup> heads_;
};

/// Reusable execution state for PlanTemplate: variable bindings, undo
/// stacks, the clause and head under construction, and the answer table.
/// One per executing thread; repeated Execute calls against any template
/// reuse the buffers, so the steady state allocates nothing. Treat the
/// fields other than `answers` as opaque.
struct EvalScratch {
  std::vector<Value> binding;
  std::vector<uint8_t> bound;
  std::vector<int> newly_bound;
  Clause clause_vars;
  Clause neg_vars;
  std::vector<Value> row_buf;
  std::vector<Value> head;  ///< the head of the row under construction
  /// What the last Execute(slots, scratch) produced.
  AnswerTable answers;
};

/// A compiled *query shape*: every disjunct planned once by the cost-based
/// planner, with the query's constants abstracted into slots
/// (query/analysis.h, UcqSignature). The template is immutable after Plan()
/// and can be executed any number of times — concurrently from several
/// threads, each with its own EvalScratch — with per-execution slot values
/// supplying the constants. Planning only reads value-independent inputs
/// (query structure, table sizes, per-column distinct counts), so one plan
/// is exact for every binding of the same signature: this is the
/// prepared-statement move the MV-index compile stage leans on — plan once
/// per block shape, execute once per block.
class PlanTemplate {
 public:
  ~PlanTemplate();
  PlanTemplate(const PlanTemplate&) = delete;
  PlanTemplate& operator=(const PlanTemplate&) = delete;

  /// Plans `q` after abstracting its constants; exemplar_slots() then holds
  /// q's own binding (execute with it to evaluate q itself).
  static StatusOr<std::unique_ptr<const PlanTemplate>> Plan(
      const Database& db, const Ucq& q, const EvalOptions& opts);

  /// Plans a query whose constant terms already hold slot ids (the caller
  /// ran AbstractUcqConstants, possibly over an enclosing query — slot ids
  /// may index a larger shared slot vector).
  static StatusOr<std::unique_ptr<const PlanTemplate>> PlanAbstracted(
      const Database& db, Ucq q_abstracted, const EvalOptions& opts);

  /// Evaluates the shape with the given slot binding into `out` (not
  /// cleared). Mirrors Eval(): per-disjunct join execution, optional driver
  /// sharding over opts.num_threads, canonical Normalize at the end.
  Status Execute(std::span<const Value> slots, EvalScratch* scratch,
                 AnswerMap* out) const;

  /// The same evaluation into scratch->answers (replacing its contents),
  /// with no map: the serving body synthesizes straight from the table.
  /// Serial; requires count_var < 0 (the table keeps no count values).
  Status Execute(std::span<const Value> slots, EvalScratch* scratch) const;

  /// Execute(slots, scratch) for a Boolean shape, its one head's clauses
  /// assigned to `*out` (reusing its capacity; false when nothing
  /// derives).
  Status ExecuteBoolean(std::span<const Value> slots, EvalScratch* scratch,
                        Lineage* out) const;

  /// q's own constants when built via Plan() (empty for PlanAbstracted).
  std::span<const Value> exemplar_slots() const { return exemplar_slots_; }

  /// Warms every table index any Execute can probe, so concurrent
  /// executions only read shared state.
  void WarmIndexes() const;

 private:
  friend class CqPlan;
  PlanTemplate();

  static StatusOr<std::unique_ptr<PlanTemplate>> PlanImpl(
      const Database& db, Ucq q_abstracted, const EvalOptions& opts);

  Ucq q_;  // constants rewritten to slot ids
  std::vector<Value> exemplar_slots_;
  EvalOptions opts_;
  std::vector<std::unique_ptr<class CqPlan>> plans_;  // one per disjunct
};

}  // namespace mvdb

#endif  // MVDB_QUERY_EVAL_H_

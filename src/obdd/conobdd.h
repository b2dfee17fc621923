// Copyright 2026 The MarkoView Authors.
//
// ConOBDD (Section 4.2): OBDD construction driven by the structure of the
// query rather than by blind synthesis. The recursion follows the paper's
// rules:
//
//   R1  Q = Q1 v Q2 : independent (symbol-disjoint) unions concatenate;
//   R2  Q = Q1 ^ Q2 : independent join components concatenate;
//   R3  Q = exists z.Q1 with z a separator: decompose over the active
//       domain; the per-value subqueries are tuple-disjoint, so their OBDDs
//       concatenate in domain order (Proposition 1);
//   R4  ground atoms / residual subqueries: fall back to classic synthesis
//       on the subquery's lineage.
//
// Concatenation is attempted whenever the operands' level ranges do not
// interleave (which the separator-first variable order arranges); otherwise
// the builder falls back to apply-based synthesis, exactly the hybrid
// behaviour the paper describes. For inversion-free queries the construction
// performs only concatenations and the result has constant width
// (Proposition 2) — asserted by tests sweeping the domain size.
//
// There is one recursion: ConObddTemplate plans the rules once per query
// shape and executes the plan per binding. ConObddBuilder::Build is that
// plan executed once with the query's own constants, the way Eval is a
// PlanTemplate executed once.

#ifndef MVDB_OBDD_CONOBDD_H_
#define MVDB_OBDD_CONOBDD_H_

#include <memory>
#include <span>
#include <vector>

#include "obdd/manager.h"
#include "query/analysis.h"
#include "query/ast.h"
#include "query/eval.h"
#include "relational/database.h"
#include "util/status.h"

namespace mvdb {

/// Intermediate of the recursive construction: an OBDD node plus the
/// smallest/largest level it touches (empty range for sinks) — the
/// information the concatenation test needs.
struct ConResult {
  NodeId id = BddManager::kFalse;
  int32_t min_level = BddManager::kSinkLevel;
  int32_t max_level = -1;
};

class ConObddBuilder {
 public:
  /// `mgr` must have been created with an order covering every probabilistic
  /// variable of `db` (see obdd/order.h).
  ConObddBuilder(const Database& db, BddManager* mgr)
      : db_(db), mgr_(mgr) {
    is_prob_ = [this](const std::string& rel) {
      const Table* t = db_.Find(rel);
      return t != nullptr && t->probabilistic();
    };
  }

  /// Builds the OBDD of a Boolean UCQ: plans it as a ConObddTemplate and
  /// executes the plan once with the query's own constants.
  StatusOr<NodeId> Build(const Ucq& boolean_query);

  /// Number of concatenation combines performed (cheap path).
  size_t concat_count() const { return concat_count_; }
  /// Number of apply-based combines / lineage syntheses (expensive path).
  size_t synthesis_count() const { return synthesis_count_; }

 private:
  friend class ConObddTemplate;

  /// R4: lineage -> OBDD + level range by classic synthesis.
  ConResult FromLineage(const Lineage& lineage);
  ConResult CombineOr(const ConResult& a, const ConResult& b);
  ConResult CombineAnd(const ConResult& a, const ConResult& b);

  const Database& db_;
  BddManager* mgr_;
  IsProbFn is_prob_;
  size_t concat_count_ = 0;
  size_t synthesis_count_ = 0;
};

/// Reusable per-thread scratch for ConObddTemplate::Execute. One per
/// compilation shard; repeated executions allocate nothing beyond the
/// lineage clauses they emit.
struct ConObddScratch {
  EvalScratch eval;
  Lineage lineage;
};

struct ConObddTemplateNode;

/// Immutable compiled form of one query *shape*: the Section 4.2
/// construction with every value-independent decision made once at plan
/// time. Plan() runs the rules on the constant-abstracted exemplar — the
/// deterministic-disjunct prune set, the R1 union groups, the R2 join
/// components, the R3 separator and the R3-vs-R4 choice are all functions
/// of the structural signature (query/analysis.h), not of the bound
/// constants — and records a node tree whose leaves hold prepared
/// PlanTemplate join plans. Execute() replays the tree with a concrete slot
/// binding: only the value-dependent outcomes (deterministic-disjunct
/// truth, join results, level ranges, the R3 active domain) are computed
/// per binding; an R3 node plans each distinct shape among its domain
/// values' sub-queries once and executes every value. The result is the reduced OBDD of the grounded query, so
/// every binding of a shape yields the same node as its own Build — the
/// MV-index compile stage plans each of its handful of shapes once and
/// executes them ~200K times.
class ConObddTemplate {
 public:
  ~ConObddTemplate();
  ConObddTemplate(const ConObddTemplate&) = delete;
  ConObddTemplate& operator=(const ConObddTemplate&) = delete;

  /// Plans the shape of `exemplar` (a grounded Boolean query). When
  /// `exemplar_slots` is set it receives the exemplar's own binding.
  static StatusOr<std::unique_ptr<const ConObddTemplate>> Plan(
      const Database& db, const IsProbFn& is_prob, const Ucq& exemplar,
      std::vector<Value>* exemplar_slots = nullptr);

  /// Builds the block OBDD for one binding inside `mgr` (slot order is the
  /// exemplar's structural signature — ComputeGroundedSignature supplies
  /// matching slot vectors). Reentrant: shards run it concurrently against
  /// private managers and scratches.
  StatusOr<NodeId> Execute(std::span<const Value> slots, BddManager* mgr,
                           ConObddScratch* scratch) const;

 private:
  friend class ConObddBuilder;

  ConObddTemplate();

  static Status PlanNode(const Database& db, const IsProbFn& is_prob,
                         const Ucq& q, ConObddTemplateNode* out);
  StatusOr<ConResult> ExecNode(const ConObddTemplateNode& node,
                               std::span<const Value> slots,
                               ConObddScratch* scratch,
                               ConObddBuilder* helper) const;

  const Database* db_ = nullptr;
  std::unique_ptr<ConObddTemplateNode> root_;
};

}  // namespace mvdb

#endif  // MVDB_OBDD_CONOBDD_H_

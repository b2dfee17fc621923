// Copyright 2026 The MarkoView Authors.
//
// Stage 1 of the MV-index build (Section 4): decompose the constraint query
// W into variable-disjoint *block tasks* — one per independent view group
// (rule R1) and, when the group has a separator, one per separator value
// (Proposition 1: the per-value subqueries are tuple-disjoint, hence
// variable-disjoint). The task list fixes the block identity and the order
// every later stage sees, so it must be deterministic.
//
// Decomposed groups are emitted as one *shape* (the group's abstract
// sub-query plus the per-disjunct separator variable) and one lightweight
// (shape id, separator value) task per domain value — the grounded per-task
// AST is never materialized on the build path. All ~200K tasks of a
// DBLP-scale group share the shape, which is what lets the compile stage
// plan each block-query shape once and execute it per task
// (obdd/conobdd.h, ConObddTemplate). MaterializeTaskQuery reconstructs the
// grounded query of any task (tests, template exemplars); the
// reconstruction is exactly the substitution the old per-task rewrite
// performed, so task identity is unchanged. PlanBlockTasks is the compile
// stage's serial prefix: it maps tasks onto shared templates, for a full
// build and for a structural delta's dirty tasks alike.

#ifndef MVDB_MVINDEX_PARTITION_H_
#define MVDB_MVINDEX_PARTITION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obdd/conobdd.h"
#include "query/analysis.h"
#include "query/ast.h"
#include "relational/database.h"
#include "util/status.h"

namespace mvdb {

/// One decomposed group: the abstract sub-constraint all of the group's
/// tasks share, with the separator variable left unsubstituted.
struct BlockShape {
  Ucq query;
  /// FindSeparator's per-disjunct separator variable (-1 = the disjunct is
  /// not substituted, e.g. it has no probabilistic atoms).
  std::vector<int> sep_var_of_disjunct;
};

/// One unit of offline work: either one separator value of a decomposed
/// group (shape >= 0; the grounded query is shape.query with the separator
/// variable bound to `binding`), or a whole undecomposable group
/// (shape < 0; `query` holds the materialized sub-constraint).
struct BlockTask {
  std::string key;  ///< "g<group>" or "g<group>/<separatorValue>"
  int shape = -1;   ///< index into PartitionResult::shapes, or -1
  Value binding = 0;
  Ucq query;        ///< only populated when shape < 0
};

/// The deterministic partition output: shapes plus the ordered task list —
/// groups ascending, separator values in domain order within a group, the
/// same order the serial build has always used.
struct PartitionResult {
  std::vector<BlockShape> shapes;
  std::vector<BlockTask> tasks;
};

/// Decomposes W into independently compilable block tasks. `num_threads`
/// shards the separator-domain scans (<= 1 runs serially); the output is
/// bit-identical for any thread count.
PartitionResult PartitionBlocks(const Database& db, const Ucq& w,
                                const IsProbFn& is_prob, int num_threads = 1);

/// The grounded query of a task: shape.query with the separator variable
/// substituted by the task's binding (shape >= 0), or the task's own query.
Ucq MaterializeTaskQuery(const PartitionResult& partition,
                         const BlockTask& task);

/// How the compile stage builds one task's block OBDD: by executing a
/// shared plan template with the task's slot binding (tmpl != nullptr), or,
/// for an undecomposed group, by ConObddBuilder on task.query. A task
/// whose template failed to plan carries that failure in `status`.
struct TaskPlan {
  const ConObddTemplate* tmpl = nullptr;
  uint32_t slots_begin = 0;
  uint32_t slots_len = 0;
  Status status = Status::OK();
};

/// PlanBlockTasks' output: one TaskPlan per partition task, the templates
/// they share and the slot bindings they point into.
struct BlockPlans {
  std::vector<std::unique_ptr<const ConObddTemplate>> templates;
  std::vector<TaskPlan> tasks;
  std::vector<Value> slot_arena;

  std::span<const Value> slots(const TaskPlan& plan) const {
    return std::span<const Value>(slot_arena)
        .subspan(plan.slots_begin, plan.slots_len);
  }
};

/// Maps every task of a decomposed group onto a plan template — one per
/// structural signature, not one per block. Tasks whose separator value
/// collides with a constant of the shape's own query have a different
/// constant-equality pattern (hence signature) and get their own template;
/// every other task of the shape shares the shape's default one, with its
/// binding written into the default's slot vector. A failed plan fails
/// every task that maps to it. `wanted` (empty, or one flag per task)
/// restricts planning to the flagged tasks; the rest keep an empty plan.
BlockPlans PlanBlockTasks(const Database& db, const IsProbFn& is_prob,
                          const PartitionResult& partition,
                          const std::vector<bool>& wanted = {});

/// Maps touched probabilistic tuples to the partition task keys whose
/// grounded block queries can read them — the dirty set an incremental
/// index maintenance must recompile. Replays PartitionBlocks' group
/// numbering and key format: a tuple of relation R in a decomposed group g
/// dirties exactly "g<g>/<v>" where v is the tuple's value at R's separator
/// position (Proposition 1: per-value subqueries are tuple-disjoint), and
/// any touched tuple of an undecomposed group dirties the whole group's
/// "g<g>" task. Keys are returned sorted and deduplicated; tuples of
/// relations W never reads produce no keys.
std::vector<std::string> DirtyBlockKeys(const Database& db, const Ucq& w,
                                        const IsProbFn& is_prob,
                                        const std::vector<TupleRef>& touched);

}  // namespace mvdb

#endif  // MVDB_MVINDEX_PARTITION_H_

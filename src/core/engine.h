// Copyright 2026 The MarkoView Authors.
//
// QueryEngine: the end-to-end evaluation pipeline of the paper.
//
// Offline (Compile):
//   1. Translate the MVDB to its associated INDB (Definition 5);
//   2. choose attribute permutations pi — inversion-free ones when W admits
//      them, else separator-first heuristics (Section 4.2);
//   3. build the global variable order Pi and the BddManager;
//   4. compile W into the MV-index (blocks, flat augmented OBDD of NOT W).
//
// Online (Query):
//   per answer tuple a: compute the lineage of Q(a), build its (small)
//   query OBDD in the same order, and evaluate Eq. 5
//
//       P(Q(a)) = (P0(Q v W) - P0(W)) / (1 - P0(W))
//               = P0(Q ^ NOT W) / P0(NOT W)
//
//   The default backend runs the serving body (serve/server.h): the bits
//   of Server::Execute, whatever was asked before, and manager() never
//   grows. The other Backend values are oracles that agree to 1e-9.
//
// A QueryEngine is single-caller: it keeps one plan cache and one pipeline
// scratch across calls, so its methods must not run concurrently. Servers
// built by Serve() are the concurrent surface.

#ifndef MVDB_CORE_ENGINE_H_
#define MVDB_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mvdb.h"
#include "mvindex/mv_index.h"
#include "obdd/conobdd.h"
#include "obdd/manager.h"
#include "obdd/order.h"
#include "query/eval.h"
#include "serve/plan_cache.h"
#include "serve/server.h"
#include "util/status.h"

namespace mvdb {

/// Numerator evaluation strategy for Eq. 5. kMvIndexCC is the serving path;
/// the others are oracles for tests and bench_ablation_backends that agree
/// with it to 1e-9 (the OBDD ones build query OBDDs in the engine's
/// manager()).
enum class Backend {
  kBruteForce,   ///< exhaustive enumeration over the joint lineage (tests)
  kObddReuse,    ///< synthesis of Q against the precompiled W OBDD
  kMvIndex,      ///< MV-index, top-down MVIntersect
  kMvIndexCC,    ///< serving path: pooled reset manager + batched CC sweep
  kSafePlan,     ///< lifted inference on Q v W and W (safe queries only)
};

/// Offline compilation options (Section 4's index build). The MV-index
/// blocks are variable-disjoint, so block compilation shards across
/// threads; the output is bit-identical for every thread count (same block
/// keys, same flat layout, same probabilities) — parallelism is purely a
/// wall-clock knob. See MvIndexBuildOptions for the field semantics
/// (num_threads, reserve_hint).
using CompileOptions = MvIndexBuildOptions;

class QueryEngine {
 public:
  /// The engine borrows the Mvdb, which must outlive it.
  explicit QueryEngine(Mvdb* mvdb)
      : mvdb_(mvdb),
        plan_cache_(std::make_unique<PlanCache>(kPlanCacheCapacity)) {}

  /// Runs the offline pipeline. Idempotent: once compiled, later calls (any
  /// options) are no-ops.
  Status Compile() { return Compile(CompileOptions{}); }
  Status Compile(const CompileOptions& options);

  bool compiled() const { return index_ != nullptr; }

  /// Persists the compiled index (compiling first if needed) in the
  /// versioned on-disk format of mvindex/index_io.*.
  Status SaveIndex(const std::string& path);
  Status SaveIndex(const std::string& path, const CompileOptions& options);

  /// Knobs for OpenIndex.
  struct OpenIndexOptions {
    /// Bind the flat arrays to a read-only mmap of the file (startup cost
    /// independent of index size; N processes share the pages) instead of
    /// copying them into owned memory.
    bool mapped = true;
    /// Verify every section checksum before serving (faults in the whole
    /// file; `dump_index --verify` covers this out of band).
    bool verify_checksums = false;
    /// Thread budget for the MVDB -> INDB translation that OpenIndex still
    /// runs (the index file replaces compilation, not translation).
    int num_threads = 1;
  };

  /// Stands the engine up from a persisted index instead of compiling:
  /// translates the MVDB if needed, reconstructs the variable order and
  /// manager from the file, loads (or maps) the index against it, and
  /// cross-checks the file against this database — the order digest must
  /// match and every per-level probability must equal the translated
  /// marginal bit for bit, so serving a stale or foreign index fails with a
  /// typed Status instead of returning silently wrong answers. After
  /// success, compiled() is true and Query/Serve behave exactly as after
  /// Compile() (kObddReuse lazily imports the chain on first use).
  Status OpenIndex(const std::string& path, const OpenIndexOptions& options);
  Status OpenIndex(const std::string& path);

  /// Applies a batch of base-table delta operations end to end: mutates the
  /// MVDB (Mvdb::ApplyBaseDelta maintains the views and the NV relations),
  /// then incrementally maintains the compiled index. Weight-only deltas
  /// (updates, deletes) repair the chain annotations in place
  /// (MvIndex::ApplyWeightDelta); inserts splice the new variables into the
  /// order and recompile only the dirty blocks (ApplyStructuralDelta). Both
  /// paths leave the engine bit-identical to a from-scratch Compile over
  /// the mutated database (delta_maintenance_test pins it).
  ///
  /// When `server` is non-null it must be a live Server over this engine's
  /// index: it is paused before the first base-table write — every delta,
  /// a no-op included — and resumed after the index repair (its batches
  /// read the order and P0(NOT W) off the index). Only a structural delta
  /// calls Server::InvalidatePlans, which re-warms the table indexes its
  /// row appends dropped and drops the plan cache; plans are
  /// value-independent and a weight move writes only tuple weights, so a
  /// weight-only delta keeps both warm. The engine-side caches follow the
  /// same rule (w_lineage_ and the query plan cache survive weight-only
  /// deltas).
  ///
  /// On a non-OK return the database may hold an applied prefix of `ops`
  /// while the index does not reflect it; the typed code says why
  /// (Unimplemented = a W-shape transition outside the incremental
  /// contract). Callers must then rebuild via a fresh engine + Compile
  /// before trusting further answers.
  Status ApplyDelta(const std::vector<DeltaOp>& ops, Server* server = nullptr);

  /// Evaluates a (possibly non-Boolean) UCQ over the MVDB relations,
  /// returning one probability per answer tuple.
  StatusOr<std::vector<AnswerProb>> Query(const Ucq& q,
                                          Backend backend = Backend::kMvIndexCC);

  /// Evaluates a Boolean UCQ: Query's single answer, or 0 when none.
  StatusOr<double> QueryBoolean(const Ucq& q,
                                Backend backend = Backend::kMvIndexCC);

  /// Returns the k most probable answers, descending by probability (ties
  /// broken by head tuple order). Evaluates every answer's numerator — the
  /// MV-index makes per-answer evaluation cheap enough that the multi-
  /// simulation pruning of Re et al. [28] is unnecessary here; see
  /// DESIGN.md, "Top-k without multisimulation".
  StatusOr<std::vector<AnswerProb>> QueryTopK(const Ucq& q, size_t k,
                                              Backend backend = Backend::kMvIndexCC);

  /// Conditional probability P(Q1 | Q2) on the MVDB: by Theorem 1 this is
  /// P0(Q1 ^ Q2 ^ NOT W) / P0(Q2 ^ NOT W) — on kMvIndexCC, one batched sweep
  /// of both roots in one pooled manager; on kBruteForce, enumeration over
  /// the cross product of the two lineages. Both queries must be Boolean.
  /// Returns InvalidArgument when P(Q2) = 0, and Unimplemented on
  /// kSafePlan (there is no lifted plan for a conjunction of two UCQs).
  StatusOr<double> ConditionalBoolean(const Ucq& q1, const Ucq& q2,
                                      Backend backend = Backend::kMvIndexCC);

  /// Diagnostics for one query: what the evaluation would do and cost.
  struct Explanation {
    size_t num_answers;        ///< answer tuples
    size_t lineage_clauses;    ///< total clauses across answers
    size_t lineage_vars;       ///< distinct tuple variables across answers
    bool uses_negation;        ///< signed lineage (Sec. 2.5 extension)
    bool safe_with_views;      ///< lifted inference applies to Q v W and W
    size_t blocks_touched;     ///< MV-index blocks overlapping the lineage
    size_t index_blocks;       ///< total blocks in the index
  };
  StatusOr<Explanation> Explain(const Ucq& q);

  /// P0(NOT W) = 1 - P0(W), the denominator of Eq. 5.
  double ProbNotW() const { return index_->ProbNotW(); }

  /// The compiled MV-index (stats, block layout).
  const MvIndex& index() const { return *index_; }
  /// Mutable access for post-build A/B toggles (e.g.
  /// MvIndex::set_use_fast_intersect in kernel parity tests and benches).
  MvIndex& mutable_index() { return *index_; }
  BddManager& manager() { return *mgr_; }

  /// Builds an online serving layer over the compiled index (compiling
  /// first if needed): plan cache, bounded-queue scheduler with deadlines
  /// and shedding, batched CC sweep. The engine must outlive the server.
  StatusOr<std::unique_ptr<Server>> Serve(const ServeOptions& options = {});

  /// This engine's own query-side Eval calls (Query, QueryBoolean,
  /// QueryTopK, ConditionalBoolean, Explain, WLineage) plan through a plan
  /// cache of kPlanCacheCapacity shapes, so repeated query shapes skip the
  /// cost-based planner. A hit is bit-identical to planning from scratch
  /// (plan_cache_test asserts it). Structural deltas empty the cache.
  static constexpr size_t kPlanCacheCapacity = 128;
  PlanCacheStats plan_cache_stats() const { return plan_cache_->stats(); }

  /// Lineage of W (computed lazily; large — Fig. 4 measures its size).
  StatusOr<const Lineage*> WLineage();

  /// The attribute permutations chosen at compile time.
  const OrderSpec& order_spec() const { return order_spec_; }
  /// Whether W was detected inversion-free (Proposition 2 applies).
  bool w_inversion_free() const { return w_inversion_free_; }

 private:
  /// Chooses order_spec_ (pi + component ranks) and w_inversion_free_ from
  /// the translated MVDB. Pure analysis of W; shared by Compile and
  /// OpenIndex (the structural delta path needs the spec to splice new
  /// variables, and a loaded index predates this engine's spec).
  void ComputeOrderSpec();

  /// Index maintenance for an applied delta (ApplyDelta's second half).
  Status MaintainIndex(const DeltaEffects& effects);

  StatusOr<ScaledDouble> Numerator(const Lineage& q_lineage,
                                   const Ucq& q_grounded_or_w, Backend backend);

  /// Eval / EvalBoolean through the plan cache (bit-identical to both).
  Status CachedEval(const Ucq& q, AnswerMap* out);
  StatusOr<Lineage> CachedEvalBoolean(const Ucq& q);

  Mvdb* mvdb_;
  OrderSpec order_spec_;
  bool w_inversion_free_ = false;
  std::unique_ptr<BddManager> mgr_;
  std::unique_ptr<MvIndex> index_;
  std::vector<double> var_probs_;
  std::optional<Lineage> w_lineage_;
  std::unique_ptr<PlanCache> plan_cache_;
  PipelineScratch scratch_;  ///< kept across calls (single caller)
};

}  // namespace mvdb

#endif  // MVDB_CORE_ENGINE_H_

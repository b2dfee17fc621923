// Copyright 2026 The MarkoView Authors.
//
// Mvdb: the paper's data model (Definition 3: a triple (Tup, w, V)) and its
// translation to a tuple-independent database (Definition 5 / Theorem 1).
//
// Usage:
//   Mvdb mvdb;
//   ... create tables and insert tuples through mvdb.db() ...
//   mvdb.AddView(MarkoView::Constant("V2", v2_def, 0.0));
//   MVDB_RETURN_NOT_OK(mvdb.Translate());
//   // now mvdb.db() also holds the NV tables, and mvdb.W() is the Boolean
//   // constraint UCQ of Eq. 4; query through core/engine.h.
//
// Translate() materializes every view over I_poss, computes per-tuple
// weights, creates the NV relations with weight w0 = (1-w)/w (negative when
// w > 1 — Section 3.3), and assembles W = v_i (exists x. NV_i(x) ^ Q_i(x)).
// Denial views (all weights 0) follow the paper's simplification: NV_i is
// dropped entirely and W_i is just the existentially closed view body.

#ifndef MVDB_CORE_MVDB_H_
#define MVDB_CORE_MVDB_H_

#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/markoview.h"
#include "mln/mln.h"
#include "prob/lineage.h"
#include "query/ast.h"
#include "relational/database.h"
#include "util/status.h"

namespace mvdb {

/// One materialized view output tuple and its induced MLN feature.
struct ViewTuple {
  std::vector<Value> head;
  double weight;      ///< wV(t), the MarkoView weight
  Lineage feature;    ///< lineage of Q_i(t) over the base tables (Def. 4)
  VarId nv_var;       ///< Boolean variable of the NV tuple; kNoVar if none
                      ///< (denial tuple under simplification, or w == 1)
};

/// Knobs for the MVDB -> INDB translation. The translation's output (view
/// tuples, weights, NV tables, W, variable numbering) is bit-identical for
/// every thread count: view evaluation shards the driver atom with
/// canonically merged answers, and the weight gather and NV emission stay
/// serial so VarIds are allocated in tuple order.
struct TranslateOptions {
  /// Worker threads for view materialization. 1 = serial; <= 0 = one per
  /// hardware thread. Weights are computed (and validated) serially in the
  /// gather loop that moves each materialized tuple out of the answer map.
  int num_threads = 1;
};

/// One base-table mutation of the incremental maintenance path
/// (Mvdb::ApplyBaseDelta). Deltas target probabilistic *base* tables; NV
/// relations are maintained by the translation and deterministic-table
/// changes (which move aggregate counts wholesale) take a full rebuild.
struct DeltaOp {
  enum class Kind {
    kInsert,        ///< append a new possible tuple with the given weight
    kUpdateWeight,  ///< overwrite an existing tuple's weight (odds)
    kDelete,        ///< tombstone: weight -> 0, the tuple leaves every
                    ///< possible world but keeps its variable and row (so
                    ///< counts over I_poss — and hence W's shape — are
                    ///< untouched; Section 2.4 counts range over I_poss)
  };
  Kind kind = Kind::kUpdateWeight;
  std::string table;
  std::vector<Value> values;  ///< the full tuple
  double weight = 1.0;        ///< odds; read by kInsert / kUpdateWeight
};

/// What ApplyBaseDelta changed, in the vocabulary the engine needs to pick
/// (and drive) the matching MvIndex repair: a pure weight repair when no
/// variable was allocated, a structural splice otherwise.
struct DeltaEffects {
  /// Existing variables (base and NV) whose weight moved.
  std::vector<VarId> changed_weight_vars;
  /// Freshly allocated variables (inserted base tuples + induced NV tuples),
  /// in allocation order.
  std::vector<VarId> new_vars;
  /// A structural delta changes the variable set; a weight-only delta never
  /// does.
  bool structural() const { return !new_vars.empty(); }
};

class Mvdb {
 public:
  Mvdb() = default;
  Mvdb(Mvdb&&) = default;
  Mvdb& operator=(Mvdb&&) = default;

  /// The underlying database: deterministic + probabilistic tables before
  /// Translate(), plus the NV tables afterwards.
  Database& db() { return db_; }
  const Database& db() const { return db_; }

  /// Registers a MarkoView. Must be called before Translate().
  Status AddView(MarkoView view);

  const std::vector<MarkoView>& views() const { return views_; }

  /// Materializes all views and builds the associated INDB (Definition 5).
  /// Idempotent: returns AlreadyExists on a second call.
  Status Translate() { return Translate(TranslateOptions{}); }
  Status Translate(const TranslateOptions& options);

  bool translated() const { return translated_; }

  /// Applies a batch of base-table mutations to the *translated* MVDB,
  /// incrementally maintaining the materialized views, their weights and the
  /// NV relations (Definition 5 stays invariant: afterwards the database is
  /// exactly what Translate() would have produced from the mutated base
  /// tables — up to variable numbering for freshly allocated variables).
  /// Weight updates and tombstone deletes never change view output or
  /// counts (both range over I_poss), so they only move weights; inserts
  /// re-derive the affected view tuples by restricted evaluation and
  /// point-wise re-grounding. Transitions that would change W's *shape* —
  /// a view flipping empty/nonempty or denial/non-denial, a delta through a
  /// negated atom — return Unimplemented: shape changes take a rebuild.
  /// On any error the database may hold a partially applied prefix of
  /// `ops`; `effects` always describes exactly what was applied.
  Status ApplyBaseDelta(const std::vector<DeltaOp>& ops, DeltaEffects* effects);

  /// The Boolean constraint query W (Eq. 4). Valid after Translate().
  const Ucq& W() const { return w_; }

  /// Materialized tuples per view, parallel to views(). Valid after
  /// Translate().
  const std::vector<std::vector<ViewTuple>>& view_tuples() const {
    return view_tuples_;
  }

  /// Number of Boolean variables before translation — the variables of the
  /// MLN of Definition 4 (NV variables live above this bound).
  size_t base_num_vars() const { return base_num_vars_; }

  /// The ground MLN of Definition 4: one feature per base tuple (weights)
  /// plus one feature per view tuple. Valid after Translate(). This is the
  /// exact object Alchemy-style samplers run on (Figures 5-6) and the
  /// ground-truth oracle for Theorem 1 tests.
  StatusOr<GroundMln> ToGroundMln() const;

  /// Name of the NV relation of view i ("NV_" + view name).
  std::string NvTableName(size_t view_index) const {
    return "NV_" + views_[view_index].name();
  }

 private:
  /// Applies one mutation (see ApplyBaseDelta).
  Status ApplyOneDelta(const DeltaOp& op, DeltaEffects* effects);

  /// Insert maintenance for one view: discovers the heads whose derivations
  /// the new tuple can touch, re-grounds each, and reconciles weight,
  /// lineage and NV tuple against the stored ViewTuple.
  Status MaintainViewForInsert(size_t view_index, const std::string& table,
                               std::span<const Value> values,
                               DeltaEffects* effects);

  Database db_;
  std::vector<MarkoView> views_;
  /// The NV relation of each view, parallel to views_ (nullptr for an
  /// empty or all-denial view, which has none). Set by Translate().
  std::vector<const Table*> nv_tables_;
  std::vector<std::vector<ViewTuple>> view_tuples_;
  Ucq w_;
  size_t base_num_vars_ = 0;
  bool translated_ = false;

  /// Lazily built per-view head -> view_tuples_ index, so insert
  /// maintenance reconciles candidates without scanning the (DBLP-scale,
  /// ~1M-tuple) view extents. Keys use the map's deterministic ordering;
  /// maintained incrementally once built.
  std::vector<std::map<std::vector<Value>, size_t>> head_index_;
};

}  // namespace mvdb

#endif  // MVDB_CORE_MVDB_H_

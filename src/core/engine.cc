#include "core/engine.h"

#include <algorithm>
#include <cstring>

#include "mvindex/index_io.h"
#include "mvindex/partition.h"
#include "prob/brute_force.h"
#include "query/analysis.h"
#include "safeplan/lifted.h"
#include "util/logging.h"
#include "util/timer.h"

namespace mvdb {
namespace {

/// Lineage of Q1 ^ Q2: the cross product of the two clause sets.
Lineage ConjoinLineages(const Lineage& a, const Lineage& b) {
  Lineage out;
  Clause pos, neg;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      pos.assign(a.pos(i).begin(), a.pos(i).end());
      pos.insert(pos.end(), b.pos(j).begin(), b.pos(j).end());
      neg.assign(a.neg(i).begin(), a.neg(i).end());
      neg.insert(neg.end(), b.neg(j).begin(), b.neg(j).end());
      out.AddSignedClause(pos, neg);
    }
  }
  return out;
}

}  // namespace

Status QueryEngine::Compile(const CompileOptions& options) {
  if (compiled()) return Status::OK();
  // Phase accounting: every instruction between here and the return lives
  // inside exactly one of the six phase windows (translate / order inside
  // this function, partition / compile / stitch / import inside
  // MvIndex::Build), so the phase seconds sum to total_seconds up to
  // clock-read noise — engine_scale_test asserts it.
  Timer total_timer;
  // Phase 1: MVDB -> INDB translation, sharded over the compile thread
  // budget (bit-identical output for any thread count).
  Timer timer;
  double translate_seconds = 0.0;  // stays 0 when already translated
  if (!mvdb_->translated()) {
    TranslateOptions topts;
    topts.num_threads = options.num_threads;
    MVDB_RETURN_NOT_OK(mvdb_->Translate(topts));
    translate_seconds = timer.Seconds();
  }
  timer.Restart();
  const Database& db = mvdb_->db();
  ComputeOrderSpec();

  mgr_ = std::make_unique<BddManager>(
      BuildVariableOrder(db, order_spec_, options.num_threads));
  // The per-VarId probability snapshot belongs to the order phase: at 1M
  // authors it walks every tuple variable once.
  var_probs_ = db.VarProbs();
  const double order_seconds = timer.Seconds();
  MVDB_ASSIGN_OR_RETURN(
      index_, MvIndex::Build(db, mvdb_->W(), mgr_.get(), var_probs_, options));
  // Phase 2 bookkeeping: Build timed partition/compile/stitch/import; the
  // engine owns the front-end phases it ran above.
  index_->mutable_build_stats().translate_seconds = translate_seconds;
  index_->mutable_build_stats().order_seconds = order_seconds;
  index_->mutable_build_stats().total_seconds = total_timer.Seconds();
  return Status::OK();
}

void QueryEngine::ComputeOrderSpec() {
  const Database& db = mvdb_->db();
  const Ucq& w = mvdb_->W();
  auto is_prob = [&db](const std::string& rel) {
    const Table* t = db.Find(rel);
    return t != nullptr && t->probabilistic();
  };

  // Attribute permutations: inversion-free if possible, else separator-first.
  std::unordered_map<std::string, size_t> arity;
  for (const auto& cq : w.disjuncts) {
    for (const Atom& a : cq.atoms) {
      if (is_prob(a.relation)) arity[a.relation] = a.args.size();
    }
  }
  order_spec_ = OrderSpec{};
  if (auto pi = FindInversionFreePi(w, is_prob, arity); pi.has_value()) {
    w_inversion_free_ = true;
    order_spec_.pi = std::move(*pi);
  } else if (auto sep = FindSeparator(w, is_prob); sep.has_value()) {
    for (const auto& [sym, pos] : sep->position) {
      std::vector<size_t> perm = {pos};
      for (size_t p = 0; p < arity[sym]; ++p) {
        if (p != pos) perm.push_back(p);
      }
      order_spec_.pi[sym] = std::move(perm);
    }
  }

  // Component ranks: keep independent view groups of W contiguous;
  // relations untouched by W go last.
  const auto groups = IndependentUnionComponents(w, is_prob);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t d : groups[g]) {
      for (const Atom& a : w.disjuncts[d].atoms) {
        if (is_prob(a.relation)) {
          order_spec_.component_rank.emplace(a.relation, static_cast<int>(g));
        }
      }
    }
  }
  for (const std::string& name : db.table_names()) {
    const Table* t = db.Find(name);
    if (t->probabilistic()) {
      order_spec_.component_rank.emplace(name, static_cast<int>(groups.size()));
    }
  }
}

Status QueryEngine::SaveIndex(const std::string& path) {
  return SaveIndex(path, CompileOptions{});
}

Status QueryEngine::SaveIndex(const std::string& path,
                              const CompileOptions& options) {
  MVDB_RETURN_NOT_OK(Compile(options));
  return index_->Save(path);
}

Status QueryEngine::OpenIndex(const std::string& path) {
  return OpenIndex(path, OpenIndexOptions{});
}

Status QueryEngine::OpenIndex(const std::string& path,
                              const OpenIndexOptions& options) {
  if (compiled()) {
    return Status::InvalidArgument(
        "engine already holds a compiled index; OpenIndex must run first");
  }
  // The index file replaces the compile phase, not the front-end: serving
  // still needs the INDB relations (query evaluation) and the per-variable
  // marginals (the consistency gate below).
  if (!mvdb_->translated()) {
    TranslateOptions topts;
    topts.num_threads = options.num_threads;
    MVDB_RETURN_NOT_OK(mvdb_->Translate(topts));
  }
  var_probs_ = mvdb_->db().VarProbs();
  // The file carries the order itself, but the engine still derives the
  // order *spec*: structural deltas splice new variables at the positions
  // the spec dictates. SaveIndex wrote BuildVariableOrder(db, spec), so the
  // recomputed spec describes the loaded order exactly.
  ComputeOrderSpec();

  // Reconstruct the variable order from the file — but vet it against this
  // database before handing it to VarOrder, whose constructor CHECK-fails
  // on malformed input (a corrupt or foreign file must surface as a typed
  // Status, never an abort).
  MVDB_ASSIGN_OR_RETURN(std::vector<VarId> order, ReadIndexVarOrder(path));
  if (order.size() != var_probs_.size()) {
    return Status::InvalidArgument(
        "index file orders " + std::to_string(order.size()) +
        " variables but this database has " +
        std::to_string(var_probs_.size()));
  }
  std::vector<char> seen(var_probs_.size(), 0);
  for (const VarId v : order) {
    if (v < 0 || static_cast<size_t>(v) >= var_probs_.size() ||
        seen[static_cast<size_t>(v)] != 0) {
      return Status::InvalidArgument(
          "index file variable order is not a permutation of this "
          "database's variables");
    }
    seen[static_cast<size_t>(v)] = 1;
  }
  mgr_ = std::make_unique<BddManager>(std::move(order));

  IndexLoadOptions lopts;
  lopts.verify_checksums = options.verify_checksums;
  auto loaded = options.mapped ? MvIndex::LoadMapped(path, mgr_.get(), lopts)
                               : MvIndex::Load(path, mgr_.get(), lopts);
  if (!loaded.ok()) {
    mgr_.reset();
    return loaded.status();
  }
  std::unique_ptr<MvIndex> index = std::move(loaded).value();

  // Bind the file to THIS database: every per-level probability in the
  // index must equal the freshly translated marginal bit for bit. A stale
  // index (same schema, different data) passes the order-digest check but
  // fails here.
  const FlatObdd& flat = index->flat();
  for (size_t l = 0; l < flat.num_levels(); ++l) {
    const double file_p = flat.prob_at_level(static_cast<int32_t>(l));
    const double db_p = var_probs_[static_cast<size_t>(
        mgr_->var_at_level(static_cast<int32_t>(l)))];
    if (std::memcmp(&file_p, &db_p, sizeof(double)) != 0) {
      mgr_.reset();
      return Status::InvalidArgument(
          "index file probabilities disagree with this database at level " +
          std::to_string(l) + " (stale index? rebuild with SaveIndex)");
    }
  }
  index_ = std::move(index);
  return Status::OK();
}

Status QueryEngine::ApplyDelta(const std::vector<DeltaOp>& ops,
                               Server* server) {
  if (!compiled()) {
    return Status::FailedPrecondition(
        "ApplyDelta requires a compiled or opened index");
  }
  // The base-table writes race the workers' probes as much as the repair
  // does (an insert grows a table and drops its lazy column indexes; view
  // maintenance evaluates over the tables), so the pause covers both.
  if (server != nullptr) server->Pause();
  DeltaEffects effects;
  const Status applied = mvdb_->ApplyBaseDelta(ops, &effects);
  // Even when a later op failed, the applied prefix already mutated the
  // database — maintain the index for it regardless, or the chain would
  // silently serve answers for a database that no longer exists.
  Status maintained = Status::OK();
  if (!effects.changed_weight_vars.empty() || !effects.new_vars.empty()) {
    maintained = MaintainIndex(effects);
  }
  if (server != nullptr) {
    if (effects.structural()) server->InvalidatePlans();
    server->Resume();
  }
  MVDB_RETURN_NOT_OK(applied);
  return maintained;
}

Status QueryEngine::MaintainIndex(const DeltaEffects& effects) {
  const Database& db = mvdb_->db();
  // Refresh the marginal snapshot incrementally: db.var_prob is the same
  // WeightToProb the VarProbs walk applies, so the entries stay bit-equal
  // to a from-scratch snapshot.
  for (const VarId v : effects.changed_weight_vars) {
    var_probs_[static_cast<size_t>(v)] = db.var_prob(v);
  }
  if (!effects.structural()) {
    // Weight-only: lineages, plans, and W's structure are untouched —
    // w_lineage_ and the plan cache stay warm by design.
    return index_->ApplyWeightDelta(effects.changed_weight_vars, var_probs_);
  }

  // Structural: new variables exist. They were allocated sequentially, so
  // the snapshot grows by appending in VarId order.
  for (const VarId v : effects.new_vars) {
    MVDB_CHECK_EQ(static_cast<size_t>(v), var_probs_.size());
    var_probs_.push_back(db.var_prob(v));
  }
  const Ucq& w = mvdb_->W();
  auto is_prob = [&db](const std::string& rel) {
    const Table* t = db.Find(rel);
    return t != nullptr && t->probabilistic();
  };
  // Dirty blocks: every new tuple, plus existing tuples whose weight moved
  // in the same batch — recompiling their blocks sidesteps any staleness
  // in a reused block's interior annotations.
  std::vector<TupleRef> touched;
  touched.reserve(effects.new_vars.size() +
                  effects.changed_weight_vars.size());
  for (const VarId v : effects.new_vars) touched.push_back(db.var_tuple(v));
  for (const VarId v : effects.changed_weight_vars) {
    touched.push_back(db.var_tuple(v));
  }
  const std::vector<std::string> dirty = DirtyBlockKeys(db, w, is_prob, touched);

  // Splice the new variables into the order and rebind to a fresh manager.
  // The old manager must stay alive until the index has migrated — the
  // delta reads it for the old level layout — hence the swap at the end.
  auto new_mgr = std::make_unique<BddManager>(
      InsertVarsIntoOrder(db, order_spec_, mgr_->order()->vars(),
                          effects.new_vars));
  MVDB_RETURN_NOT_OK(
      index_->ApplyStructuralDelta(db, w, new_mgr.get(), var_probs_, dirty));
  mgr_ = std::move(new_mgr);
  // W's lineage gained derivations; cached plans were costed against the
  // old table statistics. Both rebuild lazily.
  w_lineage_.reset();
  plan_cache_ = std::make_unique<PlanCache>(kPlanCacheCapacity);
  return Status::OK();
}

StatusOr<const Lineage*> QueryEngine::WLineage() {
  MVDB_RETURN_NOT_OK(Compile());
  if (!w_lineage_.has_value()) {
    MVDB_ASSIGN_OR_RETURN(Lineage lin, CachedEvalBoolean(mvdb_->W()));
    w_lineage_ = std::move(lin);
  }
  return &*w_lineage_;
}

StatusOr<std::unique_ptr<Server>> QueryEngine::Serve(
    const ServeOptions& options) {
  MVDB_RETURN_NOT_OK(Compile());
  return std::make_unique<Server>(&mvdb_->db(), index_.get(), options);
}

Status QueryEngine::CachedEval(const Ucq& q, AnswerMap* out) {
  return PlanAndExecute(mvdb_->db(), plan_cache_.get(), q, &scratch_.eval,
                        out);
}

StatusOr<Lineage> QueryEngine::CachedEvalBoolean(const Ucq& q) {
  AnswerMap answers;
  MVDB_RETURN_NOT_OK(CachedEval(q, &answers));
  if (answers.empty()) return Lineage();
  MVDB_CHECK_EQ(answers.size(), 1u);
  return answers.begin()->second.lineage;
}

StatusOr<ScaledDouble> QueryEngine::Numerator(const Lineage& q_lineage,
                                              const Ucq& q_grounded,
                                              Backend backend) {
  switch (backend) {
    case Backend::kBruteForce: {
      MVDB_ASSIGN_OR_RETURN(const Lineage* w_lin, WLineage());
      return ScaledDouble(BruteForceProbAndNot(q_lineage, *w_lin, var_probs_));
    }
    case Backend::kObddReuse: {
      const NodeId qb = mgr_->FromLineageSynthesis(q_lineage);
      // Loaded indexes defer the chain import; materialize it on first use.
      const NodeId not_w = index_->EnsureChainImported();
      return mgr_->ProbScaled(mgr_->And(qb, not_w), var_probs_);
    }
    case Backend::kMvIndex: {
      const NodeId qb = mgr_->FromLineageSynthesis(q_lineage);
      return index_->MVIntersectScaled(qb);
    }
    case Backend::kSafePlan: {
      // P0(Q v W) - P0(W) via lifted inference on both queries. Runs in
      // plain double: the lifted recursion multiplies per-value factors
      // incrementally and is only exercised at modest scales (the DBLP W
      // is not safe; see the ablation bench).
      Ucq q_or_w = mvdb_->W();
      q_or_w.name = "QvW";
      AppendDisjunctsRenamed(&q_or_w, q_grounded, "q.");
      MVDB_ASSIGN_OR_RETURN(double p_qw,
                            LiftedProb(mvdb_->db(), q_or_w, var_probs_));
      MVDB_ASSIGN_OR_RETURN(double p_w,
                            LiftedProb(mvdb_->db(), mvdb_->W(), var_probs_));
      return ScaledDouble(p_qw - p_w);
    }
    default:
      return Status::Internal("no oracle numerator for this backend");
  }
}

StatusOr<std::vector<AnswerProb>> QueryEngine::Query(const Ucq& q,
                                                     Backend backend) {
  MVDB_RETURN_NOT_OK(Compile());
  std::vector<AnswerProb> out;
  size_t cursor = 0;
  if (backend == Backend::kMvIndexCC) {  // the serving path, a batch of one
    scratch_.queries.resize(1);
    SynthesizedQuery& one = scratch_.queries[0];
    SynthesizeQuery(mvdb_->db(), *index_, plan_cache_.get(), q, &scratch_, 0,
                    &one);
    MVDB_RETURN_NOT_OK(one.status);
    SweepNumerators(*index_, std::span(&one, 1), &scratch_, &scratch_.nums);
    MVDB_RETURN_NOT_OK(
        Eq5Answers(*index_, &one.heads, scratch_.nums, &cursor, &out));
    return out;
  }
  std::vector<std::vector<Value>> heads;
  std::vector<ScaledDouble> nums;
  AnswerMap answers;
  MVDB_RETURN_NOT_OK(CachedEval(q, &answers));
  for (const auto& [head, info] : answers) {
    const Ucq grounded =
        backend == Backend::kSafePlan ? GroundHead(q, head) : Ucq{};
    MVDB_ASSIGN_OR_RETURN(ScaledDouble num,
                          Numerator(info.lineage, grounded, backend));
    heads.push_back(head);
    nums.push_back(num);
  }
  // The same Eq. 5 step as the serving path: for numerators computed in
  // plain double, the extended-range quotient has the plain quotient's bits.
  MVDB_RETURN_NOT_OK(Eq5Answers(*index_, &heads, nums, &cursor, &out));
  return out;
}

StatusOr<double> QueryEngine::ConditionalBoolean(const Ucq& q1, const Ucq& q2,
                                                 Backend backend) {
  if (!q1.IsBoolean() || !q2.IsBoolean()) {
    return Status::InvalidArgument("ConditionalBoolean requires Boolean queries");
  }
  if (backend == Backend::kSafePlan) {
    return Status::Unimplemented(
        "no lifted plan for the conjunction of two UCQs");
  }
  MVDB_RETURN_NOT_OK(Compile());
  MVDB_ASSIGN_OR_RETURN(Lineage lin1, CachedEvalBoolean(q1));
  MVDB_ASSIGN_OR_RETURN(Lineage lin2, CachedEvalBoolean(q2));
  // Numerators share the denominator P0(NOT W), which cancels:
  // P(Q1 | Q2) = P0(Q1 ^ Q2 ^ !W) / P0(Q2 ^ !W).
  ScaledDouble num, den;
  if (backend == Backend::kBruteForce) {
    MVDB_ASSIGN_OR_RETURN(const Lineage* w_lin, WLineage());
    num = ScaledDouble(BruteForceProbAndNot(ConjoinLineages(lin1, lin2),
                                            *w_lin, var_probs_));
    den = ScaledDouble(BruteForceProbAndNot(lin2, *w_lin, var_probs_));
  } else {
    // The serving path synthesizes into the pooled manager of slot 0 and
    // sweeps both roots in one batch; the other oracles build in the
    // engine's own manager.
    BddManager& m =
        backend == Backend::kMvIndexCC
            ? *scratch_.BorrowManager(0, index_->manager().order())
            : *mgr_;
    const NodeId b1 = m.FromLineageSynthesis(lin1);
    const NodeId b2 = m.FromLineageSynthesis(lin2);
    const NodeId joint = m.And(b1, b2);
    if (backend == Backend::kMvIndexCC) {
      index_->CCMVIntersectBatchScaled({{&m, joint}, {&m, b2}},
                                       &scratch_.sweep, &scratch_.nums);
      num = scratch_.nums[0];
      den = scratch_.nums[1];
    } else if (backend == Backend::kMvIndex) {
      num = index_->MVIntersectScaled(joint);
      den = index_->MVIntersectScaled(b2);
    } else {
      const NodeId not_w = index_->EnsureChainImported();
      num = m.ProbScaled(m.And(joint, not_w), var_probs_);
      den = m.ProbScaled(m.And(b2, not_w), var_probs_);
    }
  }
  if (den.IsZero()) {
    return Status::InvalidArgument("conditioning event has probability zero");
  }
  return ClampProb((num / den).ToDouble());
}

StatusOr<QueryEngine::Explanation> QueryEngine::Explain(const Ucq& q) {
  MVDB_RETURN_NOT_OK(Compile());
  AnswerMap answers;
  MVDB_RETURN_NOT_OK(CachedEval(q, &answers));
  Explanation out{};
  out.index_blocks = index_->blocks().size();
  std::vector<VarId> all_vars;
  for (const auto& [head, info] : answers) {
    ++out.num_answers;
    out.lineage_clauses += info.lineage.size();
    out.uses_negation |= info.lineage.HasNegation();
    const auto vars = info.lineage.Vars();
    all_vars.insert(all_vars.end(), vars.begin(), vars.end());
  }
  std::sort(all_vars.begin(), all_vars.end());
  all_vars.erase(std::unique(all_vars.begin(), all_vars.end()), all_vars.end());
  out.lineage_vars = all_vars.size();
  // Blocks whose level range overlaps some lineage variable.
  for (const MvBlock& b : index_->blocks()) {
    for (VarId v : all_vars) {
      const int32_t l = mgr_->level_of_var(v);
      if (l >= b.first_level && l <= b.last_level) {
        ++out.blocks_touched;
        break;
      }
    }
  }
  // Safety of Q v W and W under lifted inference (tractability detection,
  // the paper's Theorem 1 corollary).
  Ucq q_or_w = mvdb_->W();
  Ucq boolean_q = q;
  boolean_q.head_vars.clear();
  AppendDisjunctsRenamed(&q_or_w, boolean_q, "q.");
  out.safe_with_views = LiftedProb(mvdb_->db(), q_or_w, var_probs_).ok() &&
                        LiftedProb(mvdb_->db(), mvdb_->W(), var_probs_).ok();
  return out;
}

StatusOr<std::vector<AnswerProb>> QueryEngine::QueryTopK(const Ucq& q, size_t k,
                                                         Backend backend) {
  MVDB_ASSIGN_OR_RETURN(std::vector<AnswerProb> answers, Query(q, backend));
  std::stable_sort(answers.begin(), answers.end(),
                   [](const AnswerProb& a, const AnswerProb& b) {
                     return a.prob > b.prob;
                   });
  if (answers.size() > k) answers.resize(k);
  return answers;
}

StatusOr<double> QueryEngine::QueryBoolean(const Ucq& q, Backend backend) {
  if (!q.IsBoolean()) {
    return Status::InvalidArgument("QueryBoolean requires a Boolean query");
  }
  MVDB_ASSIGN_OR_RETURN(std::vector<AnswerProb> answers, Query(q, backend));
  return answers.empty() ? 0.0 : answers.front().prob;
}

}  // namespace mvdb

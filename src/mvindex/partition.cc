#include "mvindex/partition.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/logging.h"
#include "util/parallel.h"

namespace mvdb {
namespace {

Ucq SubUcq(const Ucq& q, const std::vector<size_t>& disjuncts) {
  Ucq out = q;
  out.disjuncts.clear();
  for (size_t d : disjuncts) out.disjuncts.push_back(q.disjuncts[d]);
  return out;
}

/// Sorted distinct union of the separator attribute's active domain across
/// every probabilistic atom of the group. Equivalent to inserting each
/// atom's DistinctValues into one ordered set, but the per-table scans are
/// deduplicated by (relation, position) and sharded over threads.
std::vector<Value> SeparatorDomain(const Database& db, const Ucq& sub,
                                   const Separator& sep, const IsProbFn& is_prob,
                                   int num_threads) {
  std::vector<std::pair<std::string, size_t>> columns;
  for (size_t d = 0; d < sub.disjuncts.size(); ++d) {
    if (sep.var_of_disjunct[d] < 0) continue;
    for (const Atom& a : sub.disjuncts[d].atoms) {
      if (!is_prob(a.relation)) continue;
      columns.emplace_back(a.relation, sep.position.at(a.relation));
    }
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());

  std::vector<std::vector<Value>> per_column(columns.size());
  ParallelFor(EffectiveThreads(num_threads, columns.size()), columns.size(),
              [&](int, size_t i) {
                const Table* t = db.Find(columns[i].first);
                per_column[i] = t->DistinctValues(columns[i].second);
              });

  std::vector<Value> domain;
  for (const auto& values : per_column) {
    const size_t mid = domain.size();
    domain.insert(domain.end(), values.begin(), values.end());
    std::inplace_merge(domain.begin(),
                       domain.begin() + static_cast<ptrdiff_t>(mid),
                       domain.end());
  }
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  return domain;
}

}  // namespace

PartitionResult PartitionBlocks(const Database& db, const Ucq& w,
                                const IsProbFn& is_prob, int num_threads) {
  PartitionResult out;
  if (w.disjuncts.empty()) return out;
  const auto groups = IndependentUnionComponents(w, is_prob);
  for (size_t g = 0; g < groups.size(); ++g) {
    Ucq sub = SubUcq(w, groups[g]);
    const auto sep = FindSeparator(sub, is_prob);
    bool decomposed = false;
    if (sep.has_value()) {
      bool any_var = false;
      for (int v : sep->var_of_disjunct) any_var |= (v >= 0);
      if (any_var) {
        // One task per separator value: the per-value subqueries are
        // tuple-disjoint (Proposition 1), hence variable-disjoint blocks —
        // the property that makes shard compilation sound. The tasks carry
        // only (shape id, value); the grounded AST is materialized on
        // demand, never per task on the build path.
        const std::vector<Value> domain =
            SeparatorDomain(db, sub, *sep, is_prob, num_threads);
        const int shape_id = static_cast<int>(out.shapes.size());
        const std::string prefix = "g" + std::to_string(g) + "/";
        out.tasks.reserve(out.tasks.size() + domain.size());
        for (const Value a : domain) {
          BlockTask task;
          task.key = prefix + std::to_string(a);
          task.shape = shape_id;
          task.binding = a;
          out.tasks.push_back(std::move(task));
        }
        out.shapes.push_back(BlockShape{std::move(sub), sep->var_of_disjunct});
        decomposed = true;
      }
    }
    if (!decomposed) {
      BlockTask task;
      task.key = "g" + std::to_string(g);
      task.query = std::move(sub);
      out.tasks.push_back(std::move(task));
    }
  }
  return out;
}

Ucq MaterializeTaskQuery(const PartitionResult& partition,
                         const BlockTask& task) {
  if (task.shape < 0) return task.query;
  const BlockShape& shape = partition.shapes[static_cast<size_t>(task.shape)];
  Ucq out = shape.query;
  for (size_t d = 0; d < out.disjuncts.size(); ++d) {
    const int z = shape.sep_var_of_disjunct[d];
    if (z >= 0) SubstituteInDisjunct(&out, d, z, task.binding);
  }
  return out;
}

BlockPlans PlanBlockTasks(const Database& db, const IsProbFn& is_prob,
                          const PartitionResult& partition,
                          const std::vector<bool>& wanted) {
  BlockPlans out;
  out.tasks.resize(partition.tasks.size());
  struct StoreEntry {
    const ConObddTemplate* tmpl = nullptr;
    Status status = Status::OK();
  };
  std::unordered_map<std::string, StoreEntry> store;  // by signature key
  struct ShapeDefault {
    bool ready = false;
    StoreEntry entry;
    std::vector<Value> slots;
    size_t binding_slot = 0;
  };
  std::vector<ShapeDefault> defaults(partition.shapes.size());
  // Sorted constants per shape, for the collision test.
  std::vector<std::vector<Value>> shape_consts(partition.shapes.size());
  for (size_t s = 0; s < partition.shapes.size(); ++s) {
    std::vector<Value>& consts = shape_consts[s];
    ForEachUcqTerm(partition.shapes[s].query, [&](size_t, const Term& t) {
      if (!t.is_var()) consts.push_back(t.constant);
    });
    std::sort(consts.begin(), consts.end());
    consts.erase(std::unique(consts.begin(), consts.end()), consts.end());
  }
  auto plan_for = [&](const UcqSignature& sig,
                      const BlockTask& task) -> const StoreEntry& {
    auto it = store.find(sig.key);
    if (it == store.end()) {
      StoreEntry entry;
      auto tmpl_or = ConObddTemplate::Plan(
          db, is_prob, MaterializeTaskQuery(partition, task));
      if (tmpl_or.ok()) {
        out.templates.push_back(std::move(*tmpl_or));
        entry.tmpl = out.templates.back().get();
      } else {
        entry.status = tmpl_or.status();
      }
      it = store.emplace(sig.key, std::move(entry)).first;
    }
    return it->second;
  };
  for (size_t i = 0; i < partition.tasks.size(); ++i) {
    const BlockTask& task = partition.tasks[i];
    if (task.shape < 0) continue;  // undecomposed group: ConObddBuilder
    if (!wanted.empty() && !wanted[i]) continue;
    const BlockShape& shape = partition.shapes[static_cast<size_t>(task.shape)];
    const std::vector<Value>& consts =
        shape_consts[static_cast<size_t>(task.shape)];
    TaskPlan& plan = out.tasks[i];
    const StoreEntry* entry = nullptr;
    if (std::binary_search(consts.begin(), consts.end(), task.binding)) {
      // Collision: compute this binding's own signature.
      const UcqSignature sig = ComputeGroundedSignature(
          shape.query, shape.sep_var_of_disjunct, task.binding);
      entry = &plan_for(sig, task);
      plan.slots_begin = static_cast<uint32_t>(out.slot_arena.size());
      plan.slots_len = static_cast<uint32_t>(sig.slots.size());
      out.slot_arena.insert(out.slot_arena.end(), sig.slots.begin(),
                            sig.slots.end());
    } else {
      ShapeDefault& def = defaults[static_cast<size_t>(task.shape)];
      if (!def.ready) {
        UcqSignature sig = ComputeGroundedSignature(
            shape.query, shape.sep_var_of_disjunct, task.binding);
        def.entry = plan_for(sig, task);
        def.slots = std::move(sig.slots);
        const auto slot =
            std::find(def.slots.begin(), def.slots.end(), task.binding);
        MVDB_CHECK(slot != def.slots.end());
        def.binding_slot = static_cast<size_t>(slot - def.slots.begin());
        def.ready = true;
      }
      entry = &def.entry;
      plan.slots_begin = static_cast<uint32_t>(out.slot_arena.size());
      plan.slots_len = static_cast<uint32_t>(def.slots.size());
      out.slot_arena.insert(out.slot_arena.end(), def.slots.begin(),
                            def.slots.end());
      out.slot_arena[plan.slots_begin + def.binding_slot] = task.binding;
    }
    plan.tmpl = entry->tmpl;
    plan.status = entry->status;
  }
  return out;
}

std::vector<std::string> DirtyBlockKeys(const Database& db, const Ucq& w,
                                        const IsProbFn& is_prob,
                                        const std::vector<TupleRef>& touched) {
  (void)db;  // signature kept parallel to PartitionBlocks
  std::vector<std::string> keys;
  if (w.disjuncts.empty() || touched.empty()) return keys;
  // Mirror PartitionBlocks exactly: same group enumeration, same
  // decomposition test, same key spelling — the keys must match the task
  // list character for character.
  const auto groups = IndependentUnionComponents(w, is_prob);
  for (size_t g = 0; g < groups.size(); ++g) {
    const Ucq sub = SubUcq(w, groups[g]);
    std::vector<const TupleRef*> in_group;
    for (const TupleRef& ref : touched) {
      bool found = false;
      for (const ConjunctiveQuery& cq : sub.disjuncts) {
        for (const Atom& a : cq.atoms) {
          if (a.relation == ref.table->name()) {
            found = true;
            break;
          }
        }
        if (found) break;
      }
      if (found) in_group.push_back(&ref);
    }
    if (in_group.empty()) continue;
    const auto sep = FindSeparator(sub, is_prob);
    bool decomposed = false;
    if (sep.has_value()) {
      bool any_var = false;
      for (int v : sep->var_of_disjunct) any_var |= (v >= 0);
      decomposed = any_var;
    }
    const std::string prefix = "g" + std::to_string(g);
    for (const TupleRef* ref : in_group) {
      if (decomposed) {
        const auto pos = sep->position.find(ref->table->name());
        // Every probabilistic relation of a decomposed group carries the
        // separator (that is what makes it a separator); a miss would mean
        // the touched relation is deterministic inside this group, which
        // the delta layer already rejects upstream.
        MVDB_CHECK(pos != sep->position.end())
            << "no separator position for " << ref->table->name();
        keys.push_back(prefix + "/" +
                       std::to_string(ref->table->At(ref->row, pos->second)));
      } else {
        keys.push_back(prefix);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

}  // namespace mvdb

#include "mvindex/mv_index.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory_resource>
#include <new>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "mvindex/partition.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace mvdb {
namespace {

/// Compile-phase output for one task, flattened over local ids so it no
/// longer references any manager. `present` is false when NOT W_b = true
/// (the block is skipped, matching the serial build).
struct CompiledBlock {
  Status status = Status::OK();
  bool present = false;
  std::string key;
  FlatObdd::Block flat;
  int32_t first_level = 0;
  int32_t last_level = 0;
  ScaledDouble prob;
};

/// Per-shard reusable state: the template-execution scratch plus the
/// flatten/probability buffers, so the steady-state block loop performs no
/// per-block allocations beyond the flattened output arrays themselves.
struct BlockCompileScratch {
  ConObddScratch con;
  FlatObdd::FlattenScratch flatten;
  std::vector<ScaledDouble> prob_vals;
};

/// CompileBlock's tail: the block OBDD f of W_b becomes the
/// flattened NOT W_b with its level range and standalone probability. The
/// level range is read off the level-sorted flat arrays and the probability
/// is the same Shannon expansion BddManager::ProbScaled performs, evaluated
/// over the flat arrays — both bit-identical to the manager-side queries the
/// per-block path used to issue, without the per-block hash maps.
void FinishBlock(BddManager* shard_mgr, NodeId f,
                 const std::vector<double>& level_probs,
                 BlockCompileScratch* scratch, CompiledBlock* out) {
  if (f == BddManager::kFalse) return;  // NOT W_b = true: skip
  if (f == BddManager::kTrue) {
    out->status = Status::InvalidArgument(
        "MarkoView constraint W is certainly true: the MVDB admits no "
        "possible world (1 - P0(W) = 0), block " + out->key);
    return;
  }
  const NodeId not_f = shard_mgr->Not(f);
  FlatObdd::FlattenBlockInto(*shard_mgr, not_f, &scratch->flatten, &out->flat);
  out->present = true;
  out->first_level = out->flat.levels.front();
  out->last_level = out->flat.levels.back();
  out->prob =
      FlatObdd::BlockProbScaled(out->flat, level_probs, &scratch->prob_vals);
  // Unlike the old unbounded memo maps, the direct-mapped op cache needs no
  // per-block clearing: it cannot grow, and stale entries stay *valid* —
  // node ids are never freed within a shard manager — so a warm cache only
  // helps the next block. Build() shrinks it once per shard at the end.
}

/// Stage 2 worker: compile task `i` inside the shard's private manager and
/// flatten it standalone. The shard manager shares the immutable VarOrder,
/// so the reduced OBDD (and hence the flattened block, the level range and
/// the extended-range probability) is identical to what a single shared
/// manager would produce. A task whose template failed to plan takes the
/// planning failure as its status.
void CompileBlock(const Database& db, const PartitionResult& partition,
                  const BlockPlans& plans, size_t i,
                  const std::vector<double>& level_probs,
                  BddManager* shard_mgr, BlockCompileScratch* scratch,
                  CompiledBlock* out) {
  const TaskPlan& plan = plans.tasks[i];
  out->key = partition.tasks[i].key;
  if (!plan.status.ok()) {
    out->status = plan.status;
    return;
  }
  StatusOr<NodeId> f_or =
      plan.tmpl != nullptr
          ? plan.tmpl->Execute(plans.slots(plan), shard_mgr, &scratch->con)
          : ConObddBuilder(db, shard_mgr).Build(partition.tasks[i].query);
  if (!f_or.ok()) {
    out->status = f_or.status();
    return;
  }
  FinishBlock(shard_mgr, f_or.value(), level_probs, scratch, out);
}

/// Conjunction of two compiled blocks whose level ranges interleave (only
/// non-inversion-free residues). Rebuilds both in a scratch manager over the
/// shared order, ANDs them, and re-flattens — the canonical reduced result
/// is the same OBDD the serial in-manager merge produced. A degenerate
/// conjunction is an error, not a silent sink block: kFalse would mean the
/// merged constraints admit no possible world, and the chain stitcher would
/// otherwise absorb it without a trace.
Status MergeInto(const std::shared_ptr<const VarOrder>& order,
                 const std::vector<double>& var_probs, CompiledBlock* m,
                 const CompiledBlock& b) {
  BddManager scratch(order);
  const NodeId conj = scratch.And(FlatObdd::ImportBlock(&scratch, m->flat),
                                  FlatObdd::ImportBlock(&scratch, b.flat));
  if (conj == BddManager::kFalse) {
    return Status::InvalidArgument(
        "MarkoView constraint W is certainly true: merged blocks " + m->key +
        "+" + b.key + " admit no possible world (1 - P0(W) = 0)");
  }
  if (conj == BddManager::kTrue) {
    return Status::Internal("merged blocks " + m->key + "+" + b.key +
                            " collapsed to the true sink");
  }
  m->flat = FlatObdd::FlattenBlock(scratch, conj);
  m->last_level = std::max(m->last_level, b.last_level);
  m->key += "+" + b.key;
  m->prob = scratch.ProbScaled(conj, var_probs);
  return Status::OK();
}

/// Shared tail of Build and ApplyStructuralDelta: sort the present compiled
/// pieces by level, merge interleaving ranges, stitch the chain, and rebuild
/// the block directory (records and keys) plus the block-product arrays.
/// Outputs are the caller's index fields; `merged_count` (optional)
/// accumulates the number of blocks absorbed by range merging. The
/// operation sequence is exactly the one Build has always run, so an index
/// assembled from extracted + recompiled pieces is bit-identical to a
/// from-scratch build producing the same piece set.
Status AssembleChain(const std::shared_ptr<const VarOrder>& order,
                     const std::vector<double>& var_probs,
                     std::vector<double> level_probs,
                     std::vector<CompiledBlock> raw,
                     std::unique_ptr<FlatObdd>* flat,
                     std::vector<MvBlock>* blocks,
                     std::vector<std::string>* block_keys,
                     std::vector<ScaledDouble>* block_prefix,
                     std::vector<ScaledDouble>* block_suffix,
                     size_t* merged_count) {
  std::sort(raw.begin(), raw.end(),
            [](const CompiledBlock& a, const CompiledBlock& b) {
              return a.first_level < b.first_level;
            });
  std::vector<CompiledBlock> merged;
  for (CompiledBlock& b : raw) {
    if (!merged.empty() && b.first_level <= merged.back().last_level) {
      MVDB_RETURN_NOT_OK(MergeInto(order, var_probs, &merged.back(), b));
      if (merged_count != nullptr) ++*merged_count;
    } else {
      merged.push_back(std::move(b));
    }
  }
  std::vector<FlatObdd::Block> pieces;
  pieces.reserve(merged.size());
  for (CompiledBlock& b : merged) pieces.push_back(std::move(b.flat));
  std::vector<FlatId> chain_roots;
  *flat = FlatObdd::StitchChain(pieces, std::move(level_probs), &chain_roots);
  blocks->clear();
  block_keys->clear();
  for (size_t i = 0; i < merged.size(); ++i) {
    blocks->push_back(MvBlock{chain_roots[i], merged[i].first_level,
                              merged[i].last_level, merged[i].prob});
    block_keys->push_back(std::move(merged[i].key));
  }
  // Prefix products left-to-right (FastForward's skip products) and suffix
  // products right-to-left as block * suffix (the pinned order every sweep
  // consumer multiplies a block-local probUnder by). The suffixes are never
  // derived from the prefixes by division: that is not bit-stable.
  block_prefix->assign(blocks->size() + 1, ScaledDouble::One());
  block_suffix->assign(blocks->size() + 1, ScaledDouble::One());
  FoldBlockProducts(*blocks, 0, blocks->size(), *block_prefix, *block_suffix);
  return Status::OK();
}

/// Renormalization period of the fold's running mantissas. Each canonical
/// factor has |mantissa| in [0.5, 1), so 256 raw products from [0.5, 1)
/// stay above 2^-257 in magnitude — far above the subnormal range below
/// 2^-1022, where a product's rounding would change.
constexpr size_t kFoldRenormSteps = 256;

/// IEEE-754 exponent field, and its value for |m| in [0.5, 1).
constexpr uint64_t kExpField = uint64_t{0x7ff} << 52;
constexpr uint64_t kCanonicalExp = uint64_t{1022} << 52;

/// One running block product m * 2^e of FoldBlockProducts, its raw
/// mantissa renormalized only by Renormalize(). `off` collects the exponent
/// fields of every mantissa multiplied in (seed included) that is not
/// canonical — zero, subnormal, non-finite or outside [0.5, 1) — for which
/// the raw chain is not exact.
struct RawProduct {
  explicit RawProduct(const ScaledDouble& seed)
      : m(std::bit_cast<double>(seed.mantissa_bits())),
        e(seed.exponent_word()),
        off((seed.mantissa_bits() & kExpField) ^ kCanonicalExp) {}

  /// Multiplies in one factor and returns the normalized product. Only the
  /// multiply and the exponent add are on the chain; the split that forms
  /// the stored entry feeds nothing downstream. While `off` is clear, m is
  /// a normal double, so the split is FrexpFast's exponent-field
  /// arithmetic alone; once it is set, the period's entries are rewritten.
  ScaledDouble Times(const ScaledDouble& f) {
    const uint64_t bits = f.mantissa_bits();
    off |= (bits & kExpField) ^ kCanonicalExp;
    m *= std::bit_cast<double>(bits);
    e += f.exponent_word();
    int64_t k;
    const double mant = ScaledDouble::FrexpNormal(m, &k);
    return ScaledDouble::FromRaw(std::bit_cast<uint64_t>(mant), e + k);
  }

  void Renormalize() {
    int64_t k;
    m = ScaledDouble::FrexpNormal(m, &k);
    e += k;
  }

  double m;
  int64_t e;
  uint64_t off;
};

}  // namespace

void FoldBlockProducts(std::span<const MvBlock> blocks, size_t prefix_from,
                       size_t suffix_to, std::span<ScaledDouble> prefix,
                       std::span<ScaledDouble> suffix) {
  const size_t n = blocks.size();
  size_t p = prefix_from;  // next prefix entry written: prefix[p + 1]
  size_t s = suffix_to;    // next suffix entry written: suffix[s - 1]
  RawProduct pre(prefix[p]);
  RawProduct suf(suffix[s]);
  while (p < n || s > 0) {
    // One renormalization period of both chains, interleaved while both
    // run so the two multiply chains overlap.
    const size_t np = std::min(n - p, kFoldRenormSteps);
    const size_t ns = std::min(s, kFoldRenormSteps);
    const size_t both = std::min(np, ns);
    for (size_t j = 0; j < both; ++j) {
      prefix[p + j + 1] = pre.Times(blocks[p + j].prob);
      suffix[s - j - 1] = suf.Times(blocks[s - j - 1].prob);
    }
    for (size_t j = both; j < np; ++j) {
      prefix[p + j + 1] = pre.Times(blocks[p + j].prob);
    }
    for (size_t j = both; j < ns; ++j) {
      suffix[s - j - 1] = suf.Times(blocks[s - j - 1].prob);
    }
    // A period that met a non-canonical mantissa is rewritten, with the
    // rest of its chain, by the per-step loop from the period's seed —
    // an entry stored before the period, hence already exact.
    if (np > 0 && pre.off != 0) {
      ScaledDouble acc = prefix[p];
      for (size_t i = p; i < n; ++i) {
        acc *= blocks[i].prob;
        prefix[i + 1] = acc;
      }
      p = n;
    } else if (np > 0) {
      pre.Renormalize();
      p += np;
    }
    if (ns > 0 && suf.off != 0) {
      for (size_t i = s; i-- > 0;) suffix[i] = blocks[i].prob * suffix[i + 1];
      s = 0;
    } else if (ns > 0) {
      suf.Renormalize();
      s -= ns;
    }
  }
}

StatusOr<std::unique_ptr<MvIndex>> MvIndex::Build(
    const Database& db, const Ucq& w, BddManager* mgr,
    const std::vector<double>& var_probs, const MvIndexBuildOptions& options) {
  // The partition window opens before any setup work (including the
  // var_probs snapshot copy below) so that everything Build does is
  // attributed to a phase — the phase timings must sum to the engine's
  // total clock.
  Timer timer;
  auto is_prob = [&db](const std::string& rel) {
    const Table* t = db.Find(rel);
    return t != nullptr && t->probabilistic();
  };

  std::unique_ptr<MvIndex> index(new MvIndex());
  index->mgr_ = mgr;
  index->var_probs_ = var_probs;
  MvIndexBuildStats& stats = index->build_stats_;

  // Stage 1: partition W into variable-disjoint block tasks — decomposed
  // groups become one shape plus (shape, separator value) tasks; the task
  // list is identical for every thread count.
  PartitionResult partition =
      PartitionBlocks(db, w, is_prob, options.num_threads);
  const std::vector<BlockTask>& tasks = partition.tasks;
  stats.block_tasks = tasks.size();
  stats.partition_seconds = timer.Seconds();

  // Stage 2: compile blocks across shards. Results land in per-task slots,
  // so the output order is deterministic regardless of scheduling; with one
  // shard no threads are spawned (the serial fallback).
  timer.Restart();
  std::vector<double> level_probs(mgr->num_levels());
  for (size_t l = 0; l < level_probs.size(); ++l) {
    level_probs[l] =
        var_probs[static_cast<size_t>(mgr->var_at_level(static_cast<int32_t>(l)))];
  }
  std::vector<CompiledBlock> compiled(tasks.size());

  // Stage 2a (serial): map every task of a decomposed group onto a plan
  // template — one per structural signature, not one per block. A failed
  // plan fails every task that maps to it; the canonical scan below reports
  // the first failing task in task order no matter which workers ran first.
  Timer template_timer;
  BlockPlans plans = PlanBlockTasks(db, is_prob, partition);
  for (const TaskPlan& p : plans.tasks) {
    if (p.tmpl != nullptr) ++stats.template_blocks;
  }
  stats.plan_templates = plans.templates.size();
  stats.template_plan_seconds = template_timer.Seconds();

  // Stage 2b (parallel): execute the templates; undecomposed groups run
  // ConObddBuilder.
  const int shards = EffectiveThreads(options.num_threads, tasks.size());
  stats.shards = shards;
  if (shards > 1) {
    // Probe indexes are built lazily; warm them now so the workers' query
    // evaluations only read shared state.
    db.WarmIndexes();
  }
  std::vector<std::unique_ptr<BddManager>> shard_mgrs(
      static_cast<size_t>(shards));
  for (auto& m : shard_mgrs) {
    m = std::make_unique<BddManager>(mgr->order());
    if (options.reserve_hint > 0) {
      const size_t per_shard =
          options.reserve_hint / static_cast<size_t>(shards) + 1;
      m->ReserveNodes(per_shard);
      m->ReserveCaches(per_shard);
    }
  }
  std::vector<BlockCompileScratch> shard_scratch(static_cast<size_t>(shards));
  ParallelFor(shards, tasks.size(), [&](int shard, size_t i) {
    CompileBlock(db, partition, plans, i, level_probs,
                 shard_mgrs[static_cast<size_t>(shard)].get(),
                 &shard_scratch[static_cast<size_t>(shard)], &compiled[i]);
  });
  for (const auto& m : shard_mgrs) {
    stats.peak_manager_nodes += m->num_created();
    // Sample the node-store footprint *before* shrinking the op caches, so
    // the stat reflects the true compile-phase peak, then release each
    // shard's reserved cache and account the freed bytes.
    stats.peak_manager_bytes += m->MemoryBytes();
    m->ClearOpCaches();
    stats.op_cache_freed_bytes += m->cache_bytes_freed();
  }
  shard_mgrs.clear();  // all compile state is flattened; free it

  // Deterministic error propagation: statuses live in per-task slots, so
  // the scan always reports the first failing block in canonical task
  // order, independent of which worker finished (or failed) first.
  for (const CompiledBlock& c : compiled) {
    MVDB_RETURN_NOT_OK(c.status);
  }
  stats.compile_seconds = timer.Seconds();

  // Stage 3: sort blocks by level, merge any with interleaving ranges
  // (merging only happens for non-inversion-free residues), stitch the
  // per-block pieces into the flat chain by direct emission (block i's true
  // sink redirects to block i+1's root), and run the annotation passes once
  // over the stitched arrays. The tail is shared with ApplyStructuralDelta.
  timer.Restart();
  std::vector<CompiledBlock> raw;
  raw.reserve(compiled.size());
  for (CompiledBlock& c : compiled) {
    if (c.present) raw.push_back(std::move(c));
  }
  MVDB_RETURN_NOT_OK(AssembleChain(mgr->order(), var_probs,
                                   std::move(level_probs), std::move(raw),
                                   &index->flat_, &index->blocks_,
                                   &index->block_keys_, &index->block_prefix_,
                                   &index->block_suffix_, &stats.merged));
  // Release the large per-task containers here so their teardown (200K
  // keys, blocks and plans at DBLP scale) is attributed to the stitch
  // phase instead of falling between import_seconds and the engine's total
  // clock — the phase timings are required to sum to the build wall time.
  partition = PartitionResult{};
  plans = BlockPlans{};
  compiled = {};
  stats.stitch_seconds = timer.Seconds();

  // Register the chain in the online manager: one reserve-ahead bulk append
  // (nodes + unique table sized up front, no mid-import rehash).
  timer.Restart();
  index->not_w_root_ = index->flat_->ImportInto(mgr);
  index->chain_imported_ = true;
  stats.import_seconds = timer.Seconds();
  stats.blocks = index->blocks_.size();
  stats.flat_nodes = index->flat_->size();
  stats.flat_bytes = index->flat_->MemoryBytes();
  return index;
}

NodeId MvIndex::EnsureChainImported() {
  // Loaded indexes defer this bulk append: only the kObddReuse baseline
  // needs the chain materialized inside the manager. Concurrent first-use
  // callers serialize here — the unguarded version let two serving workers
  // race the import, mutating the shared manager from both threads and
  // potentially publishing not_w_root_ before the import that produced it
  // finished (tsan_chain_import_test pins the fix).
  std::lock_guard<std::mutex> lock(chain_import_mu_);
  if (!chain_imported_) {
    not_w_root_ = flat_->ImportInto(mgr_);
    chain_imported_ = true;
  }
  return not_w_root_;
}

Status MvIndex::ApplyWeightDelta(const std::vector<VarId>& changed_vars,
                                 const std::vector<double>& var_probs) {
  // Loaded indexes leave the build-time var_probs_ snapshot empty; only a
  // populated snapshot can catch a variable-count change here.
  if (!var_probs_.empty() && var_probs.size() != var_probs_.size()) {
    return Status::InvalidArgument(
        "weight delta changed the variable count (" +
        std::to_string(var_probs_.size()) + " -> " +
        std::to_string(var_probs.size()) +
        "); inserts/deletes of possible tuples take ApplyStructuralDelta");
  }
  for (const VarId v : changed_vars) {
    if (v < 0 || static_cast<size_t>(v) >= var_probs.size() ||
        !mgr_->has_var(v)) {
      return Status::InvalidArgument("weight delta names unknown variable " +
                                     std::to_string(v));
    }
  }
  // The repair mutates level probs and annotations in place; a PROT_READ
  // mapping cannot back that, so mapped storage is copied out first. The
  // source file stays untouched until PatchFile/Save.
  flat_->EnsureOwned();

  // Step 1: overwrite the per-level probability table. Every changed level
  // matters even when no chain node branches on it — the online ProbQ walk
  // reads prob_at_level for query-side nodes at any level.
  std::vector<size_t> dirty_blocks;
  const int32_t* levels = flat_->levels_data();
  for (const VarId v : changed_vars) {
    const int32_t l = mgr_->level_of_var(v);
    flat_->SetLevelProb(l, var_probs[static_cast<size_t>(v)]);
    if (weights_synced_) pending_patch_levels_.Add(static_cast<size_t>(l));
    // Blocks tile the level-sorted chain in disjoint, ascending level
    // ranges, so the only block that can hold a node on level l is the
    // first one whose range ends at or after it (FastForward's search);
    // the level dirties it iff some node of its slice branches on l.
    const size_t b = FirstBlockEndingAtOrAfter(l);
    if (b == blocks_.size() || blocks_[b].first_level > l) continue;
    const auto [begin, end] = BlockSlice(b);
    if (begin >= 0 && std::binary_search(levels + begin, levels + end, l)) {
      dirty_blocks.push_back(b);
    }
  }
  if (var_probs_.empty()) {
    var_probs_ = var_probs;  // first snapshot over a loaded index
  } else {
    // Only the changed entries moved; copying all ~|vars| doubles per
    // single-tuple delta would dominate the latency budget at 1M scale.
    for (const VarId v : changed_vars) {
      var_probs_[static_cast<size_t>(v)] = var_probs[static_cast<size_t>(v)];
    }
  }
  if (dirty_blocks.empty()) {  // table-only change
    repair_stats_.pending_patch_levels = pending_patch_levels_.ids.size();
    repair_stats_.pending_patch_blocks = pending_patch_blocks_.ids.size();
    return Status::OK();
  }

  std::sort(dirty_blocks.begin(), dirty_blocks.end());
  dirty_blocks.erase(std::unique(dirty_blocks.begin(), dirty_blocks.end()),
                     dirty_blocks.end());
  if (weights_synced_) {
    for (const size_t b : dirty_blocks) pending_patch_blocks_.Add(b);
  }
  repair_stats_ = MvIndexRepairStats{};
  repair_stats_.valid = true;
  repair_stats_.dirty_blocks = dirty_blocks.size();
  repair_stats_.pending_patch_levels = pending_patch_levels_.ids.size();
  repair_stats_.pending_patch_blocks = pending_patch_blocks_.ids.size();

  // Step 2: replay the block-local probUnder recurrence over exactly the
  // dirty blocks' slices — exact replay, not local scaling, so each slice
  // matches a from-scratch ComputeAnnotations bit for bit (FP
  // multiplication does not re-associate). Block locality is the whole
  // point: no node outside these slices holds a value that depends on the
  // changed levels.
  Timer repair_timer;
  for (const size_t i : dirty_blocks) {
    const auto [begin, end] = BlockSlice(i);
    flat_->RepairAnnotations(begin, end);
    repair_stats_.replayed_nodes += static_cast<size_t>(end - begin);
  }
  repair_stats_.replay_seconds = repair_timer.Seconds();

  // Step 3: refresh the dirty blocks' standalone probabilities. The
  // block-local annotation at the chain entry IS the standalone P(NOT W_b)
  // — the replay above ran the identical recurrence FinishBlock ran on the
  // standalone piece — so the reprobe is an O(1) read per dirty block.
  repair_timer.Restart();
  for (const size_t i : dirty_blocks) {
    blocks_[i].prob = flat_->prob_under_scaled(blocks_[i].chain_root);
  }
  repair_stats_.reprobe_seconds = repair_timer.Seconds();

  // Step 4: rebuild the block-product arrays. Prefixes before the first
  // dirty block and suffixes after the last are products of unchanged
  // block probs; restarting each accumulation from the still-valid
  // neighbor replays the exact tail (resp. head) of a full rebuild, so
  // both arrays stay bit-identical to from-scratch.
  repair_timer.Restart();
  FoldBlockProducts(blocks_, dirty_blocks.front(), dirty_blocks.back() + 1,
                    block_prefix_, block_suffix_);
  repair_stats_.products_seconds = repair_timer.Seconds();
  return Status::OK();
}

Status MvIndex::ApplyStructuralDelta(const Database& db, const Ucq& w,
                                     BddManager* new_mgr,
                                     const std::vector<double>& var_probs,
                                     const std::vector<std::string>& dirty_keys) {
  for (const std::string& key : block_keys_) {
    if (key.find('+') != std::string::npos) {
      return Status::Unimplemented(
          "structural delta over a merged block (" + key +
          "): non-inversion-free residues need a full rebuild");
    }
  }
  // Old level -> new level. The new order must contain every old variable
  // with relative order preserved (InsertVarsIntoOrder splices, it never
  // reorders), so the map is strictly increasing — ExtractBlock requires
  // monotonicity to keep extracted pieces level-sorted.
  const size_t old_levels = mgr_->num_levels();
  std::vector<int32_t> level_map(old_levels);
  for (size_t l = 0; l < old_levels; ++l) {
    const VarId v = mgr_->var_at_level(static_cast<int32_t>(l));
    if (!new_mgr->has_var(v)) {
      return Status::Unimplemented(
          "structural delta removed variable " + std::to_string(v) +
          " from the order: deletes are tombstones (ApplyWeightDelta), not "
          "order removals");
    }
    level_map[l] = new_mgr->level_of_var(v);
    if (l > 0 && level_map[l] <= level_map[l - 1]) {
      return Status::InvalidArgument(
          "new variable order permutes existing variables; the incremental "
          "path requires a splice (old order must stay a subsequence)");
    }
  }

  auto is_prob = [&db](const std::string& rel) {
    const Table* t = db.Find(rel);
    return t != nullptr && t->probabilistic();
  };
  std::vector<double> level_probs(new_mgr->num_levels());
  for (size_t l = 0; l < level_probs.size(); ++l) {
    level_probs[l] = var_probs[static_cast<size_t>(
        new_mgr->var_at_level(static_cast<int32_t>(l)))];
  }

  // Re-partition W (serially) over the updated database: the task set (and
  // its deterministic order) is exactly what a from-scratch Build would
  // see, including tasks for brand-new separator values.
  PartitionResult partition = PartitionBlocks(db, w, is_prob);

  const std::unordered_set<std::string> dirty_set(dirty_keys.begin(),
                                                  dirty_keys.end());
  std::vector<bool> dirty(partition.tasks.size());
  for (size_t i = 0; i < partition.tasks.size(); ++i) {
    dirty[i] = dirty_set.contains(partition.tasks[i].key);
  }
  std::unordered_map<std::string, size_t> old_block_by_key;
  old_block_by_key.reserve(blocks_.size());
  for (size_t i = 0; i < block_keys_.size(); ++i) {
    old_block_by_key.emplace(block_keys_[i], i);
  }

  // Plan the dirty tasks exactly as Build plans every task, compile them in
  // a scratch manager over the new order, and extract every clean block's
  // flattened piece from the current chain with levels remapped. Both kinds
  // land in per-task slots so the downstream sort/merge/stitch sees the
  // canonical task order.
  const BlockPlans plans = PlanBlockTasks(db, is_prob, partition, dirty);
  BddManager shard(new_mgr->order());
  BlockCompileScratch scratch;
  std::vector<CompiledBlock> compiled(partition.tasks.size());
  size_t recompiled = 0;
  for (size_t i = 0; i < partition.tasks.size(); ++i) {
    CompiledBlock& out = compiled[i];
    if (dirty[i]) {
      ++recompiled;
      CompileBlock(db, partition, plans, i, level_probs, &shard, &scratch,
                   &out);
      MVDB_RETURN_NOT_OK(out.status);
      continue;
    }
    // A clean task's query and data are unchanged (a new separator value
    // arrives through a touched tuple, so its task is dirty): one absent
    // from the old chain (NOT W_b true) stays absent, and a present one
    // re-extracts its stitched slice as a standalone piece.
    out.key = partition.tasks[i].key;
    const auto old_it = old_block_by_key.find(out.key);
    if (old_it == old_block_by_key.end()) continue;
    const size_t b = old_it->second;
    const auto [begin, end] = BlockSlice(b);
    out.flat = flat_->ExtractBlock(begin, end, blocks_[b].chain_root,
                                   level_map);
    out.present = true;
    out.first_level = out.flat.levels.front();
    out.last_level = out.flat.levels.back();
    // Uniform recompute (not a copy of the stored prob): same recurrence
    // FinishBlock runs, so clean and recompiled blocks are
    // indistinguishable from a from-scratch build's output.
    out.prob =
        FlatObdd::BlockProbScaled(out.flat, level_probs, &scratch.prob_vals);
  }

  // Assemble exactly as Build does; only on success is the index rebound.
  std::vector<CompiledBlock> raw;
  raw.reserve(compiled.size());
  for (CompiledBlock& c : compiled) {
    if (c.present) raw.push_back(std::move(c));
  }
  std::unique_ptr<FlatObdd> flat;
  std::vector<MvBlock> blocks;
  std::vector<std::string> block_keys;
  std::vector<ScaledDouble> block_prefix;
  std::vector<ScaledDouble> block_suffix;
  MVDB_RETURN_NOT_OK(AssembleChain(new_mgr->order(), var_probs,
                                   std::move(level_probs), std::move(raw),
                                   &flat, &blocks, &block_keys, &block_prefix,
                                   &block_suffix, nullptr));
  flat_ = std::move(flat);
  blocks_ = std::move(blocks);
  block_keys_ = std::move(block_keys);
  block_prefix_ = std::move(block_prefix);
  block_suffix_ = std::move(block_suffix);
  mgr_ = new_mgr;
  var_probs_ = var_probs;
  // A structural change invalidates any file image: PatchFile's topology
  // precondition rejects it, and the dirty-tracking no longer describes
  // what diverged — drop it and require a fresh Save.
  pending_patch_blocks_.Clear();
  pending_patch_levels_.Clear();
  weights_synced_ = false;
  build_stats_.blocks = blocks_.size();
  build_stats_.flat_nodes = flat_->size();
  build_stats_.flat_bytes = flat_->MemoryBytes();
  build_stats_.block_tasks = partition.tasks.size();
  build_stats_.template_blocks = recompiled;
  {
    // The chain now lives over the new order; the old manager-side import
    // (if any) is stale. Re-arm the lazy import for the next kObddReuse use.
    std::lock_guard<std::mutex> lock(chain_import_mu_);
    chain_imported_ = false;
    not_w_root_ = BddManager::kTrue;
  }
  return Status::OK();
}

size_t MvIndex::FirstBlockEndingAtOrAfter(int32_t level) const {
  size_t lo = 0;
  size_t hi = blocks_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (blocks_[mid].last_level >= level) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void MvIndex::FastForward(int32_t q_first_level, ScaledDouble* prefix,
                          FlatId* start) const {
  if (blocks_.empty()) {
    *prefix = ScaledDouble::One();
    *start = flat_->root();
    return;
  }
  // The chain is strictly level-ordered, so last_level ascends across
  // blocks_: binary-search the first block the query can touch instead of
  // rescanning (and re-multiplying) the whole prefix on every call. The
  // skipped blocks' probability product is precomputed in block_prefix_.
  const size_t lo = FirstBlockEndingAtOrAfter(q_first_level);
  *prefix = block_prefix_[lo];
  *start = lo < blocks_.size() ? blocks_[lo].chain_root : kFlatTrue;
}

size_t MvIndex::BlockOf(FlatId u, size_t from) const {
  // Invariant: blocks_[lo].chain_root <= u (or lo == from == 0), and
  // hi == blocks_.size() or blocks_[hi].chain_root > u.
  size_t lo = from;
  size_t hi = blocks_.size();
  if (from > 0) {
    for (size_t step = 1; from + step < blocks_.size(); step <<= 1) {
      if (blocks_[from + step].chain_root > u) {
        hi = from + step;
        break;
      }
      lo = from + step;
    }
  }
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (blocks_[mid].chain_root <= u) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double MvIndex::ProbQ(const BddManager& qmgr, NodeId q,
                      std::pmr::unordered_map<NodeId, double>* memo) const {
  if (q == BddManager::kFalse) return 0.0;
  if (q == BddManager::kTrue) return 1.0;
  auto it = memo->find(q);
  if (it != memo->end()) return it->second;
  const BddNode& n = qmgr.node(q);
  const double p = flat_->prob_at_level(n.level);
  const double r =
      (1.0 - p) * ProbQ(qmgr, n.lo, memo) + p * ProbQ(qmgr, n.hi, memo);
  memo->emplace(q, r);
  return r;
}

namespace {

uint64_t PairKey(NodeId q, FlatId u) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(q)) << 32) |
         static_cast<uint32_t>(u);
}

/// Memory of one sweep's per-root state (the ItemState maps and memos).
/// Blocks are bump-allocated from the caller's scratch buffer, and from
/// the heap once it is full. Freed small blocks (map nodes, small bucket
/// arrays) go on per-size free lists and are handed out again, so a long
/// sweep that clears and refills its maps stays within its live size
/// instead of bumping through one block per insert. Only the addresses
/// differ from heap-backed maps: the hash, the rehash policy and with them
/// every bucket and iteration order are the same.
class SweepArena final : public std::pmr::memory_resource {
 public:
  SweepArena(std::byte* buf, size_t bytes) : bump_(buf, bytes) {}

 private:
  static constexpr size_t kGrain = 16;
  static constexpr size_t kClasses = 8;  // recycled sizes: 16..128 bytes
  struct FreeBlock {
    FreeBlock* next;
  };

  static size_t ClassOf(size_t n, size_t align) {
    const size_t c = (n + kGrain - 1) / kGrain;
    return c == 0 || c > kClasses || align > kGrain ? kClasses : c - 1;
  }
  void* do_allocate(size_t n, size_t align) override {
    const size_t c = ClassOf(n, align);
    if (c == kClasses) return bump_.allocate(n, align);
    if (FreeBlock* b = free_[c]) {
      free_[c] = b->next;
      return b;
    }
    return bump_.allocate((c + 1) * kGrain, kGrain);
  }
  void do_deallocate(void* p, size_t n, size_t align) override {
    const size_t c = ClassOf(n, align);
    if (c < kClasses) free_[c] = ::new (p) FreeBlock{free_[c]};
  }
  bool do_is_equal(const memory_resource& o) const noexcept override {
    return this == &o;
  }

  std::pmr::monotonic_buffer_resource bump_;
  FreeBlock* free_[kClasses] = {};
};

}  // namespace

ScaledDouble MvIndex::MVIntersectScaled(NodeId q_root) const {
  if (q_root == BddManager::kFalse) return ScaledDouble::Zero();
  if (q_root == BddManager::kTrue) return ProbNotWScaled();
  std::pmr::unordered_map<NodeId, double> qmemo;
  ScaledDouble prefix;
  FlatId start;
  FastForward(mgr_->level(q_root), &prefix, &start);
  if (start == kFlatTrue) {
    return prefix * ScaledDouble(ProbQ(*mgr_, q_root, &qmemo));
  }
  if (start == kFlatFalse) return ScaledDouble::Zero();

  std::unordered_map<uint64_t, ScaledDouble> memo;
  // Recursive lambda over (query node, W-chain flat node).
  auto rec = [&](auto&& self, NodeId q, FlatId u) -> ScaledDouble {
    if (q == BddManager::kFalse || u == kFlatFalse) return ScaledDouble::Zero();
    // The chain's end first: past it no block factor is left to pay (the
    // sweep's emit tests its sinks in the same order).
    if (u == kFlatTrue) return ScaledDouble(ProbQ(*mgr_, q, &qmemo));
    if (q == BddManager::kTrue) {
      // Block-local annotation: pay the rest-of-chain product here.
      return flat_->prob_under_scaled(u) * SuffixAfterNode(u);
    }
    const uint64_t key = PairKey(q, u);
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;

    const int32_t lq = mgr_->level(q);
    const int32_t lu = flat_->level(u);
    const int32_t l = std::min(lq, lu);
    const double p = flat_->prob_at_level(l);
    NodeId q0 = q, q1 = q;
    if (lq == l) {
      const BddNode& n = mgr_->node(q);
      q0 = n.lo;
      q1 = n.hi;
    }
    FlatId u0 = u, u1 = u;
    if (lu == l) {
      u0 = flat_->lo(u);
      u1 = flat_->hi(u);
    }
    const ScaledDouble r = ScaledDouble(1.0 - p) * self(self, q0, u0) +
                           ScaledDouble(p) * self(self, q1, u1);
    memo.emplace(key, r);
    return r;
  };
  return prefix * rec(rec, q_root, start);
}

ScaledDouble MvIndex::CCMVIntersectScaled(const CcQuery& q,
                                          CcSweepScratch* scratch) const {
  const std::vector<CcQuery> queries = {q};
  std::vector<ScaledDouble> out;
  CCMVIntersectBatchScaled(queries, scratch, &out);
  return out[0];
}

void MvIndex::CCMVIntersectBatchScaled(const std::vector<CcQuery>& queries,
                                       CcSweepScratch* scratch,
                                       std::vector<ScaledDouble>* out) const {
  const size_t n = queries.size();
  out->assign(n, ScaledDouble::Zero());
  if (n == 0) return;

  // Per-root accumulation state. Everything a root's answer depends on —
  // the merge/expand maps (whose iteration order is a function of the
  // NodeIds inserted), the query-side memo, the running total — is private
  // to the root, so each root sees exactly the operation sequence of the
  // solo sweep regardless of what else shares the pass. The maps are built
  // fresh on every call, on one arena (so merged.swap(next_level) stays
  // defined), and the arena goes away with the call.
  if (scratch->arena == nullptr) {
    scratch->arena = std::make_unique_for_overwrite<std::byte[]>(
        CcSweepScratch::kArenaBytes);
  }
  SweepArena mem(scratch->arena.get(), CcSweepScratch::kArenaBytes);
  struct ItemState {
    explicit ItemState(std::pmr::memory_resource* r)
        : qmemo(r), merged(r), next_level(r) {}
    ScaledDouble prefix;
    ScaledDouble total;
    std::pmr::unordered_map<NodeId, double> qmemo;
    std::pmr::unordered_map<NodeId, ScaledDouble> merged;
    std::pmr::unordered_map<NodeId, ScaledDouble> next_level;
    bool active = false;
  };
  std::pmr::vector<ItemState> items(&mem);
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) items.emplace_back(&mem);

  // The entry store: each flat node's entries form a chain, oldest first,
  // linked through one arena, so a node's visit reads them in push order —
  // the order of the per-node vectors this store replaces.
  using Entry = CcSweepScratch::Entry;
  constexpr uint32_t kNoEntry = CcSweepScratch::kNoEntry;
  auto& entries = scratch->entries;
  auto& chains = scratch->chains;
  entries.clear();
  scratch->free_entries = kNoEntry;
  if (chains.size() < flat_->size()) chains.resize(flat_->size());
  auto& occupied = scratch->occupied;
  if (occupied.size() * 64 < flat_->size()) {
    occupied.resize((flat_->size() + 63) / 64, 0);
  }
  size_t pending = 0;
  FlatId first = static_cast<FlatId>(flat_->size());
  // Appends to a flat node's chain; the first entry marks it occupied.
  auto push = [&](FlatId u, uint32_t item, NodeId q, const ScaledDouble& w) {
    uint32_t e = scratch->free_entries;
    if (e != kNoEntry) {
      scratch->free_entries = entries[e].next;
      entries[e] = Entry{item, q, w, kNoEntry};
    } else {
      e = static_cast<uint32_t>(entries.size());
      entries.push_back(Entry{item, q, w, kNoEntry});
    }
    const size_t at = static_cast<size_t>(u);
    CcSweepScratch::Chain& c = chains[at];
    if (c.head == kNoEntry) {
      c.head = e;
      occupied[at >> 6] |= uint64_t{1} << (at & 63);
    } else {
      entries[c.tail].next = e;
    }
    c.tail = e;
    ++pending;
  };

  for (size_t i = 0; i < n; ++i) {
    const BddManager& qmgr = *queries[i].mgr;
    const NodeId q_root = queries[i].root;
    ItemState& st = items[i];
    if (q_root == BddManager::kFalse) continue;  // stays Zero
    if (q_root == BddManager::kTrue) {
      (*out)[i] = ProbNotWScaled();
      continue;
    }
    ScaledDouble prefix;
    FlatId start;
    FastForward(qmgr.level(q_root), &prefix, &start);
    if (start == kFlatTrue) {
      (*out)[i] = prefix * ScaledDouble(ProbQ(qmgr, q_root, &st.qmemo));
      continue;
    }
    if (start == kFlatFalse) continue;  // stays Zero
    st.prefix = prefix;
    st.active = true;
    push(start, static_cast<uint32_t>(i), q_root, ScaledDouble::One());
    first = std::min(first, start);
  }

  auto& per_item = scratch->per_item;
  if (per_item.size() < n) per_item.resize(n);
  auto& items_here = scratch->items_here;  // roots with entries at this node
  auto& credits = scratch->credits;  // fast-walk sink credits, in add order
  const bool fast = use_fast_intersect_;
  const FlatId fsize = static_cast<FlatId>(flat_->size());

  // Annotations are block-local, so every sink credit multiplies the
  // remaining-chain product back in. Credits target either the current node
  // u, an in-block successor, or the next block's chain root; the ternary in
  // emit picks between the two suffix products of u's block. The sweep
  // visits nodes in ascending flat order and blocks tile [0, N)
  // contiguously, so u's block only moves forward: the first visit
  // binary-searches it, a later visit past the block's end gallops from the
  // current one.
  const size_t num_blocks = blocks_.size();
  size_t cur_block = 0;
  FlatId cur_block_end = num_blocks > 0 ? 0 : fsize;  // 0: search at visit 1
  ScaledDouble sfx_here = ScaledDouble::One();
  ScaledDouble sfx_next = ScaledDouble::One();

  // One forward sweep over the level-sorted node vector: edges only point
  // forward, so a single pass from the earliest entry visits every
  // reachable (root, flat node) pairing for every root in the batch. The
  // occupancy bitmap drives it: the next node to visit is the lowest set
  // bit at or after the current word, found with count-trailing-zeros, so
  // the gaps between occupied chains cost one word read per 64 nodes.
  // Every bit below the visited node is already clear (visits clear their
  // own, and emits only target later nodes), so no word needs masking, and
  // the bitmap is all zero again once nothing is pending.
  size_t word = static_cast<size_t>(first) >> 6;
  size_t visited = 0;
  size_t words_read = 0;
  while (pending > 0) {
    uint64_t bits = occupied[word];
    ++words_read;
    while (bits == 0) {
      bits = occupied[++word];
      ++words_read;
    }
    occupied[word] = bits & (bits - 1);
    const FlatId u = static_cast<FlatId>(
        word * 64 + static_cast<size_t>(std::countr_zero(bits)));
    ++visited;
    const int32_t lu = flat_->level(u);
    const double pu = flat_->prob_at_level(lu);
    if (u >= cur_block_end) {
      cur_block = BlockOf(u, cur_block);
      cur_block_end = cur_block + 1 < num_blocks
                          ? blocks_[cur_block + 1].chain_root
                          : fsize;
      sfx_here = block_suffix_[cur_block + 1];
      sfx_next = cur_block + 2 < block_suffix_.size()
                     ? block_suffix_[cur_block + 2]
                     : ScaledDouble::One();
    }
    // Distribute the root-tagged entries to per-root lists. push_back keeps
    // each root's entry order identical to its solo-sweep chain order. The
    // visited chain then joins the free list whole.
    items_here.clear();
    CcSweepScratch::Chain& chain = chains[static_cast<size_t>(u)];
    for (uint32_t e = chain.head; e != kNoEntry; e = entries[e].next) {
      const Entry& en = entries[e];
      auto& list = per_item[en.item];
      if (list.empty()) items_here.push_back(en.item);
      list.push_back({en.q, en.w});
      --pending;
    }
    entries[chain.tail].next = scratch->free_entries;
    scratch->free_entries = chain.head;
    chain = CcSweepScratch::Chain{};

    for (const uint32_t item : items_here) {
      ItemState& st = items[item];
      const BddManager& qmgr = *queries[item].mgr;
      auto& list = per_item[item];

      auto emit = [&](FlatId next_u, NodeId next_q, const ScaledDouble& w) {
        if (next_q == BddManager::kFalse || next_u == kFlatFalse) return;
        if (next_u == kFlatTrue) {
          st.total += w * ScaledDouble(ProbQ(qmgr, next_q, &st.qmemo));
          return;
        }
        if (next_q == BddManager::kTrue) {
          st.total += w * flat_->prob_under_scaled(next_u) *
                      (next_u < cur_block_end ? sfx_here : sfx_next);
          return;
        }
        push(next_u, item, next_q, w);
      };

      // Fast walk: a single-entry chain (the common case — most queries
      // keep a one-node front through each block) never widens until a
      // query node has two live successors, so the expand loop's hash maps
      // are pure overhead. Walk the query chain in registers, buffering
      // sink credits so they apply to st.total in exactly the classic
      // pass order. Any case whose classic handling depends on map
      // iteration order — a widening node, or a true sink deferred to the
      // order-sensitive final loop — bails to the classic code below with
      // the entry list untouched, so the per-item map state (including
      // hash-table bucket-count history) evolves exactly as in the classic
      // sweep and parity stays bit-identical.
      if (fast && list.size() == 1 && !qmgr.IsSink(list[0].first)) {
        NodeId q = list[0].first;
        ScaledDouble w = list[0].second;
        credits.clear();
        bool bail = false;
        bool done = false;
        while (qmgr.level(q) < lu) {
          const BddNode& nn = qmgr.node(q);
          const bool lo_sink = qmgr.IsSink(nn.lo);
          const bool hi_sink = qmgr.IsSink(nn.hi);
          if (!lo_sink && !hi_sink) {
            bail = true;  // front widens: classic map processing required
            break;
          }
          const double p = flat_->prob_at_level(qmgr.level(q));
          const ScaledDouble wlo = w * ScaledDouble(1.0 - p);
          const ScaledDouble whi = w * ScaledDouble(p);
          if (lo_sink && hi_sink) {
            // Reduced OBDD: {lo, hi} is {kFalse, kTrue} in some order.
            credits.push_back((nn.lo == BddManager::kTrue ? wlo : whi) *
                              flat_->prob_under_scaled(u) * sfx_here);
            done = true;
            break;
          }
          const NodeId sink = lo_sink ? nn.lo : nn.hi;
          const NodeId surv = lo_sink ? nn.hi : nn.lo;
          if (sink == BddManager::kTrue) {
            if (qmgr.level(surv) >= lu) {
              // Classic credits this sink in the final loop, interleaved
              // with the survivor's emits in map order — bail.
              bail = true;
              break;
            }
            credits.push_back((lo_sink ? wlo : whi) *
                              flat_->prob_under_scaled(u) * sfx_here);
          }
          q = surv;
          w = lo_sink ? whi : wlo;
        }
        if (!bail) {
          list.clear();
          for (const ScaledDouble& c : credits) st.total += c;
          if (!done) {
            NodeId q0 = q, q1 = q;
            if (qmgr.level(q) == lu) {
              const BddNode& nn = qmgr.node(q);
              q0 = nn.lo;
              q1 = nn.hi;
            }
            emit(flat_->lo(u), q0, w * ScaledDouble(1.0 - pu));
            emit(flat_->hi(u), q1, w * ScaledDouble(pu));
          }
          continue;
        }
      }

      // Merge duplicate query nodes, then expand query-only levels below lu
      // one level at a time (merging keeps the set bounded by the query
      // OBDD width, not the number of paths).
      st.merged.clear();
      for (const auto& [q, w] : list) st.merged[q] += w;
      list.clear();
      while (true) {
        int32_t min_level = BddManager::kSinkLevel;
        for (const auto& [q, w] : st.merged) {
          if (!qmgr.IsSink(q)) min_level = std::min(min_level, qmgr.level(q));
        }
        if (min_level >= lu) break;
        st.next_level.clear();
        const double p = flat_->prob_at_level(min_level);
        for (const auto& [q, w] : st.merged) {
          if (q == BddManager::kFalse) continue;
          if (q == BddManager::kTrue) {
            st.total += w * flat_->prob_under_scaled(u) * sfx_here;
            continue;
          }
          if (qmgr.level(q) == min_level) {
            const BddNode& nn = qmgr.node(q);
            st.next_level[nn.lo] += w * ScaledDouble(1.0 - p);
            st.next_level[nn.hi] += w * ScaledDouble(p);
          } else {
            st.next_level[q] += w;
          }
        }
        st.merged.swap(st.next_level);
      }

      for (const auto& [q, w] : st.merged) {
        if (q == BddManager::kFalse) continue;
        if (q == BddManager::kTrue) {
          st.total += w * flat_->prob_under_scaled(u) * sfx_here;
          continue;
        }
        NodeId q0 = q, q1 = q;
        if (qmgr.level(q) == lu) {
          const BddNode& nn = qmgr.node(q);
          q0 = nn.lo;
          q1 = nn.hi;
        }
        emit(flat_->lo(u), q0, w * ScaledDouble(1.0 - pu));
        emit(flat_->hi(u), q1, w * ScaledDouble(pu));
      }
    }
  }
  scratch->nodes_visited = visited;
  scratch->words_read = words_read;
  for (size_t i = 0; i < n; ++i) {
    if (items[i].active) (*out)[i] = items[i].prefix * items[i].total;
  }
}

}  // namespace mvdb

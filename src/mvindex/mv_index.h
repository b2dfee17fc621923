// Copyright 2026 The MarkoView Authors.
//
// The MV-index (Section 4): an offline compilation of the MarkoView
// constraint query W into an augmented OBDD of NOT W, organized as a chain
// of variable-disjoint *blocks* — one per independent view group and
// separator value ("a set of augmented OBDD, each associated with a
// particular key ... over disjoint sets of variables"). On top of the flat
// augmented OBDD it keeps:
//
//   InterBddIndex — which block a tuple variable lives in (here: level
//                   ranges per block, binary-searchable);
//   IntraBddIndex — the flat positions of the nodes labeled with a given
//                   variable (contiguity of the level-sorted layout);
//   per-block P(NOT W_b) — lets online evaluation *skip* every block the
//                   query does not touch.
//
// Online evaluation computes P0(Q ^ NOT W) — the numerator of Eq. 5, since
// P0(Q v W) - P0(W) = P0(Q ^ NOT W) — via two interchangeable algorithms:
// MVIntersect (top-down, memoized on node pairs) and CC-MVIntersect
// (iterative forward sweep over the flat vector; Section 4.3, Prop. 3).

#ifndef MVDB_MVINDEX_MV_INDEX_H_
#define MVDB_MVINDEX_MV_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mvindex/flat_obdd.h"
#include "obdd/conobdd.h"
#include "obdd/manager.h"
#include "query/ast.h"
#include "relational/database.h"
#include "util/status.h"

namespace mvdb {

/// One query root for the (batched) cache-conscious sweep, paired with the
/// manager its nodes live in. The manager must share the index's VarOrder;
/// it is read, never written.
struct CcQuery {
  const BddManager* mgr = nullptr;
  NodeId root = BddManager::kFalse;
};

/// Reusable per-thread scratch for the CC sweep: the entry store of the
/// forward pass (one arena of entries, linked per flat node), a bitmap of
/// the flat nodes that hold entries, and the buffer behind the per-root
/// sweep state. The chains and the bitmap are empty again when a call
/// returns (capacity kept); treat as opaque apart from the work counters of
/// the last call.
class CcSweepScratch {
 public:
  CcSweepScratch() = default;

  /// Flat nodes the last sweep visited: exactly the chains it filled.
  size_t last_nodes_visited() const { return nodes_visited; }
  /// 64-bit occupancy words the last sweep read to find those nodes. At
  /// most nodes visited + ceil(span / 64), where span is the flat distance
  /// from the first to the last visited node — never the chain length.
  size_t last_words_read() const { return words_read; }

 private:
  friend class MvIndex;
  static constexpr uint32_t kNoEntry = 0xFFFFFFFFu;
  /// Buffer of the per-call arena. A batch of 8 Fig. 10/11 requests
  /// (~16 roots) at 15K authors takes 8–15 KiB of it; a larger sweep
  /// continues on the heap.
  static constexpr size_t kArenaBytes = size_t{16} << 10;

  struct Entry {
    uint32_t item;   ///< index into the batch
    NodeId q;        ///< query node reaching this flat node
    ScaledDouble w;  ///< accumulated path weight
    uint32_t next;   ///< next entry of the same flat node, or kNoEntry
  };
  /// A flat node's entries, oldest first: a run linked through `entries`.
  struct Chain {
    uint32_t head = kNoEntry;
    uint32_t tail = kNoEntry;
  };
  /// Entry arena. A visited node's entries go on the free list, so the
  /// arena holds the live frontier, not every entry of the call.
  std::vector<Entry> entries;
  uint32_t free_entries = kNoEntry;
  /// One {head, tail} per flat node (8 bytes).
  std::vector<Chain> chains;
  /// Bit u is set while chain u holds entries the sweep has not visited.
  std::vector<uint64_t> occupied;
  /// Per-item distribution lists reused across flat nodes (keeps the batch
  /// sweep's per-item entry order identical to the solo sweep's chain).
  std::vector<std::vector<std::pair<NodeId, ScaledDouble>>> per_item;
  std::vector<uint32_t> items_here;   ///< roots with entries at this node
  std::vector<ScaledDouble> credits;  ///< fast-walk sink credits
  /// Buffer of the per-call arena holding the per-root sweep state.
  std::unique_ptr<std::byte[]> arena;
  size_t nodes_visited = 0;
  size_t words_read = 0;
};

/// One variable-disjoint block of the compiled NOT W chain. The record is
/// what the hot directory walks read — FastForward's and BlockOf's binary
/// searches and the block-product fold — so it holds no diagnostics: the
/// "group/separatorValue" key lives beside the directory
/// (MvIndex::block_key), and two records share a cache line.
struct MvBlock {
  FlatId chain_root;      ///< entry point of the chain at this block
  int32_t first_level;    ///< smallest variable level in the block
  int32_t last_level;     ///< largest variable level in the block
  ScaledDouble prob;      ///< standalone P(NOT W_b), extended range
};
static_assert(sizeof(MvBlock) == 32);

/// Rebuilds block-product arrays from the directory's factors:
///
///   prefix[i + 1] = prefix[i] * blocks[i].prob   for i in [prefix_from, n)
///   suffix[i] = blocks[i].prob * suffix[i + 1]    for i in [0, suffix_to)
///
/// with n = blocks.size(), prefix[prefix_from] and suffix[suffix_to] as the
/// seeds, and both arrays holding n + 1 entries. Every stored entry is
/// bit-identical (mantissa bits and exponent word) to what those per-step
/// ScaledDouble loops store; only the schedule differs. Both chains run in
/// one loop, each multiplying raw mantissas and adding exponent words and
/// renormalizing every 256 steps, while the stored entries are split off
/// the chain. Exact because every canonical factor mantissa lies in
/// [0.5, 1) in magnitude: 256 steps stay far above the subnormal range, and
/// scaling a normal double by 2^k leaves its rounding unchanged, so the
/// running mantissa is the per-step normalized one times a power of two. A
/// chain whose seed or factor is zero, non-finite or otherwise not
/// canonical is finished by the per-step loop (which resets a zero's
/// exponent and leaves a non-finite one's alone).
void FoldBlockProducts(std::span<const MvBlock> blocks, size_t prefix_from,
                       size_t suffix_to, std::span<ScaledDouble> prefix,
                       std::span<ScaledDouble> suffix);

/// Offline compilation knobs. The default is the serial path: no threads
/// are spawned and the build output is bit-identical to any thread count
/// (the property tests assert this) — parallelism only changes wall time.
struct MvIndexBuildOptions {
  /// Compilation shards; through QueryEngine::Compile the same budget also
  /// shards the pipeline front-end (view materialization, variable-order
  /// bucketing) and the partition stage's separator-domain substitution.
  /// 1 = serial in the calling thread; <= 0 = one per hardware thread;
  /// otherwise that many worker threads.
  int num_threads = 1;
  /// Expected total manager nodes of the compile phase; pre-sizes each
  /// shard's node vector, unique table and apply caches so large builds
  /// stop rehashing mid-compile. 0 = no reservation.
  size_t reserve_hint = 0;
};

/// What the offline build did — the numbers bench_build_scale reports.
/// The front-end phases (translate/order) run in QueryEngine::Compile before
/// MvIndex::Build and are filled in by the engine; partition/compile/stitch/
/// import are timed inside Build. Together they cover the whole offline
/// pipeline wall clock.
struct MvIndexBuildStats {
  size_t block_tasks = 0;         ///< partition output (pre skip/merge)
  size_t blocks = 0;              ///< final chain blocks
  size_t merged = 0;              ///< blocks absorbed by range merging
  int shards = 1;                 ///< worker threads actually used
  size_t peak_manager_nodes = 0;  ///< sum of shard-manager nodes at peak
  /// Sum of shard node-store bytes at the compile-phase peak (sampled
  /// before the end-of-compile op-cache shrink).
  size_t peak_manager_bytes = 0;
  /// Bytes released by the end-of-compile ClearOpCaches() calls across all
  /// shard managers (the op caches are shrunk, not just cleared).
  size_t op_cache_freed_bytes = 0;
  size_t flat_nodes = 0;          ///< stitched chain size
  size_t flat_bytes = 0;          ///< resident bytes of the flat arrays
  /// Distinct block-query plan templates compiled (one per structural
  /// signature; a DBLP-scale W has a handful for its ~200K blocks).
  size_t plan_templates = 0;
  /// Blocks executed through a shared template (the rest are undecomposed
  /// groups, which ConObddBuilder plans and executes once each). After
  /// ApplyStructuralDelta: the dirty tasks that delta recompiled (clean
  /// blocks are re-extracted).
  size_t template_blocks = 0;
  /// Serial template-planning prefix of the compile phase (included in
  /// compile_seconds).
  double template_plan_seconds = 0.0;
  /// MVDB -> INDB translation (view materialization, weights, NV tables;
  /// Definition 5). Filled by QueryEngine::Compile.
  double translate_seconds = 0.0;
  /// Permutation analysis + global variable order + manager construction.
  /// Filled by QueryEngine::Compile.
  double order_seconds = 0.0;
  double partition_seconds = 0.0;
  double compile_seconds = 0.0;   ///< parallel region (wall clock)
  /// Everything after the parallel join up to the stitched flat chain:
  /// block sort + range merging (the MergeInto scratch rebuilds, when W has
  /// non-inversion-free residues) + stitched emission + annotation passes.
  double stitch_seconds = 0.0;
  /// Reserve-ahead bulk import of the stitched chain into the online
  /// manager (FlatObdd::ImportInto).
  double import_seconds = 0.0;
  /// End-to-end offline wall clock measured by QueryEngine::Compile. The
  /// six phase timings above partition it: their sum equals this value up
  /// to clock-read noise (engine_scale_test asserts the invariant).
  double total_seconds = 0.0;
};

/// Phase split of the last ApplyWeightDelta repair — how the ≤2ms budget
/// was spent. bench_apply_delta reports it in BENCH_JSON (so the latency
/// claim is attributable per phase) and mvdb_shell `stats` shows it to
/// operators.
struct MvIndexRepairStats {
  /// Block-local probUnder replay over the dirty blocks' slices.
  double replay_seconds = 0.0;
  /// Refresh of the dirty blocks' standalone probabilities (an O(1) read
  /// of the block root's block-local annotation per dirty block).
  double reprobe_seconds = 0.0;
  /// Prefix + suffix block-product rebuild (O(blocks) multiplies).
  double products_seconds = 0.0;
  size_t dirty_blocks = 0;    ///< blocks whose annotations replayed
  size_t replayed_nodes = 0;  ///< total nodes across the replayed slices
  /// What the next PatchFile writes as slices, as of the end of this
  /// repair: the distinct levels and blocks weight deltas changed since the
  /// last completed Save/PatchFile. Both stay 0 while the file's weight
  /// state is unknown (never saved, or after a structural delta) — there
  /// PatchFile rewrites the weight sections whole, so nothing is tracked.
  size_t pending_patch_levels = 0;
  size_t pending_patch_blocks = 0;
  bool valid = false;         ///< false until the first weight repair
};

/// Knobs for MvIndex::PatchFile, the in-place persistent update of a
/// weight-only delta. The crash hooks deterministically simulate a process
/// dying at each protocol step (crash-safety tests): after the durable
/// dirty mark but before any payload byte, or after the payloads but before
/// the clean-header rewrite.
struct IndexPatchOptions {
  bool crash_after_dirty_mark = false;
  bool crash_after_payload = false;
};

/// Loader knobs for MvIndex::Load / MvIndex::LoadMapped.
struct IndexLoadOptions {
  /// Verify the per-section checksums before trusting array contents.
  /// Load's default argument turns this on (the copy touches every byte
  /// anyway); LoadMapped's default leaves it off, because checksumming
  /// would fault in every page and forfeit the instant start — run
  /// `dump_index --verify` (or pass true) for the full integrity pass.
  bool verify_checksums = true;
};

namespace internal {
struct IndexIoAccess;  // defined in index_io.cc
}  // namespace internal

class MvIndex {
 public:
  /// Compiles W (the union of view constraint queries, Eq. 4) into an
  /// MV-index. The manager must already hold the global variable order and
  /// is also used later for query-side OBDDs. `var_probs` is indexed by
  /// VarId (NV variables may carry negative probabilities).
  ///
  /// The build is a three-stage pipeline: partition W into variable-disjoint
  /// block tasks (independent view groups x separator values, emitted as
  /// per-group shapes plus (shape, value) bindings), map the tasks onto
  /// per-shape plan templates, one per structural signature
  /// (mvindex/partition.h, PlanBlockTasks), compile each block in one of
  /// `options.num_threads` shards — every shard owns a private BddManager
  /// sharing the immutable VarOrder and executes the shared templates
  /// (obdd/conobdd.h, ConObddTemplate) — and flatten each block
  /// standalone, then stitch the per-block pieces into the flat
  /// chain by direct emission (no global NodeId -> FlatId map). Only the
  /// finished chain is imported into `mgr`; per-shard compile state is
  /// discarded.
  static StatusOr<std::unique_ptr<MvIndex>> Build(
      const Database& db, const Ucq& w, BddManager* mgr,
      const std::vector<double>& var_probs,
      const MvIndexBuildOptions& options = {});

  /// Writes the compiled index to `path` in the versioned on-disk format of
  /// mvindex/index_io.* (header + checksummed sections; written to a temp
  /// file and renamed, so a crash never leaves a torn file at `path`).
  /// Save -> Load round-trips bit-exactly: every probability is stored as
  /// raw IEEE-754 words, never text.
  Status Save(const std::string& path) const;

  /// Reads an index written by Save into owned arrays. `mgr` must hold the
  /// same variable order the index was built under (the file carries the
  /// order's digest; mismatches are InvalidArgument). All failures —
  /// missing file, truncation, corruption, version or endianness skew —
  /// come back as typed Status, never a crash. The manager chain is NOT
  /// imported: kMvIndex/kMvIndexCC work immediately, and kObddReuse
  /// triggers the import lazily via EnsureChainImported().
  static StatusOr<std::unique_ptr<MvIndex>> Load(
      const std::string& path, BddManager* mgr,
      const IndexLoadOptions& options = IndexLoadOptions{true});

  /// Like Load, but binds the flat arrays to a read-only mmap of the file
  /// (FlatObdd's span-backed mode): startup cost is independent of index
  /// size, pages fault in on demand, and N processes opening the same file
  /// share one physical copy. Checksums are skipped by default (see
  /// IndexLoadOptions).
  static StatusOr<std::unique_ptr<MvIndex>> LoadMapped(
      const std::string& path, BddManager* mgr,
      const IndexLoadOptions& options = IndexLoadOptions{false});

  /// Applies a weight-only base delta: the marginal probabilities of
  /// `changed_vars` moved (to `var_probs[v]`, indexed by VarId) but no
  /// tuple entered or left the possible worlds, so the chain topology is
  /// untouched. Repairs the per-level probability table, the dirty
  /// blocks' block-local probUnder annotations (each changed level lives
  /// in exactly one block, and block-local annotations are a function of
  /// that block alone — the repair replays those slices and nothing
  /// else), the dirty blocks' standalone probabilities, and the prefix +
  /// suffix block-product arrays, by replaying the exact build
  /// recurrences — the result is bit-identical to a from-scratch Build
  /// over the updated database. Phase timings land in
  /// last_repair_stats(). Mapped (mmap-backed) storage is copied into
  /// owned arrays on first call; the source file is untouched until
  /// PatchFile/Save.
  Status ApplyWeightDelta(const std::vector<VarId>& changed_vars,
                          const std::vector<double>& var_probs);

  /// Applies a structural base delta (inserted base/NV tuples, new
  /// separator values). `new_mgr` holds the updated variable order (the old
  /// order with the new variables spliced in; obdd/order.h,
  /// InsertVarsIntoOrder) and `dirty_keys` names the partition task keys
  /// whose grounded block queries changed. Re-partitions W (serially) over
  /// the updated database, plans and compiles exactly the dirty tasks the
  /// way Build plans and compiles every task, reuses every clean block's
  /// flattened piece from the current chain (levels remapped through the
  /// order change), and restitches + reannotates — bit-identical to
  /// Build(db, w, new_mgr, ...) by construction. On success the index is
  /// bound to `new_mgr` and the manager-side chain import resets
  /// (re-imported lazily on demand).
  Status ApplyStructuralDelta(const Database& db, const Ucq& w,
                              BddManager* new_mgr,
                              const std::vector<double>& var_probs,
                              const std::vector<std::string>& dirty_keys);

  /// Updates a persisted image of this index in place after a weight-only
  /// delta: rewrites only the bytes a weight repair can change — the
  /// changed level-prob entries, the dirty blocks' block-local probUnder
  /// slices, and the block directory (ApplyWeightDelta accumulates the
  /// dirty set; when the file's weight state is not known to match — no
  /// Save/PatchFile of this index completed yet — the full weight-carrying
  /// sections are rewritten, the pre-v3 behavior). The write is guarded by
  /// a durable dirty mark so a crash mid-patch is detected by the loaders
  /// (typed Status) instead of serving torn data. The file must hold
  /// exactly this index's topology; structural changes take Save.
  Status PatchFile(const std::string& path,
                   const IndexPatchOptions& options = {}) const;

  /// P0(NOT W) — the denominator of Eq. 5 is 1 - P0(W) = P0(NOT W).
  /// Extended range: at DBLP scale this is a product of thousands of block
  /// factors and routinely leaves double range; only the Eq. 5 *ratio* is an
  /// ordinary probability. With block-local annotations the flat root only
  /// carries the first block's factor, so this reads the full left-to-right
  /// block product off the prefix array.
  ScaledDouble ProbNotWScaled() const {
    if (flat_->root() == kFlatFalse) return ScaledDouble::Zero();
    return block_prefix_.back();
  }
  double ProbNotW() const { return ProbNotWScaled().ToDouble(); }

  /// P0(Q ^ NOT W) by the top-down memoized MVIntersect. `q_root` is a
  /// query OBDD in the same manager/order.
  ScaledDouble MVIntersectScaled(NodeId q_root) const;
  double MVIntersect(NodeId q_root) const {
    return MVIntersectScaled(q_root).ToDouble();
  }

  /// P0(Q ^ NOT W) by the cache-conscious forward sweep. The query root
  /// lives in `q.mgr` (any manager sharing the index's variable order —
  /// the online path synthesizes query OBDDs into pooled query managers),
  /// and all mutable sweep state lives in the caller-owned scratch, so
  /// concurrent calls on one index are pure reads of the flat chain.
  ScaledDouble CCMVIntersectScaled(const CcQuery& q,
                                   CcSweepScratch* scratch) const;

  /// Batched CC sweep: evaluates every root in ONE forward pass over the
  /// flat chain (concurrent in-flight queries share the pass; Section 4.3's
  /// sweep is root-oblivious). Per-root accumulation state is fully
  /// isolated and ordered exactly as in the solo sweep, so
  /// (*out)[i] is bit-identical to CCMVIntersectScaled(queries[i], scratch)
  /// — batching changes wall time, never bits.
  void CCMVIntersectBatchScaled(const std::vector<CcQuery>& queries,
                                CcSweepScratch* scratch,
                                std::vector<ScaledDouble>* out) const;

  const FlatObdd& flat() const { return *flat_; }
  const std::vector<MvBlock>& blocks() const { return blocks_; }
  /// Diagnostics key of block i ("group/separatorValue"; merged blocks join
  /// their keys with '+').
  const std::string& block_key(size_t i) const { return block_keys_[i]; }
  const BddManager& manager() const { return *mgr_; }
  const MvIndexBuildStats& build_stats() const { return build_stats_; }
  /// Phase split of the last ApplyWeightDelta repair (valid == false until
  /// the first weight repair on this index).
  const MvIndexRepairStats& last_repair_stats() const { return repair_stats_; }
  /// Engine-side hook: QueryEngine::Compile records the front-end phase
  /// timings (translate/order) it measured before calling Build().
  MvIndexBuildStats& mutable_build_stats() { return build_stats_; }

  /// Total nodes in the compiled chain (the paper reports 1.38M for DBLP).
  size_t size() const { return flat_->size(); }

  /// Manager node of the compiled NOT W chain (e.g. to derive the W OBDD
  /// once via Not() for index-less evaluation baselines). Only valid when
  /// chain_imported(); loaded indexes import lazily via
  /// EnsureChainImported().
  NodeId not_w_manager_root() const { return not_w_root_; }

  /// Whether the flat chain has been imported into the manager (always true
  /// after Build; false after Load/LoadMapped until a caller needs the
  /// manager-side root). Serving's CC sweep never does — that is what makes
  /// the mmap'd start instant.
  bool chain_imported() const { return chain_imported_; }

  /// Imports the chain into the manager on first use and returns its root.
  /// Idempotent and thread-safe: concurrent first-use callers (e.g. two
  /// serving workers hitting the reuse backend right after OpenIndex)
  /// serialize on an internal mutex, so exactly one performs the import.
  /// Note the import itself mutates the shared manager — callers that go on
  /// to *build* in the same manager still need their own synchronization.
  NodeId EnsureChainImported();

  /// Toggles the branch-light CC sweep walk (on by default). Off runs the
  /// classic map-driven walk — the same walk the fast path bails to — so
  /// intersect_kernel_test can pin fast == classic bitwise and
  /// bench_fig09_intersect can A/B the two on one built index.
  void set_use_fast_intersect(bool on) { use_fast_intersect_ = on; }
  bool use_fast_intersect() const { return use_fast_intersect_; }

 private:
  MvIndex() = default;

  // Loader backdoor: index_io.cc assembles a loaded MvIndex field by field
  // (there is no public constructor that accepts pre-built annotations).
  friend struct internal::IndexIoAccess;

  /// Shared fast-forward: skips blocks entirely above the query's first
  /// variable, returning their probability product and the chain entry.
  void FastForward(int32_t q_first_level, ScaledDouble* prefix, FlatId* start) const;

  /// Index of the first block whose level range ends at or after `level`
  /// (blocks_.size() if none): the only block that can hold a node on that
  /// level or any later one.
  size_t FirstBlockEndingAtOrAfter(int32_t level) const;

  /// Flat slice [chain_root, next block's chain_root) of block i; the last
  /// block's slice ends at the chain's end.
  std::pair<FlatId, FlatId> BlockSlice(size_t i) const {
    return {blocks_[i].chain_root,
            i + 1 < blocks_.size() ? blocks_[i + 1].chain_root
                                   : static_cast<FlatId>(flat_->size())};
  }

  /// Index of the block that owns flat node `u`: the last block whose chain
  /// entry is at or before u (blocks tile [0, N) contiguously in flat
  /// order). from = 0 binary-searches the whole directory; a cursor at
  /// block `from` (at or before u's block) gallops forward from it, so
  /// advancing k blocks costs O(log k) probes.
  size_t BlockOf(FlatId u, size_t from = 0) const;

  /// Product of the block factors strictly after the block that owns flat
  /// node `u` — what a consumer multiplies a block-local probUnder read at
  /// `u` by to restore the downstream chain's contribution.
  ScaledDouble SuffixAfterNode(FlatId u) const {
    return blocks_.empty() ? ScaledDouble::One()
                           : block_suffix_[BlockOf(u) + 1];
  }

  /// P(query sub-OBDD) with per-call memo (used when the W side exhausts).
  /// `qmgr` is the manager holding the query nodes.
  double ProbQ(const BddManager& qmgr, NodeId q,
               std::pmr::unordered_map<NodeId, double>* memo) const;

  BddManager* mgr_ = nullptr;
  std::unique_ptr<FlatObdd> flat_;
  std::vector<MvBlock> blocks_;
  std::vector<std::string> block_keys_;  ///< parallel to blocks_
  std::vector<double> var_probs_;
  NodeId not_w_root_ = BddManager::kTrue;
  MvIndexBuildStats build_stats_;
  bool use_fast_intersect_ = true;
  bool chain_imported_ = false;   ///< see EnsureChainImported()
  std::mutex chain_import_mu_;    ///< guards the lazy import (not call_once:
                                  ///< a structural delta re-arms the import)

  /// block_prefix_[i] = product of blocks_[0..i).prob, accumulated
  /// left-to-right in the same multiply order the per-call linear scan used,
  /// so FastForward's binary search returns bit-identical prefixes. Size is
  /// blocks_.size() + 1; the last entry is P0(NOT W) as a block product.
  std::vector<ScaledDouble> block_prefix_;

  /// block_suffix_[i] = product of blocks_[i..).prob, accumulated
  /// right-to-left as blocks_[i].prob * block_suffix_[i + 1] — the pinned
  /// multiply order every sweep consumer restores a block-local probUnder
  /// with. Size is blocks_.size() + 1; the last entry is One. NOT derived
  /// from block_prefix_ by division: extended-range division is not
  /// bit-stable against the product a from-scratch rebuild accumulates.
  std::vector<ScaledDouble> block_suffix_;

  /// Phase split of the last ApplyWeightDelta (see last_repair_stats()).
  MvIndexRepairStats repair_stats_;

  /// A set of small ids kept distinct: a membership bitmap plus the ids in
  /// insertion order. Add is O(1), and Clear touches only the set's own
  /// words, so the set never holds more than one entry per id.
  struct IdSet {
    std::vector<uint64_t> member;
    std::vector<size_t> ids;
    void Add(size_t id) {
      if (member.size() <= id >> 6) member.resize((id >> 6) + 1, 0);
      uint64_t& word = member[id >> 6];
      const uint64_t bit = uint64_t{1} << (id & 63);
      if ((word & bit) != 0) return;
      word |= bit;
      ids.push_back(id);
    }
    void Clear() {
      for (const size_t id : ids) member[id >> 6] = 0;
      ids.clear();
    }
  };

  /// Dirty-since-last-durable-write tracking for PatchFile: the levels and
  /// blocks ApplyWeightDelta changed since the last completed Save or
  /// PatchFile of this index. `weights_synced_` turns true once a durable
  /// write establishes that a file's weight bytes match memory; until then
  /// PatchFile conservatively rewrites the full weight-carrying sections,
  /// so nothing is tracked (an index that is never saved would otherwise
  /// grow the sets forever). Mutable: Save/PatchFile are const (they do not
  /// change the in-memory index) but must clear the tracking they
  /// consumed; both are offline-side calls (the engine pauses serving
  /// around maintenance).
  mutable IdSet pending_patch_blocks_;
  mutable IdSet pending_patch_levels_;
  mutable bool weights_synced_ = false;
};

}  // namespace mvdb

#endif  // MVDB_MVINDEX_MV_INDEX_H_

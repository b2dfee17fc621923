// Copyright 2026 The MarkoView Authors.
//
// FlatObdd: the cache-conscious OBDD layout of Section 4.3. Nodes are
// stored in contiguous arrays sorted by variable level (edges only point
// forward), so traversals are sequential array walks instead of pointer
// chases — the CC-MVIntersect optimization. The layout is
// structure-of-arrays: an 8-byte {lo, hi} topology record per node, a
// separate level array, and a separate annotation array, so the forward
// sweep streams only the bytes it touches. Each node is augmented with the
// quantity every probability computation consumes (Section 4.1):
//
//   probUnder(u) — probability of the sub-OBDD rooted at u, *block-local*:
//   evaluated with every edge leaving u's block (the AND-concatenation
//   redirect to the next block's root) read as the true sink. For the
//   chain entry of block i this is exactly the standalone P(NOT W_i) the
//   block directory stores; the downstream chain's contribution is NOT
//   folded in — consumers multiply the per-block suffix product
//   (MvIndex::block_suffix_) back in at credit time.
//
// Block locality is what bounds a weight-delta repair: a changed level
// dirties exactly one block, so only that block's annotations replay
// (plus an O(blocks) product rebuild) instead of every node before the
// change — the globally-composed annotation forced an O(changed-prefix)
// replay because every upstream probUnder folded the changed block's
// factor in. (The paper's companion annotation, reachability(u) — total
// probability of all root-to-u paths — used to be stored too, but no
// serving path reads it; dropping it halved the annotation bytes for the
// same reason: its repair cost was a full forward pass per delta.)
//
// Construction comes in two flavours: flattening one manager sub-DAG (the
// classic path, used by tests and ablations), and stitching per-block
// flattened pieces emitted by the sharded MV-index build — each
// variable-disjoint block is flattened standalone (possibly on a different
// thread, in a different manager) and appended with its true sink redirected
// to the next block's root. Because blocks occupy disjoint, ascending level
// ranges, the stitched array is level-sorted and bit-identical to flattening
// the concatenated chain in one piece.
//
// Storage comes in two modes. The build paths own their arrays as vectors;
// the persistent-index loader (mvindex/index_io.*) can instead bind the SoA
// bases to spans inside a read-only mmap'd index file, so a serve process
// starts without copying (or even faulting) the node arrays and N processes
// share one physical copy through the page cache. Every accessor reads
// through the same base pointers in both modes.

#ifndef MVDB_MVINDEX_FLAT_OBDD_H_
#define MVDB_MVINDEX_FLAT_OBDD_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obdd/manager.h"
#include "util/mmap_file.h"
#include "util/scaled_double.h"

namespace mvdb {

/// Index of a node inside the flat vector, or a sink sentinel.
using FlatId = int32_t;
inline constexpr FlatId kFlatFalse = -1;
inline constexpr FlatId kFlatTrue = -2;

/// 8-byte topology record: the 0/1 successors of one flat node.
struct FlatEdges {
  FlatId lo;
  FlatId hi;
};

class FlatObdd {
 public:
  /// One variable-disjoint block flattened over local flat ids (level-sorted,
  /// edges forward-only; sinks are the kFlatFalse/kFlatTrue sentinels).
  /// Produced per block by the sharded build, consumed by StitchChain.
  struct Block {
    std::vector<int32_t> levels;
    std::vector<FlatEdges> edges;
    FlatId root = kFlatFalse;
    size_t size() const { return levels.size(); }
  };

  /// Flattens the sub-DAG of `mgr` rooted at `root`. `var_probs` is indexed
  /// by VarId and is snapshotted per level for the annotation passes.
  FlatObdd(const BddManager& mgr, NodeId root, const std::vector<double>& var_probs);

  /// Flattens the sub-DAG rooted at `root` as a standalone block: nodes
  /// sorted by (level, DFS discovery order) — the same order the classic
  /// constructor produces — with local ids and sink sentinels.
  static Block FlattenBlock(const BddManager& mgr, NodeId root);

  /// Reusable traversal state for FlattenBlockInto: the per-block hash maps
  /// and stacks are cleared, not reallocated, between blocks, so the sharded
  /// compile loop flattens ~200K small blocks without per-block allocations
  /// beyond the output arrays themselves.
  struct FlattenScratch {
    std::unordered_map<NodeId, size_t> position;
    std::vector<NodeId> stack;
    std::vector<NodeId> reachable;
  };

  /// FlattenBlock with caller-owned scratch; `out` is overwritten. Produces
  /// exactly FlattenBlock(mgr, root).
  static void FlattenBlockInto(const BddManager& mgr, NodeId root,
                               FlattenScratch* scratch, Block* out);

  /// Standalone probUnder of a flattened block's root — the same Shannon
  /// expansion BddManager::ProbScaled performs, evaluated bottom-up over the
  /// level-sorted arrays (children always sit at larger indexes), with
  /// caller-owned scratch. `level_probs` is indexed by level. Bit-identical
  /// to ProbScaled on the manager sub-DAG the block was flattened from.
  static ScaledDouble BlockProbScaled(const Block& block,
                                      const std::vector<double>& level_probs,
                                      std::vector<ScaledDouble>* scratch);

  /// Rebuilds a flattened block inside `mgr` bottom-up, returning its root.
  /// The inverse of FlattenBlock up to hash-consing: importing into a fresh
  /// manager reproduces the identical reduced OBDD.
  static NodeId ImportBlock(BddManager* mgr, const Block& block);

  /// Builds the stitched NOT W chain by direct per-block emission: block i's
  /// nodes are appended with local ids offset, its false sink kept, and its
  /// true sink redirected to block i+1's root (the last block keeps
  /// kFlatTrue) — the flat image of AND-concatenation. Blocks must arrive in
  /// ascending, non-overlapping level order. `level_probs` is indexed by
  /// level. If `chain_roots` is non-null it receives each block's entry
  /// point in the chain. The annotation pass runs once per emitted block
  /// over its own slice (block-local probUnder), so stitching never
  /// rewrites another block's annotations — each block's values are a
  /// function of that block alone.
  static std::unique_ptr<FlatObdd> StitchChain(const std::vector<Block>& blocks,
                                               std::vector<double> level_probs,
                                               std::vector<FlatId>* chain_roots);

  /// Assembles a FlatObdd from deserialized owned arrays (MvIndex::Load).
  /// The annotations are part of the persisted image and are NOT recomputed
  /// — the round-trip is bit-exact by construction.
  static std::unique_ptr<FlatObdd> FromOwnedStorage(
      std::vector<int32_t> levels, std::vector<FlatEdges> edges,
      std::vector<ScaledDouble> prob_under, std::vector<double> level_probs,
      FlatId root);

  /// Non-owning span-backed storage mode (MvIndex::LoadMapped): the SoA
  /// bases point into `mapping` — read-only PROT_READ pages of the index
  /// file — which is kept alive for the lifetime of this FlatObdd. The
  /// caller (index_io) has already bounds-checked every span against the
  /// file size.
  static std::unique_ptr<FlatObdd> FromMappedStorage(
      const int32_t* levels, const FlatEdges* edges,
      const ScaledDouble* prob_under, const double* level_probs,
      size_t num_nodes, size_t num_levels, FlatId root,
      std::shared_ptr<const MmapFile> mapping);

  /// Rebuilds the whole flat chain inside `mgr` bottom-up and returns its
  /// root (kTrue/kFalse for sink roots). Lets the online manager hold the
  /// compiled NOT W without retaining any offline build state.
  NodeId ImportInto(BddManager* mgr) const;

  /// Copies mapped (mmap-backed) storage into owned arrays; no-op when the
  /// arrays are already owned. Delta application mutates level probs and
  /// annotations in place, which a PROT_READ mapping cannot back — the
  /// source file stays untouched until PatchFile/Save.
  void EnsureOwned();

  /// Overwrites one entry of the per-level probability table (owned storage
  /// only; see EnsureOwned). The weight-only delta repair's first step.
  void SetLevelProb(int32_t level, double p);

  /// Replays the block-local probUnder recurrence over one block's slice
  /// [block_begin, block_end): annotations are a function of the block
  /// alone (edges leaving the slice read as the true sink), so a changed
  /// level dirties exactly the block that owns it and nothing else
  /// replays. Every repaired entry is produced by the identical expression
  /// in the identical order as ComputeAnnotations' build pass over the
  /// same slice, so the repaired array is bit-identical to a from-scratch
  /// computation over the updated probs.
  void RepairAnnotations(FlatId block_begin, FlatId block_end);

  /// Standalone probUnder of the stitched chain slice [begin, end) rooted
  /// at `chain_root`: the BlockProbScaled recurrence evaluated in place
  /// over the chain arrays, with edges leaving the slice read as the true
  /// sink (what they were before stitching redirected them). Bit-identical
  /// to BlockProbScaled on the slice's standalone flattened piece — and,
  /// because the stored annotations are block-local, to
  /// prob_under_scaled(chain_root) itself when [begin, end) is a whole
  /// block (kept for scratch-side recomputes that must not read the
  /// possibly-stale annotation array).
  ScaledDouble SliceProbScaled(FlatId begin, FlatId end, FlatId chain_root,
                               std::vector<ScaledDouble>* scratch) const;

  /// Re-extracts the chain slice [begin, end) rooted at `chain_root` as a
  /// standalone Block: local ids, sink sentinels restored (edges leaving
  /// the slice become the true sink), levels rewritten through `level_map`
  /// (old level -> new level; must be monotone). The exact inverse of what
  /// StitchChain did to the piece, so restitching extracted slices — with
  /// dirty ones replaced by recompiled pieces — reproduces a from-scratch
  /// chain bit for bit.
  Block ExtractBlock(FlatId begin, FlatId end, FlatId chain_root,
                     const std::vector<int32_t>& level_map) const;

  /// Root as a flat id (may be a sink sentinel for constant functions).
  FlatId root() const { return root_; }
  size_t size() const { return num_nodes_; }
  bool IsSinkId(FlatId id) const { return id < 0; }
  /// True when the SoA bases live in a read-only file mapping.
  bool mapped() const { return mapping_ != nullptr; }

  int32_t level(FlatId id) const { return levels_[static_cast<size_t>(id)]; }
  FlatId lo(FlatId id) const { return edges_[static_cast<size_t>(id)].lo; }
  FlatId hi(FlatId id) const { return edges_[static_cast<size_t>(id)].hi; }

  /// Raw SoA array bases, for the persistent-index writer (read-only;
  /// indexed by non-sink FlatId).
  const int32_t* levels_data() const { return levels_; }
  const FlatEdges* edges_data() const { return edges_; }
  const ScaledDouble* prob_under_data() const { return prob_under_; }
  /// Per-level marginal probability table base; indexed by level.
  const double* level_probs_data() const { return level_probs_; }
  size_t num_levels() const { return num_levels_; }

  /// Marginal probability of the variable branched on at `level`.
  double prob_at_level(int32_t level) const {
    return level_probs_[static_cast<size_t>(level)];
  }

  /// Block-local probUnder annotation (extended range); sinks return their
  /// constant. For a chain entry this is the block's standalone P(NOT W_b);
  /// chain consumers multiply the per-block suffix product back in.
  ScaledDouble prob_under_scaled(FlatId id) const {
    if (id == kFlatFalse) return ScaledDouble::Zero();
    if (id == kFlatTrue) return ScaledDouble::One();
    return prob_under_[static_cast<size_t>(id)];
  }

  /// probUnder converted to double (diagnostics/tests; may under/overflow).
  double prob_under(FlatId id) const { return prob_under_scaled(id).ToDouble(); }

  /// probUnder of the root. For a single-block FlatObdd (the classic
  /// constructor) this is P(function); for a stitched chain it is only the
  /// FIRST block's standalone factor — P0(NOT W) lives in the block-product
  /// arrays (MvIndex::ProbNotWScaled).
  ScaledDouble prob_root_scaled() const { return prob_under_scaled(root_); }
  double prob_root() const { return prob_root_scaled().ToDouble(); }

  /// Bytes of the per-node flat arrays (topology + levels + annotations; the
  /// per-level probability table is excluded since it scales with the
  /// variable count, not the node count). In mapped mode this counts the
  /// file spans the bases point into — shared, demand-paged bytes rather
  /// than private resident ones. The bytes/node figure bench_build_scale
  /// reports is MemoryBytes()/size().
  size_t MemoryBytes() const;

  /// Maximum number of nodes on one level (the OBDD width of Section 4.1).
  size_t Width() const;

  /// IntraBddIndex: all flat node positions labeled with this level
  /// (contiguous because the vector is level-sorted). Returns [begin, end).
  std::pair<FlatId, FlatId> NodesAtLevel(int32_t level) const;

 private:
  FlatObdd() = default;

  /// The block-local probUnder passes over the already-populated topology
  /// stores: one reverse replay per block slice (`block_starts` are the
  /// ascending start offsets of the emitted blocks; each slice ends where
  /// the next begins). The classic single-piece constructor passes {0} —
  /// one block covering the whole array, where no edge leaves the slice,
  /// so its semantics are unchanged. Ends by binding the read-side bases
  /// to the owned vectors.
  void ComputeAnnotations(const std::vector<size_t>& block_starts);

  /// The shared reverse recurrence over one block slice [begin, end):
  /// edge targets at or past `end` (the chain redirect into the next
  /// block) read as the true sink. ComputeAnnotations runs it per block at
  /// build time, RepairAnnotations over the one dirty block. One body
  /// guarantees the two are bit-identical — and, because the recurrence is
  /// exactly BlockProbScaled's over the same slice, the value at the block
  /// root is bit-identical to the standalone block probability.
  void ReplayProbUnder(size_t begin, size_t end);

  /// Points the read-side bases at the owned vectors (build/Load paths).
  void BindOwned();

  // Owned backing arrays (build and Load paths). In the span-backed mmap
  // mode these stay empty and the bases below point into `mapping_`.
  std::vector<int32_t> levels_store_;
  std::vector<FlatEdges> edges_store_;
  std::vector<ScaledDouble> prob_under_store_;
  std::vector<double> level_probs_store_;

  // Read-side SoA bases: every accessor reads through these, whichever
  // storage mode backs them.
  const int32_t* levels_ = nullptr;
  const FlatEdges* edges_ = nullptr;
  const ScaledDouble* prob_under_ = nullptr;
  const double* level_probs_ = nullptr;
  size_t num_nodes_ = 0;
  size_t num_levels_ = 0;
  FlatId root_ = kFlatFalse;

  /// Keeps the mapped index file alive while any base points into it.
  std::shared_ptr<const MmapFile> mapping_;
};

}  // namespace mvdb

#endif  // MVDB_MVINDEX_FLAT_OBDD_H_

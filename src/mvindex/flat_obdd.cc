#include "mvindex/flat_obdd.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/logging.h"

namespace mvdb {

FlatObdd::Block FlatObdd::FlattenBlock(const BddManager& mgr, NodeId root) {
  Block out;
  FlattenScratch scratch;
  FlattenBlockInto(mgr, root, &scratch, &out);
  return out;
}

void FlatObdd::FlattenBlockInto(const BddManager& mgr, NodeId root,
                                FlattenScratch* scratch, Block* out) {
  out->levels.clear();
  out->edges.clear();
  if (mgr.IsSink(root)) {
    out->root = (root == BddManager::kTrue) ? kFlatTrue : kFlatFalse;
    return;
  }

  // Collect reachable internal nodes, then sort by (level, discovery
  // order). `position` doubles as the seen-set: it records each node's
  // discovery index during the walk and is rewritten to flat positions
  // after the sort.
  auto& position = scratch->position;
  auto& stack = scratch->stack;
  auto& reachable = scratch->reachable;
  position.clear();
  stack.clear();
  reachable.clear();
  stack.push_back(root);
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (mgr.IsSink(id) || !position.emplace(id, reachable.size()).second) {
      continue;
    }
    reachable.push_back(id);
    stack.push_back(mgr.node(id).lo);
    stack.push_back(mgr.node(id).hi);
  }
  std::stable_sort(reachable.begin(), reachable.end(),
                   [&](NodeId a, NodeId b) {
                     const int32_t la = mgr.level(a), lb = mgr.level(b);
                     if (la != lb) return la < lb;
                     return position[a] < position[b];
                   });

  for (size_t i = 0; i < reachable.size(); ++i) {
    position[reachable[i]] = i;
  }
  auto flat_of = [&](NodeId id) -> FlatId {
    if (id == BddManager::kFalse) return kFlatFalse;
    if (id == BddManager::kTrue) return kFlatTrue;
    return static_cast<FlatId>(position.at(id));
  };
  out->levels.reserve(reachable.size());
  out->edges.reserve(reachable.size());
  for (NodeId id : reachable) {
    const BddNode& n = mgr.node(id);
    out->levels.push_back(n.level);
    out->edges.push_back(FlatEdges{flat_of(n.lo), flat_of(n.hi)});
  }
  out->root = flat_of(root);
}

ScaledDouble FlatObdd::BlockProbScaled(const Block& block,
                                       const std::vector<double>& level_probs,
                                       std::vector<ScaledDouble>* scratch) {
  if (block.root == kFlatFalse) return ScaledDouble::Zero();
  if (block.root == kFlatTrue) return ScaledDouble::One();
  auto& vals = *scratch;
  vals.resize(block.size());
  auto value_of = [&](FlatId u) {
    if (u == kFlatFalse) return ScaledDouble::Zero();
    if (u == kFlatTrue) return ScaledDouble::One();
    return vals[static_cast<size_t>(u)];
  };
  for (size_t i = block.size(); i-- > 0;) {
    const double p = level_probs[static_cast<size_t>(block.levels[i])];
    vals[i] = ScaledDouble(1.0 - p) * value_of(block.edges[i].lo) +
              ScaledDouble(p) * value_of(block.edges[i].hi);
  }
  return vals[static_cast<size_t>(block.root)];
}

namespace {

/// Bottom-up rebuild of a level-sorted flat array inside `mgr`: children sit
/// at larger indexes, so one reverse pass suffices. Shared by ImportBlock
/// (local block arrays) and ImportInto (the stitched chain, in either
/// storage mode — hence raw bases, not vectors).
NodeId ImportNodes(BddManager* mgr, const int32_t* levels,
                   const FlatEdges* edges, size_t num_nodes, FlatId root) {
  if (root == kFlatTrue) return BddManager::kTrue;
  if (root == kFlatFalse) return BddManager::kFalse;
  // Reserve ahead: the import appends at most num_nodes fresh nodes, so
  // sizing the node vector and unique table once up front turns the rebuild
  // into a bulk append with no mid-import growth or rehash.
  mgr->ReserveNodes(mgr->num_created() + num_nodes);
  std::vector<NodeId> ids(num_nodes);
  auto node_of = [&](FlatId u) -> NodeId {
    if (u == kFlatFalse) return BddManager::kFalse;
    if (u == kFlatTrue) return BddManager::kTrue;
    return ids[static_cast<size_t>(u)];
  };
  for (size_t i = num_nodes; i-- > 0;) {
    ids[i] = mgr->Mk(levels[i], node_of(edges[i].lo), node_of(edges[i].hi));
  }
  return ids[static_cast<size_t>(root)];
}

}  // namespace

NodeId FlatObdd::ImportBlock(BddManager* mgr, const Block& block) {
  return ImportNodes(mgr, block.levels.data(), block.edges.data(),
                     block.size(), block.root);
}

NodeId FlatObdd::ImportInto(BddManager* mgr) const {
  return ImportNodes(mgr, levels_, edges_, num_nodes_, root_);
}

FlatObdd::FlatObdd(const BddManager& mgr, NodeId root,
                   const std::vector<double>& var_probs) {
  level_probs_store_.resize(mgr.num_levels());
  for (size_t l = 0; l < mgr.num_levels(); ++l) {
    level_probs_store_[l] =
        var_probs[static_cast<size_t>(mgr.var_at_level(static_cast<int32_t>(l)))];
  }
  Block block = FlattenBlock(mgr, root);
  levels_store_ = std::move(block.levels);
  edges_store_ = std::move(block.edges);
  root_ = block.root;
  // One piece, one block: no edge leaves the slice, so the block-local
  // replay is the plain probUnder recurrence over the whole array.
  ComputeAnnotations(levels_store_.empty() ? std::vector<size_t>{}
                                           : std::vector<size_t>{0});
}

std::unique_ptr<FlatObdd> FlatObdd::StitchChain(
    const std::vector<Block>& blocks, std::vector<double> level_probs,
    std::vector<FlatId>* chain_roots) {
  std::unique_ptr<FlatObdd> flat(new FlatObdd());
  flat->level_probs_store_ = std::move(level_probs);

  size_t total = 0;
  bool chain_false = false;
  for (const Block& b : blocks) {
    total += b.size();
    chain_false |= (b.root == kFlatFalse);
  }
  if (chain_false) {
    // One block is constant false, so the AND chain is false and every
    // prefix collapses with it (sink redirection plus reduction) — exactly
    // what concatenating in a manager produces.
    flat->root_ = kFlatFalse;
    if (chain_roots != nullptr) chain_roots->assign(blocks.size(), kFlatFalse);
    flat->ComputeAnnotations({});
    return flat;
  }
  if (chain_roots != nullptr) {
    chain_roots->assign(blocks.size(), kFlatTrue);
  }

  // Emit back to front so each block knows its successor's stitched root.
  // Positions are final (offsets are fixed by the block sizes), so emission
  // order is an implementation detail; we fill the arrays directly.
  flat->levels_store_.resize(total);
  flat->edges_store_.resize(total);
  FlatId next_root = kFlatTrue;  // chain suffix after the last block
  size_t offset = total;
  std::vector<size_t> block_starts;  // bases of emitted blocks, collected
  block_starts.reserve(blocks.size());
  for (size_t i = blocks.size(); i-- > 0;) {
    const Block& b = blocks[i];
    if (b.root == kFlatTrue) {
      // Constant-true block: the AND-chain identity. Nothing to emit; its
      // chain entry is wherever the suffix already starts.
      if (chain_roots != nullptr) (*chain_roots)[i] = next_root;
      continue;
    }
    offset -= b.size();
    const FlatId base = static_cast<FlatId>(offset);
    for (size_t k = 0; k < b.size(); ++k) {
      auto remap = [&](FlatId u) -> FlatId {
        if (u == kFlatTrue) return next_root;  // AND-concatenation redirect
        if (u == kFlatFalse) return kFlatFalse;
        return base + u;
      };
      flat->levels_store_[offset + k] = b.levels[k];
      flat->edges_store_[offset + k] =
          FlatEdges{remap(b.edges[k].lo), remap(b.edges[k].hi)};
    }
    next_root = base + b.root;
    if (chain_roots != nullptr) (*chain_roots)[i] = next_root;
    block_starts.push_back(offset);
  }
  flat->root_ = blocks.empty() ? kFlatTrue : next_root;
  // Emission ran back to front; the annotation pass wants ascending starts.
  std::reverse(block_starts.begin(), block_starts.end());
  flat->ComputeAnnotations(block_starts);
  return flat;
}

std::unique_ptr<FlatObdd> FlatObdd::FromOwnedStorage(
    std::vector<int32_t> levels, std::vector<FlatEdges> edges,
    std::vector<ScaledDouble> prob_under, std::vector<double> level_probs,
    FlatId root) {
  MVDB_CHECK_EQ(levels.size(), edges.size());
  MVDB_CHECK_EQ(levels.size(), prob_under.size());
  std::unique_ptr<FlatObdd> flat(new FlatObdd());
  flat->levels_store_ = std::move(levels);
  flat->edges_store_ = std::move(edges);
  flat->prob_under_store_ = std::move(prob_under);
  flat->level_probs_store_ = std::move(level_probs);
  flat->root_ = root;
  flat->BindOwned();
  return flat;
}

std::unique_ptr<FlatObdd> FlatObdd::FromMappedStorage(
    const int32_t* levels, const FlatEdges* edges,
    const ScaledDouble* prob_under, const double* level_probs,
    size_t num_nodes, size_t num_levels, FlatId root,
    std::shared_ptr<const MmapFile> mapping) {
  MVDB_CHECK(mapping != nullptr);
  std::unique_ptr<FlatObdd> flat(new FlatObdd());
  flat->levels_ = levels;
  flat->edges_ = edges;
  flat->prob_under_ = prob_under;
  flat->level_probs_ = level_probs;
  flat->num_nodes_ = num_nodes;
  flat->num_levels_ = num_levels;
  flat->root_ = root;
  flat->mapping_ = std::move(mapping);
  return flat;
}

void FlatObdd::BindOwned() {
  levels_ = levels_store_.data();
  edges_ = edges_store_.data();
  prob_under_ = prob_under_store_.data();
  level_probs_ = level_probs_store_.data();
  num_nodes_ = levels_store_.size();
  num_levels_ = level_probs_store_.size();
}

void FlatObdd::ComputeAnnotations(const std::vector<size_t>& block_starts) {
  // Block-local probUnder: one reverse replay per block slice. The slices
  // are independent (a slice never reads another slice's annotations — the
  // only cross-slice edges are the chain redirects, which replay as the
  // true sink), so the per-block order is immaterial; descending mirrors
  // the old single reverse pass.
  prob_under_store_.resize(levels_store_.size());
  for (size_t b = block_starts.size(); b-- > 0;) {
    const size_t begin = block_starts[b];
    const size_t end =
        b + 1 < block_starts.size() ? block_starts[b + 1] : levels_store_.size();
    ReplayProbUnder(begin, end);
  }
  BindOwned();
}

void FlatObdd::ReplayProbUnder(size_t begin, size_t end) {
  // The reverse block-local probUnder recurrence over one slice [begin,
  // end): the single expression both the from-scratch build and the
  // incremental repair run, so the two are bit-identical by construction.
  // Edge targets at or past `end` are the AND-concatenation redirect into
  // the next block and read as the true sink — the same rule
  // SliceProbScaled/BlockProbScaled apply, which is what makes the value
  // at the block root bit-identical to the standalone block probability.
  // The array is level-sorted, so the ScaledDouble forms of (1-p, p) are
  // hoisted per level run rather than renormalized per node — same values,
  // same downstream operations.
  const int32_t* const levels = levels_store_.data();
  const FlatEdges* const edges = edges_store_.data();
  ScaledDouble* const under = prob_under_store_.data();
  auto under_of = [&](FlatId u) {
    if (u == kFlatFalse) return ScaledDouble::Zero();
    if (u == kFlatTrue || static_cast<size_t>(u) >= end) {
      return ScaledDouble::One();
    }
    return under[static_cast<size_t>(u)];
  };
  int32_t run_level = -1;
  ScaledDouble p_lo, p_hi;
  for (size_t i = end; i-- > begin;) {
    if (levels[i] != run_level) {
      run_level = levels[i];
      const double p = level_probs_store_[static_cast<size_t>(run_level)];
      p_lo = ScaledDouble(1.0 - p);
      p_hi = ScaledDouble(p);
    }
    under[i] = p_lo * under_of(edges[i].lo) + p_hi * under_of(edges[i].hi);
  }
}

void FlatObdd::EnsureOwned() {
  if (mapping_ == nullptr) return;
  levels_store_.assign(levels_, levels_ + num_nodes_);
  edges_store_.assign(edges_, edges_ + num_nodes_);
  prob_under_store_.assign(prob_under_, prob_under_ + num_nodes_);
  level_probs_store_.assign(level_probs_, level_probs_ + num_levels_);
  mapping_.reset();
  BindOwned();
}

void FlatObdd::SetLevelProb(int32_t level, double p) {
  MVDB_CHECK(mapping_ == nullptr);
  level_probs_store_[static_cast<size_t>(level)] = p;
}

void FlatObdd::RepairAnnotations(FlatId block_begin, FlatId block_end) {
  MVDB_CHECK(mapping_ == nullptr);
  const size_t begin = static_cast<size_t>(block_begin);
  const size_t end = static_cast<size_t>(block_end);
  MVDB_CHECK_LE(begin, end);
  MVDB_CHECK_LE(end, levels_store_.size());

  // probUnder is block-local: replay the reverse recurrence over exactly
  // the dirty block's slice — the same per-block pass ComputeAnnotations
  // runs at build time. No other block's annotations depend on this one.
  ReplayProbUnder(begin, end);
}

ScaledDouble FlatObdd::SliceProbScaled(
    FlatId begin, FlatId end, FlatId chain_root,
    std::vector<ScaledDouble>* scratch) const {
  if (chain_root == kFlatFalse) return ScaledDouble::Zero();
  if (chain_root == kFlatTrue) return ScaledDouble::One();
  auto& vals = *scratch;
  vals.resize(static_cast<size_t>(end - begin));
  auto value_of = [&](FlatId u) {
    if (u == kFlatFalse) return ScaledDouble::Zero();
    if (u == kFlatTrue || u >= end) return ScaledDouble::One();
    return vals[static_cast<size_t>(u - begin)];
  };
  for (size_t i = vals.size(); i-- > 0;) {
    const size_t k = static_cast<size_t>(begin) + i;
    const double p = level_probs_[static_cast<size_t>(levels_[k])];
    vals[i] = ScaledDouble(1.0 - p) * value_of(edges_[k].lo) +
              ScaledDouble(p) * value_of(edges_[k].hi);
  }
  return vals[static_cast<size_t>(chain_root - begin)];
}

FlatObdd::Block FlatObdd::ExtractBlock(
    FlatId begin, FlatId end, FlatId chain_root,
    const std::vector<int32_t>& level_map) const {
  Block out;
  const size_t size = static_cast<size_t>(end - begin);
  out.levels.resize(size);
  out.edges.resize(size);
  out.root = chain_root - begin;
  auto unmap = [&](FlatId u) -> FlatId {
    if (u == kFlatFalse || u == kFlatTrue) return u;
    if (u >= end) return kFlatTrue;  // undo the AND-concatenation redirect
    return u - begin;
  };
  for (size_t i = 0; i < size; ++i) {
    const size_t k = static_cast<size_t>(begin) + i;
    out.levels[i] = level_map[static_cast<size_t>(levels_[k])];
    out.edges[i] = FlatEdges{unmap(edges_[k].lo), unmap(edges_[k].hi)};
  }
  return out;
}

size_t FlatObdd::MemoryBytes() const {
  // Per-node arrays only: the level-probability table scales with the
  // variable count, not the layout, and would skew the bytes/node
  // trajectory metric. Count-based, so owned and mapped modes report the
  // same figure for the same index.
  return num_nodes_ * (sizeof(int32_t) + sizeof(FlatEdges) +
                       sizeof(ScaledDouble));
}

size_t FlatObdd::Width() const {
  size_t width = 0;
  size_t i = 0;
  while (i < num_nodes_) {
    size_t j = i;
    while (j < num_nodes_ && levels_[j] == levels_[i]) ++j;
    width = std::max(width, j - i);
    i = j;
  }
  return width;
}

std::pair<FlatId, FlatId> FlatObdd::NodesAtLevel(int32_t level) const {
  const int32_t* begin = levels_;
  const int32_t* end = levels_ + num_nodes_;
  const int32_t* lower = std::lower_bound(begin, end, level);
  const int32_t* upper = std::upper_bound(begin, end, level);
  return {static_cast<FlatId>(lower - begin), static_cast<FlatId>(upper - begin)};
}

}  // namespace mvdb

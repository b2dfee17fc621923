#include "obdd/manager.h"

#include <algorithm>

namespace mvdb {

BddManager::BddManager(std::shared_ptr<const VarOrder> order)
    : order_(std::move(order)) {
  MVDB_CHECK(order_ != nullptr);
  nodes_.push_back(BddNode{kSinkLevel, kFalse, kFalse});  // 0 = false sink
  nodes_.push_back(BddNode{kSinkLevel, kTrue, kTrue});    // 1 = true sink
}

void BddManager::ReserveNodes(size_t n) {
  nodes_.reserve(n + 2);
  unique_.Reserve(n, [this](uint32_t id) {
    const BddNode& m = nodes_[id];
    return NodeHash(m.level, m.lo, m.hi);
  });
}

void BddManager::ReserveCaches(size_t n) { op_cache_.GrowTo(n); }

void BddManager::Reset() {
  nodes_.resize(2);  // the sinks
  if (nodes_.capacity() > kRestingNodes) nodes_.shrink_to_fit();
  unique_.ClearAndTrim(kRestingTableSlots);
  op_cache_.ShrinkToResting();
  apply_steps_ = 0;
  cache_bytes_freed_ = 0;
  std::unordered_map<NodeId, NodeId>().swap(concat_memo_);
}

size_t BddManager::ClearOpCaches() {
  const size_t freed = op_cache_.ShrinkToResting();
  cache_bytes_freed_ += freed;
  return freed;
}

NodeId BddManager::Mk(int32_t level, NodeId lo, NodeId hi) {
  if (lo == hi) return lo;
  MVDB_DCHECK(level < nodes_[static_cast<size_t>(lo)].level);
  MVDB_DCHECK(level < nodes_[static_cast<size_t>(hi)].level);
  const NodeId fresh = static_cast<NodeId>(nodes_.size());
  const uint32_t got = unique_.FindOrInsert(
      NodeHash(level, lo, hi), static_cast<uint32_t>(fresh),
      [&](uint32_t id) {
        const BddNode& m = nodes_[id];
        return m.level == level && m.lo == lo && m.hi == hi;
      },
      [this](uint32_t id) {
        const BddNode& m = nodes_[id];
        return NodeHash(m.level, m.lo, m.hi);
      });
  if (got == static_cast<uint32_t>(fresh)) {
    nodes_.push_back(BddNode{level, lo, hi});
    // Size the op cache to the manager. The cache is lossy and results are
    // hash-consed, so its size changes how often work repeats, never a
    // NodeId.
    if (nodes_.size() > op_cache_.entries() &&
        op_cache_.entries() < DirectMappedCache::kAutoEntries) {
      op_cache_.GrowTo(nodes_.size(), DirectMappedCache::kAutoEntries);
    }
  }
  return static_cast<NodeId>(got);
}

NodeId BddManager::Apply(OpKind op, NodeId f, NodeId g) {
  // Terminal cases.
  if (op == OpKind::kAnd) {
    if (f == kFalse || g == kFalse) return kFalse;
    if (f == kTrue) return g;
    if (g == kTrue) return f;
    if (f == g) return f;
  } else {
    if (f == kTrue || g == kTrue) return kTrue;
    if (f == kFalse) return g;
    if (g == kFalse) return f;
    if (f == g) return f;
  }
  if (f > g) std::swap(f, g);  // commutative: canonicalize the cache key
  const uint64_t key = OpKey(op, f, g);
  NodeId cached;
  if (op_cache_.Lookup(key, &cached)) return cached;
  ++apply_steps_;

  const BddNode& nf = nodes_[static_cast<size_t>(f)];
  const BddNode& ng = nodes_[static_cast<size_t>(g)];
  const int32_t m = std::min(nf.level, ng.level);
  const NodeId f0 = (nf.level == m) ? nf.lo : f;
  const NodeId f1 = (nf.level == m) ? nf.hi : f;
  const NodeId g0 = (ng.level == m) ? ng.lo : g;
  const NodeId g1 = (ng.level == m) ? ng.hi : g;
  const NodeId r = Mk(m, Apply(op, f0, g0), Apply(op, f1, g1));
  op_cache_.Insert(key, r);
  return r;
}

NodeId BddManager::Not(NodeId f) {
  // Iterative post-order: the NOT W chain is one long thin OBDD (size
  // ~1.4M nodes at the paper's DBLP scale), so naive recursion would
  // exhaust the stack long before the 1M-author target. Each frame owns the
  // already-negated lo child, so correctness never depends on the lossy op
  // cache retaining an entry — a cache hit merely short-circuits a subtree.
  auto sink_not = [](NodeId s) { return s == kFalse ? kTrue : kFalse; };
  // Resolves without descending: sinks and cache hits.
  auto resolve = [&](NodeId id, NodeId* out) {
    if (IsSink(id)) {
      *out = sink_not(id);
      return true;
    }
    return op_cache_.Lookup(OpKey(OpKind::kNot, id, id), out);
  };

  NodeId ret = kFalse;
  if (resolve(f, &ret)) return ret;
  struct Frame {
    NodeId id;
    NodeId not_lo = -1;
    // 0 = lo unresolved, 1 = lo child pending on the stack,
    // 2 = lo done / hi unresolved, 3 = hi child pending on the stack.
    uint8_t stage = 0;
  };
  std::vector<Frame> stack = {Frame{f}};
  while (!stack.empty()) {
    Frame fr = stack.back();  // copy: pushes below may reallocate the stack
    const BddNode n = nodes_[static_cast<size_t>(fr.id)];  // copy: Mk reallocates
    if (fr.stage == 1) {  // lo child just completed into `ret`
      fr.not_lo = ret;
      fr.stage = 2;
    } else if (fr.stage == 0) {
      if (resolve(n.lo, &fr.not_lo)) {
        fr.stage = 2;
      } else {
        stack.back().stage = 1;
        stack.push_back(Frame{n.lo});
        continue;
      }
    }
    NodeId not_hi;
    if (fr.stage == 3) {  // hi child just completed into `ret`
      not_hi = ret;
    } else if (!resolve(n.hi, &not_hi)) {
      fr.stage = 3;
      stack.back() = fr;
      stack.push_back(Frame{n.hi});
      continue;
    }
    ret = Mk(n.level, fr.not_lo, not_hi);
    op_cache_.Insert(OpKey(OpKind::kNot, fr.id, fr.id), ret);
    stack.pop_back();
  }
  return ret;
}

NodeId BddManager::ConcatRec(NodeId f, NodeId g, NodeId sink_to_replace,
                             std::unordered_map<NodeId, NodeId>* memo) {
  if (f == sink_to_replace) return g;
  if (IsSink(f)) return f;
  auto it = memo->find(f);
  if (it != memo->end()) return it->second;
  const BddNode n = nodes_[static_cast<size_t>(f)];
  const NodeId r = Mk(n.level, ConcatRec(n.lo, g, sink_to_replace, memo),
                      ConcatRec(n.hi, g, sink_to_replace, memo));
  memo->emplace(f, r);
  return r;
}

NodeId BddManager::ConcatOr(NodeId f, NodeId g) {
  if (f == kFalse) return g;
  if (f == kTrue) return kTrue;
  if (g == kFalse) return f;
  concat_memo_.clear();
  return ConcatRec(f, g, kFalse, &concat_memo_);
}

NodeId BddManager::ConcatAnd(NodeId f, NodeId g) {
  if (f == kTrue) return g;
  if (f == kFalse) return kFalse;
  if (g == kTrue) return f;
  concat_memo_.clear();
  return ConcatRec(f, g, kTrue, &concat_memo_);
}

NodeId BddManager::FromSignedClauseRanged(std::span<const VarId> pos,
                                          std::span<const VarId> neg,
                                          int32_t* min_level,
                                          int32_t* max_level) {
  // Build the conjunction chain bottom-up in descending level order; a
  // positive literal branches false on 0, a negated one branches false on 1.
  // The literal sequence (pos levels then neg levels) is non-decreasing
  // exactly when it is sorted as (level, negated) pairs — the negated flag
  // only ever transitions false -> true, and (l, false) < (l, true) — so
  // one level comparison per literal detects pre-sorted emission and skips
  // the per-clause sort entirely.
  auto& lits = lits_scratch_;
  lits.clear();
  int32_t prev = -1;
  bool pre_sorted = true;
  for (VarId v : pos) {
    const int32_t l = level_of_var(v);
    pre_sorted &= (l >= prev);
    prev = l;
    lits.push_back({l, false});
  }
  for (VarId v : neg) {
    const int32_t l = level_of_var(v);
    pre_sorted &= (l >= prev);
    prev = l;
    lits.push_back({l, true});
  }
  if (min_level != nullptr) {
    for (const auto& [l, negated] : lits) {
      *min_level = std::min(*min_level, l);
      *max_level = std::max(*max_level, l);
    }
  }
  if (!pre_sorted) std::sort(lits.begin(), lits.end());
  for (size_t i = 1; i < lits.size(); ++i) {
    if (lits[i].first == lits[i - 1].first && lits[i].second != lits[i - 1].second) {
      return kFalse;  // x ^ !x
    }
  }
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  NodeId acc = kTrue;
  for (auto it = lits.rbegin(); it != lits.rend(); ++it) {
    acc = it->second ? Mk(it->first, acc, kFalse) : Mk(it->first, kFalse, acc);
  }
  return acc;
}

NodeId BddManager::FromClauseListSynthesis(ClauseList clauses,
                                           int32_t* min_level,
                                           int32_t* max_level) {
  NodeId acc = kFalse;
  for (size_t i = 0; i < clauses.size(); ++i) {
    acc = Or(acc, FromSignedClauseRanged(clauses.pos(i), clauses.neg(i),
                                         min_level, max_level));
  }
  return acc;
}

ScaledDouble BddManager::ProbScaled(NodeId f,
                                    const std::vector<double>& var_probs) const {
  std::unordered_map<NodeId, ScaledDouble> memo;
  memo.emplace(kFalse, ScaledDouble::Zero());
  memo.emplace(kTrue, ScaledDouble::One());
  // Iterative post-order to avoid deep recursion on chain-shaped OBDDs.
  std::vector<NodeId> stack = {f};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    if (memo.count(id)) {
      stack.pop_back();
      continue;
    }
    const BddNode& n = nodes_[static_cast<size_t>(id)];
    const auto lo_it = memo.find(n.lo);
    const auto hi_it = memo.find(n.hi);
    if (lo_it != memo.end() && hi_it != memo.end()) {
      const double p = var_probs[static_cast<size_t>(order_->var_at_level(n.level))];
      memo.emplace(id, ScaledDouble(1.0 - p) * lo_it->second +
                           ScaledDouble(p) * hi_it->second);
      stack.pop_back();
    } else {
      if (lo_it == memo.end()) stack.push_back(n.lo);
      if (hi_it == memo.end()) stack.push_back(n.hi);
    }
  }
  return memo.at(f);
}

size_t BddManager::CountNodes(NodeId f) const {
  std::unordered_map<NodeId, bool> seen;
  std::vector<NodeId> stack = {f};
  size_t count = 0;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (seen.count(id)) continue;
    seen.emplace(id, true);
    ++count;
    if (!IsSink(id)) {
      const BddNode& n = nodes_[static_cast<size_t>(id)];
      stack.push_back(n.lo);
      stack.push_back(n.hi);
    }
  }
  return count;
}

std::pair<int32_t, int32_t> BddManager::LevelRange(NodeId f) const {
  int32_t min_level = kSinkLevel;
  int32_t max_level = -1;
  std::unordered_map<NodeId, bool> seen;
  std::vector<NodeId> stack = {f};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (IsSink(id) || seen.count(id)) continue;
    seen.emplace(id, true);
    const BddNode& n = nodes_[static_cast<size_t>(id)];
    min_level = std::min(min_level, n.level);
    max_level = std::max(max_level, n.level);
    stack.push_back(n.lo);
    stack.push_back(n.hi);
  }
  return {min_level, max_level};
}

}  // namespace mvdb

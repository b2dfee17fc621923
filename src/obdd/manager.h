// Copyright 2026 The MarkoView Authors.
//
// Ordered Binary Decision Diagrams (Section 4.1). BddManager is a
// hash-consed OBDD package in the style of CUDD: a unique table guarantees
// canonicity (per variable order), and binary operations are computed by the
// classic memoized apply ("synthesis"), whose cost is O(|G1||G2|). It also
// provides the paper's *concatenation* primitives (Section 4.2): when the
// operands' variable ranges do not interleave, OR/AND can be formed by
// redirecting sink nodes, in time linear in the first operand only — the key
// ingredient that makes MarkoView compilation two orders of magnitude faster
// than native CUDD synthesis (Fig. 8).
//
// Probability evaluation uses Shannon expansion and is valid for marginal
// probabilities outside [0,1] (Section 3.3): the expansion is a polynomial
// identity in the tuple probabilities.

#ifndef MVDB_OBDD_MANAGER_H_
#define MVDB_OBDD_MANAGER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "obdd/var_order.h"
#include "prob/lineage.h"
#include "util/flat_hash.h"
#include "util/scaled_double.h"
#include "relational/types.h"
#include "util/logging.h"

namespace mvdb {

/// Node handle. 0 and 1 are the terminal sinks.
using NodeId = int32_t;

/// One OBDD node: branch variable (as a level in the global order) and the
/// 0/1 successors.
struct BddNode {
  int32_t level;
  NodeId lo;
  NodeId hi;
};

class BddManager {
 public:
  static constexpr NodeId kFalse = 0;
  static constexpr NodeId kTrue = 1;
  static constexpr int32_t kSinkLevel = std::numeric_limits<int32_t>::max();

  /// `order[l]` is the VarId branched on at level l. Every variable that any
  /// formula built in this manager mentions must appear in the order.
  explicit BddManager(std::vector<VarId> order)
      : BddManager(std::make_shared<const VarOrder>(std::move(order))) {}

  /// Shares an existing immutable order — the cheap constructor the sharded
  /// MV-index build uses to create one manager per compilation shard.
  explicit BddManager(std::shared_ptr<const VarOrder> order);

  const std::shared_ptr<const VarOrder>& order() const { return order_; }
  size_t num_levels() const { return order_->num_levels(); }
  VarId var_at_level(int32_t level) const { return order_->var_at_level(level); }
  /// Level of a variable; CHECK-fails if the variable is not in the order.
  int32_t level_of_var(VarId v) const { return order_->level_of_var(v); }
  bool has_var(VarId v) const { return order_->has_var(v); }

  const BddNode& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  int32_t level(NodeId id) const { return nodes_[static_cast<size_t>(id)].level; }
  bool IsSink(NodeId id) const { return id == kFalse || id == kTrue; }

  /// Reduced, hash-consed node constructor.
  NodeId Mk(int32_t level, NodeId lo, NodeId hi);

  /// The single-variable BDD for v.
  NodeId MkVar(VarId v) { return Mk(level_of_var(v), kFalse, kTrue); }

  /// Classic memoized apply (synthesis). O(|f| * |g|).
  NodeId And(NodeId f, NodeId g) { return Apply(OpKind::kAnd, f, g); }
  NodeId Or(NodeId f, NodeId g) { return Apply(OpKind::kOr, f, g); }

  /// Complement by sink swap; O(|f|), memoized per manager.
  NodeId Not(NodeId f);

  /// Concatenation (Section 4.2): redirects every kFalse (resp. kTrue) sink
  /// of f to g. Sound for disjunction (resp. conjunction) when every level
  /// in f is strictly smaller than every level in g. O(|f|).
  NodeId ConcatOr(NodeId f, NodeId g);
  NodeId ConcatAnd(NodeId f, NodeId g);

  /// Conjunction of positive literals, built directly (no apply).
  NodeId FromClause(std::span<const VarId> clause) {
    return FromSignedClause(clause, {});
  }

  /// Conjunction pos ^ !neg (Section 2.5 negation extension), built
  /// directly. Returns kFalse on a contradictory literal pair. The literals
  /// fill a member buffer, and the per-clause sort is skipped when they are
  /// already level-sorted — the common case, since lineage clauses come out
  /// of ordered scans.
  NodeId FromSignedClause(std::span<const VarId> pos,
                          std::span<const VarId> neg) {
    return FromSignedClauseRanged(pos, neg, nullptr, nullptr);
  }

  /// Baseline OBDD construction exactly as a stock package performs it:
  /// clause BDDs combined by repeated synthesis. This is the "native CUDD"
  /// comparator in Fig. 8.
  NodeId FromLineageSynthesis(const Lineage& lineage) {
    return FromClauseListSynthesis(lineage.clause_list());
  }

  /// The synthesis loop itself, over a flat clause list: a Lineage's, or
  /// one head group of an evaluation's AnswerTable (the serving path
  /// synthesizes straight from the table). When min_level / max_level are
  /// non-null it additionally widens them by the level of every literal
  /// the clauses mention, during the same pass; the ConObdd builder needs
  /// that range for concatenation eligibility.
  NodeId FromClauseListSynthesis(ClauseList clauses,
                                 int32_t* min_level = nullptr,
                                 int32_t* max_level = nullptr);

  /// P(f) by memoized Shannon expansion; probs indexed by VarId. Valid for
  /// probabilities outside [0,1]. Computed in extended-range arithmetic —
  /// with negative probabilities, per-node values routinely leave double
  /// range even when the final ratio of interest is ordinary (see
  /// util/scaled_double.h).
  ScaledDouble ProbScaled(NodeId f, const std::vector<double>& var_probs) const;

  /// Convenience: ProbScaled converted to double (in-range results only).
  double Prob(NodeId f, const std::vector<double>& var_probs) const {
    return ProbScaled(f, var_probs).ToDouble();
  }

  /// Number of distinct nodes reachable from f (including sinks).
  size_t CountNodes(NodeId f) const;

  /// Smallest / largest internal level reachable from f. For sinks-only
  /// BDDs min > max (empty range).
  std::pair<int32_t, int32_t> LevelRange(NodeId f) const;

  /// What Reset() keeps: node and unique-table capacity up to these sizes
  /// (a larger allocation is released) plus a resting op cache, so a pooled
  /// manager never pins a large query's tables.
  static constexpr size_t kRestingNodes = size_t{1} << 10;
  static constexpr size_t kRestingTableSlots = size_t{1} << 11;
  static constexpr size_t kRestingMemoryBytes =
      kRestingNodes * sizeof(BddNode) + kRestingTableSlots * sizeof(uint32_t) +
      DirectMappedCache::kRestingBytes;

  /// Returns the manager to its two-sink state over the same order: every
  /// node, the unique table, the op cache and the counters are dropped,
  /// while capacity is kept up to the resting footprint above. NodeIds are
  /// assigned in Mk order, so a reset manager hands out exactly the ids a
  /// fresh manager would (the serving pool relies on it for bit identity).
  void Reset();

  /// Construction-effort counters (Fig. 8's cost proxy).
  size_t num_created() const { return nodes_.size() - 2; }
  size_t apply_steps() const { return apply_steps_; }
  void ResetCounters() { apply_steps_ = 0; }

  /// Pre-sizes the node vector and unique table for a build expected to
  /// create ~`n` nodes, so large compilations stop rehashing mid-build.
  void ReserveNodes(size_t n);
  /// Grows the lossy apply/not cache toward one slot per expected memoized
  /// step (clamped; see DirectMappedCache::kMaxEntries). Without a
  /// reservation the cache rests at DirectMappedCache::kRestingEntries and
  /// Mk doubles it whenever the node count passes its size, up to
  /// DirectMappedCache::kAutoEntries — a per-request query manager of a few
  /// dozen nodes keeps a 1 KiB cache.
  void ReserveCaches(size_t n);
  /// Drops the apply/not memo cache and returns its allocation to the
  /// resting footprint, reporting the bytes freed. Purely a memory release:
  /// results are hash-consed, so re-deriving an evicted entry returns the
  /// identical node. The sharded MV-index build calls this once per shard
  /// when the compile phase ends — not between blocks: stale entries stay
  /// valid, so a warm cache only helps the shard's next block.
  size_t ClearOpCaches();

  /// Cumulative bytes released by ClearOpCaches() over the manager's
  /// lifetime (surfaced as MvIndexBuildStats::op_cache_freed_bytes).
  size_t cache_bytes_freed() const { return cache_bytes_freed_; }

  /// Resident bytes of the node store: node vector + open-addressed unique
  /// table + the direct-mapped op cache.
  size_t MemoryBytes() const {
    return nodes_.capacity() * sizeof(BddNode) + unique_.MemoryBytes() +
           op_cache_.MemoryBytes();
  }

 private:
  /// Tags for the packed op-cache key. Values stay below 3 so the packed
  /// key can never equal DirectMappedCache::kEmptyKey (all ones).
  enum class OpKind : uint8_t { kAnd = 0, kOr = 1, kNot = 2 };

  static uint64_t OpKey(OpKind op, NodeId f, NodeId g) {
    return (static_cast<uint64_t>(op) << 62) |
           (static_cast<uint64_t>(static_cast<uint32_t>(f)) << 31) |
           static_cast<uint64_t>(static_cast<uint32_t>(g));
  }
  static uint64_t NodeHash(int32_t level, NodeId lo, NodeId hi) {
    return Mix64((static_cast<uint64_t>(static_cast<uint32_t>(level)) << 32) ^
                 (static_cast<uint64_t>(static_cast<uint32_t>(lo)) << 16) ^
                 static_cast<uint64_t>(static_cast<uint32_t>(hi)));
  }

  NodeId Apply(OpKind op, NodeId f, NodeId g);
  NodeId ConcatRec(NodeId f, NodeId g, NodeId sink_to_replace,
                   std::unordered_map<NodeId, NodeId>* memo);
  /// FromSignedClause; when min_level/max_level are non-null they are
  /// widened by every literal's level.
  NodeId FromSignedClauseRanged(std::span<const VarId> pos,
                                std::span<const VarId> neg, int32_t* min_level,
                                int32_t* max_level);

  std::shared_ptr<const VarOrder> order_;
  std::vector<BddNode> nodes_;
  /// Hash-consing table: open-addressed ids into nodes_ (the keys are the
  /// node triples themselves; see util/flat_hash.h).
  FlatIdTable unique_;
  /// One CUDD-style lossy computed table for And/Or/Not.
  DirectMappedCache op_cache_;
  size_t apply_steps_ = 0;
  size_t cache_bytes_freed_ = 0;
  /// Per-clause literal buffer of FromSignedClause.
  std::vector<std::pair<int32_t, bool>> lits_scratch_;
  /// Concat memo reused across ConcatOr/ConcatAnd calls (cleared per call).
  std::unordered_map<NodeId, NodeId> concat_memo_;
};

}  // namespace mvdb

#endif  // MVDB_OBDD_MANAGER_H_

// Copyright 2026 The MarkoView Authors.
//
// In-memory table: flat row store with per-column hash-grouped join indexes,
// plus the probabilistic annotations (per-tuple weight and Boolean variable
// id) that make a relation a "probabilistic table" in the sense of
// Section 2.1.

#ifndef MVDB_RELATIONAL_TABLE_H_
#define MVDB_RELATIONAL_TABLE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "relational/types.h"
#include "util/logging.h"

namespace mvdb {

/// One relation instance. Rows are stored in a single flat Value vector with
/// stride = arity (cache-friendly scans). A table is either deterministic
/// (every tuple certain, no variables) or probabilistic (each tuple carries a
/// weight and a VarId).
///
/// Probes go through per-column *hash-grouped* indexes — the build side of a
/// classic hash join, laid out flat: one open-addressed value table mapping
/// each distinct value to a [begin, end) range of a single row-id array
/// grouped by value. Building is two linear passes (count, scatter); probing
/// is one hash lookup returning a contiguous span. No per-value heap
/// allocations, unlike a map-of-vectors layout, which at DBLP scale spent
/// the translation phase in malloc.
class Table {
 public:
  /// `attrs` are attribute names, purely for printing and for binding
  /// permutations pi by name.
  Table(std::string name, std::vector<std::string> attrs, bool probabilistic)
      : name_(std::move(name)),
        attrs_(std::move(attrs)),
        probabilistic_(probabilistic) {
    MVDB_CHECK_GT(attrs_.size(), 0u);
  }

  const std::string& name() const { return name_; }
  size_t arity() const { return attrs_.size(); }
  const std::vector<std::string>& attrs() const { return attrs_; }
  bool probabilistic() const { return probabilistic_; }
  size_t size() const { return data_.size() / arity(); }

  /// Appends a row. For probabilistic tables the caller (Database) supplies
  /// the weight and the freshly allocated variable id; deterministic tables
  /// pass kCertainWeight / kNoVar. Invalidates indexes.
  RowId AppendRow(std::span<const Value> row, double weight, VarId var) {
    MVDB_CHECK_EQ(row.size(), arity());
    RowId id = static_cast<RowId>(size());
    data_.insert(data_.end(), row.begin(), row.end());
    if (probabilistic_) {
      weights_.push_back(weight);
      vars_.push_back(var);
    }
    for (auto& idx : indexes_) idx.reset();
    return id;
  }

  /// Read access to one row.
  std::span<const Value> Row(RowId r) const {
    return std::span<const Value>(data_.data() + static_cast<size_t>(r) * arity(),
                                  arity());
  }

  Value At(RowId r, size_t col) const {
    MVDB_DCHECK(col < arity());
    return data_[static_cast<size_t>(r) * arity() + col];
  }

  /// Weight of tuple r (kCertainWeight for deterministic tables).
  double weight(RowId r) const {
    return probabilistic_ ? weights_[r] : kCertainWeight;
  }

  /// Boolean variable of tuple r (kNoVar for deterministic tables).
  VarId var(RowId r) const { return probabilistic_ ? vars_[r] : kNoVar; }

  /// Rows whose column `col` equals `v`, ascending. Builds the hash-grouped
  /// index on first use. NOT thread-safe on the building path — call
  /// WarmIndexes() (or probe/plan once serially) before probing from
  /// multiple threads.
  std::span<const RowId> Probe(size_t col, Value v) const;

  /// Number of distinct values in column `col` — the fan-out statistic the
  /// cost-based join planner divides by. Builds the index on first use (the
  /// same structure a subsequent probe on that column needs anyway).
  size_t DistinctCount(size_t col) const;

  /// Eagerly builds every per-column index. After this, Probe() and
  /// DistinctCount() are pure lookups and safe to call concurrently (until
  /// the next AppendRow). The parallel pipeline warms all tables before
  /// fanning out.
  void WarmIndexes() const;

  /// Eagerly builds the index of one column (same concurrency contract as
  /// WarmIndexes; the planner warms exactly the columns its plan probes).
  void WarmIndex(size_t col) const { EnsureIndex(col); }

  /// Sorted distinct values of a column (the column's active domain).
  std::vector<Value> DistinctValues(size_t col) const;

  /// Looks up a full row; returns true and sets *out if present.
  bool FindRow(std::span<const Value> row, RowId* out) const;

 private:
  /// Hash-grouped index of one column: `row_ids` holds every row id grouped
  /// by column value (ascending within a group); `starts[s] .. starts[s+1]`
  /// delimits the group of the distinct value in slot s. `slots` is an
  /// open-addressed (linear probing, power-of-two) map from value to slot:
  /// entry = slot index or kEmptySlot.
  struct ColumnIndex {
    std::vector<Value> slot_values;   // distinct values, first-occurrence order
    std::vector<uint32_t> starts;     // size distinct+1, prefix offsets
    std::vector<RowId> row_ids;       // size() rows grouped by value
    std::vector<uint32_t> slots;      // open-addressed value -> slot
    uint32_t mask = 0;                // slots.size() - 1
    uint32_t max_probe = 0;           // max insert displacement; bounds Find

    static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

    /// Slot of `v` or kEmptySlot. Probes at most max_probe + 1 positions:
    /// every resident value sits within max_probe of its home slot, so a
    /// longer walk can only prove absence it already knows.
    uint32_t Find(Value v) const;
    size_t distinct() const { return slot_values.size(); }
  };

  /// Builds (if absent) and returns the per-column index.
  const ColumnIndex& EnsureIndex(size_t col) const;
  /// Two-pass counting build: run cache for skewed keys, displacement-
  /// bounded probing with capacity growth when clustering exceeds the
  /// bound, and the per-row slot scratch reused across columns.
  void BuildIndex(ColumnIndex* idx, size_t col) const;

  std::string name_;
  std::vector<std::string> attrs_;
  bool probabilistic_;
  std::vector<Value> data_;       // flat, stride = arity
  std::vector<double> weights_;   // parallel to rows iff probabilistic
  std::vector<VarId> vars_;       // parallel to rows iff probabilistic

  // Lazily built per-column indexes, slot = column (the planner consults
  // DistinctCount per candidate column on every tiny grounded block query,
  // so the lookup must be an array access, not a hash probe).
  mutable std::vector<std::unique_ptr<ColumnIndex>> indexes_;
  // slot_of_row scratch shared across column builds (same concurrency
  // contract as the builds themselves: serial, or behind WarmIndexes).
  mutable std::vector<uint32_t> index_scratch_;
};

}  // namespace mvdb

#endif  // MVDB_RELATIONAL_TABLE_H_

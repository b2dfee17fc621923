#include "relational/table.h"

#include <algorithm>

#include "util/flat_hash.h"

namespace mvdb {

namespace {

/// Insert displacement past which the index build doubles the slot table
/// instead of probing on — the hybrid-hash bounded-probe partitioning rule.
/// At load factor <= 1/2 a cluster this long means pathological hashing,
/// not ordinary collisions.
constexpr uint32_t kProbeLimit = 64;

}  // namespace

uint32_t Table::ColumnIndex::Find(Value v) const {
  if (slots.empty()) return kEmptySlot;
  uint32_t pos = static_cast<uint32_t>(Mix64(static_cast<uint64_t>(v))) & mask;
  for (uint32_t d = 0; d <= max_probe; ++d) {
    const uint32_t s = slots[pos];
    if (s == kEmptySlot) return kEmptySlot;
    if (slot_values[s] == v) return s;
    pos = (pos + 1) & mask;
  }
  return kEmptySlot;
}

const Table::ColumnIndex& Table::EnsureIndex(size_t col) const {
  if (indexes_.empty()) indexes_.resize(arity());
  if (indexes_[col] != nullptr) return *indexes_[col];
  indexes_[col] = std::make_unique<ColumnIndex>();
  ColumnIndex& idx = *indexes_[col];
  BuildIndex(&idx, col);
  return idx;
}

void Table::BuildIndex(ColumnIndex* out, size_t col) const {
  ColumnIndex& idx = *out;
  const size_t n = size();

  size_t cap = 16;
  while (cap < 2 * n) cap <<= 1;
  idx.slots.assign(cap, ColumnIndex::kEmptySlot);
  idx.mask = static_cast<uint32_t>(cap - 1);

  std::vector<uint32_t>& counts = idx.starts;
  counts.clear();
  counts.reserve(n / 4 + 2);
  counts.push_back(0);
  const size_t stride = arity();
  const Value* column = data_.data() + col;

  // Counting scratch reused across columns and rebuilds; the only per-build
  // allocation left is the index's own storage.
  std::vector<uint32_t>& slot_of_row = index_scratch_;
  slot_of_row.resize(n);

  // Repositions every assigned slot in a doubled table. Slot ids (and with
  // them starts/row_ids, i.e. everything Probe returns) are untouched —
  // only the value -> slot positions move.
  auto grow = [&idx]() {
    const size_t cap2 = (static_cast<size_t>(idx.mask) + 1) * 2;
    idx.slots.assign(cap2, ColumnIndex::kEmptySlot);
    idx.mask = static_cast<uint32_t>(cap2 - 1);
    idx.max_probe = 0;
    for (uint32_t s = 0; s < idx.slot_values.size(); ++s) {
      uint32_t pos = static_cast<uint32_t>(
                         Mix64(static_cast<uint64_t>(idx.slot_values[s]))) &
                     idx.mask;
      uint32_t d = 0;
      while (idx.slots[pos] != ColumnIndex::kEmptySlot) {
        pos = (pos + 1) & idx.mask;
        ++d;
      }
      idx.slots[pos] = s;
      if (d > idx.max_probe) idx.max_probe = d;
    }
  };

  // Run cache: skewed/sorted columns repeat one value in long stretches —
  // the dominant DBLP translate-join shape — and skip the hash entirely.
  Value prev_v = 0;
  uint32_t prev_s = ColumnIndex::kEmptySlot;
  idx.max_probe = 0;
  for (size_t r = 0; r < n; ++r) {
    const Value v = column[r * stride];
    if (prev_s != ColumnIndex::kEmptySlot && v == prev_v) {
      ++counts[prev_s + 1];
      slot_of_row[r] = prev_s;
      continue;
    }
    uint32_t assigned = 0;
    while (true) {
      uint32_t pos = static_cast<uint32_t>(Mix64(static_cast<uint64_t>(v))) &
                     idx.mask;
      uint32_t d = 0;
      bool done = false;
      while (d <= kProbeLimit) {
        const uint32_t s = idx.slots[pos];
        if (s == ColumnIndex::kEmptySlot) {
          const uint32_t fresh = static_cast<uint32_t>(idx.slot_values.size());
          idx.slots[pos] = fresh;
          idx.slot_values.push_back(v);
          counts.push_back(1);
          assigned = fresh;
          if (d > idx.max_probe) idx.max_probe = d;
          done = true;
          break;
        }
        if (idx.slot_values[s] == v) {
          ++counts[s + 1];
          assigned = s;
          done = true;
          break;
        }
        pos = (pos + 1) & idx.mask;
        ++d;
      }
      if (done) break;
      grow();  // cluster past the probe bound: repartition at 2x capacity
    }
    slot_of_row[r] = assigned;
    prev_v = v;
    prev_s = assigned;
  }

  for (size_t s = 1; s < counts.size(); ++s) counts[s] += counts[s - 1];

  idx.row_ids.resize(n);
  std::vector<uint32_t> cursor(counts.begin(), counts.end() - 1);
  for (size_t r = 0; r < n; ++r) {
    idx.row_ids[cursor[slot_of_row[r]]++] = static_cast<RowId>(r);
  }
}

std::span<const RowId> Table::Probe(size_t col, Value v) const {
  MVDB_CHECK_LT(col, arity());
  const ColumnIndex& idx = EnsureIndex(col);
  const uint32_t s = idx.Find(v);
  if (s == ColumnIndex::kEmptySlot) return {};
  return std::span<const RowId>(idx.row_ids.data() + idx.starts[s],
                                idx.starts[s + 1] - idx.starts[s]);
}

size_t Table::DistinctCount(size_t col) const {
  MVDB_CHECK_LT(col, arity());
  return EnsureIndex(col).distinct();
}

void Table::WarmIndexes() const {
  // Every column gets an index entry — including on empty tables, whose
  // first Probe would otherwise still mutate indexes_ concurrently.
  for (size_t col = 0; col < arity(); ++col) EnsureIndex(col);
}

std::vector<Value> Table::DistinctValues(size_t col) const {
  std::vector<Value> values;
  const size_t n = size();
  values.reserve(n);
  for (size_t r = 0; r < n; ++r) values.push_back(At(static_cast<RowId>(r), col));
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

bool Table::FindRow(std::span<const Value> row, RowId* out) const {
  MVDB_CHECK_EQ(row.size(), arity());
  // Probe on the first column, then verify the remainder.
  for (RowId r : Probe(0, row[0])) {
    bool match = true;
    for (size_t c = 1; c < arity(); ++c) {
      if (At(r, c) != row[c]) { match = false; break; }
    }
    if (match) {
      *out = r;
      return true;
    }
  }
  return false;
}

}  // namespace mvdb

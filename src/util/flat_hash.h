// Copyright 2026 The MarkoView Authors.
//
// Cache-conscious hash containers for the OBDD node store (Section 4.3's
// storage argument applied to the *construction* side). Two pieces:
//
//  * FlatIdTable — an open-addressed, linear-probing hash set of 32-bit
//    payload indices. The table stores only the indices; the keys live in
//    the caller's flat payload array (for BddManager: the node vector), so
//    a unique table costs 4 bytes per slot on top of the nodes themselves
//    instead of one heap-allocated bucket node per entry. Capacity is a
//    power of two and the load factor is capped at 3/4, which keeps linear
//    probe chains short without robin-hood bookkeeping.
//
//  * DirectMappedCache — a direct-mapped, *lossy* memo table in the style
//    of CUDD's computed table. An insert simply overwrites whatever
//    occupied the slot. Losing an entry never loses correctness for
//    hash-consed DAG algorithms: recomputing an evicted result walks the
//    same reduced structure and returns the identical node id — the cache
//    only trades recomputation for bounded memory. It rests small and is
//    grown by its owner (BddManager sizes it to its node count), so a
//    manager that builds a few dozen nodes pays for a few dozen slots.
//
// Both containers are single-threaded, matching BddManager (the sharded
// MV-index build gives every shard a private manager).

#ifndef MVDB_UTIL_FLAT_HASH_H_
#define MVDB_UTIL_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace mvdb {

/// Finalizer of splitmix64 — a full-avalanche 64-bit mixer. Callers use it
/// to pre-mix FlatIdTable hashes (the table masks to the low bits and does
/// not re-mix); DirectMappedCache applies it internally to its packed keys.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Open-addressed hash set of 32-bit ids whose keys are stored externally.
/// The caller supplies, per operation, a predicate `matches(id)` comparing
/// the probe key against the stored id's key, and `hash_of(id)` recomputing
/// a stored id's hash (needed when the table rehashes). Ids must be
/// < 0xFFFFFFFF (the empty-slot sentinel). Hashes must arrive *pre-mixed*
/// (e.g. through Mix64): the power-of-two mask keeps only the low bits, and
/// the table does not re-mix on its hot path.
class FlatIdTable {
 public:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  size_t MemoryBytes() const { return slots_.capacity() * sizeof(uint32_t); }

  /// Drops every entry but keeps the allocation.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
  }

  /// Drops every entry; an allocation of more than `max_capacity` slots is
  /// released (the next insert starts from the minimum capacity).
  void ClearAndTrim(size_t max_capacity) {
    if (slots_.size() > max_capacity) {
      std::vector<uint32_t>().swap(slots_);
      size_ = 0;
    } else {
      Clear();
    }
  }

  /// Pre-sizes the table for `n` entries without exceeding the 3/4 load cap.
  template <typename HashOf>
  void Reserve(size_t n, HashOf&& hash_of) {
    size_t cap = kMinCapacity;
    while (cap * 3 / 4 < n) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap, hash_of);
  }

  /// Returns the id of the entry for which `matches` holds, or kEmpty.
  template <typename Matches>
  uint32_t Find(uint64_t hash, Matches&& matches) const {
    if (slots_.empty()) return kEmpty;
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t id = slots_[i];
      if (id == kEmpty) return kEmpty;
      if (matches(id)) return id;
    }
  }

  /// Returns the matching stored id, or inserts `fresh` and returns it.
  /// `fresh` must not already be in the table.
  template <typename Matches, typename HashOf>
  uint32_t FindOrInsert(uint64_t hash, uint32_t fresh, Matches&& matches,
                        HashOf&& hash_of) {
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(std::max<size_t>(kMinCapacity, slots_.size() * 2), hash_of);
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t id = slots_[i];
      if (id == kEmpty) {
        slots_[i] = fresh;
        ++size_;
        return fresh;
      }
      if (matches(id)) return id;
    }
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  template <typename HashOf>
  void Rehash(size_t new_capacity, HashOf&& hash_of) {
    MVDB_DCHECK((new_capacity & (new_capacity - 1)) == 0);
    std::vector<uint32_t> old = std::move(slots_);
    slots_.assign(new_capacity, kEmpty);
    const size_t mask = new_capacity - 1;
    for (uint32_t id : old) {
      if (id == kEmpty) continue;
      size_t i = hash_of(id) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::vector<uint32_t> slots_;
  size_t size_ = 0;
};

/// Direct-mapped lossy cache: 64-bit key -> 32-bit value. The slot for a
/// key is Mix64(key) masked to the (power-of-two) table size; an insert
/// overwrites the slot unconditionally. `kEmptyKey` must never be used as a
/// real key (BddManager's op encoding guarantees the top two key bits are
/// < 3, so all-ones cannot occur).
class DirectMappedCache {
  struct Entry {
    uint64_t key;
    int32_t value;
  };

 public:
  static constexpr uint64_t kEmptyKey = ~0ULL;
  /// Resting size: 2^6 entries * 16 bytes = 1 KiB per manager.
  static constexpr size_t kRestingEntries = size_t{1} << 6;
  static constexpr size_t kRestingBytes = kRestingEntries * sizeof(Entry);
  /// Where owner-driven growth stops (2^14 entries = 256 KiB): BddManager
  /// doubles the cache as its node count passes the cache size, up to here.
  static constexpr size_t kAutoEntries = size_t{1} << 14;
  /// Growth cap: 2^20 entries = 16 MiB. A lossy cache does not need
  /// capacity proportional to the workload, only to the live working set.
  static constexpr size_t kMaxEntries = size_t{1} << 20;

  DirectMappedCache() { Resize(kRestingEntries); }

  size_t entries() const { return table_.size(); }
  size_t MemoryBytes() const { return table_.capacity() * sizeof(Entry); }

  bool Lookup(uint64_t key, int32_t* value) const {
    const Entry& e = table_[Mix64(key) & mask_];
    if (e.key != key) return false;
    *value = e.value;
    return true;
  }

  void Insert(uint64_t key, int32_t value) {
    table_[Mix64(key) & mask_] = Entry{key, value};
  }

  /// Grows (never shrinks) by doubling toward at least `n` entries, clamped
  /// to `limit`. Live entries move to their slots in the larger table;
  /// each old slot owns its own set of new slots, so none collide.
  void GrowTo(size_t n, size_t limit = kMaxEntries) {
    size_t cap = entries();
    while (cap < n && cap < limit) cap <<= 1;
    if (cap <= entries()) return;
    std::vector<Entry> old = std::move(table_);
    Resize(cap);
    for (const Entry& e : old) {
      if (e.key != kEmptyKey) table_[Mix64(e.key) & mask_] = e;
    }
  }

  /// Drops every entry and returns the allocation to the resting size.
  /// Returns the number of bytes freed (0 when already at rest).
  size_t ShrinkToResting() {
    const size_t before = MemoryBytes();
    if (entries() != kRestingEntries) {
      table_.clear();
      table_.shrink_to_fit();
      Resize(kRestingEntries);
    } else {
      std::fill(table_.begin(), table_.end(), Entry{kEmptyKey, 0});
    }
    return before > MemoryBytes() ? before - MemoryBytes() : 0;
  }

 private:
  void Resize(size_t n) {
    MVDB_DCHECK((n & (n - 1)) == 0);
    table_.assign(n, Entry{kEmptyKey, 0});
    table_.shrink_to_fit();
    mask_ = n - 1;
  }

  std::vector<Entry> table_;
  uint64_t mask_ = 0;
};

}  // namespace mvdb

#endif  // MVDB_UTIL_FLAT_HASH_H_

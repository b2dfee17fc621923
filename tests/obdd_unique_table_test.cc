// Property tests for the open-addressed OBDD node store (util/flat_hash.h +
// BddManager): the flat unique table must hash-cons exactly like the old
// chaining map — same node for the same (level, lo, hi) triple, no
// duplicates, stable across grow-and-rehash and reserve hints — and the
// lossy direct-mapped op cache must never affect *what* is computed, only
// how often (an evicted entry recomputes to the identical node id).

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "obdd/manager.h"
#include "prob/lineage.h"
#include "util/flat_hash.h"
#include "util/rng.h"

namespace mvdb {
namespace {

/// A random Apply/Not workload over `num_vars` variables. Every operation's
/// result id is appended to `trace`, so two managers fed the same script
/// can be compared id-for-id.
void RunWorkload(BddManager* mgr, uint64_t seed, int num_vars, int num_ops,
                 std::vector<NodeId>* trace) {
  Rng rng(seed);
  std::vector<NodeId> pool;
  for (VarId v = 0; v < num_vars; ++v) pool.push_back(mgr->MkVar(v));
  for (int i = 0; i < num_ops; ++i) {
    const NodeId f = pool[rng.Below(pool.size())];
    const NodeId g = pool[rng.Below(pool.size())];
    NodeId r;
    switch (rng.Below(4)) {
      case 0: r = mgr->And(f, g); break;
      case 1: r = mgr->Or(f, g); break;
      case 2: r = mgr->Not(f); break;
      default: {
        Clause pos, neg;
        for (VarId v = 0; v < num_vars; ++v) {
          const uint64_t roll = rng.Below(6);
          if (roll == 0) pos.push_back(v);
          if (roll == 1) neg.push_back(v);
        }
        r = mgr->FromSignedClause(pos, neg);
        break;
      }
    }
    trace->push_back(r);
    pool.push_back(r);
    if (pool.size() > 64) pool.erase(pool.begin());
  }
}

std::vector<VarId> Identity(int num_vars) {
  std::vector<VarId> order;
  for (VarId v = 0; v < num_vars; ++v) order.push_back(v);
  return order;
}

/// The old map's defining property: every internal node's triple is unique
/// and reduced. Scans the whole node table.
void ExpectCanonicalNodeTable(const BddManager& mgr) {
  std::set<std::tuple<int32_t, NodeId, NodeId>> seen;
  const NodeId end = static_cast<NodeId>(mgr.num_created()) + 2;
  for (NodeId id = 2; id < end; ++id) {
    const BddNode& n = mgr.node(id);
    EXPECT_NE(n.lo, n.hi) << "redundant node " << id;
    EXPECT_LT(n.level, mgr.node(n.lo).level) << "unordered node " << id;
    EXPECT_LT(n.level, mgr.node(n.hi).level) << "unordered node " << id;
    EXPECT_TRUE(seen.insert({n.level, n.lo, n.hi}).second)
        << "duplicate triple at node " << id;
  }
}

TEST(UniqueTableTest, RandomWorkloadsHashConsCanonically) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    BddManager mgr(Identity(12));
    std::vector<NodeId> trace;
    RunWorkload(&mgr, 1000 + seed, 12, 400, &trace);
    ExpectCanonicalNodeTable(mgr);
  }
}

TEST(UniqueTableTest, ReserveHintsDoNotChangeNodeIds) {
  // Same op script against three growth regimes: organic growth from the
  // 16-slot minimum (many rehashes), a generous up-front reservation (no
  // rehash), and an absurdly small hint. The old chaining map allocated
  // node ids purely in creation order; the flat table must do the same, so
  // all three managers agree id-for-id.
  std::vector<NodeId> organic_trace, reserved_trace, tiny_trace;
  BddManager organic(Identity(14));
  RunWorkload(&organic, 99, 14, 800, &organic_trace);

  BddManager reserved(Identity(14));
  reserved.ReserveNodes(1 << 16);
  reserved.ReserveCaches(1 << 16);
  RunWorkload(&reserved, 99, 14, 800, &reserved_trace);

  BddManager tiny(Identity(14));
  tiny.ReserveNodes(4);
  RunWorkload(&tiny, 99, 14, 800, &tiny_trace);

  EXPECT_EQ(organic_trace, reserved_trace);
  EXPECT_EQ(organic_trace, tiny_trace);
  ASSERT_EQ(organic.num_created(), reserved.num_created());
  ASSERT_EQ(organic.num_created(), tiny.num_created());
  const NodeId end = static_cast<NodeId>(organic.num_created()) + 2;
  for (NodeId id = 2; id < end; ++id) {
    const BddNode& a = organic.node(id);
    const BddNode& b = reserved.node(id);
    ASSERT_TRUE(a.level == b.level && a.lo == b.lo && a.hi == b.hi)
        << "node " << id;
  }
}

TEST(UniqueTableTest, GrowAndRehashKeepsEveryNodeFindable) {
  // Drive the table through multiple rehash generations, then re-request
  // every interned triple: each must come back as the original id, and no
  // new node may be created.
  BddManager mgr(Identity(18));
  std::vector<NodeId> trace;
  RunWorkload(&mgr, 7, 18, 3000, &trace);
  const size_t created = mgr.num_created();
  const NodeId end = static_cast<NodeId>(created) + 2;
  for (NodeId id = 2; id < end; ++id) {
    const BddNode n = mgr.node(id);  // copy: Mk may touch the vector
    EXPECT_EQ(mgr.Mk(n.level, n.lo, n.hi), id);
  }
  EXPECT_EQ(mgr.num_created(), created);
}

TEST(DirectMappedCacheTest, EvictionNeverChangesResults) {
  // The op cache is direct-mapped and lossy: a long workload evicts most
  // early entries. Re-issuing the recorded operations must return the
  // identical node ids (hash-consing canonicity), and — because every
  // intermediate node already exists — must not create a single new node.
  BddManager mgr(Identity(12));
  Rng rng(1234);
  std::vector<NodeId> vars;
  for (VarId v = 0; v < 12; ++v) vars.push_back(mgr.MkVar(v));
  struct Op {
    int kind;  // 0 = And, 1 = Or, 2 = Not
    NodeId f, g, result;
  };
  std::vector<Op> ops;
  std::vector<NodeId> pool = vars;
  for (int i = 0; i < 5000; ++i) {
    const NodeId f = pool[rng.Below(pool.size())];
    const NodeId g = pool[rng.Below(pool.size())];
    const int kind = static_cast<int>(rng.Below(3));
    const NodeId r = kind == 0   ? mgr.And(f, g)
                     : kind == 1 ? mgr.Or(f, g)
                                 : mgr.Not(f);
    ops.push_back(Op{kind, f, g, r});
    pool.push_back(r);
    if (pool.size() > 48) pool.erase(pool.begin());
  }
  const size_t created = mgr.num_created();
  for (const Op& op : ops) {
    const NodeId again = op.kind == 0   ? mgr.And(op.f, op.g)
                         : op.kind == 1 ? mgr.Or(op.f, op.g)
                                        : mgr.Not(op.f);
    ASSERT_EQ(again, op.result);
  }
  EXPECT_EQ(mgr.num_created(), created);
}

TEST(DirectMappedCacheTest, StandaloneLookupInsertOverwrite) {
  DirectMappedCache cache;
  int32_t out = -1;
  EXPECT_FALSE(cache.Lookup(42, &out));
  cache.Insert(42, 7);
  ASSERT_TRUE(cache.Lookup(42, &out));
  EXPECT_EQ(out, 7);
  // A colliding key (same slot, different key) evicts; the old key misses
  // and the new one hits. Any key differing by a multiple of the table size
  // in mixed space collides; brute-force one.
  cache.Insert(42, 9);  // same-key overwrite
  ASSERT_TRUE(cache.Lookup(42, &out));
  EXPECT_EQ(out, 9);
}

TEST(ClearOpCachesTest, ShrinksCapacityAndReportsFreedBytes) {
  BddManager mgr(Identity(10));
  const size_t resting = mgr.MemoryBytes();
  mgr.ReserveCaches(size_t{1} << 18);
  EXPECT_GT(mgr.MemoryBytes(), resting);

  const NodeId a = mgr.MkVar(0);
  const NodeId b = mgr.MkVar(1);
  const NodeId conj = mgr.And(a, b);
  const NodeId neg = mgr.Not(conj);

  const size_t freed = mgr.ClearOpCaches();
  EXPECT_GT(freed, 0u);  // the grown cache really returned its memory
  EXPECT_EQ(mgr.cache_bytes_freed(), freed);
  // Memo gone, unique table intact: recomputation yields identical nodes.
  EXPECT_EQ(mgr.And(a, b), conj);
  EXPECT_EQ(mgr.Not(conj), neg);
  // A second clear at the default footprint frees nothing further.
  EXPECT_EQ(mgr.ClearOpCaches(), 0u);
  EXPECT_EQ(mgr.cache_bytes_freed(), freed);
}

/// A random DNF lineage of `clauses` clauses over `num_vars` variables:
/// 1-4 distinct variables per clause, about one literal in five negated.
Lineage RandomLineage(Rng* rng, int num_vars, int clauses) {
  Lineage lineage;
  for (int c = 0; c < clauses; ++c) {
    Clause pos, neg;
    const uint64_t width = 1 + rng->Below(4);
    for (uint64_t k = 0; k < width; ++k) {
      const VarId v = static_cast<VarId>(rng->Below(num_vars));
      (rng->Below(5) == 0 ? neg : pos).push_back(v);
    }
    lineage.AddSignedClause(std::move(pos), std::move(neg));
  }
  return lineage;
}

TEST(OpCacheSizingTest, AutoSizedCacheBuildsTheSameNodesAsAReservedOne) {
  // One manager starts with the resting op cache and lets Mk double it as
  // the node count passes each size, up to kAutoEntries; the other holds
  // 2^20 entries from the start. The cache is lossy and results are
  // hash-consed, so both must create the same nodes in the same order.
  constexpr int kVars = 48;
  BddManager auto_sized(Identity(kVars));
  BddManager reserved(Identity(kVars));
  reserved.ReserveCaches(size_t{1} << 20);
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const Lineage lineage =
        RandomLineage(&rng, kVars, 1 + static_cast<int>(rng.Below(16)));
    ASSERT_EQ(auto_sized.FromLineageSynthesis(lineage),
              reserved.FromLineageSynthesis(lineage))
        << "lineage " << i;
  }
  // The workload crossed every doubling step of the auto-sized cache.
  EXPECT_GT(auto_sized.num_created(), DirectMappedCache::kAutoEntries);
  ASSERT_EQ(auto_sized.num_created(), reserved.num_created());
  const NodeId end = static_cast<NodeId>(auto_sized.num_created()) + 2;
  for (NodeId id = 2; id < end; ++id) {
    const BddNode& a = auto_sized.node(id);
    const BddNode& b = reserved.node(id);
    ASSERT_TRUE(a.level == b.level && a.lo == b.lo && a.hi == b.hi)
        << "node " << id;
  }
}

TEST(OpCacheSizingTest, QuerySizedManagerStaysSmall) {
  // Serving synthesizes every request into a reset query manager; a Fig.
  // 10/11 request is ~12 clauses and ~18 nodes. Its whole node store — nodes,
  // unique table and op cache — must stay a few KiB: a batch keeps eight
  // alive beside the index it sweeps, so a fixed 256 KiB op cache each
  // would fill a 2 MiB L2.
  BddManager mgr(Identity(64));
  Rng rng(3);
  const NodeId root = mgr.FromLineageSynthesis(RandomLineage(&rng, 64, 12));
  EXPECT_FALSE(mgr.IsSink(root));
  EXPECT_LT(mgr.MemoryBytes(), size_t{16} << 10);
}

/// Asserts that two managers hold the same node array.
void ExpectSameNodes(const BddManager& a, const BddManager& b) {
  ASSERT_EQ(a.num_created(), b.num_created());
  const NodeId end = static_cast<NodeId>(a.num_created()) + 2;
  for (NodeId id = 0; id < end; ++id) {
    const BddNode& x = a.node(id);
    const BddNode& y = b.node(id);
    ASSERT_TRUE(x.level == y.level && x.lo == y.lo && x.hi == y.hi)
        << "node " << id;
  }
}

TEST(ResetTest, ResetManagerBuildsWhatAFreshOneBuildsAndRestsSmall) {
  // Serving pools one query manager per batch slot and Reset()s it between
  // requests. Grow one past rest first (>= 10K nodes: the unique table and
  // the op cache both leave their resting sizes), then reset it: it must
  // hold no more than the resting footprint, and hand out exactly a fresh
  // manager's nodes and root ids, both request by request (reset before
  // each lineage) and over all 200 lineages in one manager.
  constexpr int kVars = 48;
  BddManager pooled(Identity(kVars));
  Rng grow_rng(29);
  while (pooled.num_created() < 10000) {
    pooled.FromLineageSynthesis(RandomLineage(&grow_rng, kVars, 16));
  }
  EXPECT_GT(pooled.MemoryBytes(), BddManager::kRestingMemoryBytes);
  pooled.Reset();
  EXPECT_EQ(pooled.num_created(), 0u);
  EXPECT_EQ(pooled.apply_steps(), 0u);
  EXPECT_LE(pooled.MemoryBytes(), BddManager::kRestingMemoryBytes);

  std::vector<Lineage> lineages;
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    lineages.push_back(
        RandomLineage(&rng, kVars, 1 + static_cast<int>(rng.Below(16))));
  }
  for (size_t i = 0; i < lineages.size(); ++i) {
    pooled.Reset();
    BddManager fresh(Identity(kVars));
    ASSERT_EQ(pooled.FromLineageSynthesis(lineages[i]),
              fresh.FromLineageSynthesis(lineages[i]))
        << "lineage " << i;
    ExpectSameNodes(pooled, fresh);
    EXPECT_EQ(pooled.apply_steps(), fresh.apply_steps()) << "lineage " << i;
  }

  pooled.Reset();
  BddManager fresh(Identity(kVars));
  for (size_t i = 0; i < lineages.size(); ++i) {
    ASSERT_EQ(pooled.FromLineageSynthesis(lineages[i]),
              fresh.FromLineageSynthesis(lineages[i]))
        << "lineage " << i;
  }
  EXPECT_GT(pooled.num_created(), 10000u);  // the tables grew past rest again
  ExpectSameNodes(pooled, fresh);
  pooled.Reset();
  EXPECT_LE(pooled.MemoryBytes(), BddManager::kRestingMemoryBytes);
}

TEST(FlatIdTableTest, FindOrInsertAndRehash) {
  // Standalone exercise of the probing/rehash paths with external keys.
  std::vector<uint64_t> keys;
  FlatIdTable table;
  auto hash_of = [&keys](uint32_t id) { return Mix64(keys[id]); };
  auto matches_key = [&keys](uint64_t key) {
    return [&keys, key](uint32_t id) { return keys[id] == key; };
  };
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    // Adversarially clustered keys: low entropy in the low bits.
    const uint64_t key = rng.Below(2000) << 7;
    const uint32_t fresh = static_cast<uint32_t>(keys.size());
    const uint32_t got =
        table.FindOrInsert(Mix64(key), fresh, matches_key(key), hash_of);
    if (got == fresh) keys.push_back(key);
    EXPECT_EQ(keys[got], key);
    EXPECT_EQ(table.Find(Mix64(key), matches_key(key)), got);
  }
  EXPECT_EQ(table.size(), keys.size());
  EXPECT_LE(table.size() * 4, table.capacity() * 3);  // load cap held
  // Every key stays findable after all the rehashes.
  for (uint32_t id = 0; id < keys.size(); ++id) {
    EXPECT_EQ(table.Find(Mix64(keys[id]), matches_key(keys[id])), id);
  }
  const size_t size_before = table.size();
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(Mix64(keys[0]), matches_key(keys[0])),
            FlatIdTable::kEmpty);
  EXPECT_GT(size_before, 0u);
}

}  // namespace
}  // namespace mvdb

// Column-index test on adversarially skewed key distributions: a hot key
// owning 50% of all rows, long sorted runs (the run-cache path), uniform
// random keys, an all-distinct column, and a cluster around one home slot
// (the bounded-probe growth path). The probe results are the contract,
// checked against a row scan: Probe() returns exactly the matching rows in
// ascending order for every resident and absent key, and DistinctCount()
// is the number of distinct values in the column.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "relational/table.h"
#include "relational/types.h"
#include "test_util.h"

namespace mvdb {
namespace {

std::vector<RowId> ToVec(std::span<const RowId> s) {
  return std::vector<RowId>(s.begin(), s.end());
}

/// Probes every value in `probes` on every column and compares each span
/// and each column's distinct count with a scan over the rows.
void ExpectIndexMatchesScan(const Table& t, const std::vector<Value>& probes) {
  for (size_t col = 0; col < t.arity(); ++col) {
    std::set<Value> distinct;
    for (size_t r = 0; r < t.size(); ++r) {
      distinct.insert(t.At(static_cast<RowId>(r), col));
    }
    EXPECT_EQ(t.DistinctCount(col), distinct.size()) << "col " << col;
    for (const Value v : probes) {
      std::vector<RowId> want;
      for (size_t r = 0; r < t.size(); ++r) {
        if (t.At(static_cast<RowId>(r), col) == v) {
          want.push_back(static_cast<RowId>(r));
        }
      }
      EXPECT_EQ(ToVec(t.Probe(col, v)), want)
          << "col " << col << " value " << v;
    }
  }
}

TEST(TableSkewTest, HotKeyOwningHalfTheRows) {
  // Column 0: one hot key = 50% of rows, the rest spread over a small
  // domain (heavy duplicate clusters). Column 1: sorted run of the row id
  // (the run-cache path degenerates to all-distinct). Column 2: uniform
  // random over a big domain.
  constexpr size_t kRows = 20000;
  constexpr Value kHot = 424242;
  Table t("Skew", {"hot", "run", "rand"}, /*probabilistic=*/false);
  std::mt19937_64 rng(0xD15EA5Eu);
  for (size_t r = 0; r < kRows; ++r) {
    const Value hot = (r % 2 == 0) ? kHot : static_cast<Value>(rng() % 97);
    const Value run = static_cast<Value>(r / 8);  // sorted, 8-row runs
    const Value rnd = static_cast<Value>(rng() % 1000000);
    const Value row[] = {hot, run, rnd};
    t.AppendRow(row, kCertainWeight, kNoVar);
  }
  std::vector<Value> probes = {kHot, 0, 1, 96, 97, -1, 1000001};
  for (size_t i = 0; i < 64; ++i) {
    probes.push_back(static_cast<Value>(rng() % 1000000));  // mostly absent
    probes.push_back(static_cast<Value>(i * 331));
  }
  ExpectIndexMatchesScan(t, probes);

  // The hot key really is half the table, and probes on it see every
  // even row in ascending order.
  const auto hot_rows = t.Probe(0, kHot);
  ASSERT_EQ(hot_rows.size(), kRows / 2);
  for (size_t i = 0; i < hot_rows.size(); ++i) {
    EXPECT_EQ(hot_rows[i], static_cast<RowId>(2 * i));
  }
}

TEST(TableSkewTest, AllDistinctAndAllEqualExtremes) {
  constexpr size_t kRows = 5000;
  Table t("Extreme", {"distinct", "constant"}, /*probabilistic=*/false);
  for (size_t r = 0; r < kRows; ++r) {
    // Strided distinct values so home slots scatter, plus one constant
    // column (a single 5000-row cluster — the maximal hot key).
    const Value row[] = {static_cast<Value>(r * 7919), Value{7}};
    t.AppendRow(row, kCertainWeight, kNoVar);
  }
  std::vector<Value> probes = {7, 0, 7919, -7919,
                               static_cast<Value>((kRows - 1) * 7919)};
  for (size_t i = 0; i < 50; ++i) {
    probes.push_back(static_cast<Value>(i * 7919));
    probes.push_back(static_cast<Value>(i * 7919 + 1));  // absent neighbors
  }
  ExpectIndexMatchesScan(t, probes);
  EXPECT_EQ(t.DistinctCount(0), kRows);
  EXPECT_EQ(t.DistinctCount(1), 1u);
  EXPECT_EQ(t.Probe(1, 7).size(), kRows);
}

TEST(TableSkewTest, AdversarialClusterAroundOneHomeSlot) {
  // Values chosen as k * capacity-ish strides collide into long probe
  // chains on power-of-two tables; with enough of them the index build's
  // bounded-probe guarantee has to grow the table rather than scan
  // unboundedly. Probe results (including absent keys, which exercise the
  // max_probe early-out) must survive the growth path.
  constexpr size_t kRows = 4096;
  Table t("Cluster", {"key"}, /*probabilistic=*/false);
  for (size_t r = 0; r < kRows; ++r) {
    // 50% hot key, 50% values in a dense band (dense bands share nearby
    // home slots at every power-of-two mask).
    const Value row[] = {r % 2 == 0 ? Value{1} : static_cast<Value>(r)};
    t.AppendRow(row, kCertainWeight, kNoVar);
  }
  std::vector<Value> probes;
  for (Value v = -8; v < static_cast<Value>(kRows) + 8; ++v) {
    probes.push_back(v);
  }
  ExpectIndexMatchesScan(t, probes);
}

}  // namespace
}  // namespace mvdb

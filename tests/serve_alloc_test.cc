// Allocation budget of the online serving body. The global operator new is
// replaced by a counting one, and the Fig. 10/11 questions in their inline
// form (the name inside the Author atom) run through QueryEngine::Query on
// the default backend, which keeps its plan cache and pipeline scratch
// across calls. After one warm pass, a query may make at most
// kMaxAllocsPerQuery heap allocations on average: what is left is the
// query's signature and the answer heads and vector handed to the caller.
// The sanitizers replace operator new themselves, so the test skips there.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "test_util.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MVDB_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MVDB_ALLOC_COUNTING 0
#endif
#endif
#ifndef MVDB_ALLOC_COUNTING
#define MVDB_ALLOC_COUNTING 1
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocs{0};

#if MVDB_ALLOC_COUNTING
void* CountedAlloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
#endif

}  // namespace

#if MVDB_ALLOC_COUNTING
void* operator new(std::size_t n) { return CountedAlloc(n, 0); }
void* operator new[](std::size_t n) { return CountedAlloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace mvdb {
namespace {

using testing_util::MustParse;

/// On this mix a query makes ~6 allocations: the signature's key and slots,
/// one copy per answer head and the result vector. The eval, synthesis and
/// sweep state all live in the engine's pipeline scratch.
constexpr double kMaxAllocsPerQuery = 8.0;

TEST(ServeAllocTest, InlineQueriesStayUnderTheAllocationBudget) {
  if (!MVDB_ALLOC_COUNTING) {
    GTEST_SKIP() << "sanitizers replace operator new";
  }
  dblp::DblpConfig cfg;
  cfg.num_authors = 400;
  cfg.include_affiliation = true;
  auto built = dblp::BuildDblpMvdb(cfg, nullptr);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::unique_ptr<Mvdb> mvdb = std::move(built).value();
  QueryEngine engine(mvdb.get());
  ASSERT_TRUE(engine.Compile().ok());

  // Three students-of-advisor questions per affiliation question, every one
  // with a real name, pre-parsed (parsing interns into the dictionary).
  Database& db = mvdb->db();
  const Table* advisor = db.Find("Advisor");
  const Table* aff = db.Find("Affiliation");
  ASSERT_TRUE(advisor != nullptr && aff != nullptr);
  ASSERT_GE(advisor->size(), 30u);
  ASSERT_GE(aff->size(), 10u);
  std::vector<Ucq> queries;
  for (size_t i = 0; i < 10; ++i) {
    for (size_t k = 0; k < 3; ++k) {
      const size_t r = (i * 3 + k) * (advisor->size() / 30);
      const std::string name =
          dblp::AuthorName(static_cast<int>(advisor->At(static_cast<RowId>(r), 1)));
      queries.push_back(MustParse(
          "Q(aid) :- Student(aid,y), Advisor(aid,a1), Author(aid,n), "
          "Author(a1,\"" + name + "\").",
          &db.dict()));
    }
    const size_t r = i * (aff->size() / 10);
    const std::string name =
        dblp::AuthorName(static_cast<int>(aff->At(static_cast<RowId>(r), 0)));
    queries.push_back(MustParse(
        "Q(inst) :- Affiliation(aid,inst), Author(aid,\"" + name + "\").",
        &db.dict()));
  }

  size_t answers = 0;
  for (const Ucq& q : queries) {  // warm: plans, scratch, pooled manager
    auto res = engine.Query(q);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    answers += res->size();
  }
  ASSERT_GT(answers, queries.size());

  size_t total = 0, most = 0;
  for (const Ucq& q : queries) {
    g_allocs.store(0);
    g_counting.store(true);
    auto res = engine.Query(q);
    g_counting.store(false);
    ASSERT_TRUE(res.ok());
    total += g_allocs.load();
    most = std::max(most, g_allocs.load());
  }
  const double per_query =
      static_cast<double>(total) / static_cast<double>(queries.size());
  std::printf("[ alloc ] %zu queries, %zu answers: %.1f allocations per query,"
              " %zu at most\n", queries.size(), answers, per_query, most);
  EXPECT_LE(per_query, kMaxAllocsPerQuery);
}

}  // namespace
}  // namespace mvdb

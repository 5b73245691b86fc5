// Contract and allocation tests for peer::ConnectionTable and the
// per-connection state it owns.
//
// The contract cases pin what the peer modules rely on: ascending-id
// iteration, erase during iteration, stable Connection pointers and lookup
// of absent ids. The allocation cases pin the memory rule: an idle
// Connection allocates nothing, and a table's memory grows with the
// connections it holds, not with the largest remote id it has met. This
// binary replaces the global operator new with a byte counter for that;
// every replacement allocates through malloc and frees through free, so
// the pairing stays consistent under AddressSanitizer.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "peer/connection.h"

namespace {

std::atomic<std::size_t> g_allocated_bytes{0};
std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t bytes) {
  g_allocated_bytes.fetch_add(bytes, std::memory_order_relaxed);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(bytes == 0 ? 1 : bytes);
}

void* counted_aligned_malloc(std::size_t bytes, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  g_allocated_bytes.fetch_add(bytes, std::memory_order_relaxed);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, (bytes + a - 1) / a * a);
}

void* counted_new(std::size_t bytes) {
  void* p = counted_malloc(bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_new(std::size_t bytes, std::align_val_t align) {
  void* p = counted_aligned_malloc(bytes, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_new(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_new(n, a);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_malloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_malloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace swarmlab::peer {
namespace {

/// Bytes and allocations requested from the global operator new since
/// construction.
class AllocationCounter {
 public:
  [[nodiscard]] std::size_t bytes() const {
    return g_allocated_bytes.load(std::memory_order_relaxed) - bytes0_;
  }
  [[nodiscard]] std::size_t allocations() const {
    return g_allocations.load(std::memory_order_relaxed) - count0_;
  }

 private:
  std::size_t bytes0_ = g_allocated_bytes.load(std::memory_order_relaxed);
  std::size_t count0_ = g_allocations.load(std::memory_order_relaxed);
};

/// Makes `p` observable, so the compiler cannot elide the allocations of
/// the object behind it.
void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

Connection make(PeerId remote, double connected_at = 0.0) {
  Connection conn;
  conn.remote = remote;
  conn.connected_at = connected_at;
  return conn;
}

std::vector<PeerId> walk(const ConnectionTable& table) {
  std::vector<PeerId> ids;
  for (const Connection& conn : table) ids.push_back(conn.remote);
  return ids;
}

// --- contract -----------------------------------------------------------

TEST(ConnectionTable, IteratesInAscendingIdAfterOutOfOrderInserts) {
  ConnectionTable table;
  for (const PeerId r : {50u, 3u, 17u, 1u, 99u, 18u}) table.insert(make(r));
  const std::vector<PeerId> want = {1, 3, 17, 18, 50, 99};
  EXPECT_EQ(walk(table), want);
  EXPECT_EQ(table.remotes(), want);
  EXPECT_EQ(table.size(), want.size());
}

TEST(ConnectionTable, EraseDuringIterationVisitsEveryOtherEntryOnce) {
  ConnectionTable table;
  for (PeerId r = 1; r <= 10; ++r) table.insert(make(r));
  // Each visit erases the current entry; even ids also erase the next,
  // not yet visited, entry, which must then be skipped.
  std::vector<PeerId> visited;
  for (Connection& conn : table) {
    const PeerId r = conn.remote;
    visited.push_back(r);
    EXPECT_TRUE(table.erase(r));
    if (r % 2 == 0) {
      EXPECT_EQ(table.erase(r + 1), r + 1 <= 10);
    }
  }
  EXPECT_EQ(visited, (std::vector<PeerId>{1, 2, 4, 6, 8, 10}));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(walk(table).empty());
  EXPECT_TRUE(table.remotes().empty());
  for (PeerId r = 1; r <= 10; ++r) EXPECT_FALSE(table.contains(r));
}

TEST(ConnectionTable, ErasedIdCanBeReinsertedBeforeCompaction) {
  ConnectionTable table;
  for (const PeerId r : {1u, 2u, 3u}) table.insert(make(r));
  for (Connection& conn : table) {
    if (conn.remote == 2) table.erase(2);
  }
  EXPECT_FALSE(table.erase(2));
  EXPECT_EQ(table.remotes(), (std::vector<PeerId>{1, 3}));
  Connection& again = table.insert(make(2, 42.0));
  EXPECT_EQ(table.find(2), &again);
  EXPECT_EQ(table.find(2)->connected_at, 42.0);
  EXPECT_EQ(walk(table), (std::vector<PeerId>{1, 2, 3}));
  EXPECT_EQ(table.size(), 3u);
}

TEST(ConnectionTable, FindHandlesAbsentAndVeryLargeIds) {
  constexpr PeerId kMax = std::numeric_limits<PeerId>::max();
  ConnectionTable table;
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_EQ(table.find(kMax), nullptr);
  table.insert(make(5));
  table.insert(make(10'000'000));
  const ConnectionTable& view = table;
  EXPECT_EQ(view.find(kNoPeer), nullptr);
  EXPECT_EQ(view.find(4), nullptr);
  EXPECT_EQ(view.find(6), nullptr);
  EXPECT_EQ(view.find(kMax), nullptr);
  EXPECT_FALSE(view.contains(9'999'999));
  EXPECT_FALSE(view.contains(10'000'001));
  ASSERT_NE(view.find(10'000'000), nullptr);
  EXPECT_EQ(view.find(10'000'000)->remote, 10'000'000u);
  EXPECT_TRUE(view.contains(5));
  EXPECT_FALSE(table.erase(kMax));
  EXPECT_EQ(table.size(), 2u);
}

TEST(ConnectionTable, PointersStayStableAcrossOtherInsertsAndErases) {
  ConnectionTable table;
  Connection* ten = &table.insert(make(10, 10.0));
  Connection* twenty = &table.insert(make(20, 20.0));
  // Enough inserts on both sides to force the id vectors to regrow and
  // shift, with erases that leave nulled entries for compaction.
  for (PeerId r = 1; r <= 30; ++r) {
    if (r != 10 && r != 20) table.insert(make(r));
  }
  for (PeerId r = 3; r <= 30; r += 3) table.erase(r);
  for (PeerId r = 31; r <= 60; ++r) table.insert(make(r));
  EXPECT_EQ(table.find(10), ten);
  EXPECT_EQ(table.find(20), twenty);
  EXPECT_EQ(ten->connected_at, 10.0);
  EXPECT_EQ(twenty->connected_at, 20.0);
  EXPECT_EQ(table.size(), 60u - 10u);
}

// --- allocation ---------------------------------------------------------

TEST(ConnectionAllocation, DefaultConnectionAllocatesNothing) {
  const AllocationCounter counter;
  {
    Connection conn;
    escape(&conn);
  }
  const std::size_t allocations = counter.allocations();
  EXPECT_EQ(counter.bytes(), 0u) << allocations << " allocations";
}

TEST(ConnectionAllocation, TableMemoryGrowsWithConnectionsNotIds) {
  const AllocationCounter counter;
  {
    ConnectionTable table;
    table.insert(make(1));
    table.insert(make(10'000'000));
    escape(&table);
  }
  const std::size_t allocations = counter.allocations();
  EXPECT_LT(counter.bytes(), 64u * 1024u) << allocations << " allocations";
}

}  // namespace
}  // namespace swarmlab::peer

#include "periodica/util/arena.h"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace periodica::util {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(1024);
  std::vector<std::pair<unsigned char*, std::size_t>> blocks;
  for (std::size_t size : {1u, 7u, 64u, 100u, 3u, 513u}) {
    auto* p = static_cast<unsigned char*>(arena.Allocate(size, 16));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    std::memset(p, 0xAB, size);  // ASan catches any overlap/overflow
    blocks.emplace_back(p, size);
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (std::size_t j = i + 1; j < blocks.size(); ++j) {
      const bool disjoint = blocks[i].first + blocks[i].second <=
                                blocks[j].first ||
                            blocks[j].first + blocks[j].second <=
                                blocks[i].first;
      EXPECT_TRUE(disjoint) << "blocks " << i << " and " << j << " overlap";
    }
  }
  EXPECT_GT(arena.used_bytes(), 0u);
  EXPECT_GE(arena.allocated_bytes(), arena.used_bytes());
}

TEST(ArenaTest, OversizedBlockGetsItsOwnChunk) {
  Arena arena(256);
  void* small = arena.Allocate(16);
  ASSERT_NE(small, nullptr);
  const std::size_t chunks_before = arena.num_chunks();
  void* big = arena.Allocate(4096);
  ASSERT_NE(big, nullptr);
  EXPECT_GT(arena.num_chunks(), chunks_before);
  std::memset(big, 0, 4096);
}

TEST(ArenaTest, ResetDropsEverything) {
  Arena arena(512);
  for (int i = 0; i < 100; ++i) arena.Allocate(64);
  EXPECT_GT(arena.num_chunks(), 0u);
  arena.Reset();
  EXPECT_EQ(arena.num_chunks(), 0u);
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  // The arena is reusable after Reset.
  void* p = arena.Allocate(32);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0, 32);
}

struct Tracked {
  explicit Tracked(int value_in) : value(value_in) { ++live; }
  ~Tracked() { --live; }
  int value;
  char padding[40] = {};
  /// Slab::New/Delete run constructors and destructors outside the slab
  /// mutex, so concurrent churn updates this from several threads at once.
  ///
  /// Ordering: seq_cst (the default). Only the count matters; the tests read
  /// it after joining every thread that changed it.
  static std::atomic<int> live;
};
std::atomic<int> Tracked::live{0};

TEST(SlabTest, DeleteRecyclesSlotsInsteadOfGrowing) {
  Slab<Tracked> slab(8);
  std::vector<Tracked*> objects;
  objects.reserve(32);
  for (int i = 0; i < 32; ++i) objects.push_back(slab.New(i));
  EXPECT_EQ(slab.live(), 32u);
  EXPECT_EQ(Tracked::live.load(), 32);
  const std::size_t capacity = slab.capacity();
  // Pointers are stable and values intact.
  for (int i = 0; i < 32; ++i) EXPECT_EQ(objects[i]->value, i);

  for (Tracked* object : objects) slab.Delete(object);
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_EQ(Tracked::live.load(), 0);

  // Re-allocating the same count reuses the freelist: capacity is flat.
  std::set<Tracked*> recycled;
  objects.clear();
  for (int i = 0; i < 32; ++i) {
    Tracked* object = slab.New(100 + i);
    recycled.insert(object);
    objects.push_back(object);
  }
  EXPECT_EQ(slab.capacity(), capacity);
  EXPECT_EQ(recycled.size(), 32u);
  for (Tracked* object : objects) slab.Delete(object);
}

TEST(SlabTest, ConcurrentChurnKeepsAccounting) {
  Slab<Tracked> slab(16);
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&slab, t] {
      for (int i = 0; i < kRounds; ++i) {
        Tracked* a = slab.New(t * kRounds + i);
        Tracked* b = slab.New(-1);
        EXPECT_EQ(a->value, t * kRounds + i);
        slab.Delete(a);
        slab.Delete(b);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
  // Peak concurrent liveness is at most 2 per thread.
  EXPECT_LE(slab.capacity(), 2u * kThreads);
}

}  // namespace
}  // namespace periodica::util

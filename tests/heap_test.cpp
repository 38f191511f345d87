//===- tests/heap_test.cpp - Region heap unit tests -----------------------===//

#include "rt/Region.h"

#include <gtest/gtest.h>

using namespace rml;
using namespace rml::rt;

namespace {

TEST(Heap, GlobalRegionExists) {
  RegionHeap H;
  ASSERT_EQ(H.numRegions(), 1u);
  EXPECT_TRUE(H.region(0).Live);
  EXPECT_EQ(H.region(0).StaticId, 0u);
}

TEST(Heap, CreateAllocRelease) {
  RegionHeap H;
  uint32_t R = H.create(5, RegionKind::Mixed, 0);
  uint64_t *P = H.alloc(R, 3);
  ASSERT_NE(P, nullptr);
  P[0] = 1;
  P[1] = 2;
  P[2] = 3;
  EXPECT_EQ(H.Stats.AllocWords, 3u);
  EXPECT_TRUE(H.region(R).Live);
  H.release(R);
  EXPECT_FALSE(H.region(R).Live);
}

TEST(Heap, OwnerOfResolvesLivePointers) {
  RegionHeap H;
  uint32_t R1 = H.create(1, RegionKind::Mixed, 0);
  uint32_t R2 = H.create(2, RegionKind::Mixed, 0);
  uint64_t *P1 = H.alloc(R1, 2);
  uint64_t *P2 = H.alloc(R2, 2);
  EXPECT_EQ(H.ownerOf(P1), std::optional<uint32_t>(R1));
  EXPECT_EQ(H.ownerOf(P2), std::optional<uint32_t>(R2));
  EXPECT_EQ(H.ownerOf(P1 + 1), std::optional<uint32_t>(R1));
  uint64_t Local = 0;
  EXPECT_EQ(H.ownerOf(&Local), std::nullopt);
}

TEST(Heap, ReleasedPointersBecomeUnknown) {
  RegionHeap H;
  uint32_t R = H.create(7, RegionKind::Mixed, 0);
  uint64_t *P = H.alloc(R, 2);
  H.release(R);
  EXPECT_EQ(H.ownerOf(P), std::nullopt);
}

TEST(Heap, GraveyardIdentifiesDanglingTargets) {
  RegionHeap H;
  H.RetainReleasedPages = true;
  uint32_t R = H.create(9, RegionKind::Mixed, 0);
  uint64_t *P = H.alloc(R, 2);
  H.release(R);
  EXPECT_EQ(H.ownerOf(P), std::nullopt);
  // The graveyard remembers the *static* region id for diagnostics.
  EXPECT_EQ(H.graveyardOwnerOf(P), std::optional<uint32_t>(9));
}

TEST(Heap, MultiplePagesGrow) {
  RegionHeap H;
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  for (int I = 0; I < 1000; ++I)
    H.alloc(R, 3); // 3000 words > one 256-word page
  EXPECT_GT(H.pageCount(R), 1u);
  EXPECT_EQ(H.Stats.AllocWords, 3000u);
}

TEST(Heap, LargeObjectsGetOversizePages) {
  RegionHeap H;
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  uint64_t *P = H.alloc(R, 5000);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(H.ownerOf(P + 4999), std::optional<uint32_t>(R));
}

TEST(Heap, PoolReusesStandardPages) {
  RegionHeap H;
  uint32_t R1 = H.create(1, RegionKind::Mixed, 0);
  H.alloc(R1, 8);
  uint64_t Pages = H.Stats.PagesAllocated;
  H.release(R1);
  uint32_t R2 = H.create(2, RegionKind::Mixed, 0);
  H.alloc(R2, 8);
  EXPECT_EQ(H.Stats.PagesAllocated, Pages); // reused from the pool
}

TEST(Heap, FiniteRegionsUseExactBlocks) {
  RegionHeap H;
  uint64_t Before = H.Stats.CurrentHeapWords;
  uint32_t R = H.create(3, RegionKind::Pair, /*FiniteWords=*/2);
  EXPECT_TRUE(H.region(R).Finite);
  EXPECT_EQ(H.Stats.CurrentHeapWords - Before, 2u);
  EXPECT_EQ(H.Stats.FiniteRegionsCreated, 1u);
  uint64_t *P = H.alloc(R, 2);
  ASSERT_NE(P, nullptr);
  H.release(R);
}

TEST(Heap, PeakTracksHighWaterMark) {
  RegionHeap H;
  uint32_t R1 = H.create(1, RegionKind::Mixed, 0);
  H.alloc(R1, 100);
  uint64_t Peak1 = H.Stats.PeakHeapWords;
  H.release(R1);
  EXPECT_EQ(H.Stats.PeakHeapWords, Peak1);
  EXPECT_LT(H.Stats.CurrentHeapWords, Peak1);
}

TEST(Heap, RegionKindsStored) {
  RegionHeap H;
  uint32_t R = H.create(4, RegionKind::Cons, 0);
  EXPECT_EQ(H.region(R).Kind, RegionKind::Cons);
}

TEST(Heap, AllocSinceGcAccumulates) {
  RegionHeap H;
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  H.alloc(R, 10);
  H.alloc(R, 5);
  EXPECT_EQ(H.allocSinceGc(), 15u);
  H.resetAllocSinceGc();
  EXPECT_EQ(H.allocSinceGc(), 0u);
}

} // namespace

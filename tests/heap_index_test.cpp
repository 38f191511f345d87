//===- tests/heap_index_test.cpp - Page index vs an ordered-map model -----===//
//
// RegionHeap answers ownerOf, isOldAddr, inFromSpace and graveyardOwnerOf
// from a hashed page index instead of an ordered address map. This
// differential drives random create / alloc / release / detachPages /
// dropFromSpace / sealLivePages sequences, with RetainReleasedPages on
// and off, and checks every answer against a std::map model the test
// keeps itself: page start -> (end, owner, old, from-space), plus a
// graveyard map of released pages. The model learns only where each
// new page lives (from the region's newest page); ownership, age,
// from-space membership, release and liveness are its own bookkeeping.
// liveRegions() must equal the model's live handles in creation order.
// Labelled `mem`.
//
//===----------------------------------------------------------------------===//

#include "rt/Region.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <vector>

using namespace rml;
using namespace rml::rt;

namespace {

struct ModelPage {
  uintptr_t End;
  uint32_t Owner;
  bool Old = false;
  bool FromSpace = false;
};

class HeapModel {
public:
  std::map<uintptr_t, ModelPage> Pages;
  std::map<uintptr_t, std::pair<uintptr_t, uint32_t>> Graveyard;
  std::vector<uint32_t> Live{0};
  std::vector<uint32_t> StaticOf{0}; // handle -> static id
  std::vector<uintptr_t> Seen;       // every page start ever indexed

  /// Records \p H's newest page of \p Handle if the model does not know
  /// it yet (a fresh or recycled page).
  void learnNewest(const RegionHeap &H, uint32_t Handle) {
    uint32_t Id = H.region(Handle).Pages.Last;
    if (Id == RegionHeap::NoPage)
      return;
    const RegionHeap::Page &P = H.page(Id);
    uintptr_t Start = reinterpret_cast<uintptr_t>(P.Words.get());
    auto It = Pages.find(Start);
    if (It != Pages.end() && It->second.Owner == Handle &&
        !It->second.FromSpace)
      return;
    ASSERT_TRUE(It == Pages.end()) << "a page indexed twice";
    Pages[Start] = ModelPage{Start + P.Cap * 8, Handle};
    Seen.push_back(Start);
  }

  const ModelPage *find(uintptr_t Addr) const {
    auto It = Pages.upper_bound(Addr);
    if (It == Pages.begin())
      return nullptr;
    --It;
    return Addr < It->second.End ? &It->second : nullptr;
  }

  std::optional<uint32_t> graveOwner(uintptr_t Addr) const {
    auto It = Graveyard.upper_bound(Addr);
    if (It == Graveyard.begin())
      return std::nullopt;
    --It;
    if (Addr < It->second.first)
      return It->second.second;
    return std::nullopt;
  }
};

void checkAgainstModel(const RegionHeap &H, const HeapModel &M) {
  EXPECT_EQ(H.liveRegions(), M.Live);
  std::vector<uintptr_t> Probes;
  for (const auto &[Start, P] : M.Pages) {
    Probes.push_back(Start);
    Probes.push_back(Start + (P.End - Start) / 2);
    Probes.push_back(P.End - 8);
    Probes.push_back(P.End);
  }
  for (uintptr_t Start : M.Seen) {
    Probes.push_back(Start);
    Probes.push_back(Start + 8);
    Probes.push_back(Start - 8);
  }
  uint64_t Local = 0;
  Probes.push_back(reinterpret_cast<uintptr_t>(&Local));
  for (uintptr_t Addr : Probes) {
    const uint64_t *P = reinterpret_cast<const uint64_t *>(Addr);
    const ModelPage *Want = M.find(Addr);
    ASSERT_EQ(H.ownerOf(P), Want ? std::optional<uint32_t>(Want->Owner)
                                 : std::nullopt)
        << "address " << Addr;
    ASSERT_EQ(H.isOldAddr(P), Want && Want->Old) << "address " << Addr;
    ASSERT_EQ(H.inFromSpace(P), Want && Want->FromSpace)
        << "address " << Addr;
    ASSERT_EQ(H.graveyardOwnerOf(P), M.graveOwner(Addr))
        << "address " << Addr;
  }
}

void runRandomSequence(uint32_t Seed, bool Retain) {
  std::mt19937 Rng(Seed);
  auto Pick = [&](size_t N) {
    return std::uniform_int_distribution<size_t>(0, N - 1)(Rng);
  };
  RegionHeap H;
  H.RetainReleasedPages = Retain;
  HeapModel M;
  // Detached page lists awaiting dropFromSpace, with their region.
  std::vector<std::pair<uint32_t, RegionHeap::PageList>> Detached;

  for (int Step = 0; Step < 1500; ++Step) {
    size_t Op = Pick(100);
    if (Op < 15) { // create, a third of them finite
      uint32_t Static = 1 + static_cast<uint32_t>(Pick(40));
      unsigned Finite = Pick(3) == 0 ? 1 + static_cast<unsigned>(Pick(20)) : 0;
      uint32_t Handle = H.create(Static, RegionKind::Mixed, Finite);
      M.Live.push_back(Handle);
      M.StaticOf.push_back(Static);
      M.learnNewest(H, Handle);
    } else if (Op < 70) { // alloc: small, page-straddling or oversized
      uint32_t Handle = M.Live[Pick(M.Live.size())];
      size_t Words = Pick(20) == 0 ? 257 + Pick(600) : 1 + Pick(8);
      uint64_t *Obj = H.alloc(Handle, Words);
      ASSERT_NE(Obj, nullptr);
      M.learnNewest(H, Handle);
    } else if (Op < 85) { // release any live region but the global one
      if (M.Live.size() < 2)
        continue;
      size_t I = 1 + Pick(M.Live.size() - 1);
      uint32_t Handle = M.Live[I];
      H.release(Handle);
      M.Live.erase(M.Live.begin() + static_cast<long>(I));
      for (auto It = M.Pages.begin(); It != M.Pages.end();) {
        if (It->second.Owner == Handle && !It->second.FromSpace) {
          if (Retain)
            M.Graveyard[It->first] = {It->second.End, M.StaticOf[Handle]};
          It = M.Pages.erase(It);
        } else {
          ++It;
        }
      }
    } else if (Op < 92) { // detach (major or minor)
      uint32_t Handle = M.Live[Pick(M.Live.size())];
      bool YoungOnly = Pick(2) == 0;
      Detached.emplace_back(Handle, H.detachPages(Handle, YoungOnly));
      for (auto &[Start, P] : M.Pages)
        if (P.Owner == Handle && !P.FromSpace && !(YoungOnly && P.Old))
          P.FromSpace = true;
    } else if (Op < 97) { // drop every pending from-space list
      for (auto &[Handle, List] : Detached)
        H.dropFromSpace(List);
      Detached.clear();
      for (auto It = M.Pages.begin(); It != M.Pages.end();)
        It = It->second.FromSpace ? M.Pages.erase(It) : std::next(It);
    } else { // seal: every live, attached page becomes old
      H.sealLivePages();
      for (auto &[Start, P] : M.Pages)
        if (!P.FromSpace &&
            std::find(M.Live.begin(), M.Live.end(), P.Owner) != M.Live.end())
          P.Old = true;
    }
    checkAgainstModel(H, M);
    if (::testing::Test::HasFatalFailure())
      return;
  }
  for (auto &[Handle, List] : Detached)
    H.dropFromSpace(List);
}

TEST(HeapIndex, AgreesWithAnOrderedMapModelReusingPages) {
  for (uint32_t Seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(Seed);
    runRandomSequence(Seed, /*Retain=*/false);
    if (HasFatalFailure())
      return;
  }
}

TEST(HeapIndex, AgreesWithAnOrderedMapModelRetainingPages) {
  for (uint32_t Seed : {5u, 6u, 7u, 8u}) {
    SCOPED_TRACE(Seed);
    runRandomSequence(Seed, /*Retain=*/true);
    if (HasFatalFailure())
      return;
  }
}

} // namespace

//===- rt/Region.cpp ------------------------------------------------------===//

#include "rt/Region.h"

#include "rt/PagePool.h"

#include <algorithm>
#include <cassert>

using namespace rml;
using namespace rml::rt;

RegionHeap::RegionHeap() {
  // Handle 0 is the global region, always live. profiles() leaves its
  // profile out until something is allocated there.
  Region Global;
  Global.Live = true;
  Global.Profile = profileSlot(0);
  Regions.push_back(Global);
  Live.push_back(0);
  Stats.RegionsCreated = 1;
}

RegionHeap::~RegionHeap() {
  // Recycle standard pages into the shared pool so the next request's
  // heap reuses them. Quarantine under exact dangling detection: a
  // detecting heap's pages (graveyard and live alike) never enter the
  // pool, so no other heap can be handed a page the detector could
  // still attribute to one of this heap's dead regions.
  if (!SharedPool || RetainReleasedPages)
    return;
  std::vector<std::unique_ptr<uint64_t[]>> Standard;
  Standard.reserve(Pool.size());
  for (uint32_t Handle : Live)
    for (uint32_t Id = Regions[Handle].Pages.First; Id != NoPage;
         Id = Pages[Id].Next)
      if (Pages[Id].Cap == PageWords)
        Standard.push_back(std::move(Pages[Id].Words));
  for (uint32_t Id : Pool)
    Standard.push_back(std::move(Pages[Id].Words));
  // One batched hand-off: the shared pool's shard is touched once per
  // heap, not once per page.
  SharedPool->releaseMany(std::move(Standard));
}

uint32_t RegionHeap::takeRecord() {
  if (!FreeRecords.empty()) {
    uint32_t Id = FreeRecords.back();
    FreeRecords.pop_back();
    return Id;
  }
  Pages.emplace_back();
  return static_cast<uint32_t>(Pages.size() - 1);
}

uint32_t RegionHeap::newPage(size_t CapWords) {
  uint32_t Id;
  if (CapWords == PageWords && !Pool.empty()) {
    Id = Pool.back();
    Pool.pop_back();
  } else {
    std::unique_ptr<uint64_t[]> Buf;
    // The local free list is empty: try the cross-request pool before
    // the allocator. Standard pages only; finite-region blocks bypass it.
    if (CapWords == PageWords && SharedPool && !RetainReleasedPages)
      Buf = SharedPool->acquire();
    if (Buf) {
      ++Stats.PagesFromSharedPool;
    } else {
      Buf = std::make_unique<uint64_t[]>(CapWords);
      ++Stats.PagesAllocated;
    }
    Id = takeRecord();
    Pages[Id].Words = std::move(Buf);
    Pages[Id].Cap = CapWords;
  }
  Page &P = Pages[Id];
  P.Used = 0;
  P.Old = false;
  P.FromSpace = false;
  P.Next = NoPage;
  Stats.CurrentHeapWords += P.Cap;
  Stats.PeakHeapWords = std::max(Stats.PeakHeapWords, Stats.CurrentHeapWords);
  return Id;
}

void RegionHeap::retirePage(uint32_t Id) {
  Page &P = Pages[Id];
  assert(Stats.CurrentHeapWords >= P.Cap && "heap accounting underflow");
  Stats.CurrentHeapWords -= P.Cap;
  if (RetainReleasedPages)
    return; // the record keeps its memory: never reused
  if (P.Cap == PageWords) {
    Pool.push_back(Id);
    return;
  }
  // Non-standard (finite and oversized) blocks are simply freed.
  P.Words.reset();
  FreeRecords.push_back(Id);
}

void RegionHeap::appendPage(PageList &L, uint32_t Id) {
  if (L.Last == NoPage)
    L.First = Id;
  else
    Pages[L.Last].Next = Id;
  L.Last = Id;
}

uint32_t RegionHeap::profileSlot(uint32_t StaticId) {
  auto [It, Inserted] = ProfileIndex.try_emplace(
      StaticId, static_cast<uint32_t>(Profiles.size()));
  if (Inserted) {
    RegionProfile Prof;
    Prof.StaticId = StaticId;
    Profiles.push_back(Prof);
  }
  return It->second;
}

uint32_t RegionHeap::create(uint32_t StaticId, RegionKind Kind,
                            unsigned FiniteWords) {
  uint32_t Handle = static_cast<uint32_t>(Regions.size());
  Region R;
  R.StaticId = StaticId;
  R.Kind = Kind;
  R.Finite = FiniteWords != 0;
  R.Live = true;
  R.Profile = profileSlot(StaticId);
  Regions.push_back(R);
  Live.push_back(Handle);
  ++Stats.RegionsCreated;
  RegionProfile &Prof = Profiles[R.Profile];
  Prof.Kind = Kind;
  Prof.Finite = FiniteWords != 0;
  ++Prof.Instances;
  if (FiniteWords != 0) {
    ++Stats.FiniteRegionsCreated;
    uint32_t Id = newPage(FiniteWords);
    Pages[Id].Region = Handle;
    indexPage(Id);
    appendPage(Regions[Handle].Pages, Id);
  }
  return Handle;
}

void RegionHeap::release(uint32_t Handle) {
  Region &R = Regions[Handle];
  assert(R.Live && "double release of a region");
  R.Live = false;
  // Regions die in stack order, so the handle is almost always on top.
  auto It = std::find(Live.rbegin(), Live.rend(), Handle);
  if (It != Live.rend())
    Live.erase(std::next(It).base());
  for (uint32_t Id = R.Pages.First; Id != NoPage;) {
    uint32_t Next = Pages[Id].Next;
    if (RetainReleasedPages)
      Graveyard.push_back(Id);
    unindexPage(Id);
    retirePage(Id);
    Id = Next;
  }
  R.Pages = PageList();
}

uint64_t *RegionHeap::alloc(uint32_t Handle, size_t Words) {
  assert(Words > 0 && "empty allocation");
  Region &R = Regions[Handle];
  assert(R.Live && "allocation into a dead region");
  Stats.AllocWords += Words;
  AllocSinceGc += Words;
  Profiles[R.Profile].AllocWords += Words;
  uint32_t Id = R.Pages.Last;
  if (Id == NoPage || Pages[Id].Old || Pages[Id].Used + Words > Pages[Id].Cap) {
    Id = newPage(std::max(Words, PageWords));
    Pages[Id].Region = Handle;
    indexPage(Id);
    appendPage(R.Pages, Id);
  }
  Page &P = Pages[Id];
  uint64_t *Out = P.Words.get() + P.Used;
  P.Used += Words;
  return Out;
}

std::optional<uint32_t>
RegionHeap::graveyardOwnerOf(const uint64_t *Ptr) const {
  // Diagnostics only (one call per detected dangling pointer): a scan.
  // Retained pages are never freed, so their ranges never overlap.
  uintptr_t Addr = reinterpret_cast<uintptr_t>(Ptr);
  for (uint32_t Id : Graveyard) {
    const Page &P = Pages[Id];
    uintptr_t Start = reinterpret_cast<uintptr_t>(P.Words.get());
    if (Addr >= Start && Addr < Start + P.Cap * 8)
      return Regions[P.Region].StaticId;
  }
  return std::nullopt;
}

size_t RegionHeap::pageCount(uint32_t Handle) const {
  size_t N = 0;
  for (uint32_t Id = Regions[Handle].Pages.First; Id != NoPage;
       Id = Pages[Id].Next)
    ++N;
  return N;
}

RegionHeap::PageList RegionHeap::detachPages(uint32_t Handle,
                                             bool YoungOnly) {
  Region &R = Regions[Handle];
  // Pages stay indexed so the collector can resolve from-space
  // pointers; dropFromSpace unindexes them.
  PageList Young, Kept;
  for (uint32_t Id = R.Pages.First; Id != NoPage;) {
    uint32_t Next = Pages[Id].Next;
    Pages[Id].Next = NoPage;
    if (YoungOnly && Pages[Id].Old) {
      appendPage(Kept, Id);
    } else {
      Pages[Id].FromSpace = true;
      appendPage(Young, Id);
    }
    Id = Next;
  }
  R.Pages = Kept;
  return Young;
}

void RegionHeap::dropFromSpace(PageList Detached) {
  for (uint32_t Id = Detached.First; Id != NoPage;) {
    uint32_t Next = Pages[Id].Next;
    unindexPage(Id);
    Pages[Id].FromSpace = false;
    retirePage(Id);
    Id = Next;
  }
}

void RegionHeap::sealLivePages() {
  for (uint32_t Handle : Live)
    for (uint32_t Id = Regions[Handle].Pages.First; Id != NoPage;
         Id = Pages[Id].Next)
      Pages[Id].Old = true;
}

std::vector<RegionProfile> RegionHeap::profiles() const {
  std::vector<RegionProfile> Out;
  for (const RegionProfile &P : Profiles)
    if (P.Instances != 0 || P.AllocWords != 0)
      Out.push_back(P);
  // Static-id order first: the allocation-weight sort below then sees
  // the same input sequence whatever order the slots were made in.
  std::sort(Out.begin(), Out.end(),
            [](const RegionProfile &A, const RegionProfile &B) {
              return A.StaticId < B.StaticId;
            });
  std::sort(Out.begin(), Out.end(),
            [](const RegionProfile &A, const RegionProfile &B) {
              return A.AllocWords > B.AllocWords;
            });
  return Out;
}

//===----------------------------------------------------------------------===//
// The page index
//===----------------------------------------------------------------------===//

size_t RegionHeap::bucketHome(uintptr_t Granule) const {
  // Fibonacci hashing onto the power-of-two table.
  uint64_t H = static_cast<uint64_t>(Granule) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(H >> 32) & (Buckets.size() - 1);
}

RegionHeap::Bucket &RegionHeap::bucketFor(uintptr_t Granule) {
  if ((BucketsUsed + 1) * 2 > Buckets.size()) {
    // Grow (never shrink) and reinsert: the table stays at most half
    // full, so probe runs stay short.
    std::vector<Bucket> Old = std::move(Buckets);
    Buckets.assign(std::max<size_t>(64, Old.size() * 2), Bucket{});
    const size_t Mask = Buckets.size() - 1;
    for (const Bucket &B : Old) {
      if (B.Granule == 0)
        continue;
      size_t I = bucketHome(B.Granule);
      while (Buckets[I].Granule != 0)
        I = (I + 1) & Mask;
      Buckets[I] = B;
    }
  }
  const size_t Mask = Buckets.size() - 1;
  size_t I = bucketHome(Granule);
  while (Buckets[I].Granule != 0 && Buckets[I].Granule != Granule)
    I = (I + 1) & Mask;
  if (Buckets[I].Granule == 0) {
    Buckets[I].Granule = Granule;
    ++BucketsUsed;
  }
  return Buckets[I];
}

void RegionHeap::eraseBucket(size_t I) {
  // Backward-shift deletion keeps every probe run gap-free.
  const size_t Mask = Buckets.size() - 1;
  for (size_t J = (I + 1) & Mask; Buckets[J].Granule != 0;
       J = (J + 1) & Mask) {
    size_t Home = bucketHome(Buckets[J].Granule);
    // Move J into the hole at I unless its home lies cyclically in
    // (I, J].
    bool HomeBetween = I <= J ? (Home > I && Home <= J)
                              : (Home > I || Home <= J);
    if (!HomeBetween) {
      Buckets[I] = Buckets[J];
      I = J;
    }
  }
  Buckets[I] = Bucket{};
  --BucketsUsed;
}

void RegionHeap::indexPage(uint32_t Id) {
  const Page &P = Pages[Id];
  uintptr_t Start = reinterpret_cast<uintptr_t>(P.Words.get());
  uintptr_t Last = Start + P.Cap * 8 - 1;
  for (uintptr_t G = Start >> GranuleShift; G <= Last >> GranuleShift; ++G) {
    uint32_t L;
    if (FreeLink != NoPage) {
      L = FreeLink;
      FreeLink = Links[L].Next;
    } else {
      L = static_cast<uint32_t>(Links.size());
      Links.push_back(Link{});
    }
    Bucket &B = bucketFor(G);
    Links[L] = Link{Id, B.Head};
    B.Head = L;
  }
}

void RegionHeap::unindexPage(uint32_t Id) {
  const Page &P = Pages[Id];
  uintptr_t Start = reinterpret_cast<uintptr_t>(P.Words.get());
  uintptr_t Last = Start + P.Cap * 8 - 1;
  const size_t Mask = Buckets.size() - 1;
  for (uintptr_t G = Start >> GranuleShift; G <= Last >> GranuleShift; ++G) {
    size_t I = bucketHome(G);
    while (Buckets[I].Granule != G)
      I = (I + 1) & Mask;
    uint32_t *Prev = &Buckets[I].Head;
    while (Links[*Prev].Page != Id)
      Prev = &Links[*Prev].Next;
    uint32_t L = *Prev;
    *Prev = Links[L].Next;
    Links[L].Next = FreeLink;
    FreeLink = L;
    if (Buckets[I].Head == NoPage)
      eraseBucket(I);
  }
}

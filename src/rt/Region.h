//===- rt/Region.h - Region heap --------------------------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MLKit-style region heap: a region is a growable list of fixed-size
/// pages; letregion pushes a region, its closing pops and releases the
/// pages. *Finite* regions (multiplicity analysis) hold one exact-size
/// block instead of a page. The heap tracks which pages belong to which
/// region so that the collector can (a) preserve region identity while
/// copying and (b) detect pointers into deallocated regions — the
/// dangling pointers whose absence the paper's type system guarantees.
///
//===----------------------------------------------------------------------===//

#ifndef RML_RT_REGION_H
#define RML_RT_REGION_H

#include "rinfer/RegionKinds.h"
#include "rt/PagePool.h"
#include "rt/Value.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace rml::rt {

/// Per-static-region runtime profile (the MLKit region profiler's
/// per-region view): how many times the letregion executed and how many
/// words were allocated into its instances.
struct RegionProfile {
  uint32_t StaticId = 0;
  RegionKind Kind = RegionKind::Empty;
  uint64_t Instances = 0;
  uint64_t AllocWords = 0;
  bool Finite = false;
};

/// Runtime heap statistics (the "rss" and "gc #" columns of Figure 9).
struct HeapStats {
  uint64_t AllocWords = 0;       // total words ever allocated
  uint64_t CurrentHeapWords = 0; // words in pages currently held
  uint64_t PeakHeapWords = 0;    // high-water mark (the rss analogue)
  uint64_t GcCount = 0;    // all collections
  uint64_t MinorGcCount = 0;
  uint64_t MajorGcCount = 0;
  uint64_t CopiedWords = 0;      // evacuated by the collector
  uint64_t RegionsCreated = 0;
  uint64_t FiniteRegionsCreated = 0;
  uint64_t PagesAllocated = 0;       // fresh pages from the allocator
  uint64_t PagesFromSharedPool = 0;  // standard pages recycled via PagePool

  uint64_t peakBytes() const { return PeakHeapWords * 8; }
};

class RegionHeap {
public:
  /// 2 KiB pages — the pool's buffer unit is the single source of truth.
  static constexpr size_t PageWords = PagePool::PageWords;
  /// "No page" in every page-id link.
  static constexpr uint32_t NoPage = UINT32_MAX;

  /// One standard page, oversized page or finite-region block. Records
  /// live in one table and are addressed by id; a region (or a detached
  /// from-space list) chains its pages oldest first through Next.
  struct Page {
    std::unique_ptr<uint64_t[]> Words;
    size_t Used = 0;
    size_t Cap = 0;
    uint32_t Region = 0;    ///< owning handle (kept after release)
    uint32_t Next = NoPage; ///< next younger page in the same chain
    /// Generational extension: pages that survived a collection are
    /// *old*; minor collections evacuate young pages only (Elsman &
    /// Hallenberg's region+generation integration, the paper's [16,17]).
    bool Old = false;
    /// Detached by detachPages and not yet dropped: the collector's
    /// from-space.
    bool FromSpace = false;
  };

  /// A chain of pages, oldest first: a region's, or one detached from
  /// it. Last is the bump-allocation target.
  struct PageList {
    uint32_t First = NoPage, Last = NoPage;
  };

  struct Region {
    uint32_t StaticId = 0; // region variable id (diagnostics)
    RegionKind Kind = RegionKind::Mixed;
    bool Finite = false;
    bool Live = false;
    uint32_t Profile = 0; ///< profile-table slot
    PageList Pages;
  };

  /// When set, released pages are never reused, so every dangling pointer
  /// is detected exactly (used by the rg- demonstrations; benchmarks run
  /// with reuse on).
  bool RetainReleasedPages = false;

  /// Optional process-wide pool of standard pages (cross-request reuse;
  /// see rt/PagePool.h). Standard-page demand that misses the local free
  /// list is served from here, and on heap destruction the heap's
  /// standard pages are recycled into it. Quarantined whenever
  /// RetainReleasedPages is on: exact dangling detection must be able to
  /// attribute every released page to its dead region, so a detecting
  /// heap neither feeds the pool nor draws from it.
  PagePool *SharedPool = nullptr;

  explicit RegionHeap();
  ~RegionHeap();

  /// Creates a region; returns its runtime handle. \p FiniteWords != 0
  /// requests a finite region with an exact-size block.
  uint32_t create(uint32_t StaticId, RegionKind Kind,
                  unsigned FiniteWords = 0);

  /// Releases a region: its pages go back to the pool (or the graveyard
  /// when RetainReleasedPages).
  void release(uint32_t Handle);

  /// Bump-allocates \p Words words in \p Handle. Never GCs — the
  /// evaluator polices collection points.
  uint64_t *alloc(uint32_t Handle, size_t Words);

  /// The region owning \p P, if P points into a live region's pages
  /// (or into from-space during a collection). Returns std::nullopt for
  /// unknown addresses (released-and-unreused pages, foreign memory).
  std::optional<uint32_t> ownerOf(const uint64_t *P) const {
    uint32_t Id = pageAt(reinterpret_cast<uintptr_t>(P));
    if (Id == NoPage)
      return std::nullopt;
    return Pages[Id].Region;
  }

  /// True when \p P points into an old page (the write-barrier test).
  bool isOldAddr(const uint64_t *P) const {
    uint32_t Id = pageAt(reinterpret_cast<uintptr_t>(P));
    return Id != NoPage && Pages[Id].Old;
  }

  /// True when \p P points into a page detached by detachPages and not
  /// yet dropped (the collector's from-space test).
  bool inFromSpace(const uint64_t *P) const {
    uint32_t Id = pageAt(reinterpret_cast<uintptr_t>(P));
    return Id != NoPage && Pages[Id].FromSpace;
  }

  /// For dangling-pointer diagnostics: the static region id a released
  /// page belonged to (graveyard mode only).
  std::optional<uint32_t> graveyardOwnerOf(const uint64_t *P) const;

  Region &region(uint32_t Handle) { return Regions[Handle]; }
  const Region &region(uint32_t Handle) const { return Regions[Handle]; }
  size_t numRegions() const { return Regions.size(); }
  const Page &page(uint32_t Id) const { return Pages[Id]; }
  /// Pages \p Handle currently holds.
  size_t pageCount(uint32_t Handle) const;

  /// Live regions' handles in creation order (for the collector).
  const std::vector<uint32_t> &liveRegions() const { return Live; }

  /// Collector support: detaches a region's pages (from-space) and leaves
  /// it empty for evacuation; with \p YoungOnly, old pages stay in place
  /// (minor collection). The detached pages stay indexed (marked
  /// from-space) until dropFromSpace.
  PageList detachPages(uint32_t Handle, bool YoungOnly = false);
  void dropFromSpace(PageList Detached);

  /// Marks every live page old (after a collection, survivors only) and
  /// forces the next allocation in each region onto a fresh young page.
  void sealLivePages();

  /// Words allocated since the last collection (GC trigger input).
  uint64_t allocSinceGc() const { return AllocSinceGc; }
  void resetAllocSinceGc() { AllocSinceGc = 0; }

  HeapStats Stats;

  /// The per-static-region profiles, sorted by allocated words
  /// (descending).
  std::vector<RegionProfile> profiles() const;

private:
  uint32_t newPage(size_t CapWords);
  uint32_t takeRecord();
  void retirePage(uint32_t Id);
  void appendPage(PageList &L, uint32_t Id);
  uint32_t profileSlot(uint32_t StaticId);

  //===--- The page index ---------------------------------------------===//
  // Every indexed page is linked under each 2 KiB address granule it
  // overlaps; a lookup hashes the address's granule and range-checks
  // the (one or two, for standard pages) pages linked there. The bucket
  // table and the link pool only grow, so indexing and unindexing a
  // page allocate nothing in steady state.
  static constexpr unsigned GranuleShift = 11;
  struct Link {
    uint32_t Page;
    uint32_t Next;
  };
  struct Bucket {
    uintptr_t Granule = 0; ///< 0 = empty (no heap page lives there)
    uint32_t Head = NoPage;
  };
  void indexPage(uint32_t Id);
  void unindexPage(uint32_t Id);
  size_t bucketHome(uintptr_t Granule) const;
  Bucket &bucketFor(uintptr_t Granule);
  void eraseBucket(size_t I);
  uint32_t pageAt(uintptr_t Addr) const {
    if (Buckets.empty())
      return NoPage;
    const uintptr_t G = Addr >> GranuleShift;
    const size_t Mask = Buckets.size() - 1;
    for (size_t I = bucketHome(G);; I = (I + 1) & Mask) {
      const Bucket &B = Buckets[I];
      if (B.Granule == G) {
        for (uint32_t L = B.Head; L != NoPage; L = Links[L].Next) {
          const Page &P = Pages[Links[L].Page];
          const uintptr_t Start = reinterpret_cast<uintptr_t>(P.Words.get());
          if (Addr >= Start && Addr < Start + P.Cap * 8)
            return Links[L].Page;
        }
        return NoPage;
      }
      if (B.Granule == 0)
        return NoPage;
    }
  }

  std::vector<Region> Regions;
  std::vector<uint32_t> Live; // live handles, creation order
  std::vector<Page> Pages;    // every page record, by id
  std::vector<uint32_t> FreeRecords; // bufferless record ids
  std::vector<uint32_t> Pool;        // reusable standard pages (LIFO)
  /// Pages released under RetainReleasedPages, for graveyardOwnerOf.
  std::vector<uint32_t> Graveyard;
  std::vector<Bucket> Buckets; // power-of-two size, linear probing
  size_t BucketsUsed = 0;
  std::vector<Link> Links;
  uint32_t FreeLink = NoPage;
  uint64_t AllocSinceGc = 0;
  std::vector<RegionProfile> Profiles;
  std::unordered_map<uint32_t, uint32_t> ProfileIndex; // static id -> slot
};

} // namespace rml::rt

#endif // RML_RT_REGION_H

//===- tests/flat_test.cpp - Flat runnable IR -----------------------------===//
//
// The flat, offset-based compiled form (src/flat) and its execution
// path: serialisation round trips are byte-identical, every manufactured
// corruption — truncation at each prefix, every single-bit flip, random
// garbage, out-of-range indices — fails closed to a null decode, the
// disk tier counts a damaged or missing flat section and an old-format
// entry as load rejections, a decoded unit runs exactly like the
// in-memory one, and a warm service restart executes Run=true straight
// from disk with zero compile phases. Labelled `flat` in ctest and
// expected to be clean under -DRML_SANITIZE=thread.
//
//===----------------------------------------------------------------------===//

#include "flat/Flat.h"

#include "RunRow.h"

#include "core/Pipeline.h"
#include "rt/FlatEval.h"
#include "service/DiskCache.h"
#include "service/Service.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

using namespace rml;
using namespace rml::service;

namespace fs = std::filesystem;

namespace {

/// A program that exercises every node kind worth serialising: region
/// polymorphism through compose, lists and pattern matching, strings,
/// refs with a write barrier, exceptions raised and handled, and print.
const char *RichProgram = R"(
exception Overflow of int
fun compose fg = fn x => #1 fg (#2 fg x)
fun len xs = case xs of nil => 0 | h :: t => 1 + len t
fun rev xs acc = case xs of nil => acc | h :: t => rev t (h :: acc)
fun guard n = if n > 20 then raise Overflow n else n
;let val cell = ref 7
     val words = "oh" :: "no" :: "ok" :: nil
     val h = compose (fn x => x + 1, fn x => x * 2)
     val r = (print ("len=" ^ itos (len (rev words nil)));
              cell := h 9; !cell + len words)
 in (guard r handle Overflow n => n - 1) + size "abc" end
)";

/// Small and fast: the subject of the exhaustive bit-flip sweep.
const char *SmallProgram = "fun id x = x\n;id 1 + id 2";

struct ScratchDir {
  fs::path Path;
  explicit ScratchDir(const std::string &Name) {
    Path = fs::path(::testing::TempDir()) / ("rml_flat_" + Name);
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }
};

std::string readFileBytes(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const fs::path &P, const std::string &Bytes) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// Compiles \p Src under \p Strat and returns the unit's encoded flat
/// bytes (asserting the compile worked).
std::string flatBytesOf(const char *Src, Strategy Strat = Strategy::Rg) {
  Compiler C;
  CompileOptions Opts;
  Opts.Strat = Strat;
  auto Unit = C.compile(Src, Opts);
  EXPECT_NE(Unit, nullptr) << C.diagnostics().str();
  if (!Unit)
    return std::string();
  EXPECT_NE(Unit->Flat, nullptr);
  return flat::encodeFlat(*Unit->Flat);
}

//===----------------------------------------------------------------------===//
// Round trips and determinism
//===----------------------------------------------------------------------===//

TEST(FlatEncoding, RoundTripIsByteIdentical) {
  for (Strategy Strat : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
    SCOPED_TRACE(strategyName(Strat));
    std::string Bytes = flatBytesOf(RichProgram, Strat);
    ASSERT_FALSE(Bytes.empty());
    std::shared_ptr<const flat::FlatUnit> Decoded = flat::decodeFlat(Bytes);
    ASSERT_NE(Decoded, nullptr);
    // decode . encode is the identity on bytes — the invariant that
    // makes the persisted form trustworthy across processes.
    EXPECT_EQ(flat::encodeFlat(*Decoded), Bytes);
    // And once more through the cycle, for fixpoint paranoia.
    std::shared_ptr<const flat::FlatUnit> Again =
        flat::decodeFlat(flat::encodeFlat(*Decoded));
    ASSERT_NE(Again, nullptr);
    EXPECT_EQ(flat::encodeFlat(*Again), Bytes);
  }
}

TEST(FlatEncoding, IndependentCompilersEncodeIdentically) {
  // Byte-determinism across Compiler instances is what lets the disk
  // tier treat "file already exists" as "already this entry".
  EXPECT_EQ(flatBytesOf(RichProgram), flatBytesOf(RichProgram));
  EXPECT_EQ(flatBytesOf(SmallProgram, Strategy::R),
            flatBytesOf(SmallProgram, Strategy::R));
}

TEST(FlatEncoding, StrategiesEncodeDifferently) {
  // The strategy is part of the unit (it gates GC at run time), so the
  // three strategies must not alias one another's bytes.
  EXPECT_NE(flatBytesOf(RichProgram, Strategy::Rg),
            flatBytesOf(RichProgram, Strategy::RgMinus));
}

TEST(FlatEncoding, DecodedUnitRunsLikeTheInMemoryUnit) {
  // The disk tier runs decodeFlat(encodeFlat(U)); it must observe
  // exactly what the compile's own unit does, down to heap accounting.
  for (Strategy Strat : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
    SCOPED_TRACE(strategyName(Strat));
    Compiler C;
    CompileOptions Opts;
    Opts.Strat = Strat;
    auto Unit = C.compile(RichProgram, Opts);
    ASSERT_NE(Unit, nullptr) << C.diagnostics().str();

    rt::EvalOptions E;
    E.GcThresholdWords = 512;
    rt::RunResult InMemory = C.run(*Unit, E);
    ASSERT_EQ(InMemory.Outcome, rt::RunOutcome::Ok) << InMemory.Error;

    std::shared_ptr<const flat::FlatUnit> Decoded =
        flat::decodeFlat(flat::encodeFlat(*Unit->Flat));
    ASSERT_NE(Decoded, nullptr);
    rt::RunResult FromBytes = Compiler::runFlat(*Decoded, E);
    EXPECT_EQ(test::runRow(FromBytes), test::runRow(InMemory));
    // runFlat reports the same "run" phase profile shape as run().
    EXPECT_EQ(FromBytes.Phase.Name, Compiler::RunPhaseName);
    EXPECT_EQ(FromBytes.Phase.GcCount, FromBytes.Heap.GcCount);
  }
}

TEST(FlatEncoding, UncaughtExceptionSurvivesTheRoundTrip) {
  const char *Raises =
      "exception Boom of int\n;if 1 < 2 then raise Boom 9 else 0";
  Compiler C;
  auto Unit = C.compile(Raises);
  ASSERT_NE(Unit, nullptr) << C.diagnostics().str();
  rt::RunResult InMemory = C.run(*Unit);
  ASSERT_EQ(InMemory.Outcome, rt::RunOutcome::UncaughtException);
  EXPECT_EQ(InMemory.Error, "uncaught exception Boom");
  std::shared_ptr<const flat::FlatUnit> Decoded =
      flat::decodeFlat(flat::encodeFlat(*Unit->Flat));
  ASSERT_NE(Decoded, nullptr);
  rt::RunResult FromBytes = Compiler::runFlat(*Decoded);
  EXPECT_EQ(test::runRow(FromBytes), test::runRow(InMemory))
      << "exception names survive the trip";
}

//===----------------------------------------------------------------------===//
// Corruption: every damage fails closed to a null decode
//===----------------------------------------------------------------------===//

TEST(FlatCorruption, EveryTruncationDecodesToNull) {
  std::string Bytes = flatBytesOf(RichProgram);
  ASSERT_FALSE(Bytes.empty());
  for (size_t Len = 0; Len < Bytes.size(); ++Len)
    ASSERT_EQ(flat::decodeFlat(std::string_view(Bytes.data(), Len)), nullptr)
        << "prefix of " << Len << " bytes decoded";
}

TEST(FlatCorruption, EverySingleBitFlipDecodesToNull) {
  // The checksum covers the whole body and the header is matched
  // exactly, so no single-bit flip anywhere may survive. Exhaustive
  // over a small program; the sampled sweep below covers a large one.
  std::string Bytes = flatBytesOf(SmallProgram);
  ASSERT_FALSE(Bytes.empty());
  for (size_t I = 0; I < Bytes.size(); ++I)
    for (int B = 0; B < 8; ++B) {
      std::string Mut = Bytes;
      Mut[I] = static_cast<char>(Mut[I] ^ (1 << B));
      ASSERT_EQ(flat::decodeFlat(Mut), nullptr)
          << "bit " << B << " of byte " << I << " flipped and decoded";
    }
}

TEST(FlatCorruption, SampledBitFlipsOnALargeUnitDecodeToNull) {
  std::string Bytes = flatBytesOf(RichProgram);
  ASSERT_FALSE(Bytes.empty());
  std::mt19937 Rng(0xF1A7);
  for (int I = 0; I < 2000; ++I) {
    std::string Mut = Bytes;
    size_t Byte = Rng() % Mut.size();
    Mut[Byte] = static_cast<char>(Mut[Byte] ^ (1 << (Rng() % 8)));
    ASSERT_EQ(flat::decodeFlat(Mut), nullptr)
        << "flip in byte " << Byte << " decoded";
  }
}

TEST(FlatCorruption, RandomGarbageNeverCrashes) {
  std::mt19937 Rng(0xBADF00D);
  std::string Bytes = flatBytesOf(SmallProgram);
  for (int I = 0; I < 500; ++I) {
    size_t Len = Rng() % 512;
    std::string Garbage(Len, '\0');
    for (char &C : Garbage)
      C = static_cast<char>(Rng());
    // Half the probes wear the real magic so they get past the header
    // and into the structural validation.
    if (Len >= 8 && (Rng() & 1))
      Garbage.replace(0, 8, Bytes.substr(0, 8));
    EXPECT_EQ(flat::decodeFlat(Garbage), nullptr);
  }
  // Shuffled tails of a genuine encoding: valid header bytes, scrambled
  // body — the checksum must throw all of them out.
  for (int I = 0; I < 200; ++I) {
    std::string Mut = Bytes;
    size_t From = 20 + Rng() % (Mut.size() - 20);
    std::shuffle(Mut.begin() + From, Mut.end(), Rng);
    if (Mut == Bytes)
      continue;
    EXPECT_EQ(flat::decodeFlat(Mut), nullptr);
  }
}

TEST(FlatCorruption, StructurallyInvalidUnitsRejectAtDecode) {
  // encodeFlat does not validate, so a hand-corrupted FlatUnit probes
  // the decoder's index validation with a correct checksum — the layer
  // a checksum alone cannot defend.
  Compiler C;
  auto Unit = C.compile(RichProgram);
  ASSERT_NE(Unit, nullptr);
  const flat::FlatUnit &Good = *Unit->Flat;

  {
    flat::FlatUnit Bad = Good; // root out of the node table
    Bad.Root = static_cast<uint32_t>(Bad.Nodes.size());
    EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  }
  {
    flat::FlatUnit Bad = Good; // root type out of the mu table
    Bad.RootMu = static_cast<uint32_t>(Bad.Mus.size()) + 5;
    EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  }
  {
    flat::FlatUnit Bad = Good; // strategy beyond the enum
    Bad.Strat = 9;
    EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  }
  {
    flat::FlatUnit Bad = Good; // node kind beyond the enum
    Bad.Nodes[Bad.Root].Kind = 0xFF;
    EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  }
  {
    flat::FlatUnit Bad = Good; // child index out of the node table
    Bad.Nodes[Bad.Root].A = static_cast<uint32_t>(Bad.Nodes.size()) + 7;
    EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  }
  {
    flat::FlatUnit Bad = Good; // aux span overruns its section
    ASSERT_FALSE(Bad.Fns.empty());
    Bad.Fns[0].CapturesCount = static_cast<uint32_t>(Bad.Aux.size()) + 1;
    EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  }
  {
    flat::FlatUnit Bad = Good; // string id out of the string table
    ASSERT_FALSE(Bad.ExnNames.empty());
    Bad.ExnNames[0] = static_cast<uint32_t>(Bad.StringSpans.size());
    EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  }
  // The uncorrupted original still decodes — the probes above failed
  // for the planted reason, not some latent one.
  EXPECT_NE(flat::decodeFlat(flat::encodeFlat(Good)), nullptr);
}

//===----------------------------------------------------------------------===//
// Frames: every reference resolves inside its own frame, or no decode
//===----------------------------------------------------------------------===//

/// Hand-built units: nodes appended in order, the last one the root.
struct HandUnit {
  flat::FlatUnit U;

  HandUnit() {
    // Name ids 0..2 are "x", "y" and "z".
    U.StringBlob = "xyz";
    U.StringSpans = {{0, 1}, {1, 1}, {2, 1}};
    U.Regions.push_back(flat::FlatRegion{}); // r0, the global region
  }

  uint32_t add(RExpr::Kind K, uint32_t A = flat::NoIndex,
               uint32_t B = flat::NoIndex, uint32_t C = flat::NoIndex) {
    flat::FlatNode N;
    N.Kind = static_cast<uint8_t>(K);
    N.A = A;
    N.B = B;
    N.C = C;
    U.Nodes.push_back(N);
    U.Root = static_cast<uint32_t>(U.Nodes.size() - 1);
    return U.Root;
  }
  flat::FlatNode &last() { return U.Nodes.back(); }

  uint32_t intLit(int64_t V) {
    uint32_t I = add(RExpr::Kind::IntLit);
    last().Int = V;
    return I;
  }
  uint32_t var(uint32_t Name) {
    uint32_t I = add(RExpr::Kind::Var);
    last().Name = Name;
    return I;
  }
  uint32_t let(uint32_t Name, uint32_t A, uint32_t B) {
    uint32_t I = add(RExpr::Kind::Let, A, B);
    last().Name = Name;
    return I;
  }
  /// A lambda \Param. Body at the global region capturing \p Captures.
  uint32_t lam(uint32_t Param, uint32_t Body,
               std::vector<uint32_t> Captures = {}) {
    flat::FlatFn F;
    F.Body = Body;
    F.Param = Param;
    F.CapturesBegin = static_cast<uint32_t>(U.Aux.size());
    F.CapturesCount = static_cast<uint32_t>(Captures.size());
    U.Aux.insert(U.Aux.end(), Captures.begin(), Captures.end());
    F.FreeRegionsBegin = F.FormalsBegin = static_cast<uint32_t>(U.Aux.size());
    U.Fns.push_back(F);
    uint32_t I = add(RExpr::Kind::Lam, Body);
    last().Fn = static_cast<uint32_t>(U.Fns.size() - 1);
    last().AtRho = 0;
    return I;
  }

  /// What the disk tier would load.
  std::shared_ptr<const flat::FlatUnit> decoded() const {
    return flat::decodeFlat(flat::encodeFlat(U));
  }
};

TEST(FlatFrames, UnboundVariableRejectsAtDecode) {
  HandUnit Bad;
  Bad.var(0);
  EXPECT_EQ(Bad.decoded(), nullptr);

  HandUnit Good; // let x = 1 in x
  uint32_t One = Good.intLit(1);
  uint32_t X = Good.var(0);
  Good.let(0, One, X);
  auto Back = Good.decoded();
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(Back->Nodes[X].Slot, 0u) << "x is slot 0 of the root frame";
  EXPECT_EQ(rt::runFlatUnit(*Back, rt::EvalOptions{}).Outcome,
            rt::RunOutcome::Ok);

  HandUnit Scoped; // (let x = 1 in x) ; x — x is out of scope again
  uint32_t SOne = Scoped.intLit(1);
  uint32_t SX = Scoped.var(0);
  uint32_t In = Scoped.let(0, SOne, SX);
  uint32_t Out = Scoped.var(0);
  Scoped.U.Aux = {In, Out};
  Scoped.add(RExpr::Kind::Seq);
  Scoped.last().AuxCount = 2;
  EXPECT_EQ(Scoped.decoded(), nullptr);
}

TEST(FlatFrames, UnboundCaptureRejectsAtDecode) {
  // \x. y, capturing y where nothing binds it.
  HandUnit Bad;
  Bad.lam(0, Bad.var(1), {1});
  EXPECT_EQ(Bad.decoded(), nullptr);

  // A body that reaches outside its frame without a capture: the
  // enclosing let binds y, but the lambda's frame holds only x.
  HandUnit Escaping;
  uint32_t Y = Escaping.intLit(2);
  uint32_t Body = Escaping.var(1);
  Escaping.let(1, Y, Escaping.lam(0, Body));
  EXPECT_EQ(Escaping.decoded(), nullptr);

  HandUnit Good; // let y = 2 in \x. y, with y captured
  uint32_t GY = Good.intLit(2);
  uint32_t GBody = Good.var(1);
  Good.let(1, GY, Good.lam(0, GBody, {1}));
  auto Back = Good.decoded();
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(Back->AuxSlots[0], 0u) << "y is the creator frame's slot 0";
  EXPECT_EQ(Back->Nodes[GBody].Slot, 0u) << "captures come first";
}

TEST(FlatFrames, UnboundRegionRejectsAtDecode) {
  // (1, 2) at r7 with no letregion binding r7.
  HandUnit Bad;
  uint32_t A = Bad.intLit(1), B = Bad.intLit(2);
  Bad.add(RExpr::Kind::PairE, A, B);
  Bad.last().AtRho = 7;
  EXPECT_EQ(Bad.decoded(), nullptr);

  HandUnit Good; // letregion r7 in (1, 2) at r7 end
  uint32_t GA = Good.intLit(1), GB = Good.intLit(2);
  uint32_t Pair = Good.add(RExpr::Kind::PairE, GA, GB);
  Good.last().AtRho = 7;
  Good.add(RExpr::Kind::LetRegion, Pair);
  Good.last().BoundRho = 7;
  auto Back = Good.decoded();
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(Back->Nodes[Pair].Slot, 0u) << "letregion depth 0";
  EXPECT_EQ(rt::runFlatUnit(*Back, rt::EvalOptions{}).Outcome,
            rt::RunOutcome::Ok);

  // An RApp target is a region reference too.
  HandUnit BadTarget;
  uint32_t F = BadTarget.lam(0, BadTarget.var(0));
  BadTarget.U.Aux.insert(BadTarget.U.Aux.end(), {3u, 9u});
  BadTarget.add(RExpr::Kind::RApp, F);
  BadTarget.last().AtRho = 0;
  BadTarget.last().AuxBegin =
      static_cast<uint32_t>(BadTarget.U.Aux.size() - 2);
  BadTarget.last().AuxCount = 2;
  EXPECT_EQ(BadTarget.decoded(), nullptr);
}

TEST(FlatFrames, FormalsSpanOutOfRangeRejectsAtDecode) {
  Compiler C;
  auto Unit = C.compile(RichProgram);
  ASSERT_NE(Unit, nullptr);
  flat::FlatUnit Bad = *Unit->Flat;
  ASSERT_FALSE(Bad.Fns.empty());
  Bad.Fns[0].FormalsBegin = static_cast<uint32_t>(Bad.Aux.size());
  Bad.Fns[0].FormalsCount = 1;
  EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  EXPECT_NE(flat::decodeFlat(flat::encodeFlat(*Unit->Flat)), nullptr);
}

TEST(FlatFrames, SharedNodeRejectsAtDecode) {
  // One node reached from two parents has no single frame.
  HandUnit Bad;
  uint32_t One = Bad.intLit(1);
  Bad.add(RExpr::Kind::PairE, One, One);
  Bad.last().AtRho = 0;
  EXPECT_EQ(Bad.decoded(), nullptr);
}

TEST(FlatFrames, DecodedSlotsEqualTheFlattenersSlots) {
  for (Strategy Strat : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
    SCOPED_TRACE(strategyName(Strat));
    Compiler C;
    CompileOptions Opts;
    Opts.Strat = Strat;
    auto Unit = C.compile(RichProgram, Opts);
    ASSERT_NE(Unit, nullptr);
    const flat::FlatUnit &U = *Unit->Flat;
    auto Back = flat::decodeFlat(flat::encodeFlat(U));
    ASSERT_NE(Back, nullptr);
    ASSERT_EQ(Back->Nodes.size(), U.Nodes.size());
    for (size_t I = 0; I < U.Nodes.size(); ++I)
      EXPECT_EQ(Back->Nodes[I].Slot, U.Nodes[I].Slot) << "node " << I;
    EXPECT_EQ(Back->AuxSlots, U.AuxSlots);
    // Every variable of the flattener's output resolved.
    for (const flat::FlatNode &N : U.Nodes)
      if (N.Kind == static_cast<uint8_t>(RExpr::Kind::Var))
        EXPECT_NE(N.Slot, flat::NoIndex);
  }
}

//===----------------------------------------------------------------------===//
// Operands of the wrong shape: runtime errors, never crashes
//===----------------------------------------------------------------------===//

/// Runs \p H's decoded copy and expects an internal runtime error.
void expectInternalError(const HandUnit &H, const char *Want) {
  auto Back = H.decoded();
  ASSERT_NE(Back, nullptr) << "the unit is structurally valid";
  rt::RunResult R = rt::runFlatUnit(*Back, rt::EvalOptions{});
  EXPECT_EQ(R.Outcome, rt::RunOutcome::RuntimeError);
  EXPECT_EQ(R.Error, Want);
}

TEST(FlatOperands, RegionApplicationOfAScalarIsARuntimeError) {
  HandUnit H;
  H.add(RExpr::Kind::RApp, H.intLit(3));
  H.last().AtRho = 0;
  expectInternalError(H, "internal: region application of a non-closure");
}

TEST(FlatOperands, SelectionFromAScalarIsARuntimeError) {
  HandUnit H;
  H.add(RExpr::Kind::Sel, H.intLit(3));
  expectInternalError(H, "internal: selection from a non-pair");
}

TEST(FlatOperands, DereferenceOfAScalarIsARuntimeError) {
  HandUnit H;
  H.add(RExpr::Kind::Deref, H.intLit(3));
  expectInternalError(H, "internal: dereference of a non-reference");
}

TEST(FlatOperands, AssignmentToAScalarIsARuntimeError) {
  HandUnit H;
  uint32_t Target = H.intLit(3), V = H.intLit(4);
  H.add(RExpr::Kind::Assign, Target, V);
  expectInternalError(H, "internal: assignment to a non-reference");
}

TEST(FlatOperands, CaseOnAScalarIsARuntimeError) {
  HandUnit H;
  uint32_t Scrutinee = H.intLit(3), Nil = H.intLit(0), Cons = H.intLit(1);
  H.add(RExpr::Kind::ListCase, Scrutinee, Nil, Cons);
  H.last().HeadName = 0;
  H.last().TailName = 1;
  expectInternalError(H, "internal: case analysis of a non-list");
}

//===----------------------------------------------------------------------===//
// The disk tier: damaged flat sections are counted misses
//===----------------------------------------------------------------------===//

/// The byte offset of the flat-presence byte in \p Fresh's entry file:
/// it sits right before the nested flat string (u64 length + bytes),
/// which ends the file.
size_t presencePos(const std::string &EntryBytes, const CachedCompile &Fresh) {
  return EntryBytes.size() - flat::encodeFlat(*Fresh.Flat).size() - 8 - 1;
}

CachedCompileRef storeOne(DiskCache &Disk, const CacheKey &K,
                          const char *Src) {
  CachedCompileRef Fresh = compileShared(Src, CompileOptions{});
  EXPECT_TRUE(Fresh->ok());
  Disk.store(K, *Fresh);
  return Fresh;
}

TEST(FlatDisk, CorruptFlatSectionIsACountedLoadReject) {
  ScratchDir Dir("corrupt_section");
  DiskCache Disk(Dir.str());
  CacheKey K = CacheKey::of(RichProgram, CompileOptions{});
  storeOne(Disk, K, RichProgram);

  // The flat payload is the final section of the entry, so the last
  // byte is inside it: flipping it keeps the outer entry structurally
  // whole and leaves the nested flat checksum to catch the damage.
  fs::path File = Dir.Path / DiskCache::entryFileName(K.Hash);
  std::string Bytes = readFileBytes(File);
  ASSERT_FALSE(Bytes.empty());
  Bytes.back() = static_cast<char>(Bytes.back() ^ 0x10);
  writeFileBytes(File, Bytes);

  EXPECT_EQ(Disk.load(K), nullptr) << "a damaged runnable form is no hit";
  DiskCache::Counters C = Disk.counters();
  EXPECT_EQ(C.LoadRejects, 1u);
  EXPECT_EQ(C.Hits, 0u);
}

TEST(FlatDisk, TruncatedEntryIsACountedLoadReject) {
  ScratchDir Dir("truncated");
  DiskCache Disk(Dir.str());
  CacheKey K = CacheKey::of(RichProgram, CompileOptions{});
  storeOne(Disk, K, RichProgram);

  fs::path File = Dir.Path / DiskCache::entryFileName(K.Hash);
  std::string Bytes = readFileBytes(File);
  ASSERT_GT(Bytes.size(), 40u);
  writeFileBytes(File, Bytes.substr(0, Bytes.size() - 33));

  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 1u);
}

TEST(FlatDisk, ForgedPresenceByteIsACountedLoadReject) {
  ScratchDir Dir("presence");
  DiskCache Disk(Dir.str());
  CacheKey K = CacheKey::of(SmallProgram, CompileOptions{});
  CachedCompileRef Fresh = storeOne(Disk, K, SmallProgram);
  ASSERT_NE(Fresh->Flat, nullptr);

  // Rewrite the presence byte (which sits right before the nested flat
  // string) to an undefined value; the loader accepts exactly 0 or 1.
  fs::path File = Dir.Path / DiskCache::entryFileName(K.Hash);
  std::string Bytes = readFileBytes(File);
  size_t PresencePos = presencePos(Bytes, *Fresh);
  ASSERT_EQ(static_cast<unsigned char>(Bytes[PresencePos]), 1u);
  Bytes[PresencePos] = 2;
  writeFileBytes(File, Bytes);

  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 1u);
}

//===----------------------------------------------------------------------===//
// Warm restart: Run=true served from disk with zero compile phases
//===----------------------------------------------------------------------===//

ServiceConfig flatServiceConfig(std::string Dir) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.QueueCapacity = 8;
  Cfg.CacheCapacity = 8;
  Cfg.CacheDir = std::move(Dir);
  return Cfg;
}

TEST(FlatService, WarmRestartRunsFromDiskWithZeroCompilePhases) {
  ScratchDir Dir("warm_restart");

  Request Run;
  Run.Source = RichProgram;
  Run.EvalOpts.GcThresholdWords = 1024;

  std::string ColdResult, ColdOutput;
  {
    Service Svc(flatServiceConfig(Dir.str()));
    Response Cold = Svc.submit(Run).get();
    ASSERT_EQ(Cold.Status, RequestOutcome::Ok) << Cold.Error;
    EXPECT_FALSE(Cold.CacheHit);
    ColdResult = Cold.ResultText;
    ColdOutput = Cold.Output;
  }

  // The restarted process has an empty memory tier; its first Run=true
  // must complete as a pure disk hit — no compile phases executed.
  Service Svc(flatServiceConfig(Dir.str()));
  Response Warm = Svc.submit(Run).get();
  ASSERT_EQ(Warm.Status, RequestOutcome::Ok) << Warm.Error;
  EXPECT_TRUE(Warm.CacheHit) << "the disk entry is runnable as loaded";
  EXPECT_EQ(Warm.ResultText, ColdResult);
  EXPECT_EQ(Warm.Output, ColdOutput);
  ASSERT_FALSE(Warm.Profiles.empty());
  for (const PhaseProfile &P : Warm.Profiles) {
    if (P.Name == Compiler::RunPhaseName)
      continue;
    EXPECT_TRUE(P.Skipped) << "phase '" << P.Name << "' ran on a disk hit";
    EXPECT_EQ(P.WallNanos, 0u) << P.Name;
  }
  EXPECT_EQ(Warm.Profiles.back().Name, Compiler::RunPhaseName)
      << "the run itself is fresh";

  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.DiskHits, 1u);
  EXPECT_EQ(S.DiskLoadRejects, 0u);
  EXPECT_EQ(S.CacheMisses, 1u) << "one memory miss, promoted from disk";
}

TEST(FlatService, WarmRestartRunsUnderEveryStrategy) {
  ScratchDir Dir("warm_strategies");
  for (Strategy Strat : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
    SCOPED_TRACE(strategyName(Strat));
    Request Run;
    Run.Source = RichProgram;
    Run.Opts.Strat = Strat;

    std::string ColdResult;
    {
      Service Svc(flatServiceConfig(Dir.str()));
      Response Cold = Svc.submit(Run).get();
      ASSERT_EQ(Cold.Status, RequestOutcome::Ok) << Cold.Error;
      ColdResult = Cold.ResultText;
    }
    Service Svc(flatServiceConfig(Dir.str()));
    Response Warm = Svc.submit(Run).get();
    ASSERT_EQ(Warm.Status, RequestOutcome::Ok) << Warm.Error;
    EXPECT_TRUE(Warm.CacheHit);
    EXPECT_EQ(Warm.ResultText, ColdResult);
  }
}

//===----------------------------------------------------------------------===//
// Every hit is runnable: entries that could not run never load
//===----------------------------------------------------------------------===//

TEST(FlatDisk, OkEntryWithoutFlatSectionIsACountedLoadReject) {
  ScratchDir Dir("no_flat");
  CacheKey K = CacheKey::of(SmallProgram, CompileOptions{});
  {
    DiskCache Disk(Dir.str());
    CachedCompileRef Fresh = storeOne(Disk, K, SmallProgram);
    // Cut the flat section off an ok entry: presence 0, nothing after.
    // Structurally whole, but a hit on it could not serve a run.
    fs::path File = Dir.Path / DiskCache::entryFileName(K.Hash);
    std::string Bytes = readFileBytes(File);
    size_t Pos = presencePos(Bytes, *Fresh);
    ASSERT_EQ(static_cast<unsigned char>(Bytes[Pos]), 1u);
    writeFileBytes(File, Bytes.substr(0, Pos) + std::string(1, '\0'));

    EXPECT_EQ(Disk.load(K), nullptr);
    EXPECT_EQ(Disk.counters().LoadRejects, 1u);
    EXPECT_EQ(Disk.counters().Hits, 0u);
  }

  // Through the service the rejection is an ordinary miss: the Run
  // request compiles afresh and the rejection shows in the stats.
  Service Svc(flatServiceConfig(Dir.str()));
  Request Run;
  Run.Source = SmallProgram;
  Response R = Svc.submit(Run).get();
  ASSERT_EQ(R.Status, RequestOutcome::Ok) << R.Error;
  EXPECT_FALSE(R.CacheHit);
  EXPECT_EQ(R.ResultText, "3");
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.DiskLoadRejects, 1u);
  EXPECT_EQ(S.DiskHits, 0u);
  EXPECT_NE(S.json().find("\"disk_load_rejects\":1"),
            std::string::npos);
}

TEST(FlatDisk, VersionThreeEntryIsACountedLoadReject) {
  ScratchDir Dir("v3");
  DiskCache Disk(Dir.str());
  CacheKey K = CacheKey::of(SmallProgram, CompileOptions{});
  CachedCompileRef Fresh = storeOne(Disk, K, SmallProgram);

  // Forge the v3 layout: the same fields plus the persisted u64 cost
  // that v4 dropped (it sat right before the flat-presence byte), and
  // the version field (the u32 after the 8-byte magic) set to 3.
  ASSERT_EQ(DiskCache::FormatVersion, 4u);
  fs::path File = Dir.Path / DiskCache::entryFileName(K.Hash);
  std::string Bytes = readFileBytes(File);
  size_t Pos = presencePos(Bytes, *Fresh);
  Bytes.insert(Pos, std::string("\x10\x27\0\0\0\0\0\0", 8));
  Bytes[8] = 3;
  writeFileBytes(File, Bytes);

  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 1u);
  EXPECT_EQ(Disk.counters().Hits, 0u);
}

TEST(FlatDisk, FlatVersionTwoEntryIsACountedLoadReject) {
  ScratchDir Dir("flat_v2");
  DiskCache Disk(Dir.str());
  CacheKey K = CacheKey::of(SmallProgram, CompileOptions{});
  CachedCompileRef Fresh = storeOne(Disk, K, SmallProgram);

  // The nested flat section ends the entry; its version field is the
  // u32 after its own 8-byte magic. v2 units carry no formals spans (and
  // no frame resolution), so they must not load as v3.
  fs::path File = Dir.Path / DiskCache::entryFileName(K.Hash);
  std::string Bytes = readFileBytes(File);
  size_t FlatStart = Bytes.size() - flat::encodeFlat(*Fresh->Flat).size();
  ASSERT_EQ(static_cast<unsigned char>(Bytes[FlatStart + 8]), 3u);
  Bytes[FlatStart + 8] = 2;
  writeFileBytes(File, Bytes);

  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 1u);
  EXPECT_EQ(Disk.counters().Hits, 0u);
}

} // namespace

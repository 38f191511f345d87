//===- tests/mml_files_test.cpp - The shipped .mml programs ---------------===//
//
// The example programs under examples/programs/ keep working: the
// tutorial and primes run clean under rg, and figure1.mml reproduces the
// paper's crash under rg-. The differential suites run every shipped
// .mml with the cross-request page pool on and off, and in memory
// against its serialised flat copy, and demand the configurations agree
// on every observable.
//
//===----------------------------------------------------------------------===//

#include "RunRow.h"

#include "core/Pipeline.h"
#include "rt/PagePool.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace rml;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

std::string programPath(const char *Name) {
  return std::string(RML_SOURCE_DIR) + "/examples/programs/" + Name;
}

TEST(MmlFiles, TutorialRuns) {
  Compiler C;
  auto Unit = C.compile(readFile(programPath("tutorial.mml")));
  ASSERT_NE(Unit, nullptr) << C.diagnostics().str();
  rt::RunResult R = C.run(*Unit);
  ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
  EXPECT_EQ(R.Output, "hello, regions\n");
  EXPECT_EQ(R.ResultText, "(387, ((2, 1), 3))");
}

TEST(MmlFiles, PrimesRunsUnderEveryStrategy) {
  std::string Src = readFile(programPath("primes.mml"));
  for (Strategy S : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
    Compiler C;
    CompileOptions Opts;
    Opts.Strat = S;
    auto Unit = C.compile(Src, Opts);
    ASSERT_NE(Unit, nullptr) << C.diagnostics().str();
    rt::RunResult R = C.run(*Unit);
    ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok)
        << strategyName(S) << ": " << R.Error;
    EXPECT_EQ(R.ResultText, "(196, 1193)");
  }
}

TEST(MmlFiles, Figure1CrashesUnderRgMinusOnly) {
  std::string Src = readFile(programPath("figure1.mml"));
  rt::EvalOptions E;
  E.GcThresholdWords = 2048;
  E.RetainReleasedPages = true;

  Compiler CRg;
  auto URg = CRg.compile(Src);
  ASSERT_NE(URg, nullptr) << CRg.diagnostics().str();
  EXPECT_EQ(CRg.run(*URg, E).Outcome, rt::RunOutcome::Ok);

  Compiler CRgm;
  CompileOptions Opts;
  Opts.Strat = Strategy::RgMinus;
  auto URgm = CRgm.compile(Src, Opts);
  ASSERT_NE(URgm, nullptr) << CRgm.diagnostics().str();
  EXPECT_EQ(CRgm.run(*URgm, E).Outcome, rt::RunOutcome::DanglingPointer);
}

//===----------------------------------------------------------------------===//
// Differential: pool on vs pool off, under rg and rg-.
//===----------------------------------------------------------------------===//

/// Run `Src` under `Strat`, optionally drawing heap pages from `Pool`.
rt::RunResult runWithPool(const std::string &Src, Strategy Strat,
                          rt::PagePool *Pool) {
  Compiler C;
  CompileOptions Opts;
  Opts.Strat = Strat;
  auto Unit = C.compile(Src, Opts);
  EXPECT_NE(Unit, nullptr) << C.diagnostics().str();
  if (!Unit) {
    rt::RunResult Bad;
    Bad.Outcome = rt::RunOutcome::RuntimeError;
    return Bad;
  }
  rt::EvalOptions E;
  E.GcThresholdWords = 2048; // several collections per program
  E.SharedPool = Pool;
  return C.run(*Unit, E);
}

TEST(MmlFiles, EveryProgramAgreesWithAndWithoutThePool) {
  // Every shipped example, discovered rather than listed, so new .mml
  // files are covered the day they land.
  std::vector<std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(
           std::string(RML_SOURCE_DIR) + "/examples/programs"))
    if (Entry.path().extension() == ".mml")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 3u);

  // One pool across the whole matrix: later programs run on pages the
  // earlier ones recycled, the cross-request scenario.
  rt::PagePool SharedPool(512);

  for (const std::string &Path : Files) {
    SCOPED_TRACE(Path);
    std::string Src = readFile(Path);
    for (Strategy Strat : {Strategy::Rg, Strategy::RgMinus}) {
      SCOPED_TRACE(strategyName(Strat));
      rt::RunResult Fresh = runWithPool(Src, Strat, nullptr);
      for (int Rep = 0; Rep < 2; ++Rep) {
        rt::RunResult Pooled = runWithPool(Src, Strat, &SharedPool);
        EXPECT_EQ(Pooled.Outcome, Fresh.Outcome) << "rep " << Rep;
        EXPECT_EQ(Pooled.Output, Fresh.Output) << "rep " << Rep;
        EXPECT_EQ(Pooled.ResultText, Fresh.ResultText) << "rep " << Rep;
        EXPECT_EQ(Pooled.Heap.AllocWords, Fresh.Heap.AllocWords)
            << "rep " << Rep;
        EXPECT_EQ(Pooled.Heap.GcCount, Fresh.Heap.GcCount) << "rep " << Rep;
      }
    }
  }

  // The matrix genuinely recycled pages across programs.
  EXPECT_GT(SharedPool.stats().AcquireHits, 0u);
  EXPECT_LE(SharedPool.freePages(), SharedPool.capacity());
}

//===----------------------------------------------------------------------===//
// Differential: the in-memory unit vs its serialised copy, every shipped
// program under every strategy. Two fresh Compilers per configuration —
// one runs its own unit, the other's unit is encoded, decoded and run
// the way the disk tier runs it — so the comparison also covers
// compile-side determinism (diagnostics and spurious statistics), the
// serialisation round trip, and the full runtime observables down to
// heap accounting.
//===----------------------------------------------------------------------===//

TEST(MmlFiles, EveryProgramAgreesBetweenInMemoryAndDecoded) {
  std::vector<std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(
           std::string(RML_SOURCE_DIR) + "/examples/programs"))
    if (Entry.path().extension() == ".mml")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 3u);

  for (const std::string &Path : Files) {
    SCOPED_TRACE(Path);
    std::string Src = readFile(Path);
    for (Strategy Strat : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
      SCOPED_TRACE(strategyName(Strat));
      CompileOptions Opts;
      Opts.Strat = Strat;

      Compiler MemC;
      auto MemU = MemC.compile(Src, Opts);
      ASSERT_NE(MemU, nullptr) << MemC.diagnostics().str();

      Compiler DiskC;
      auto DiskU = DiskC.compile(Src, Opts);
      ASSERT_NE(DiskU, nullptr) << DiskC.diagnostics().str();

      // Compile-side determinism across independent Compilers.
      EXPECT_EQ(DiskC.diagnostics().str(), MemC.diagnostics().str());
      EXPECT_EQ(DiskU->Spurious.TotalFunctions, MemU->Spurious.TotalFunctions);
      EXPECT_EQ(DiskU->Spurious.SpuriousFunctions,
                MemU->Spurious.SpuriousFunctions);
      EXPECT_EQ(DiskU->Spurious.TotalInsts, MemU->Spurious.TotalInsts);
      EXPECT_EQ(DiskU->Spurious.SpuriousBoxedInsts,
                MemU->Spurious.SpuriousBoxedInsts);
      // Both flattenings encode to the same bytes (determinism), and the
      // decoded copy is what executes below — exactly the disk-tier path.
      ASSERT_NE(MemU->Flat, nullptr);
      ASSERT_NE(DiskU->Flat, nullptr);
      std::string Bytes = flat::encodeFlat(*DiskU->Flat);
      EXPECT_EQ(flat::encodeFlat(*MemU->Flat), Bytes);
      std::shared_ptr<const flat::FlatUnit> Decoded = flat::decodeFlat(Bytes);
      ASSERT_NE(Decoded, nullptr);

      rt::EvalOptions E;
      E.GcThresholdWords = 2048;
      E.RetainReleasedPages = true; // exact dangling detection for rg-
      rt::RunResult InMemory = MemC.run(*MemU, E);
      rt::RunResult FromBytes = Compiler::runFlat(*Decoded, E);
      EXPECT_EQ(test::runRow(FromBytes), test::runRow(InMemory));
    }
  }
}

} // namespace

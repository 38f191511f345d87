//===- perfbench/src/CorpusRun.cpp - corpus-run ---------------------------===//
//
// Closed loop, one client, one thread, in process. Set-up compiles the
// 19 Figure-9 programs under rg, rg- and r (57 units, one Compiler
// each, as bench_fig9 does). Each timed pass then runs all 57 units
// through Compiler::run, in an order drawn from the seed, and checks
// every result against the oracle; rg, rg- and r must also agree on
// each program's output.
//
// End-to-end: cost_ms is the geometric mean over the 57 units of each
// unit's median run time, each run timed against the host speed probe
// taken just before it (Calibrate.h). The summed peak region heap (the
// paper's rss column) is the per-layer rt.region_peak_kb. setup_s sums
// over the 57 units the median of each unit's compile time over the
// set-up repetitions, each compile timed against the probe the same way.
//
//===----------------------------------------------------------------------===//

#include "Calibrate.h"
#include "Layers.h"
#include "Workloads.h"

#include "bench/Programs.h"

#include <cstdio>

namespace pb {

namespace {

struct CorpusUnit {
  const rml::bench::BenchProgram *P;
  rml::Strategy S;
  std::unique_ptr<rml::Compiler> C;
  std::unique_ptr<rml::CompiledUnit> U;
};

/// Compiles the 57 units; \p ScaledMs receives each one's compile time
/// against the host speed probe taken just before it.
std::vector<CorpusUnit> compileCorpus(Tracer &T, uint64_t &Op, Report &Rep,
                                      std::vector<double> &ScaledMs) {
  ScaledMs.clear();
  std::vector<CorpusUnit> Units;
  for (const rml::bench::BenchProgram &P : rml::bench::benchmarkSuite())
    for (rml::Strategy S :
         {rml::Strategy::Rg, rml::Strategy::RgMinus, rml::Strategy::R}) {
      CorpusUnit CU{&P, S, std::make_unique<rml::Compiler>(), nullptr};
      rml::CompileOptions Opts;
      Opts.Strat = S;
      double ProbeMs = calibrationMs();
      uint64_t Ns = 0;
      CU.U = compileTimed(*CU.C, P.Source, Opts, T, ++Op, Ns);
      ScaledMs.push_back(static_cast<double>(Ns) / 1e6 / ProbeMs *
                         ProbeRefMs);
      Rep.attempt();
      if (!CU.U)
        Rep.fail("corpus-run: " + P.Name + "/" + rml::strategyName(S) +
                 " does not compile: " + CU.C->diagnostics().str());
      Units.push_back(std::move(CU));
    }
  return Units;
}

} // namespace

void runCorpus(const Options &O, const Oracle &Orc, Report &Rep) {
  Tracer T(O.Trace);
  uint64_t Op = 0;

  // Set-up: compile everything, several times; keep the last set.
  std::vector<std::vector<double>> SetupMs;
  std::vector<CorpusUnit> Units;
  for (unsigned I = 0; I < setupReps(O); ++I) {
    Units.clear();
    std::vector<double> Ms;
    Units = compileCorpus(T, Op, Rep, Ms);
    SetupMs.resize(Ms.size());
    for (size_t U = 0; U < Ms.size(); ++U)
      SetupMs[U].push_back(Ms[U]);
  }
  double SetupS = 0;
  for (const std::vector<double> &V : SetupMs)
    SetupS += median(V) / 1e3;
  // IR size and the codec layer, once per unit (traced run only).
  std::vector<double> IrNodes, UnitBytes;
  if (T.on())
    for (const CorpusUnit &CU : Units) {
      if (!CU.U)
        continue;
      size_t Bytes = 0;
      if (!flatRoundTrip(*CU.U->Flat, T, ++Op, Bytes))
        Rep.fail("corpus-run: flat round trip changed " + CU.P->Name);
      UnitBytes.push_back(static_cast<double>(Bytes));
      IrNodes.push_back(static_cast<double>(CU.C->arenaFootprint().total()));
    }

  // Timed passes. In the traced run, passes alternate between traced
  // and untraced so the tracer's own cost can be read off.
  Rng R(O.Seed);
  // Per unit: run times relative to the probe taken just before.
  std::vector<std::vector<double>> UnitRel(Units.size());
  std::vector<double> TracedPassMs, PlainPassMs, CalMs;
  double PeakKb = 0;
  uint64_t PassSteps = 0, PassAlloc = 0, PassGc = 0, PassCopied = 0,
           PassRegions = 0, PassPages = 0, TracedSteps = 0;
  Deadline D(O.Seconds);
  unsigned Passes = 0;
  uint64_t LastPassNs = 0;
  do {
    bool Traced = O.Trace && Passes % 2 == 1;
    T.setOn(Traced);
    std::vector<size_t> Order = shuffledIndices(Units.size(), R);
    std::vector<std::string> Seen(Units.size());
    uint64_t PassStart = nowNs();
    uint64_t RunNs = 0, Steps = 0, Alloc = 0, Gc = 0, Copied = 0,
             Regions = 0, Pages = 0;
    double Peak = 0;
    for (size_t I : Order) {
      CorpusUnit &CU = Units[I];
      if (!CU.U)
        continue;
      double ProbeMs = calibrationMs();
      uint64_t Ns = 0;
      rml::rt::RunResult Res = runTimed(*CU.C, *CU.U, T, ++Op, Ns);
      Rep.attempt();
      UnitRel[I].push_back(static_cast<double>(Ns) / 1e6 / ProbeMs);
      CalMs.push_back(ProbeMs);
      RunNs += Ns;
      const std::string &Want = Orc.corpusResult(CU.P->Name);
      if (Res.Outcome != rml::rt::RunOutcome::Ok)
        Rep.fail("corpus-run: " + CU.P->Name + "/" + rml::strategyName(CU.S) +
                 " did not finish: " + Res.Error);
      else if (Res.ResultText != Want)
        Rep.fail("corpus-run: " + CU.P->Name + "/" + rml::strategyName(CU.S) +
                 " gave " + Res.ResultText + ", oracle says " + Want);
      Seen[I] = Res.ResultText + "\n" + Res.Output;
      Peak += static_cast<double>(Res.Heap.PeakHeapWords) * 8.0 / 1024.0;
      Steps += Res.Steps;
      Alloc += Res.Heap.AllocWords;
      Gc += Res.Heap.GcCount;
      Copied += Res.Heap.CopiedWords;
      Regions += Res.Heap.RegionsCreated;
      Pages += Res.Heap.PagesAllocated;
    }
    LastPassNs = nowNs() - PassStart;
    (Traced ? TracedPassMs : PlainPassMs)
        .push_back(static_cast<double>(RunNs) / 1e6);
    // rg, rg- and r compile the same program: outputs must agree.
    for (size_t I = 0; I + 2 < Units.size(); I += 3)
      if (Seen[I] != Seen[I + 1] || Seen[I] != Seen[I + 2])
        Rep.fail("corpus-run: strategies disagree on " + Units[I].P->Name);
    PeakKb = Peak;
    if (Traced)
      TracedSteps += Steps;
    PassSteps = Steps, PassAlloc = Alloc, PassGc = Gc, PassCopied = Copied,
    PassRegions = Regions, PassPages = Pages;
    ++Passes;
  } while (Passes < (O.Trace ? 2u : 1u) ||
           (!O.Tiny && D.another(LastPassNs)));
  T.setOn(O.Trace);
  std::fprintf(stderr, "perfbench: corpus-run %u passes in %.1fs\n", Passes,
               D.elapsedSeconds());

  if (!O.Trace) {
    std::vector<double> Medians;
    for (const std::vector<double> &V : UnitRel)
      if (!V.empty())
        Medians.push_back(median(V) * ProbeRefMs);
    Rep.metric("cost_ms", geomean(Medians), "ms");
    Rep.metric("rss_mb", peakRssMb(), "MB");
    Rep.metric("ok_share", Rep.okShare(), "share");
    Rep.metric("setup_s", SetupS, "s");
    return;
  }

  std::map<std::string, double> V;
  staticLayerValues(T, V);
  std::map<std::string, double> Self = T.selfNanos();
  std::map<std::string, uint64_t> Count = T.counts();
  V["core.ir_nodes"] = median(IrNodes);
  V["flat.unit_bytes"] = median(UnitBytes);
  for (size_t I = 0; I < Units.size(); ++I)
    if (Units[I].S == rml::Strategy::Rg && !UnitRel[I].empty())
      V["rt.run_ms." + Units[I].P->Name] = median(UnitRel[I]) * ProbeRefMs;
  V["host.probe_ms"] = median(CalMs);
  double Runs = static_cast<double>(Count["rt.run"]);
  double Mut = Self["rt.run"], Gc = Self["rt.gc"];
  if (Runs > 0) {
    V["rt.mutator_ms"] = Mut / Runs / 1e6;
    V["rt.gc_ms"] = Gc / Runs / 1e6;
  }
  V["rt.gc_share"] = Mut + Gc > 0 ? Gc / (Mut + Gc) : 0;
  V["rt.region_peak_kb"] = PeakKb;
  V["rt.steps"] = static_cast<double>(PassSteps);
  V["rt.ns_per_step"] =
      TracedSteps ? (Mut + Gc) / static_cast<double>(TracedSteps) : 0;
  V["rt.alloc_words"] = static_cast<double>(PassAlloc);
  V["rt.gc_count"] = static_cast<double>(PassGc);
  V["rt.copied_words"] = static_cast<double>(PassCopied);
  V["rt.regions_created"] = static_cast<double>(PassRegions);
  V["rt.pages_allocated"] = static_cast<double>(PassPages);
  if (!PlainPassMs.empty() && !TracedPassMs.empty())
    V["trace.overhead_share"] =
        median(TracedPassMs) / median(PlainPassMs) - 1.0;
  emitLayerMetrics(Rep, V);
  std::string Path = O.WorkDir + "/trace-corpus-run-" +
                     std::to_string(O.Seed) + ".json";
  if (!T.writeChrome(Path))
    Rep.invalidate("cannot write " + Path);
}

} // namespace pb

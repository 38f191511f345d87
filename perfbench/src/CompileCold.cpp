//===- perfbench/src/CompileCold.cpp - compile-cold -----------------------===//
//
// Closed loop, one thread, in process. Each pass compiles every corpus
// program under the 12 option variants bench_service uses (3 strategies
// x 2 spurious modes x check on/off) plus one captures-on variant, each
// on a fresh Compiler, with no cache and no run. All the work lands in
// the static layers and none in the runtime.
//
// Checks: every compile succeeds; a checked variant carries the
// checker's result; a captures variant renders a report; and each
// (program, variant) encodes to the same flat bytes on every pass.
//
// End-to-end: cost_ms is the geometric mean over the 19 programs of the
// median time to compile all 13 variants of one program, timed against
// the host speed probe taken just before (Calibrate.h). setup_s is the
// compile time of one warm-up pass: the sum over the 19 programs of the
// median over the set-up repetitions of each program's compile time,
// timed against the probe the same way.
//
//===----------------------------------------------------------------------===//

#include "Calibrate.h"
#include "Layers.h"
#include "Workloads.h"

#include "bench/Programs.h"

#include <cstdio>

namespace pb {

namespace {

std::vector<rml::CompileOptions> variants() {
  std::vector<rml::CompileOptions> V;
  for (rml::Strategy S :
       {rml::Strategy::Rg, rml::Strategy::RgMinus, rml::Strategy::R})
    for (rml::SpuriousMode M : {rml::SpuriousMode::FreshSecondary,
                                rml::SpuriousMode::IdentifyWithFun})
      for (bool Check : {true, false}) {
        rml::CompileOptions O;
        O.Strat = S;
        O.Spurious = M;
        O.Check = Check;
        V.push_back(O);
      }
  rml::CompileOptions Caps;
  Caps.Captures = true;
  V.push_back(Caps);
  return V;
}

struct Pass {
  /// Per program: nanoseconds to compile all of its variants, and the
  /// host speed probe taken just before.
  std::vector<double> ProgramNs;
  std::vector<double> ProbeMs;
};

/// One pass over every (program, variant) in a seed-drawn program order.
/// \p FlatHash holds each pair's flat-unit hash from the first pass.
Pass compilePass(const std::vector<rml::CompileOptions> &Vars, Rng &R,
                 Tracer &T, uint64_t &Op, std::vector<uint64_t> &FlatHash,
                 std::vector<double> &IrNodes, std::vector<double> &UnitBytes,
                 Report &Rep) {
  const auto &Suite = rml::bench::benchmarkSuite();
  Pass P;
  P.ProgramNs.assign(Suite.size(), 0);
  P.ProbeMs.assign(Suite.size(), 0);
  for (size_t PI : shuffledIndices(Suite.size(), R)) {
    P.ProbeMs[PI] = calibrationMs();
    for (size_t VI = 0; VI < Vars.size(); ++VI) {
      const rml::CompileOptions &Opts = Vars[VI];
      const std::string &Name = Suite[PI].Name;
      rml::Compiler C;
      uint64_t Ns = 0;
      auto U = compileTimed(C, Suite[PI].Source, Opts, T, ++Op, Ns);
      P.ProgramNs[PI] += static_cast<double>(Ns);
      Rep.attempt();
      std::string Where = "compile-cold: " + Name + " variant " +
                          std::to_string(VI);
      if (!U || !U->Flat) {
        Rep.fail(Where + " does not compile: " + C.diagnostics().str());
        continue;
      }
      if (Opts.Check && !U->Checked)
        Rep.fail(Where + " has no checker result");
      if (Opts.Captures && C.captureReport(*U).empty())
        Rep.fail(Where + " has no capture report");
      uint64_t &Want = FlatHash[PI * Vars.size() + VI];
      uint64_t Got = fnv1a(rml::flat::encodeFlat(*U->Flat));
      if (Want == 0)
        Want = Got;
      else if (Want != Got)
        Rep.fail(Where + " flattened differently than on the first pass");
      if (T.on()) {
        size_t Bytes = 0;
        if (!flatRoundTrip(*U->Flat, T, Op, Bytes))
          Rep.fail(Where + " flat round trip changed the unit");
        UnitBytes.push_back(static_cast<double>(Bytes));
        IrNodes.push_back(static_cast<double>(C.arenaFootprint().total()));
      }
    }
  }
  return P;
}

} // namespace

void runCompileCold(const Options &O, const Oracle &, Report &Rep) {
  Tracer T(false);
  uint64_t Op = 0;
  const std::vector<rml::CompileOptions> Vars = variants();
  const size_t NProg = rml::bench::benchmarkSuite().size();
  std::vector<uint64_t> FlatHash(NProg * Vars.size(), 0);
  std::vector<double> IrNodes, UnitBytes;
  Rng R(O.Seed);

  // Set-up: a warm-up pass (first-touch allocation, the phase registry,
  // the corpus strings), repeated for the median.
  std::vector<std::vector<double>> SetupMs(NProg);
  for (unsigned I = 0; I < setupReps(O); ++I) {
    Pass P = compilePass(Vars, R, T, Op, FlatHash, IrNodes, UnitBytes, Rep);
    for (size_t PI = 0; PI < NProg; ++PI)
      SetupMs[PI].push_back(P.ProgramNs[PI] / 1e6 / P.ProbeMs[PI] *
                            ProbeRefMs);
  }
  double SetupS = 0;
  for (const std::vector<double> &V : SetupMs)
    SetupS += median(V) / 1e3;

  // Per program: compile times relative to the probe.
  std::vector<std::vector<double>> ProgramRel(NProg);
  std::vector<double> ProbeMs;
  std::vector<double> TracedPassMs, PlainPassMs;
  Deadline D(O.Seconds);
  unsigned Passes = 0;
  uint64_t LastPassNs = 0;
  do {
    bool Traced = O.Trace && Passes % 2 == 1;
    T.setOn(Traced);
    uint64_t T0 = nowNs();
    Pass P = compilePass(Vars, R, T, Op, FlatHash, IrNodes, UnitBytes, Rep);
    LastPassNs = nowNs() - T0;
    // Compile time only: the checks and the codec round trip between
    // compiles are not part of it.
    double CompileMs = 0;
    for (size_t I = 0; I < NProg; ++I) {
      ProgramRel[I].push_back(P.ProgramNs[I] / 1e6 / P.ProbeMs[I]);
      ProbeMs.push_back(P.ProbeMs[I]);
      CompileMs += P.ProgramNs[I] / 1e6;
    }
    (Traced ? TracedPassMs : PlainPassMs).push_back(CompileMs);
    ++Passes;
  } while (Passes < (O.Trace ? 2u : 1u) ||
           (!O.Tiny && D.another(LastPassNs)));
  T.setOn(false);
  std::fprintf(stderr, "perfbench: compile-cold %u passes in %.1fs\n",
               Passes, D.elapsedSeconds());

  if (!O.Trace) {
    std::vector<double> Medians;
    for (const std::vector<double> &V : ProgramRel)
      Medians.push_back(median(V) * ProbeRefMs);
    Rep.metric("cost_ms", geomean(Medians), "ms");
    Rep.metric("rss_mb", peakRssMb(), "MB");
    Rep.metric("ok_share", Rep.okShare(), "share");
    Rep.metric("setup_s", SetupS, "s");
    return;
  }

  std::map<std::string, double> V;
  staticLayerValues(T, V);
  V["core.ir_nodes"] = median(IrNodes);
  V["flat.unit_bytes"] = median(UnitBytes);
  V["host.probe_ms"] = median(ProbeMs);
  V["trace.overhead_share"] =
      median(TracedPassMs) / median(PlainPassMs) - 1.0;
  emitLayerMetrics(Rep, V);
  std::string Path = O.WorkDir + "/trace-compile-cold-" +
                     std::to_string(O.Seed) + ".json";
  if (!T.writeChrome(Path))
    Rep.invalidate("cannot write " + Path);
}

} // namespace pb

//===- perfbench/src/Workloads.h - The three workloads ----------*- C++ -*-===//
//
// Each workload sets up (several times, reporting the median as
// setup_s), measures for Options::Seconds, checks every output against
// the oracle, and fills the report. An untraced run reports the
// end-to-end metrics every workload shares: cost_ms (the time the
// system spends on one operation), rss_mb, ok_share and setup_s. A
// traced run reports every per-layer metric instead (Layers.h).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"
#include "Oracle.h"

namespace pb {

/// How many times a run repeats its set-up for the setup_s median.
inline unsigned setupReps(const Options &O) { return O.Tiny ? 1 : 5; }

void runCorpus(const Options &O, const Oracle &Orc, Report &R);
void runCompileCold(const Options &O, const Oracle &Orc, Report &R);
void runDaemonMix(const Options &O, const Oracle &Orc, Report &R);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H

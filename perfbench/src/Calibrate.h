//===- perfbench/src/Calibrate.h - Host speed probe -------------*- C++ -*-===//
//
// The in-process workloads run on a shared host whose speed for this
// kind of code drifts by tens of percent from one minute to the next.
// The probe is a fixed piece of benchmark-owned work (evaluating a
// random expression tree whose nodes are scattered over 2 MiB: dispatch
// and pointer chasing, no allocation) timed right before each measured
// operation. Dividing the operation's time by the probe's cancels the
// host's speed at that moment; multiplying by ProbeRefMs states the
// result in milliseconds on a host where the probe takes ProbeRefMs.
// The probe shares no code with the library or its allocator, so a
// change to RegionML never moves it.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

namespace pb {

/// The probe's time on the reference host (its median on the 4-vCPU
/// x86-64 box the baseline in README.md was measured on).
inline constexpr double ProbeRefMs = 1.5;

/// Runs the probe once and returns its wall time in milliseconds.
double calibrationMs();

} // namespace pb

#endif // PERFBENCH_CALIBRATE_H

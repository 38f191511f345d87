//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Options, statistics, the result report, and the deterministic random
// source every workload draws its inputs from.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory holding corpus.json and mix_family.json.
  std::string OracleDir;
  /// Scratch directory for traces, the daemon's cache and its logs.
  std::string WorkDir;
  /// Path of the rmld binary (daemon-mix only).
  std::string Rmld;
  /// Smallest sizes that still touch every code path (self-test).
  bool Tiny = false;
};

/// Monotonic nanoseconds, on the same clock as rml::traceNowNanos(),
/// so benchmark spans line up with the library's phase profiles.
uint64_t nowNs();

double median(std::vector<double> V);
/// Linear-interpolated quantile, \p Q in [0,1]; 0 for an empty input.
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);

/// Peak resident set (VmHWM) of \p Pid, or of this process when 0, in
/// MiB; 0 when /proc cannot be read.
double peakRssMb(int Pid = 0);

/// splitmix64: a tiny, portable generator, so a seed gives the same
/// inputs on every standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }

private:
  uint64_t S;
};

/// Deterministic Fisher-Yates shuffle of the indices 0..N-1.
std::vector<size_t> shuffledIndices(size_t N, Rng &R);

/// What one run prints as its last line: the verdict, the operation
/// tally and the metrics, each with its unit.
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Counts \p N operations as attempted.
  void attempt(uint64_t N = 1) { Attempted += N; }
  /// Records one failed operation; the first few reasons go to stderr.
  void fail(const std::string &Why);
  /// Marks the whole run wrong without counting an operation (a broken
  /// invariant of the system under test, such as a nonzero error
  /// counter in the daemon).
  void invalidate(const std::string &Why);

  bool correct() const { return Correct && Failed == 0; }
  double okShare() const;
  std::string json() const;

private:
  std::map<std::string, std::pair<double, std::string>> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;
  unsigned Logged = 0;
};

/// Loop control for a timed phase: keeps going while another iteration
/// of the typical length still fits in the budget.
class Deadline {
public:
  explicit Deadline(double Seconds);
  /// True if an iteration as long as the longest so far still fits.
  bool another(uint64_t LastIterNanos);
  double elapsedSeconds() const;

private:
  uint64_t Start;
  uint64_t BudgetNs;
  uint64_t Longest = 0;
};

} // namespace pb

#endif // PERFBENCH_COMMON_H

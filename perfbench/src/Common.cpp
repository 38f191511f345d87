//===- perfbench/src/Common.cpp -------------------------------------------===//

#include "Common.h"

#include "support/Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

namespace pb {

uint64_t nowNs() { return rml::traceNowNanos(); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  if (Frac == 0 || std::isinf(V[Hi]))
    return Frac == 0 ? V[Lo] : V[Hi];
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-12));
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double peakRssMb(int Pid) {
  std::string Path =
      Pid ? "/proc/" + std::to_string(Pid) + "/status" : "/proc/self/status";
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::vector<size_t> shuffledIndices(size_t N, Rng &R) {
  std::vector<size_t> Idx(N);
  std::iota(Idx.begin(), Idx.end(), 0);
  for (size_t I = N; I > 1; --I)
    std::swap(Idx[I - 1], Idx[R.below(I)]);
  return Idx;
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  Metrics[Name] = {Value, Unit};
}

void Report::fail(const std::string &Why) {
  ++Failed;
  if (Logged++ < 10)
    std::fprintf(stderr, "perfbench: FAIL %s\n", Why.c_str());
}

void Report::invalidate(const std::string &Why) {
  Correct = false;
  std::fprintf(stderr, "perfbench: INVALID %s\n", Why.c_str());
}

double Report::okShare() const {
  return Attempted ? 1.0 - static_cast<double>(Failed) /
                               static_cast<double>(Attempted)
                   : 0.0;
}

std::string Report::json() const {
  std::ostringstream Out;
  Out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << std::max<uint64_t>(Attempted, 1)
      << ", \"failed\": " << Failed << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, VU] : Metrics) {
    char Num[64];
    double V = std::isfinite(VU.first) ? VU.first : 0.0;
    std::snprintf(Num, sizeof(Num), "%.9g", V);
    Out << (First ? "" : ", ") << "\"" << rml::jsonEscaped(Name)
        << "\": {\"value\": " << Num << ", \"unit\": \""
        << rml::jsonEscaped(VU.second) << "\"}";
    First = false;
  }
  Out << "}}";
  return Out.str();
}

Deadline::Deadline(double Seconds)
    : Start(nowNs()), BudgetNs(static_cast<uint64_t>(Seconds * 1e9)) {}

bool Deadline::another(uint64_t LastIterNanos) {
  Longest = std::max(Longest, LastIterNanos);
  return nowNs() - Start + Longest <= BudgetNs;
}

double Deadline::elapsedSeconds() const {
  return static_cast<double>(nowNs() - Start) / 1e9;
}

} // namespace pb

//===- perfbench/src/Tracer.cpp -------------------------------------------===//

#include "Tracer.h"

#include <algorithm>
#include <cstdio>

namespace pb {

uint32_t Tracer::add(uint64_t Op, uint32_t Parent, const char *Name,
                     uint64_t StartNs, uint64_t EndNs) {
  if (!On)
    return 0;
  Spans.push_back({Op, Parent, Name, StartNs, std::max(StartNs, EndNs)});
  return static_cast<uint32_t>(Spans.size());
}

std::map<std::string, double> Tracer::selfNanos() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = static_cast<double>(Spans[I].End - Spans[I].Start);
  // Children are recorded inside their parent's interval and never
  // overlap one another, so subtracting their durations leaves the
  // uncovered part.
  for (const Span &S : Spans)
    if (S.Parent)
      Self[S.Parent - 1] -= static_cast<double>(S.End - S.Start);
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += std::max(0.0, Self[I]);
  return Out;
}

std::map<std::string, uint64_t> Tracer::counts() const {
  std::map<std::string, uint64_t> Out;
  for (const Span &S : Spans)
    ++Out[S.Name];
  return Out;
}

bool Tracer::writeChrome(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t T0 = UINT64_MAX;
  for (const Span &S : Spans)
    T0 = std::min(T0, S.Start);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::string Name = S.Name;
    std::string Cat = Name.substr(0, Name.find('.'));
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"op\":%llu,\"id\":%zu,\"parent\":%u}}",
                 I ? "," : "", Name.c_str(), Cat.c_str(),
                 static_cast<double>(S.Start - T0) / 1e3,
                 static_cast<double>(S.End - S.Start) / 1e3,
                 static_cast<unsigned long long>(S.Op), I + 1, S.Parent);
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

} // namespace pb

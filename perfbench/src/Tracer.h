//===- perfbench/src/Tracer.h - Benchmark-side spans ------------*- C++ -*-===//
//
// The traced run's recorder. Spans are taken in the benchmark's own code
// around each call into a layer (and, for the compile phases and the
// collector pauses, from the timestamps the library already reports at
// those boundaries). All spans of one operation share its op id; each
// span names its parent. Spans stay in memory and are written out as
// Chrome trace-event JSON when the run ends.
//
// A layer's self time is its span's duration minus the part covered by
// its child spans.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}
  bool on() const { return On; }
  /// Pauses or resumes recording (the traced run alternates traced and
  /// untraced passes to measure the tracer's own overhead).
  void setOn(bool V) { On = V; }

  /// Records one finished span and returns its id (0 when tracing is
  /// off). \p Parent is 0 for an operation's root span. \p Name is a
  /// string literal of the form "layer.what".
  uint32_t add(uint64_t Op, uint32_t Parent, const char *Name,
               uint64_t StartNs, uint64_t EndNs);

  /// Self nanoseconds summed per span name.
  std::map<std::string, double> selfNanos() const;
  /// Span count per name.
  std::map<std::string, uint64_t> counts() const;

  /// Writes {"traceEvents":[...]} to \p Path; false when it cannot.
  bool writeChrome(const std::string &Path) const;

private:
  struct Span {
    uint64_t Op;
    uint32_t Parent;
    const char *Name;
    uint64_t Start;
    uint64_t End;
  };
  bool On;
  std::vector<Span> Spans;
};

} // namespace pb

#endif // PERFBENCH_TRACER_H

//===- tests/RunRow.h - One run's observables as one line -------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The field list the runtime's oracles compare: the golden fixture
/// (tests/golden_run_test.cpp) stores it, and the in-memory-vs-decoded
/// differentials compare two runs by it. A row holds the outcome,
/// error, output and result text, the step count, every HeapStats field
/// except the pool-dependent PagesFromSharedPool, the pause count, and
/// the GC policy's raises, drops and final threshold. Comparing rows
/// as strings makes a mismatch print both runs in full.
///
//===----------------------------------------------------------------------===//

#ifndef RML_TESTS_RUNROW_H
#define RML_TESTS_RUNROW_H

#include "rt/Eval.h"

#include <cstdio>
#include <sstream>
#include <string>

namespace rml::test {

inline const char *outcomeName(rt::RunOutcome O) {
  switch (O) {
  case rt::RunOutcome::Ok:
    return "ok";
  case rt::RunOutcome::UncaughtException:
    return "uncaught";
  case rt::RunOutcome::DanglingPointer:
    return "dangling";
  case rt::RunOutcome::RuntimeError:
    return "runtime_error";
  }
  return "?";
}

/// Keeps a text field on one line and free of the field separator.
inline std::string escapedField(const std::string &S) {
  std::string Out;
  for (unsigned char C : S) {
    if (C == '\\' || C == '|' || C < 0x20 || C >= 0x7f) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\x%02x", C);
      Out += Buf;
    } else {
      Out.push_back(static_cast<char>(C));
    }
  }
  return Out;
}

/// \p R's observables as "outcome=...|error=...|...|threshold=N".
inline std::string runRow(const rt::RunResult &R) {
  const rt::HeapStats &H = R.Heap;
  std::ostringstream Out;
  Out << "outcome=" << outcomeName(R.Outcome)
      << "|error=" << escapedField(R.Error)
      << "|output=" << escapedField(R.Output)
      << "|result=" << escapedField(R.ResultText) << "|steps=" << R.Steps
      << "|alloc=" << H.AllocWords << "|current=" << H.CurrentHeapWords
      << "|peak=" << H.PeakHeapWords << "|gc=" << H.GcCount
      << "|minor=" << H.MinorGcCount << "|major=" << H.MajorGcCount
      << "|copied=" << H.CopiedWords << "|regions=" << H.RegionsCreated
      << "|finite=" << H.FiniteRegionsCreated
      << "|pages=" << H.PagesAllocated << "|pauses=" << R.GcPauses.size()
      << "|raises=" << R.Policy.ThresholdRaises
      << "|drops=" << R.Policy.ThresholdDrops
      << "|threshold=" << R.Policy.FinalThresholdWords;
  return Out.str();
}

} // namespace rml::test

#endif // RML_TESTS_RUNROW_H

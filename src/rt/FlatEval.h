//===- rt/FlatEval.h - Interpreter over flat compiled units -----*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The region runtime's interpreter. It executes a flat::FlatUnit
/// directly — no RExpr tree, no Interner, no analysis structures — under
/// rt::EvalOptions and reports an rt::RunResult (rt/Eval.h). Every run
/// goes through here: fresh compiles (Compiler::run), memory-tier and
/// disk-tier cache entries alike. tests/golden_run_test.cpp pins its
/// observables — outcome, output, steps, HeapStats, GC counts and
/// policy moves — across the rg/rg-/r strategy grid.
///
/// A decoded FlatUnit needs nothing from its original Compiler, which
/// is what makes disk-cache entries runnable.
///
//===----------------------------------------------------------------------===//

#ifndef RML_RT_FLATEVAL_H
#define RML_RT_FLATEVAL_H

#include "flat/Flat.h"
#include "rt/Eval.h"

namespace rml::rt {

/// Runs \p U under \p Opts. \p U must be structurally valid and carry
/// its frame slots (as produced by flat::flattenProgram or accepted by
/// flat::decodeFlat; both run flat::resolveFrames).
RunResult runFlatUnit(const flat::FlatUnit &U, const EvalOptions &Opts);

} // namespace rml::rt

#endif // RML_RT_FLATEVAL_H

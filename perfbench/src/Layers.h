//===- perfbench/src/Layers.h - Timed calls into each layer -----*- C++ -*-===//
//
// The benchmark measures the library from outside, through its public
// entry points. These wrappers make one call each and, when the tracer
// is on, record the spans of that call:
//
//   core.compile        around Compiler::compile
//     ast.parse, types.typecheck, rinfer.*, rcheck.check, flat.flatten
//                       one per finished phase, harvested by a
//                       benchmark-owned PhaseGovernor
//   core.run            around Compiler::run
//     rt.run            the run's own profile
//       rt.gc           one per collector pause
//   flat.encode / flat.decode
//                       around flat::encodeFlat / flat::decodeFlat
//
// It also holds the one list of per-layer metric names and units, so
// every workload emits the same set (a layer a workload bypasses reads
// 0 there).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Common.h"
#include "Tracer.h"

#include "core/Pipeline.h"

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

/// The span name of a static phase ("parse" -> "ast.parse"); null for
/// a phase this benchmark does not know.
const char *phaseSpanName(const std::string &Phase);

/// Compiler::compile, timed. \p WallNs receives the call's duration.
std::unique_ptr<rml::CompiledUnit>
compileTimed(rml::Compiler &C, std::string_view Source,
             const rml::CompileOptions &Opts, Tracer &T, uint64_t Op,
             uint64_t &WallNs);

/// Compiler::run, timed.
rml::rt::RunResult runTimed(const rml::Compiler &C,
                            const rml::CompiledUnit &U, Tracer &T,
                            uint64_t Op, uint64_t &WallNs);

/// Encodes and decodes \p U's flat unit once, recording flat.encode and
/// flat.decode spans. False when the round trip does not reproduce the
/// bytes. \p Bytes receives the encoded size.
bool flatRoundTrip(const rml::flat::FlatUnit &U, Tracer &T, uint64_t Op,
                   size_t &Bytes);

/// FNV-1a over \p S (determinism checks on encoded units).
uint64_t fnv1a(std::string_view S);

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

/// Emits every name of layerMetrics(): the value from \p Values, or 0
/// for a layer this workload did not touch.
void emitLayerMetrics(Report &R, const std::map<std::string, double> &Values);

/// Per-call means of the static-phase and codec spans in \p T, keyed by
/// their per-layer metric names (ast.parse_ms, flat.encode_us, ...).
void staticLayerValues(const Tracer &T, std::map<std::string, double> &Out);

} // namespace pb

#endif // PERFBENCH_LAYERS_H

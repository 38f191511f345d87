//===- perfbench/src/Layers.cpp -------------------------------------------===//

#include "Layers.h"

#include "bench/Programs.h"

namespace pb {

namespace {

/// Collects every finished phase profile of one compile; never stops
/// the pipeline.
class PhaseRecorder final : public rml::PhaseGovernor {
public:
  bool keepGoing(const rml::PhaseProfile &P) override {
    if (!P.Skipped)
      Phases.push_back({P.Name, P.StartNanos, P.WallNanos});
    return true;
  }
  struct Phase {
    std::string Name;
    uint64_t Start, Wall;
  };
  std::vector<Phase> Phases;
};

const char *const StaticPhases[][2] = {
    {"parse", "ast.parse"},
    {"typecheck", "types.typecheck"},
    {"spurious", "rinfer.spurious"},
    {"infer", "rinfer.infer"},
    {"check", "rcheck.check"},
    {"multiplicity", "rinfer.multiplicity"},
    {"kinds", "rinfer.kinds"},
    {"drops", "rinfer.drops"},
    {"captures", "rinfer.captures"},
    {"flatten", "flat.flatten"},
};

std::vector<std::pair<std::string, std::string>> buildLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> M = {
      {"ast.parse_ms", "ms"},
      {"types.typecheck_ms", "ms"},
      {"rinfer.spurious_ms", "ms"},
      {"rinfer.infer_ms", "ms"},
      {"rinfer.multiplicity_ms", "ms"},
      {"rinfer.kinds_ms", "ms"},
      {"rinfer.drops_ms", "ms"},
      {"rinfer.captures_ms", "ms"},
      {"rcheck.check_ms", "ms"},
      {"flat.flatten_ms", "ms"},
      {"core.compile_self_ms", "ms"},
      {"core.ir_nodes", "count"},
      {"flat.unit_bytes", "bytes"},
      {"flat.encode_us", "us"},
      {"flat.decode_us", "us"},
  };
  for (const rml::bench::BenchProgram &P : rml::bench::benchmarkSuite())
    M.push_back({"rt.run_ms." + P.Name, "ms"});
  for (auto [N, U] : std::initializer_list<std::pair<const char *, const char *>>{
           {"rt.mutator_ms", "ms"},
           {"rt.gc_ms", "ms"},
           {"rt.gc_share", "share"},
           {"rt.region_peak_kb", "kb"},
           {"rt.steps", "count"},
           {"rt.ns_per_step", "ns"},
           {"rt.alloc_words", "count"},
           {"rt.gc_count", "count"},
           {"rt.copied_words", "count"},
           {"rt.regions_created", "count"},
           {"rt.pages_allocated", "count"},
           {"service.mem_hit_share", "share"},
           {"service.disk_hit_share", "share"},
           {"service.miss_share", "share"},
           {"service.compile_us_per_miss", "us"},
           {"service.run_us_per_req", "us"},
           {"service.utilization", "share"},
           {"service.queue_high_water", "count"},
           {"rt.pool_reuse", "share"},
           {"rt.pool_locks_per_req", "count"},
           {"rt.pool_steals", "count"},
           {"net.sheds", "count"},
           {"net.protocol_errors", "count"},
           {"net.residual_ms", "ms"},
           {"mix.send_lag_ms", "ms"},
           {"mix.p50_ms", "ms"},
           {"mix.p99_ms", "ms"},
           {"mix.max_rps", "1/s"},
           {"trace.overhead_share", "share"},
           {"host.probe_ms", "ms"},
       })
    M.push_back({N, U});
  return M;
}

} // namespace

const char *phaseSpanName(const std::string &Phase) {
  for (const auto &Row : StaticPhases)
    if (Phase == Row[0])
      return Row[1];
  return nullptr;
}

std::unique_ptr<rml::CompiledUnit>
compileTimed(rml::Compiler &C, std::string_view Source,
             const rml::CompileOptions &Opts, Tracer &T, uint64_t Op,
             uint64_t &WallNs) {
  if (!T.on()) {
    uint64_t T0 = nowNs();
    auto U = C.compile(Source, Opts);
    WallNs = nowNs() - T0;
    return U;
  }
  PhaseRecorder Rec;
  C.setPhaseGovernor(&Rec);
  uint64_t T0 = nowNs();
  auto U = C.compile(Source, Opts);
  uint64_t T1 = nowNs();
  C.setPhaseGovernor(nullptr);
  WallNs = T1 - T0;
  uint32_t Root = T.add(Op, 0, "core.compile", T0, T1);
  for (const PhaseRecorder::Phase &P : Rec.Phases)
    if (const char *Name = phaseSpanName(P.Name))
      T.add(Op, Root, Name, P.Start, P.Start + P.Wall);
  return U;
}

rml::rt::RunResult runTimed(const rml::Compiler &C,
                            const rml::CompiledUnit &U, Tracer &T,
                            uint64_t Op, uint64_t &WallNs) {
  uint64_t T0 = nowNs();
  rml::rt::RunResult R = C.run(U);
  uint64_t T1 = nowNs();
  WallNs = T1 - T0;
  if (T.on()) {
    uint32_t Root = T.add(Op, 0, "core.run", T0, T1);
    uint32_t Run = T.add(Op, Root, "rt.run", R.Phase.StartNanos,
                         R.Phase.StartNanos + R.Phase.WallNanos);
    for (const rml::GcPauseRecord &G : R.GcPauses)
      T.add(Op, Run, "rt.gc", G.StartNanos, G.StartNanos + G.WallNanos);
  }
  return R;
}

bool flatRoundTrip(const rml::flat::FlatUnit &U, Tracer &T, uint64_t Op,
                   size_t &Bytes) {
  uint64_t T0 = nowNs();
  std::string Enc = rml::flat::encodeFlat(U);
  uint64_t T1 = nowNs();
  auto Dec = rml::flat::decodeFlat(Enc);
  uint64_t T2 = nowNs();
  T.add(Op, 0, "flat.encode", T0, T1);
  T.add(Op, 0, "flat.decode", T1, T2);
  Bytes = Enc.size();
  return Dec && rml::flat::encodeFlat(*Dec) == Enc;
}

uint64_t fnv1a(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}

const std::vector<std::pair<std::string, std::string>> &layerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M =
      buildLayerMetrics();
  return M;
}

void emitLayerMetrics(Report &R, const std::map<std::string, double> &Values) {
  for (const auto &[Name, Unit] : layerMetrics()) {
    auto It = Values.find(Name);
    R.metric(Name, It == Values.end() ? 0.0 : It->second, Unit);
  }
}

void staticLayerValues(const Tracer &T, std::map<std::string, double> &Out) {
  std::map<std::string, double> Self = T.selfNanos();
  std::map<std::string, uint64_t> Count = T.counts();
  auto PerCall = [&](const char *Span, const char *Divisor, double Scale) {
    uint64_t N = Count[Divisor];
    return N ? Self[Span] / static_cast<double>(N) / Scale : 0.0;
  };
  // Phase times are per compile (a skipped phase adds nothing), so the
  // phases sum to the compile's time.
  for (const auto &Row : StaticPhases)
    Out[std::string(Row[1]) + "_ms"] =
        PerCall(Row[1], "core.compile", 1e6);
  Out["core.compile_self_ms"] = PerCall("core.compile", "core.compile", 1e6);
  Out["flat.encode_us"] = PerCall("flat.encode", "flat.encode", 1e3);
  Out["flat.decode_us"] = PerCall("flat.decode", "flat.decode", 1e3);
}

} // namespace pb

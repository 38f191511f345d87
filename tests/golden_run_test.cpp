//===- tests/golden_run_test.cpp - Golden run observables -----------------===//
//
// The runtime's reference oracle: every observable of a run, recorded
// once into tests/golden/run_observables.txt and compared row by row.
// The programs are the 19 Figure 9 corpus programs plus the
// Figure 1, Figure 8 and Section 4.4 programs, each compiled under rg,
// rg- and r and run under three EvalOptions: the defaults, an
// aggressive collector with exact dangling detection, and adaptive
// generational collection. A row is the key plus test::runRow's field
// list (tests/RunRow.h).
//
// The fixture is data, not a tool: it has no regenerate switch. A
// mismatch prints the row the run actually produced.
//
//===----------------------------------------------------------------------===//

#include "RunRow.h"

#include "bench/Programs.h"
#include "core/Pipeline.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace rml;

namespace {

struct NamedOptions {
  const char *Name;
  rt::EvalOptions Opts;
};

std::vector<NamedOptions> evalConfigs() {
  rt::EvalOptions Retain;
  Retain.GcThresholdWords = 512;
  Retain.RetainReleasedPages = true;
  rt::EvalOptions Adaptive;
  Adaptive.GcThresholdWords = 2048;
  Adaptive.Generational = true;
  Adaptive.MinorsPerMajor = 4;
  Adaptive.AdaptiveGc = true;
  return {{"default", rt::EvalOptions{}},
          {"gc512-retain", Retain},
          {"gen2048-adaptive", Adaptive}};
}

struct GoldenProgram {
  std::string Name;
  std::string Source;
};

std::vector<GoldenProgram> goldenPrograms() {
  std::vector<GoldenProgram> Out;
  for (const bench::BenchProgram &P : bench::benchmarkSuite())
    Out.push_back({P.Name, P.Source});
  Out.push_back({"figure1", bench::danglingPointerProgram()});
  Out.push_back({"figure8", bench::spuriousChainProgram()});
  Out.push_back({"exn44", bench::exnDanglingProgram()});
  return Out;
}

/// "<program>|<strategy>|<options>", the row key.
std::string rowKey(const std::string &Program, Strategy S,
                   const char *Config) {
  return Program + "|" + strategyName(S) + "|" + Config;
}

/// The fixture's rows by key; '#' lines are header comments.
const std::map<std::string, std::string> &fixtureRows() {
  static const std::map<std::string, std::string> Rows = [] {
    std::map<std::string, std::string> M;
    std::ifstream In(std::string(RML_SOURCE_DIR) +
                     "/tests/golden/run_observables.txt");
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty() || Line[0] == '#')
        continue;
      // The key is the first three fields.
      size_t Cut = 0;
      for (int Field = 0; Field < 3 && Cut != std::string::npos; ++Field)
        Cut = Line.find('|', Cut + (Field ? 1 : 0));
      M.emplace(Line.substr(0, Cut), Line);
    }
    return M;
  }();
  return Rows;
}

TEST(GoldenRun, FixtureCoversEveryRow) {
  size_t Expected = goldenPrograms().size() * 3 * evalConfigs().size();
  EXPECT_EQ(fixtureRows().size(), Expected)
      << "tests/golden/run_observables.txt is missing or incomplete";
}

class GoldenRunTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenRunTest, MatchesTheFixture) {
  const std::string &Name = GetParam();
  std::string Source;
  for (const GoldenProgram &P : goldenPrograms())
    if (P.Name == Name)
      Source = P.Source;
  ASSERT_FALSE(Source.empty()) << Name;

  for (Strategy S : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
    Compiler C;
    CompileOptions Opts;
    Opts.Strat = S;
    auto Unit = C.compile(Source, Opts);
    ASSERT_NE(Unit, nullptr) << Name << ": " << C.diagnostics().str();
    for (const NamedOptions &Cfg : evalConfigs()) {
      std::string Key = rowKey(Name, S, Cfg.Name);
      std::string Actual = Key + "|" + test::runRow(C.run(*Unit, Cfg.Opts));
      auto It = fixtureRows().find(Key);
      if (It == fixtureRows().end()) {
        ADD_FAILURE() << "no fixture row for " << Key << "; actual:\n"
                      << Actual;
        continue;
      }
      EXPECT_EQ(It->second, Actual) << "actual row:\n" << Actual;
    }
  }
}

std::vector<std::string> goldenNames() {
  std::vector<std::string> Names;
  for (const GoldenProgram &P : goldenPrograms())
    Names.push_back(P.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(Programs, GoldenRunTest,
                         ::testing::ValuesIn(goldenNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace

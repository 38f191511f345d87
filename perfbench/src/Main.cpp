//===- perfbench/src/Main.cpp - The benchmark program ---------------------===//
//
//   rmlbench --workload corpus-run|compile-cold|daemon-mix --seed N
//            --seconds S --trace 0|1 --oracle DIR --workdir DIR
//            [--rmld PATH] [--tiny]
//
// Runs one workload and prints, as the last line of standard output,
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// perfbench/run.py builds this binary and calls it; see
// perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Oracle.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace pb;

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "rmlbench: %s needs an argument\n", A.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Next().c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = Next() != "0";
    else if (A == "--oracle")
      O.OracleDir = Next();
    else if (A == "--workdir")
      O.WorkDir = Next();
    else if (A == "--rmld")
      O.Rmld = Next();
    else if (A == "--tiny")
      O.Tiny = true;
    else {
      std::fprintf(stderr, "rmlbench: unknown option '%s'\n", A.c_str());
      return 2;
    }
  }
  if (O.OracleDir.empty() || O.WorkDir.empty() || !(O.Seconds > 0)) {
    std::fprintf(stderr, "rmlbench: --oracle, --workdir and a positive "
                         "--seconds are required\n");
    return 2;
  }

  Oracle Orc;
  std::string Err;
  if (!Orc.load(O.OracleDir, Err)) {
    std::fprintf(stderr, "rmlbench: %s\n", Err.c_str());
    return 1;
  }

  Report R;
  if (O.Workload == "corpus-run")
    runCorpus(O, Orc, R);
  else if (O.Workload == "compile-cold")
    runCompileCold(O, Orc, R);
  else if (O.Workload == "daemon-mix")
    runDaemonMix(O, Orc, R);
  else {
    std::fprintf(stderr, "rmlbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  std::printf("%s\n", R.json().c_str());
  return 0;
}

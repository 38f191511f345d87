//===- perfbench/src/Oracle.h - Expected outputs ----------------*- C++ -*-===//
//
// The benchmark's output oracle, loaded from perfbench/oracle:
//
//  * corpus.json: the final value of each of the 19 Figure-9 programs,
//    produced by an independent Python transcription (transcription.py
//    beside it), never by the compiler under test;
//  * mix_family.json: the daemon-mix program family (a source template
//    with salted literals), its closed-form answer, the expected region
//    type schemes of its top-level functions and its capture report.
//
// Also a minimal JSON reader, enough for the oracle files and rmld's
// /stats body.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pb {

struct Json {
  enum class Kind { Null, Bool, Number, String, Array, Object } K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<Json> Arr;
  std::map<std::string, Json> Obj;

  /// Member \p Key of an object; null when absent or not an object.
  const Json *get(const std::string &Key) const;
  /// Member \p Key as a number; \p Missing when absent.
  double num(const std::string &Key, double Missing = 0) const;
};

/// Parses one JSON document; false with \p Err on malformed input.
bool parseJson(std::string_view Text, Json &Out, std::string &Err);

bool readFile(const std::string &Path, std::string &Out);

class Oracle {
public:
  bool load(const std::string &Dir, std::string &Err);

  /// Expected rendered result of corpus program \p Name ("" if unknown).
  const std::string &corpusResult(const std::string &Name) const;

  /// The family member for \p Salt: distinct salts give distinct
  /// sources (C is the salt itself) that all do the same work.
  std::string familySource(uint64_t Salt) const;
  /// Closed form of the member's result: C + 820*B + 40*A + 11325
  /// (iter 40 C sums B*n + A over n = 1..40; sum (upto 1 150) = 11325).
  static int64_t familyAnswer(uint64_t Salt);
  /// Names whose schemes a scheme query asks for, with the expected
  /// rendering of each (the same for every salt: salts change only
  /// integer literals).
  const std::vector<std::pair<std::string, std::string>> &schemes() const {
    return Schemes;
  }
  const std::string &captureReport() const { return Captures; }

private:
  std::map<std::string, std::string> Corpus;
  std::string Template;
  std::vector<std::pair<std::string, std::string>> Schemes;
  std::string Captures;
};

} // namespace pb

#endif // PERFBENCH_ORACLE_H

//===- perfbench/src/Oracle.cpp -------------------------------------------===//

#include "Oracle.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace pb {

namespace {

class Parser {
public:
  explicit Parser(std::string_view T) : T(T) {}

  bool parse(Json &Out, std::string &Err) {
    if (!value(Out, 0)) {
      Err = "malformed JSON near offset " + std::to_string(P);
      return false;
    }
    ws();
    if (P != T.size()) {
      Err = "trailing bytes at offset " + std::to_string(P);
      return false;
    }
    return true;
  }

private:
  std::string_view T;
  size_t P = 0;

  void ws() {
    while (P < T.size() &&
           (T[P] == ' ' || T[P] == '\n' || T[P] == '\r' || T[P] == '\t'))
      ++P;
  }
  bool lit(std::string_view L) {
    if (T.substr(P, L.size()) != L)
      return false;
    P += L.size();
    return true;
  }

  bool string(std::string &Out) {
    if (P >= T.size() || T[P] != '"')
      return false;
    ++P;
    while (P < T.size() && T[P] != '"') {
      char C = T[P++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (P >= T.size())
        return false;
      char E = T[P++];
      switch (E) {
      case 'n': Out += '\n'; break;
      case 't': Out += '\t'; break;
      case 'r': Out += '\r'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'u': {
        if (P + 4 > T.size())
          return false;
        unsigned Code = static_cast<unsigned>(
            std::strtoul(std::string(T.substr(P, 4)).c_str(), nullptr, 16));
        P += 4;
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default: Out += E; break;
      }
    }
    if (P >= T.size())
      return false;
    ++P;
    return true;
  }

  bool value(Json &Out, unsigned Depth) {
    if (Depth > 64)
      return false;
    ws();
    if (P >= T.size())
      return false;
    char C = T[P];
    if (C == '{') {
      Out.K = Json::Kind::Object;
      ++P;
      ws();
      if (P < T.size() && T[P] == '}')
        return ++P, true;
      for (;;) {
        ws();
        std::string Key;
        if (!string(Key))
          return false;
        ws();
        if (P >= T.size() || T[P++] != ':')
          return false;
        if (!value(Out.Obj[Key], Depth + 1))
          return false;
        ws();
        if (P < T.size() && T[P] == ',') {
          ++P;
          continue;
        }
        return P < T.size() && T[P++] == '}';
      }
    }
    if (C == '[') {
      Out.K = Json::Kind::Array;
      ++P;
      ws();
      if (P < T.size() && T[P] == ']')
        return ++P, true;
      for (;;) {
        Out.Arr.emplace_back();
        if (!value(Out.Arr.back(), Depth + 1))
          return false;
        ws();
        if (P < T.size() && T[P] == ',') {
          ++P;
          continue;
        }
        return P < T.size() && T[P++] == ']';
      }
    }
    if (C == '"') {
      Out.K = Json::Kind::String;
      return string(Out.Str);
    }
    if (lit("true")) {
      Out.K = Json::Kind::Bool;
      Out.B = true;
      return true;
    }
    if (lit("false")) {
      Out.K = Json::Kind::Bool;
      return true;
    }
    if (lit("null"))
      return true;
    std::string Num(T.substr(P, 40));
    char *End = nullptr;
    Out.Num = std::strtod(Num.c_str(), &End);
    if (End == Num.c_str())
      return false;
    Out.K = Json::Kind::Number;
    P += static_cast<size_t>(End - Num.c_str());
    return true;
  }
};

/// The literals one salt plants in the family template.
struct FamilyParams {
  int64_t A, B, C;
};

FamilyParams familyParams(uint64_t Salt) {
  FamilyParams P;
  P.A = 1 + static_cast<int64_t>(Salt % 9);
  P.B = 2 + static_cast<int64_t>((Salt / 9) % 7);
  P.C = static_cast<int64_t>(Salt);
  return P;
}

std::string replaceAll(std::string S, const std::string &From,
                       const std::string &To) {
  for (size_t At = S.find(From); At != std::string::npos;
       At = S.find(From, At + To.size()))
    S.replace(At, From.size(), To);
  return S;
}

} // namespace

const Json *Json::get(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  auto It = Obj.find(Key);
  return It == Obj.end() ? nullptr : &It->second;
}

double Json::num(const std::string &Key, double Missing) const {
  const Json *V = get(Key);
  return V && V->K == Kind::Number ? V->Num : Missing;
}

bool parseJson(std::string_view Text, Json &Out, std::string &Err) {
  return Parser(Text).parse(Out, Err);
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream S;
  S << In.rdbuf();
  Out = S.str();
  return true;
}

bool Oracle::load(const std::string &Dir, std::string &Err) {
  Json Corp, Fam;
  std::string Text;
  if (!readFile(Dir + "/corpus.json", Text) || !parseJson(Text, Corp, Err)) {
    Err = "cannot load " + Dir + "/corpus.json " + Err;
    return false;
  }
  const Json *Results = Corp.get("results");
  if (!Results || Results->K != Json::Kind::Object) {
    Err = "corpus.json has no \"results\" object";
    return false;
  }
  for (const auto &[Name, V] : Results->Obj)
    Corpus[Name] = V.Str;

  if (!readFile(Dir + "/mix_family.json", Text) ||
      !parseJson(Text, Fam, Err)) {
    Err = "cannot load " + Dir + "/mix_family.json " + Err;
    return false;
  }
  const Json *Tpl = Fam.get("template");
  const Json *Sch = Fam.get("schemes");
  const Json *Cap = Fam.get("capture_report");
  if (!Tpl || Tpl->K != Json::Kind::Array || !Sch ||
      Sch->K != Json::Kind::Array || !Cap || Cap->K != Json::Kind::Array) {
    Err = "mix_family.json needs template, schemes and capture_report";
    return false;
  }
  // Multi-line texts are stored one line per array element.
  auto Lines = [](const Json &A) {
    std::string S;
    for (const Json &L : A.Arr)
      S += L.Str + "\n";
    return S;
  };
  Template = Lines(*Tpl);
  Captures = Lines(*Cap);
  for (const Json &Pair : Sch->Arr) {
    if (Pair.K != Json::Kind::Array || Pair.Arr.size() != 2) {
      Err = "mix_family.json schemes must be [name, scheme] pairs";
      return false;
    }
    Schemes.emplace_back(Pair.Arr[0].Str, Pair.Arr[1].Str);
  }
  return true;
}

const std::string &Oracle::corpusResult(const std::string &Name) const {
  static const std::string Empty;
  auto It = Corpus.find(Name);
  return It == Corpus.end() ? Empty : It->second;
}

std::string Oracle::familySource(uint64_t Salt) const {
  FamilyParams P = familyParams(Salt);
  std::string S = Template;
  S = replaceAll(S, "{A}", std::to_string(P.A));
  S = replaceAll(S, "{B}", std::to_string(P.B));
  S = replaceAll(S, "{C}", std::to_string(P.C));
  return S;
}

int64_t Oracle::familyAnswer(uint64_t Salt) {
  FamilyParams P = familyParams(Salt);
  return P.C + 820 * P.B + 40 * P.A + 11325;
}

} // namespace pb

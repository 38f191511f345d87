//===- perfbench/src/Calibrate.cpp ----------------------------------------===//

#include "Calibrate.h"

#include "Common.h"

#include <cstdint>
#include <vector>

namespace pb {

namespace {

struct Node {
  int32_t Op = 0;
  int32_t A = -1, B = -1;
  int64_t V = 0;
};

/// A random expression tree of depth 15 (2 MiB of nodes, beyond the L2
/// cache), its nodes scattered over the array so evaluation chases
/// pointers the way an interpreter walking heap objects does. Built once.
struct Tree {
  std::vector<Node> Nodes;
  int32_t Root = 0;

  Tree() {
    const int Depth = 15;
    size_t N = (size_t(1) << (Depth + 1)) - 1;
    Rng R(1);
    std::vector<size_t> Slot = shuffledIndices(N, R);
    Nodes.resize(N);
    size_t Next = 0;
    Root = build(Depth, R, Slot, Next);
  }

  int32_t build(int Depth, Rng &R, const std::vector<size_t> &Slot,
                size_t &Next) {
    int32_t At = static_cast<int32_t>(Slot[Next++]);
    if (Depth == 0) {
      Nodes[At].V = static_cast<int64_t>(R.below(100));
      return At;
    }
    Nodes[At].Op = 1 + static_cast<int32_t>(R.below(3));
    int32_t A = build(Depth - 1, R, Slot, Next);
    int32_t B = build(Depth - 1, R, Slot, Next);
    Nodes[At].A = A;
    Nodes[At].B = B;
    return At;
  }

  int64_t eval(int32_t I) const {
    const Node &N = Nodes[I];
    switch (N.Op) {
    case 0:
      return N.V;
    case 1:
      return eval(N.A) + eval(N.B);
    case 2:
      return eval(N.A) - eval(N.B);
    default:
      return (eval(N.A) ^ eval(N.B)) & 0xffff;
    }
  }
};

/// Keeps the evaluation from being optimised away.
volatile int64_t ProbeSink;

} // namespace

double calibrationMs() {
  static const Tree T;
  uint64_t T0 = nowNs();
  ProbeSink = T.eval(T.Root);
  return static_cast<double>(nowNs() - T0) / 1e6;
}

} // namespace pb

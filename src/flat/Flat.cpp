//===- flat/Flat.cpp ------------------------------------------------------===//

#include "flat/Flat.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <set>
#include <type_traits>
#include <unordered_map>

using namespace rml;
using namespace rml::flat;

//===----------------------------------------------------------------------===//
// FlatUnit queries
//===----------------------------------------------------------------------===//

const FlatRegion *FlatUnit::regionInfo(uint32_t Id) const {
  auto It = std::lower_bound(
      Regions.begin(), Regions.end(), Id,
      [](const FlatRegion &R, uint32_t Id) { return R.Id < Id; });
  if (It == Regions.end() || It->Id != Id)
    return nullptr;
  return &*It;
}

size_t FlatUnit::retainedBytes() const {
  auto Bytes = [](const auto &V) {
    return V.size() * sizeof(typename std::decay_t<decltype(V)>::value_type);
  };
  return sizeof(FlatUnit) + Bytes(Nodes) + Bytes(Fns) + Bytes(Caps) +
         Bytes(Aux) + Bytes(AuxSlots) + Bytes(Mus) + Bytes(Taus) + Bytes(Regions) +
         Bytes(ExnNames) + StringBlob.size() + Bytes(StringSpans);
}

//===----------------------------------------------------------------------===//
// Frame resolution
//===----------------------------------------------------------------------===//

namespace {

/// A stack of bindings (variable names or region static ids) with an
/// O(1) innermost-binding lookup: Top maps a key to the stack position
/// of its innermost binding (NoIndex once unbound), and each push saves
/// the position it shadows. NoIndex keys occupy a slot without being
/// findable.
class Bindings {
public:
  uint32_t size() const { return static_cast<uint32_t>(Keys.size()); }

  void push(uint32_t Key) {
    Saved.push_back(Key == NoIndex ? NoIndex : top(Key));
    if (Key != NoIndex)
      Top[Key] = size();
    Keys.push_back(Key);
  }

  void pop() {
    if (Keys.back() != NoIndex)
      Top[Keys.back()] = Saved.back();
    Keys.pop_back();
    Saved.pop_back();
  }

  /// Slot of \p Key's innermost binding in the frame starting at
  /// \p Base, or NoIndex when the frame does not bind it.
  uint32_t slot(uint32_t Key, uint32_t Base) const {
    uint32_t P = top(Key);
    return P == NoIndex || P < Base ? NoIndex : P - Base;
  }

private:
  uint32_t top(uint32_t Key) const {
    auto It = Top.find(Key);
    return It == Top.end() ? NoIndex : It->second;
  }

  std::unordered_map<uint32_t, uint32_t> Top;
  std::vector<uint32_t> Keys, Saved;
};

/// The resolution walk. An explicit task stack replaces recursion, so
/// a deep (or hostile) unit cannot exhaust the native stack.
class FrameResolver {
public:
  explicit FrameResolver(FlatUnit &U)
      : U(U), NodeSeen(U.Nodes.size()), FnSeen(U.Fns.size()),
        AuxSeen(U.Aux.size()) {}

  bool run() {
    U.AuxSlots.assign(U.Aux.size(), NoIndex);
    for (FlatNode &N : U.Nodes)
      N.Slot = NoIndex;
    visit(U.Root);
    while (!Tasks.empty()) {
      Task T = Tasks.back();
      Tasks.pop_back();
      switch (T.K) {
      case Task::Visit:
        step(T.X);
        break;
      case Task::PushVar:
        Vars.push(T.X);
        break;
      case Task::PopVars:
        for (uint32_t I = 0; I < T.X; ++I)
          Vars.pop();
        break;
      case Task::PopRhos:
        for (uint32_t I = 0; I < T.X; ++I)
          Rhos.pop();
        break;
      case Task::LeaveFrame:
        VarBase = T.X;
        RhoBase = T.Y;
        break;
      }
    }
    return Ok;
  }

private:
  struct Task {
    enum Kind : uint8_t { Visit, PushVar, PopVars, PopRhos, LeaveFrame } K;
    uint32_t X = 0, Y = 0;
  };

  void visit(uint32_t Node) {
    if (Node != NoIndex)
      Tasks.push_back({Task::Visit, Node});
  }

  uint32_t var(uint32_t Name) {
    uint32_t S = Name == NoIndex ? NoIndex : Vars.slot(Name, VarBase);
    Ok &= S != NoIndex;
    return S;
  }

  uint32_t rho(uint32_t StaticId) {
    if (StaticId == 0)
      return GlobalRegionSlot;
    uint32_t S = StaticId == NoIndex ? NoIndex : Rhos.slot(StaticId, RhoBase);
    Ok &= S != NoIndex;
    return S;
  }

  /// Each Aux entry belongs to one reference, resolved once.
  void setAux(uint32_t I, uint32_t Slot) {
    Ok &= !AuxSeen[I];
    AuxSeen[I] = true;
    U.AuxSlots[I] = Slot;
  }

  void step(uint32_t Idx) {
    if (NodeSeen[Idx]) { // a second parent: not a tree
      Ok = false;
      return;
    }
    NodeSeen[Idx] = true;
    FlatNode &N = U.Nodes[Idx];
    switch (static_cast<RExpr::Kind>(N.Kind)) {
    case RExpr::Kind::Var:
      N.Slot = var(N.Name);
      return;
    case RExpr::Kind::Lam:
    case RExpr::Kind::FunBind:
      enterFn(N);
      return;
    case RExpr::Kind::Let:
      Tasks.push_back({Task::PopVars, 1});
      visit(N.B);
      Tasks.push_back({Task::PushVar, N.Name});
      visit(N.A);
      return;
    case RExpr::Kind::ListCase:
      Tasks.push_back({Task::PopVars, 2});
      visit(N.C);
      Tasks.push_back({Task::PushVar, N.TailName});
      Tasks.push_back({Task::PushVar, N.HeadName});
      visit(N.B);
      visit(N.A);
      return;
    case RExpr::Kind::Handle:
      // The evaluator binds the handler argument only when there is a
      // binder name.
      if (N.BindName != NoIndex) {
        Tasks.push_back({Task::PopVars, 1});
        visit(N.B);
        Tasks.push_back({Task::PushVar, N.BindName});
      } else {
        visit(N.B);
      }
      visit(N.A);
      return;
    case RExpr::Kind::LetRegion: {
      const FlatRegion *Info = U.regionInfo(N.BoundRho);
      N.Slot = Info ? static_cast<uint32_t>(Info - U.Regions.data()) : NoIndex;
      Rhos.push(N.BoundRho);
      Tasks.push_back({Task::PopRhos, 1});
      visit(N.A);
      return;
    }
    case RExpr::Kind::RApp:
      N.Slot = rho(N.AtRho);
      for (uint32_t I = 1; I < N.AuxCount; I += 2)
        setAux(N.AuxBegin + I, rho(U.Aux[N.AuxBegin + I]));
      visit(N.A);
      return;
    case RExpr::Kind::Seq:
      for (uint32_t I = N.AuxCount; I-- > 0;)
        visit(U.Aux[N.AuxBegin + I]);
      return;
    case RExpr::Kind::StrE:
    case RExpr::Kind::PairE:
    case RExpr::Kind::ConsE:
    case RExpr::Kind::RefE:
      N.Slot = rho(N.AtRho);
      break;
    case RExpr::Kind::BinOp:
      if (static_cast<BinOpKind>(N.Op) == BinOpKind::Concat)
        N.Slot = rho(N.AtRho);
      break;
    case RExpr::Kind::Prim:
      if (static_cast<Expr::PrimKind>(N.Prim) == Expr::PrimKind::Itos)
        N.Slot = rho(N.AtRho);
      break;
    default:
      break;
    }
    visit(N.C);
    visit(N.B);
    visit(N.A);
  }

  /// A closure-creating node: resolves the closure's captures and free
  /// regions in the current frame, then walks the body in its own.
  void enterFn(FlatNode &N) {
    N.Slot = rho(N.AtRho);
    if (FnSeen[N.Fn]) {
      Ok = false;
      return;
    }
    FnSeen[N.Fn] = true;
    const FlatFn &F = U.Fns[N.Fn];
    for (uint32_t I = 0; I < F.CapturesCount; ++I)
      setAux(F.CapturesBegin + I, var(U.Aux[F.CapturesBegin + I]));
    for (uint32_t I = 0; I < F.FreeRegionsCount; ++I)
      setAux(F.FreeRegionsBegin + I, rho(U.Aux[F.FreeRegionsBegin + I]));

    uint32_t NumVars = F.CapturesCount + (F.Self != NoIndex) + 1;
    Tasks.push_back({Task::LeaveFrame, VarBase, RhoBase});
    Tasks.push_back({Task::PopRhos, F.FreeRegionsCount + F.FormalsCount});
    Tasks.push_back({Task::PopVars, NumVars});
    visit(F.Body);
    VarBase = Vars.size();
    RhoBase = Rhos.size();
    for (uint32_t I = 0; I < F.CapturesCount; ++I)
      Vars.push(U.Aux[F.CapturesBegin + I]);
    if (F.Self != NoIndex)
      Vars.push(F.Self);
    Vars.push(F.Param);
    for (uint32_t I = 0; I < F.FreeRegionsCount; ++I)
      Rhos.push(U.Aux[F.FreeRegionsBegin + I]);
    for (uint32_t I = 0; I < F.FormalsCount; ++I)
      Rhos.push(U.Aux[F.FormalsBegin + I]);
  }

  FlatUnit &U;
  std::vector<bool> NodeSeen, FnSeen, AuxSeen;
  std::vector<Task> Tasks;
  Bindings Vars, Rhos;
  uint32_t VarBase = 0, RhoBase = 0;
  bool Ok = true;
};

} // namespace

bool rml::flat::resolveFrames(FlatUnit &U) {
  if (U.Root >= U.Nodes.size())
    return false;
  return FrameResolver(U).run();
}

//===----------------------------------------------------------------------===//
// Flattening
//===----------------------------------------------------------------------===//

namespace {

/// The per-function compilation pass: fun/lambda discovery in
/// pre-order, capture lists, RApp argument resolution against the
/// lexical fun scope, and the free-region computation with the drop
/// analysis applied. Closure sizes follow from it, so it fixes the
/// words a run allocates — tests/golden_run_test.cpp pins them.
struct FnInfo {
  const RExpr *Node = nullptr;
  const RExpr *Body = nullptr;
  Symbol Param;
  Symbol SelfName;
  std::vector<Symbol> Captures;
  std::vector<uint32_t> FreeRegions;
  std::vector<uint32_t> RuntimeFormals;
};

class FnPass {
public:
  FnPass(const DropInfo &Drops) : Drops(Drops) {}

  std::vector<FnInfo> Fns;
  std::unordered_map<const RExpr *, std::vector<std::pair<uint32_t, uint32_t>>>
      RAppArgs;
  std::unordered_map<Symbol, uint32_t> ExnIds;
  uint32_t NextExnId = 0;

  void run(const RProgram &P) {
    for (const auto &[Name, Sig] : P.ExnSigs)
      if (!ExnIds.count(Name))
        ExnIds.emplace(Name, NextExnId++);
    walk(P.Root);
    for (FnInfo &F : Fns)
      computeFreeRegions(F);
  }

private:
  void bindFun(Symbol Name, const RExpr *Fun) {
    FunScope.emplace_back(Name, Fun);
  }
  const RExpr *lookupFun(Symbol Name) const {
    for (size_t I = FunScope.size(); I-- > 0;)
      if (FunScope[I].first == Name)
        return FunScope[I].second;
    return nullptr;
  }

  void walk(const RExpr *E) {
    if (!E)
      return;
    switch (E->K) {
    case RExpr::Kind::Lam: {
      FnInfo F;
      F.Node = E;
      F.Body = E->A;
      F.Param = E->Param;
      F.Captures = freeVars(E);
      Fns.push_back(std::move(F));
      walk(E->A);
      return;
    }
    case RExpr::Kind::FunBind: {
      FnInfo F;
      F.Node = E;
      F.Body = E->A;
      F.Param = E->Param;
      F.SelfName = E->Name;
      F.Captures = freeVars(E);
      for (RegionVar R : E->Sigma.QRegions)
        if (!Drops.isDropped(E, R))
          F.RuntimeFormals.push_back(R.Id);
      Fns.push_back(std::move(F));
      size_t Mark = FunScope.size();
      bindFun(E->Name, E);
      walk(E->A);
      FunScope.resize(Mark);
      return;
    }
    case RExpr::Kind::Let: {
      walk(E->A);
      size_t Mark = FunScope.size();
      if (E->A->K == RExpr::Kind::FunBind)
        bindFun(E->Name, E->A);
      walk(E->B);
      FunScope.resize(Mark);
      return;
    }
    case RExpr::Kind::RApp: {
      assert(E->A->K == RExpr::Kind::Var && "region application target");
      const RExpr *Callee = lookupFun(E->A->Name);
      std::vector<std::pair<uint32_t, uint32_t>> Args;
      if (Callee) {
        for (RegionVar Q : Callee->Sigma.QRegions) {
          if (Drops.isDropped(Callee, Q))
            continue;
          auto It = E->Inst.Sr.find(Q);
          Args.emplace_back(Q.Id,
                            It != E->Inst.Sr.end() ? It->second.Id : Q.Id);
        }
      }
      RAppArgs.emplace(E, std::move(Args));
      walk(E->A);
      return;
    }
    default:
      walk(E->A);
      walk(E->B);
      walk(E->C);
      for (const RExpr *Item : E->Items)
        walk(Item);
      return;
    }
  }

  void collectRegionRefs(const RExpr *E, std::set<uint32_t> &Bound,
                         std::set<uint32_t> &Out) {
    if (!E)
      return;
    if (E->AtRho.isValid() && E->AtRho.Id != 0 && !Bound.count(E->AtRho.Id))
      Out.insert(E->AtRho.Id);
    if (E->K == RExpr::Kind::RApp) {
      auto It = RAppArgs.find(E);
      if (It != RAppArgs.end())
        for (const auto &[Formal, Target] : It->second)
          if (Target != 0 && !Bound.count(Target))
            Out.insert(Target);
    }
    if (E->K == RExpr::Kind::LetRegion) {
      std::set<uint32_t> Inner = Bound;
      Inner.insert(E->BoundRho.Id);
      collectRegionRefs(E->A, Inner, Out);
      return;
    }
    if (E->K == RExpr::Kind::FunBind) {
      std::set<uint32_t> Inner = Bound;
      for (RegionVar R : E->Sigma.QRegions)
        Inner.insert(R.Id);
      collectRegionRefs(E->A, Inner, Out);
      return;
    }
    collectRegionRefs(E->A, Bound, Out);
    collectRegionRefs(E->B, Bound, Out);
    collectRegionRefs(E->C, Bound, Out);
    for (const RExpr *Item : E->Items)
      collectRegionRefs(Item, Bound, Out);
  }

  void computeFreeRegions(FnInfo &F) {
    std::set<uint32_t> Bound, Out;
    for (uint32_t R : F.RuntimeFormals)
      Bound.insert(R);
    if (F.Node->K == RExpr::Kind::FunBind)
      for (RegionVar R : F.Node->Sigma.QRegions)
        Bound.insert(R.Id);
    collectRegionRefs(F.Body, Bound, Out);
    F.FreeRegions.assign(Out.begin(), Out.end());
  }

  const DropInfo &Drops;
  std::vector<std::pair<Symbol, const RExpr *>> FunScope;
};

/// The second pass: rewrites the RExpr web into the index tables,
/// consulting the FnPass results for fn links, RApp pairs and exn ids.
class Flattener {
public:
  Flattener(const FnPass &FP, const MultiplicityInfo &Mult,
            const RegionKindInfo &Kinds, const Interner &Names)
      : FP(FP), Mult(Mult), Kinds(Kinds), Names(Names) {}

  FlatUnit take(const RProgram &P, const Mu *RootMu, Strategy Strat,
                const CaptureInfo *Caps) {
    U.Strat = static_cast<uint8_t>(Strat);
    RegionIds.insert(0); // the global region always has an entry
    FnBody.assign(FP.Fns.size(), NoIndex);
    U.Root = flatten(P.Root);
    U.RootMu = flattenMu(RootMu);
    // Fn table: bodies and captures were flattened/interned while
    // walking the root (every body is a descendant of the root).
    for (size_t I = 0; I < FP.Fns.size(); ++I) {
      const FnInfo &F = FP.Fns[I];
      FlatFn FF;
      FF.Body = FnBody[I];
      FF.Param = nameId(F.Param);
      FF.Self = nameId(F.SelfName);
      FF.CapturesBegin = static_cast<uint32_t>(U.Aux.size());
      FF.CapturesCount = static_cast<uint32_t>(F.Captures.size());
      for (Symbol S : F.Captures)
        U.Aux.push_back(nameId(S));
      FF.FreeRegionsBegin = static_cast<uint32_t>(U.Aux.size());
      FF.FreeRegionsCount = static_cast<uint32_t>(F.FreeRegions.size());
      for (uint32_t R : F.FreeRegions)
        U.Aux.push_back(R);
      FF.FormalsBegin = static_cast<uint32_t>(U.Aux.size());
      FF.FormalsCount = static_cast<uint32_t>(F.RuntimeFormals.size());
      for (uint32_t R : F.RuntimeFormals)
        U.Aux.push_back(R);
      U.Fns.push_back(FF);
    }
    // Capture table: the analysis enumerates closures in this pass's
    // own pre-order, so entry i annotates Fns[i]. A mismatched table
    // (impossible through the pipeline; conceivable for hand-built
    // inputs) is dropped rather than misattributed.
    if (Caps && Caps->Closures.size() == U.Fns.size()) {
      U.HasCaptures = 1;
      for (const ClosureCapture &C : Caps->Closures) {
        FlatCapture FC;
        FC.ValueBegin = static_cast<uint32_t>(U.Aux.size());
        FC.ValueCount = static_cast<uint32_t>(C.ViaValue.size());
        for (uint32_t R : C.ViaValue)
          U.Aux.push_back(R);
        FC.EffectBegin = static_cast<uint32_t>(U.Aux.size());
        FC.EffectCount = static_cast<uint32_t>(C.ViaEffect.size());
        for (uint32_t R : C.ViaEffect)
          U.Aux.push_back(R);
        U.Caps.push_back(FC);
      }
    }
    // Region facts, ascending by id (regionInfo binary-searches).
    for (uint32_t Id : RegionIds) {
      FlatRegion R;
      R.Id = Id;
      R.Kind = static_cast<uint8_t>(Kinds.kindOf(RegionVar(Id)));
      R.Finite = Mult.isFinite(RegionVar(Id)) ? 1 : 0;
      auto It = Mult.FiniteWords.find(Id);
      R.Words = It != Mult.FiniteWords.end() ? It->second : 0;
      U.Regions.push_back(R);
    }
    // Exception names in id order (ids were assigned sequentially).
    // Intern in id order too — iterating the unordered map directly
    // would make string-table order (and the encoding) nondeterministic.
    std::vector<Symbol> ById(FP.NextExnId);
    for (const auto &[Name, Id] : FP.ExnIds)
      ById[Id] = Name;
    U.ExnNames.reserve(ById.size());
    for (Symbol Name : ById)
      U.ExnNames.push_back(nameId(Name));
    return std::move(U);
  }

private:
  uint32_t stringId(std::string_view S) {
    auto It = StringIndex.find(std::string(S));
    if (It != StringIndex.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(U.StringSpans.size());
    U.StringSpans.emplace_back(static_cast<uint32_t>(U.StringBlob.size()),
                               static_cast<uint32_t>(S.size()));
    U.StringBlob.append(S);
    StringIndex.emplace(std::string(S), Id);
    return Id;
  }

  uint32_t nameId(Symbol S) {
    return S.isValid() ? stringId(Names.text(S)) : NoIndex;
  }

  uint32_t exnIdOf(Symbol Name) const {
    // Unregistered constructors get a sentinel id.
    auto It = FP.ExnIds.find(Name);
    return It != FP.ExnIds.end() ? It->second : UINT32_MAX - 2;
  }

  uint32_t flattenMu(const Mu *M) {
    if (!M)
      return NoIndex;
    auto It = MuIndex.find(M);
    if (It != MuIndex.end())
      return It->second;
    FlatMu FM;
    FM.Kind = static_cast<uint8_t>(M->K);
    if (M->K == Mu::Kind::Boxed)
      FM.T = flattenTau(M->T);
    uint32_t Id = static_cast<uint32_t>(U.Mus.size());
    U.Mus.push_back(FM);
    MuIndex.emplace(M, Id);
    return Id;
  }

  uint32_t flattenTau(const Tau *T) {
    auto It = TauIndex.find(T);
    if (It != TauIndex.end())
      return It->second;
    FlatTau FT;
    FT.Kind = static_cast<uint8_t>(T->K);
    // Only what rendering reads: pair/list/ref element types. Arrow
    // renders as "fn" without recursing, so its children stay absent.
    switch (T->K) {
    case Tau::Kind::Pair:
      FT.A = flattenMu(T->A);
      FT.B = flattenMu(T->B);
      break;
    case Tau::Kind::List:
    case Tau::Kind::Ref:
      FT.A = flattenMu(T->A);
      break;
    default:
      break;
    }
    uint32_t Id = static_cast<uint32_t>(U.Taus.size());
    U.Taus.push_back(FT);
    TauIndex.emplace(T, Id);
    return Id;
  }

  uint32_t flatten(const RExpr *E) {
    if (!E)
      return NoIndex;
    // A shared subtree is flattened once per parent: the copies may sit
    // in different frames, and each node carries one set of slots. The
    // walk is FnPass's pre-order, so the k-th fn met here is FP.Fns[k].

    FlatNode N;
    N.Kind = static_cast<uint8_t>(E->K);
    switch (E->K) {
    case RExpr::Kind::IntLit:
      N.Int = E->IntValue;
      break;
    case RExpr::Kind::BoolLit:
      N.Int = E->BoolValue ? 1 : 0;
      break;
    case RExpr::Kind::StrE:
      N.Str = stringId(E->StrValue);
      N.AtRho = E->AtRho.Id;
      break;
    case RExpr::Kind::Var:
      N.Name = nameId(E->Name);
      break;
    case RExpr::Kind::Lam:
    case RExpr::Kind::FunBind:
      N.Fn = NextFn++;
      assert(FP.Fns[N.Fn].Node == E && "flatten and FnPass walk in step");
      N.AtRho = E->AtRho.Id;
      N.A = FnBody[N.Fn] = flatten(E->A);
      break;
    case RExpr::Kind::Let:
      N.Name = nameId(E->Name);
      N.A = flatten(E->A);
      N.B = flatten(E->B);
      break;
    case RExpr::Kind::RApp: {
      N.AtRho = E->AtRho.Id;
      const auto &Args = FP.RAppArgs.at(E);
      N.AuxBegin = static_cast<uint32_t>(U.Aux.size());
      N.AuxCount = static_cast<uint32_t>(2 * Args.size());
      for (const auto &[Formal, Target] : Args) {
        U.Aux.push_back(Formal);
        U.Aux.push_back(Target);
      }
      N.A = flatten(E->A);
      break;
    }
    case RExpr::Kind::LetRegion:
      N.BoundRho = E->BoundRho.Id;
      RegionIds.insert(E->BoundRho.Id);
      N.A = flatten(E->A);
      break;
    case RExpr::Kind::Sel:
      N.Sel = static_cast<uint8_t>(E->SelIndex);
      N.A = flatten(E->A);
      break;
    case RExpr::Kind::BinOp:
      N.Op = static_cast<uint8_t>(E->Op);
      N.AtRho = E->AtRho.Id; // Concat allocates
      N.A = flatten(E->A);
      N.B = flatten(E->B);
      break;
    case RExpr::Kind::ListCase:
      N.HeadName = nameId(E->HeadName);
      N.TailName = nameId(E->TailName);
      N.A = flatten(E->A);
      N.B = flatten(E->B);
      N.C = flatten(E->C);
      break;
    case RExpr::Kind::Seq: {
      N.AuxBegin = static_cast<uint32_t>(U.Aux.size());
      N.AuxCount = static_cast<uint32_t>(E->Items.size());
      // Reserve the span before recursing: nested Seqs interleave
      // their own entries otherwise.
      size_t Base = U.Aux.size();
      U.Aux.resize(Base + E->Items.size(), NoIndex);
      for (size_t I = 0; I < E->Items.size(); ++I)
        U.Aux[Base + I] = flatten(E->Items[I]);
      break;
    }
    case RExpr::Kind::Handle:
      N.ExnId = E->ExnName.isValid() ? exnIdOf(E->ExnName) : NoIndex;
      N.BindName = nameId(E->BindName);
      N.A = flatten(E->A);
      N.B = flatten(E->B);
      break;
    case RExpr::Kind::ExnConE:
      N.ExnId = exnIdOf(E->ExnName);
      N.A = flatten(E->A);
      break;
    case RExpr::Kind::Prim:
      N.Prim = static_cast<uint8_t>(E->PrimK);
      N.AtRho = E->AtRho.Id; // Itos allocates
      N.A = flatten(E->A);
      break;
    default:
      // PairE/ConsE/RefE (allocation site), App/If/Deref/Assign/Raise
      // (plain children), UnitLit/NilVal (no payload), and the value
      // forms the evaluator rejects at runtime.
      N.AtRho = E->AtRho.Id;
      N.A = flatten(E->A);
      N.B = flatten(E->B);
      N.C = flatten(E->C);
      break;
    }

    uint32_t Id = static_cast<uint32_t>(U.Nodes.size());
    U.Nodes.push_back(N);
    return Id;
  }

  const FnPass &FP;
  const MultiplicityInfo &Mult;
  const RegionKindInfo &Kinds;
  const Interner &Names;
  FlatUnit U;
  uint32_t NextFn = 0;
  std::vector<uint32_t> FnBody; // per fn: its body's node index
  std::unordered_map<const Mu *, uint32_t> MuIndex;
  std::unordered_map<const Tau *, uint32_t> TauIndex;
  std::unordered_map<std::string, uint32_t> StringIndex;
  std::set<uint32_t> RegionIds;
};

} // namespace

FlatUnit rml::flat::flattenProgram(const RProgram &P, const Mu *RootMu,
                                   const MultiplicityInfo &Mult,
                                   const RegionKindInfo &Kinds,
                                   const DropInfo &Drops,
                                   const Interner &Names, Strategy Strat,
                                   const CaptureInfo *Caps) {
  FnPass FP(Drops);
  FP.run(P);
  Flattener F(FP, Mult, Kinds, Names);
  FlatUnit U = F.take(P, RootMu, Strat, Caps);
  // Pipeline output resolves completely (tests/fuzz_test.cpp checks
  // every generated program); a reference that did not would keep a
  // NoIndex slot, which the evaluator reports as an internal error.
  resolveFrames(U);
  return U;
}

std::string rml::flat::renderCaptureReport(const FlatUnit &U) {
  if (!U.HasCaptures)
    return "";
  std::vector<CaptureReportRow> Rows;
  Rows.reserve(U.Caps.size());
  for (size_t I = 0; I < U.Caps.size(); ++I) {
    const FlatFn &F = U.Fns[I];
    const FlatCapture &C = U.Caps[I];
    CaptureReportRow R;
    R.IsFun = F.Self != NoIndex;
    if (F.Self != NoIndex)
      R.Self = std::string(U.str(F.Self));
    if (F.Param != NoIndex)
      R.Param = std::string(U.str(F.Param));
    R.ViaValue.assign(U.Aux.begin() + C.ValueBegin,
                      U.Aux.begin() + C.ValueBegin + C.ValueCount);
    R.ViaEffect.assign(U.Aux.begin() + C.EffectBegin,
                       U.Aux.begin() + C.EffectBegin + C.EffectCount);
    Rows.push_back(std::move(R));
  }
  return rml::renderCaptureReport(static_cast<Strategy>(U.Strat), Rows);
}

//===----------------------------------------------------------------------===//
// Serialisation
//===----------------------------------------------------------------------===//

namespace {

constexpr char Magic[8] = {'R', 'M', 'L', 'F', 'L', 'A', 'T', '1'};
/// v2 added the HasCaptures flag and the Caps table; v3 added the fn
/// runtime-formals span. Older bytes are version-rejected (the disk
/// cache counts that as a load reject).
constexpr uint32_t FlatVersion = 3;

uint64_t fnv1a(std::string_view Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

void putU8(std::string &B, uint8_t V) { B.push_back(static_cast<char>(V)); }
void putU32(std::string &B, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    B.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}
void putU64(std::string &B, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    B.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

/// Bounds-checked little-endian reader; any overrun latches Ok=false
/// and subsequent reads return zeros.
struct Reader {
  std::string_view Bytes;
  size_t Pos = 0;
  bool Ok = true;

  bool take(void *Out, size_t N) {
    if (!Ok || Bytes.size() - Pos < N) {
      Ok = false;
      return false;
    }
    std::memcpy(Out, Bytes.data() + Pos, N);
    Pos += N;
    return true;
  }
  uint8_t u8() {
    uint8_t V = 0;
    take(&V, 1);
    return V;
  }
  uint32_t u32() {
    unsigned char Buf[4] = {};
    take(Buf, 4);
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Buf[I]) << (8 * I);
    return V;
  }
  uint64_t u64() {
    unsigned char Buf[8] = {};
    take(Buf, 8);
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Buf[I]) << (8 * I);
    return V;
  }
  size_t remaining() const { return Ok ? Bytes.size() - Pos : 0; }
  /// A table of \p N elements of at least \p ElemBytes each must fit in
  /// the remaining input — rejects absurd counts before any resize.
  bool fits(uint64_t N, size_t ElemBytes) const {
    return Ok && N <= remaining() / ElemBytes;
  }
  bool done() const { return Ok && Pos == Bytes.size(); }
};

void encodeNode(std::string &B, const FlatNode &N) {
  putU8(B, N.Kind);
  putU8(B, N.Op);
  putU8(B, N.Prim);
  putU8(B, N.Sel);
  putU32(B, N.A);
  putU32(B, N.B);
  putU32(B, N.C);
  putU32(B, N.AuxBegin);
  putU32(B, N.AuxCount);
  putU32(B, N.Name);
  putU32(B, N.HeadName);
  putU32(B, N.TailName);
  putU32(B, N.BindName);
  putU32(B, N.ExnId);
  putU32(B, N.Str);
  putU64(B, static_cast<uint64_t>(N.Int));
  putU32(B, N.AtRho);
  putU32(B, N.BoundRho);
  putU32(B, N.Fn);
}
constexpr size_t NodeBytes = 4 + 14 * 4 + 8;

FlatNode decodeNode(Reader &R) {
  FlatNode N;
  N.Kind = R.u8();
  N.Op = R.u8();
  N.Prim = R.u8();
  N.Sel = R.u8();
  N.A = R.u32();
  N.B = R.u32();
  N.C = R.u32();
  N.AuxBegin = R.u32();
  N.AuxCount = R.u32();
  N.Name = R.u32();
  N.HeadName = R.u32();
  N.TailName = R.u32();
  N.BindName = R.u32();
  N.ExnId = R.u32();
  N.Str = R.u32();
  N.Int = static_cast<int64_t>(R.u64());
  N.AtRho = R.u32();
  N.BoundRho = R.u32();
  N.Fn = R.u32();
  return N;
}

constexpr size_t FnBytes = 9 * 4;
constexpr size_t CapBytes = 4 * 4;
constexpr size_t MuBytes = 1 + 4;
constexpr size_t TauBytes = 1 + 2 * 4;
constexpr size_t RegionBytes = 4 + 1 + 1 + 4;

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

bool spanOk(uint32_t Begin, uint32_t Count, size_t Limit) {
  return static_cast<uint64_t>(Begin) + Count <= Limit;
}

bool strOk(uint32_t Id, const FlatUnit &U) {
  return Id == NoIndex || Id < U.StringSpans.size();
}

bool nodeRefOk(uint32_t Id, const FlatUnit &U) {
  return Id == NoIndex || Id < U.Nodes.size();
}

/// Full structural validation: every cross-reference lands inside its
/// table, so the interpreter can index without bounds checks.
bool validate(const FlatUnit &U) {
  if (U.Strat > static_cast<uint8_t>(Strategy::R))
    return false;
  if (U.HasCaptures > 1)
    return false;
  // The capture table is all-or-nothing: parallel to Fns when the flag
  // is set, absent when it is not.
  if (U.Caps.size() != (U.HasCaptures ? U.Fns.size() : 0))
    return false;
  if (U.Root >= U.Nodes.size())
    return false;
  if (U.RootMu != NoIndex && U.RootMu >= U.Mus.size())
    return false;

  for (const FlatNode &N : U.Nodes) {
    if (N.Kind > static_cast<uint8_t>(RExpr::Kind::Prim))
      return false;
    if (N.Op > static_cast<uint8_t>(BinOpKind::StrEq))
      return false;
    if (N.Prim > static_cast<uint8_t>(Expr::PrimKind::Global))
      return false;
    if (N.Sel != 1 && N.Sel != 2)
      return false;
    if (!nodeRefOk(N.A, U) || !nodeRefOk(N.B, U) || !nodeRefOk(N.C, U))
      return false;
    if (!spanOk(N.AuxBegin, N.AuxCount, U.Aux.size()))
      return false;
    if (!strOk(N.Name, U) || !strOk(N.HeadName, U) || !strOk(N.TailName, U) ||
        !strOk(N.BindName, U) || !strOk(N.Str, U))
      return false;
    if (N.Fn != NoIndex && N.Fn >= U.Fns.size())
      return false;
    switch (static_cast<RExpr::Kind>(N.Kind)) {
    case RExpr::Kind::StrE:
      if (N.Str == NoIndex)
        return false;
      break;
    case RExpr::Kind::Lam:
    case RExpr::Kind::FunBind:
      if (N.Fn == NoIndex)
        return false;
      break;
    case RExpr::Kind::Seq:
      for (uint32_t I = 0; I < N.AuxCount; ++I)
        if (U.Aux[N.AuxBegin + I] >= U.Nodes.size())
          return false;
      break;
    case RExpr::Kind::RApp:
      if (N.AuxCount % 2 != 0)
        return false;
      break;
    default:
      break;
    }
  }

  for (const FlatFn &F : U.Fns) {
    if (F.Body >= U.Nodes.size())
      return false;
    if (!strOk(F.Param, U) || !strOk(F.Self, U))
      return false;
    if (!spanOk(F.CapturesBegin, F.CapturesCount, U.Aux.size()) ||
        !spanOk(F.FreeRegionsBegin, F.FreeRegionsCount, U.Aux.size()) ||
        !spanOk(F.FormalsBegin, F.FormalsCount, U.Aux.size()))
      return false;
    for (uint32_t I = 0; I < F.CapturesCount; ++I)
      if (U.Aux[F.CapturesBegin + I] >= U.StringSpans.size())
        return false;
  }

  for (const FlatCapture &C : U.Caps)
    if (!spanOk(C.ValueBegin, C.ValueCount, U.Aux.size()) ||
        !spanOk(C.EffectBegin, C.EffectCount, U.Aux.size()))
      return false;

  for (const FlatMu &M : U.Mus) {
    if (M.Kind > static_cast<uint8_t>(Mu::Kind::Boxed))
      return false;
    if (M.T != NoIndex && M.T >= U.Taus.size())
      return false;
    if (M.Kind == static_cast<uint8_t>(Mu::Kind::Boxed) && M.T == NoIndex)
      return false;
  }
  for (const FlatTau &T : U.Taus) {
    if (T.Kind > static_cast<uint8_t>(Tau::Kind::Exn))
      return false;
    if (T.A != NoIndex && T.A >= U.Mus.size())
      return false;
    if (T.B != NoIndex && T.B >= U.Mus.size())
      return false;
  }

  for (size_t I = 0; I < U.Regions.size(); ++I) {
    if (U.Regions[I].Kind > static_cast<uint8_t>(RegionKind::Mixed))
      return false;
    if (I != 0 && U.Regions[I - 1].Id >= U.Regions[I].Id)
      return false; // must be strictly ascending for binary search
  }

  for (uint32_t S : U.ExnNames)
    if (S >= U.StringSpans.size())
      return false;

  return true;
}

} // namespace

std::string rml::flat::encodeFlat(const FlatUnit &U) {
  std::string Body;
  putU8(Body, U.Strat);
  putU8(Body, U.HasCaptures);
  putU32(Body, U.Root);
  putU32(Body, U.RootMu);
  putU64(Body, U.Nodes.size());
  for (const FlatNode &N : U.Nodes)
    encodeNode(Body, N);
  putU64(Body, U.Fns.size());
  for (const FlatFn &F : U.Fns) {
    putU32(Body, F.Body);
    putU32(Body, F.Param);
    putU32(Body, F.Self);
    putU32(Body, F.CapturesBegin);
    putU32(Body, F.CapturesCount);
    putU32(Body, F.FreeRegionsBegin);
    putU32(Body, F.FreeRegionsCount);
    putU32(Body, F.FormalsBegin);
    putU32(Body, F.FormalsCount);
  }
  putU64(Body, U.Caps.size());
  for (const FlatCapture &C : U.Caps) {
    putU32(Body, C.ValueBegin);
    putU32(Body, C.ValueCount);
    putU32(Body, C.EffectBegin);
    putU32(Body, C.EffectCount);
  }
  putU64(Body, U.Aux.size());
  for (uint32_t V : U.Aux)
    putU32(Body, V);
  putU64(Body, U.Mus.size());
  for (const FlatMu &M : U.Mus) {
    putU8(Body, M.Kind);
    putU32(Body, M.T);
  }
  putU64(Body, U.Taus.size());
  for (const FlatTau &T : U.Taus) {
    putU8(Body, T.Kind);
    putU32(Body, T.A);
    putU32(Body, T.B);
  }
  putU64(Body, U.Regions.size());
  for (const FlatRegion &R : U.Regions) {
    putU32(Body, R.Id);
    putU8(Body, R.Kind);
    putU8(Body, R.Finite);
    putU32(Body, R.Words);
  }
  putU64(Body, U.ExnNames.size());
  for (uint32_t S : U.ExnNames)
    putU32(Body, S);
  // String section: lengths in table order, then the blob. Spans are
  // contiguous and ascending (the flattener appends), so the blob *is*
  // the concatenation — decode rebuilds identical offsets.
  putU64(Body, U.StringSpans.size());
  for (const auto &[Off, Len] : U.StringSpans)
    putU32(Body, Len);
  putU64(Body, U.StringBlob.size());
  Body += U.StringBlob;

  std::string Out;
  Out.reserve(sizeof(Magic) + 12 + Body.size());
  Out.append(Magic, sizeof(Magic));
  putU32(Out, FlatVersion);
  putU64(Out, fnv1a(Body));
  Out += Body;
  return Out;
}

std::shared_ptr<const FlatUnit> rml::flat::decodeFlat(std::string_view Bytes) {
  constexpr size_t HeaderBytes = sizeof(Magic) + 4 + 8;
  if (Bytes.size() < HeaderBytes)
    return nullptr;
  if (std::memcmp(Bytes.data(), Magic, sizeof(Magic)) != 0)
    return nullptr;
  Reader H{Bytes.substr(sizeof(Magic))};
  if (H.u32() != FlatVersion)
    return nullptr;
  uint64_t WantHash = H.u64();
  std::string_view BodyBytes = Bytes.substr(HeaderBytes);
  // The checksum turns arbitrary in-body corruption (bit flips,
  // truncation mid-field) into a deterministic reject before any
  // structural parsing happens.
  if (fnv1a(BodyBytes) != WantHash)
    return nullptr;

  Reader R{BodyBytes};
  auto U = std::make_shared<FlatUnit>();
  U->Strat = R.u8();
  U->HasCaptures = R.u8();
  U->Root = R.u32();
  U->RootMu = R.u32();

  uint64_t NumNodes = R.u64();
  if (!R.fits(NumNodes, NodeBytes))
    return nullptr;
  U->Nodes.reserve(NumNodes);
  for (uint64_t I = 0; I < NumNodes && R.Ok; ++I)
    U->Nodes.push_back(decodeNode(R));

  uint64_t NumFns = R.u64();
  if (!R.fits(NumFns, FnBytes))
    return nullptr;
  U->Fns.reserve(NumFns);
  for (uint64_t I = 0; I < NumFns && R.Ok; ++I) {
    FlatFn F;
    F.Body = R.u32();
    F.Param = R.u32();
    F.Self = R.u32();
    F.CapturesBegin = R.u32();
    F.CapturesCount = R.u32();
    F.FreeRegionsBegin = R.u32();
    F.FreeRegionsCount = R.u32();
    F.FormalsBegin = R.u32();
    F.FormalsCount = R.u32();
    U->Fns.push_back(F);
  }

  uint64_t NumCaps = R.u64();
  if (!R.fits(NumCaps, CapBytes))
    return nullptr;
  U->Caps.reserve(NumCaps);
  for (uint64_t I = 0; I < NumCaps && R.Ok; ++I) {
    FlatCapture C;
    C.ValueBegin = R.u32();
    C.ValueCount = R.u32();
    C.EffectBegin = R.u32();
    C.EffectCount = R.u32();
    U->Caps.push_back(C);
  }

  uint64_t NumAux = R.u64();
  if (!R.fits(NumAux, 4))
    return nullptr;
  U->Aux.reserve(NumAux);
  for (uint64_t I = 0; I < NumAux && R.Ok; ++I)
    U->Aux.push_back(R.u32());

  uint64_t NumMus = R.u64();
  if (!R.fits(NumMus, MuBytes))
    return nullptr;
  U->Mus.reserve(NumMus);
  for (uint64_t I = 0; I < NumMus && R.Ok; ++I) {
    FlatMu M;
    M.Kind = R.u8();
    M.T = R.u32();
    U->Mus.push_back(M);
  }

  uint64_t NumTaus = R.u64();
  if (!R.fits(NumTaus, TauBytes))
    return nullptr;
  U->Taus.reserve(NumTaus);
  for (uint64_t I = 0; I < NumTaus && R.Ok; ++I) {
    FlatTau T;
    T.Kind = R.u8();
    T.A = R.u32();
    T.B = R.u32();
    U->Taus.push_back(T);
  }

  uint64_t NumRegions = R.u64();
  if (!R.fits(NumRegions, RegionBytes))
    return nullptr;
  U->Regions.reserve(NumRegions);
  for (uint64_t I = 0; I < NumRegions && R.Ok; ++I) {
    FlatRegion G;
    G.Id = R.u32();
    G.Kind = R.u8();
    G.Finite = R.u8();
    G.Words = R.u32();
    U->Regions.push_back(G);
  }

  uint64_t NumExn = R.u64();
  if (!R.fits(NumExn, 4))
    return nullptr;
  U->ExnNames.reserve(NumExn);
  for (uint64_t I = 0; I < NumExn && R.Ok; ++I)
    U->ExnNames.push_back(R.u32());

  uint64_t NumStrings = R.u64();
  if (!R.fits(NumStrings, 4))
    return nullptr;
  std::vector<uint32_t> Lens;
  Lens.reserve(NumStrings);
  for (uint64_t I = 0; I < NumStrings && R.Ok; ++I)
    Lens.push_back(R.u32());
  uint64_t BlobLen = R.u64();
  if (!R.Ok || BlobLen > R.remaining())
    return nullptr;
  U->StringBlob.assign(BodyBytes.data() + R.Pos, BlobLen);
  R.Pos += BlobLen;
  // Rebuild the span table; the declared lengths must tile the blob
  // exactly (a section-length overrun fails here).
  uint64_t Off = 0;
  U->StringSpans.reserve(Lens.size());
  for (uint32_t L : Lens) {
    if (Off + L > BlobLen)
      return nullptr;
    U->StringSpans.emplace_back(static_cast<uint32_t>(Off), L);
    Off += L;
  }
  if (Off != BlobLen)
    return nullptr;

  // No trailing bytes, no short reads, every index in range, and every
  // reference resolved inside its own frame.
  if (!R.done())
    return nullptr;
  if (!validate(*U) || !resolveFrames(*U))
    return nullptr;
  return U;
}

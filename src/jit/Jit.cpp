//===- jit/Jit.cpp - The online (JIT) compilation stage --------------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
//
// Pipeline (each pass linear in bytecode size — the paper's constraint):
//
//   1. foldGuards      — resolve version_guard conditions that are static
//                        for this (target, runtime) pair.
//   2. planRegions     — per region (function top level and each if-arm),
//                        decide vector vs scalar-expansion lowering and a
//                        strategy for every memory idiom.
//   3. markLive        — dead-code analysis given those strategies: the
//                        realignment chains of paper Fig. 3a die here when
//                        the target uses plain (mis)aligned accesses.
//   4. emit            — one walk producing machine code. Vector values
//                        map to one vector register (vector regions) or to
//                        per-lane scalar registers at the granularity of
//                        the widest element type (scalar regions).
//   5. post passes     — strong tier: loop-invariant hoisting; both tiers:
//                        register-pressure spill modeling; legacy profile:
//                        unpromoted accumulators (Table 3).
//
//===----------------------------------------------------------------------===//

#include "jit/Jit.h"

#include "ir/ScalarOps.h"
#include "obs/Obs.h"
#include "support/FaultInject.h"
#include "support/Support.h"

#include <algorithm>
#include <map>
#include <set>

using namespace vapor;
using namespace vapor::jit;
using namespace vapor::ir;
using namespace vapor::target;

RuntimeInfo RuntimeInfo::fromMemory(const MemoryImage &Mem) {
  RuntimeInfo RT;
  for (size_t I = 0; I < Mem.arrayCount(); ++I)
    RT.Arrays.push_back({true, Mem.base(static_cast<uint32_t>(I))});
  return RT;
}

RuntimeInfo RuntimeInfo::unknown(size_t NumArrays) {
  RuntimeInfo RT;
  RT.Arrays.resize(NumArrays);
  return RT;
}

//===--- The per-target strategy model ------------------------------------===//

const char *jit::memStrategyName(MemStrategy S) {
  switch (S) {
  case MemStrategy::Aligned:
    return "aligned";
  case MemStrategy::Unaligned:
    return "unaligned";
  case MemStrategy::Perm:
    return "perm-realign";
  case MemStrategy::Scalar:
    return "scalarized";
  }
  vapor_unreachable("bad strategy");
}

bool jit::hintProvesAligned(const AlignHint &H, uint32_t Array,
                            const TargetDesc &T, const RuntimeInfo &RT) {
  if (!H.known() || T.VSBytes == 0 ||
      H.Mis % static_cast<int32_t>(T.VSBytes) != 0)
    return false;
  if (!H.IfJitAligns)
    return true;
  return Array < RT.Arrays.size() && RT.Arrays[Array].KnownBase &&
         isAligned(RT.Arrays[Array].Base, T.VSBytes);
}

bool jit::hintCouldProveAligned(const AlignHint &H, const TargetDesc &T) {
  return H.known() && T.VSBytes != 0 &&
         H.Mis % static_cast<int32_t>(T.VSBytes) == 0;
}

MemStrategy jit::memStrategy(Opcode Op, bool ScalarRegion, bool HintAligned,
                             const TargetDesc &T) {
  switch (Op) {
  case Opcode::ALoad:
  case Opcode::AStore:
    return ScalarRegion ? MemStrategy::Scalar : MemStrategy::Aligned;
  case Opcode::ULoad:
  case Opcode::UStore:
    if (ScalarRegion)
      return MemStrategy::Scalar;
    return HintAligned ? MemStrategy::Aligned : MemStrategy::Unaligned;
  case Opcode::RealignLoad:
    if (ScalarRegion)
      return MemStrategy::Scalar;
    if (HintAligned)
      return MemStrategy::Aligned;
    return T.HasMisaligned ? MemStrategy::Unaligned : MemStrategy::Perm;
  default:
    vapor_unreachable("opcode has no memory strategy");
  }
}

bool jit::isLibCallable(Opcode Op) {
  return Op == Opcode::WidenMultHi || Op == Opcode::WidenMultLo ||
         Op == Opcode::Convert;
}

std::string jit::vectorBlockReason(const Function &F, const Instr &I,
                                   const TargetDesc &T, bool HintAligned) {
  bool VectorInstr = I.Ty.isVector();
  for (ValueId Op : I.Ops)
    VectorInstr |= F.typeOf(Op).isVector();
  if (!VectorInstr)
    return "";
  ScalarKind K = I.Ty.isVector() ? I.Ty.Elem : ScalarKind::None;
  if (K != ScalarKind::None && K != ScalarKind::I1 && !T.supportsVecKind(K))
    return std::string("no vector support for ") + scalarKindName(K);
  if (!T.supportsVecOp(I.Op) &&
      !(T.LibFallbackForOps && isLibCallable(I.Op)))
    return std::string("no vector support for ") + opcodeMnemonic(I.Op);
  if ((I.Op == Opcode::ULoad || I.Op == Opcode::UStore) &&
      !T.HasMisaligned && !HintAligned)
    return "misaligned access unsupported";
  if (I.Op == Opcode::RealignLoad && !T.HasMisaligned &&
      !T.HasPermRealign && !HintAligned)
    return "no realignment mechanism";
  return "";
}

namespace {

void scanMinVecElemSize(const Function &F, const Region &R,
                        unsigned &MinSize) {
  for (const NodeRef &N : R.Nodes) {
    switch (N.Kind) {
    case NodeKind::Instr: {
      const Instr &I = F.Instrs[N.Index];
      if (I.Ty.isVector() && I.Ty.Elem != ScalarKind::I1)
        MinSize = std::min(MinSize, scalarSize(I.Ty.Elem));
      break;
    }
    case NodeKind::Loop:
      scanMinVecElemSize(F, F.Loops[N.Index].Body, MinSize);
      break;
    case NodeKind::If:
      scanMinVecElemSize(F, F.Ifs[N.Index].Then, MinSize);
      scanMinVecElemSize(F, F.Ifs[N.Index].Else, MinSize);
      break;
    }
  }
}

} // namespace

unsigned jit::minVectorElemSize(const Function &F, const Region &R) {
  unsigned MinSize = 16;
  scanMinVecElemSize(F, R, MinSize);
  return MinSize;
}

int64_t jit::loopVF(const Function &F, const LoopStmt &L,
                    const TargetDesc &T) {
  unsigned MinSize = minVectorElemSize(F, L.Body);
  if (MinSize == 16 || T.VSBytes == 0)
    return 1;
  return T.VSBytes / MinSize;
}

std::optional<bool> jit::foldGuardStatic(const Instr &I, const TargetDesc &T,
                                         const RuntimeInfo &RT,
                                         Tier CompilerTier,
                                         bool NestedInLoop) {
  assert(I.Op == Opcode::VersionGuard && "not a guard");
  switch (I.Guard) {
  case GuardKind::TypeSupported:
    // Static target capability; every online compiler folds this.
    return T.supportsVecKind(I.TyParam);
  case GuardKind::PreferOuterLoop:
    // Cost-model answer: short-SIMD in-order targets prefer outer-loop
    // vectorization of reduction nests (paper [18]).
    return T.VSBytes != 0 && T.VSBytes <= 16;
  case GuardKind::BasesAligned: {
    // The weak tier folds what simple local constant propagation can:
    // top-level guards. Nested ones (MMM's alignment test inside the
    // outer loop) stay as runtime checks — paper Sec. V-A(a).
    if (CompilerTier != Tier::Strong && NestedInLoop)
      return std::nullopt;
    bool AllAligned = true;
    for (uint32_t A : I.GuardArgs) {
      if (A >= RT.Arrays.size() || !RT.Arrays[A].KnownBase)
        return std::nullopt;
      AllAligned &=
          T.VSBytes == 0 || isAligned(RT.Arrays[A].Base, T.VSBytes);
    }
    return AllAligned;
  }
  case GuardKind::None:
    break;
  }
  return std::nullopt;
}

namespace {

class JitCompiler {
public:
  JitCompiler(const Function &Fn, const TargetDesc &Target,
              const RuntimeInfo &Runtime, const Options &Options_)
      : F(Fn), T(Target), RT(Runtime), Opt(Options_) {
    assert(RT.Arrays.size() >= F.Arrays.size() &&
           "runtime info must cover every array");
  }

  CompileResult run() {
    M.Name = F.Name;
    M.VSBytes = T.VSBytes;
    M.Arrays = F.Arrays;

    computeScalarExpansionSize();
    foldGuards();
    planRegion(F.Body, decideTopLevelMode());
    markLive();

    for (ValueId P : F.Params) {
      MReg R = M.makeReg(F.typeOf(P).Elem, false);
      M.Params.push_back({F.Values[P].Name, R});
      Map[P] = {R};
    }
    emitRegion(F.Body);

    if (Opt.CompilerTier == Tier::Strong)
      hoistInvariants(M.Body, nullptr, 0);
    modelRegisterPressure();
    if (!Opt.PromoteAccumulators)
      demoteAccumulators();

    CompileResult R;
    R.Code = std::move(M);
    R.Scalarized = TopLevelScalar;
    R.ScalarizeReason = ScalarizeReason;
    R.Strategy = tallyStrategy();
    return R;
  }

private:
  const Function &F;
  const TargetDesc &T;
  const RuntimeInfo &RT;
  Options Opt;
  MFunction M;

  unsigned VSEff = 1; ///< Scalar-expansion granularity (widest elem size).
  bool TopLevelScalar = false;
  std::string ScalarizeReason;

  std::map<ValueId, bool> FoldedGuards;
  std::map<uint32_t, MemStrategy> Strat;     ///< Per memory instruction.
  std::map<const Region *, bool> RegionScalar;
  std::vector<bool> InstrNeeded;
  std::vector<bool> ValueLive;
  std::vector<bool> LoopNeeded;

  std::map<ValueId, std::vector<MReg>> Map; ///< IR value -> lane registers.
  std::map<uint32_t, MReg> BaseReg;         ///< Array -> base-address reg.

  /// Summarizes the per-access and per-guard decisions this compile took
  /// (the observability layer's strategy record).
  StrategyStats tallyStrategy() const {
    StrategyStats S;
    for (const auto &Entry : Strat) {
      switch (Entry.second) {
      case MemStrategy::Aligned:
        ++S.MemAligned;
        break;
      case MemStrategy::Unaligned:
        ++S.MemUnaligned;
        break;
      case MemStrategy::Perm:
        ++S.MemPerm;
        break;
      case MemStrategy::Scalar:
        ++S.MemScalar;
        break;
      }
    }
    for (const auto &Entry : FoldedGuards)
      (Entry.second ? S.GuardsFoldedTrue : S.GuardsFoldedFalse) += 1;
    for (const Instr &I : F.Instrs)
      if (I.Op == Opcode::VersionGuard && !FoldedGuards.count(I.Result))
        ++S.GuardsRuntime;
    return S;
  }

  //===--- Pass 0: scalar-expansion granularity ---------------------------===//

  void computeScalarExpansionSize() {
    for (const ValueInfo &V : F.Values)
      if (V.Ty.isVector() && V.Ty.Elem != ScalarKind::I1)
        VSEff = std::max(VSEff, scalarSize(V.Ty.Elem));
  }

  //===--- Pass 1: guard folding -----------------------------------------===//

  void foldGuards() {
    std::set<uint32_t> NestedGuards;
    collectNestedGuards(F.Body, /*InLoop=*/false, NestedGuards);
    for (uint32_t Idx = 0; Idx < F.Instrs.size(); ++Idx) {
      const Instr &I = F.Instrs[Idx];
      if (I.Op != Opcode::VersionGuard)
        continue;
      auto Folded = foldGuardStatic(I, T, RT, Opt.CompilerTier,
                                    NestedGuards.count(Idx) != 0);
      if (Folded)
        FoldedGuards[I.Result] = *Folded;
    }
  }

  void collectNestedGuards(const Region &R, bool InLoop,
                           std::set<uint32_t> &Out) {
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr:
        if (InLoop && F.Instrs[N.Index].Op == Opcode::VersionGuard)
          Out.insert(N.Index);
        break;
      case NodeKind::Loop:
        collectNestedGuards(F.Loops[N.Index].Body, true, Out);
        break;
      case NodeKind::If:
        collectNestedGuards(F.Ifs[N.Index].Then, InLoop, Out);
        collectNestedGuards(F.Ifs[N.Index].Else, InLoop, Out);
        break;
      }
    }
  }

  //===--- Pass 2: region modes and memory strategies ---------------------===//

  bool decideTopLevelMode() {
    if (Opt.ForceScalarize) {
      TopLevelScalar = true;
      ScalarizeReason = "scalarization forced (executor deoptimization)";
      return true;
    }
    if (!T.hasSimd()) {
      TopLevelScalar = true;
      ScalarizeReason = "target has no SIMD support";
      return true;
    }
    return false;
  }

  /// \returns a reason string if the vector code in \p R (its own scope,
  /// excluding folded-off arms) cannot be lowered vectorially.
  std::string vectorBlocker(const Region &R) {
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr: {
        const Instr &I = F.Instrs[N.Index];
        std::string S =
            vectorBlockReason(F, I, T, hintAligned(I.Hint, I.Array));
        if (!S.empty())
          return S;
        break;
      }
      case NodeKind::Loop: {
        std::string S = vectorBlocker(F.Loops[N.Index].Body);
        if (!S.empty())
          return S;
        break;
      }
      case NodeKind::If: {
        // Arms get their own mode; nothing to check here.
        break;
      }
      }
    }
    return "";
  }

  /// Whether the hint proves VS-alignment of the access (paper
  /// Sec. III-B(c), the single-version alternative to versioning).
  bool hintAligned(const AlignHint &H, uint32_t Array) const {
    return hintProvesAligned(H, Array, T, RT);
  }

  /// Decides the lowering mode of \p R and the strategy of every memory
  /// idiom directly or transitively inside it (stopping at if-arms, which
  /// decide for themselves).
  void planRegion(const Region &R, bool ParentScalar) {
    bool Scalar = ParentScalar;
    if (!Scalar) {
      std::string Blocker = vectorBlocker(R);
      if (!Blocker.empty()) {
        Scalar = true;
        if (&R == &F.Body) {
          TopLevelScalar = true;
          ScalarizeReason = Blocker;
        }
      }
    }
    RegionScalar[&R] = Scalar;
    planNodes(R, Scalar);
  }

  void planNodes(const Region &R, bool Scalar) {
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr:
        planInstr(F.Instrs[N.Index], N.Index, Scalar);
        break;
      case NodeKind::Loop: {
        const LoopStmt &L = F.Loops[N.Index];
        bool LoopScalar = Scalar;
        if (!LoopScalar && L.MaxSafeVF > 0 &&
            loopVF(L) > L.MaxSafeVF)
          LoopScalar = true; // Dependence hint: this VF is too wide.
        if (!LoopScalar) {
          std::string Blocker = vectorBlocker(L.Body);
          if (!Blocker.empty())
            LoopScalar = true;
        }
        RegionScalar[&L.Body] = LoopScalar;
        planNodes(L.Body, LoopScalar);
        break;
      }
      case NodeKind::If: {
        const IfStmt &S = F.Ifs[N.Index];
        auto Folded = FoldedGuards.find(S.Cond);
        if (Folded != FoldedGuards.end()) {
          // Only the surviving arm is compiled at all.
          planRegion(Folded->second ? S.Then : S.Else, Scalar);
          RegionScalar[&(Folded->second ? S.Else : S.Then)] = Scalar;
        } else {
          planRegion(S.Then, Scalar);
          planRegion(S.Else, Scalar);
        }
        break;
      }
      }
    }
  }

  /// This target's vectorization factor for loop \p L.
  int64_t loopVF(const LoopStmt &L) const { return jit::loopVF(F, L, T); }

  void planInstr(const Instr &I, uint32_t Idx, bool Scalar) {
    switch (I.Op) {
    case Opcode::ALoad:
    case Opcode::AStore:
    case Opcode::ULoad:
    case Opcode::UStore:
    case Opcode::RealignLoad:
      Strat[Idx] =
          memStrategy(I.Op, Scalar, hintAligned(I.Hint, I.Array), T);
      break;
    default:
      break;
    }
  }

  //===--- Pass 3: liveness / dead-code analysis --------------------------===//

  /// Operands that remain live under the chosen strategy. The whole point
  /// of the split-layer realignment design: when a target does not need
  /// the chain, realign_load keeps only its address operand and the chain
  /// dies (paper Sec. III-C(b,c,d)).
  std::vector<ValueId> keptOperands(const Instr &I, uint32_t Idx) const {
    if (I.Op == Opcode::RealignLoad) {
      auto It = Strat.find(Idx);
      if (It != Strat.end() && It->second != MemStrategy::Perm)
        return {I.Ops[3]};
    }
    if (I.Op == Opcode::LoopBound) {
      // Only the bound selected by the region's lowering mode stays live.
      return {I.Ops[loopBoundScalar(Idx) ? 1 : 0]};
    }
    return I.Ops;
  }

  /// Whether the loop_bound at \p Idx resolves to its scalar argument.
  /// True only in scalar-expansion regions... which for loop_bound's
  /// semantics (paper Table 1) means: scalar peel loops must not run.
  bool loopBoundScalar(uint32_t Idx) const {
    auto It = InstrRegionScalar.find(Idx);
    return It != InstrRegionScalar.end() && It->second;
  }

  std::map<uint32_t, bool> InstrRegionScalar;

  void markLive() {
    InstrNeeded.assign(F.Instrs.size(), false);
    ValueLive.assign(F.Values.size(), false);
    LoopNeeded.assign(F.Loops.size(), false);

    // Record each instruction's region mode (needed by loop_bound).
    recordModes(F.Body, RegionScalar.at(&F.Body));

    std::vector<ValueId> Work;
    auto LiveValue = [&](ValueId V) {
      if (V == NoValue || ValueLive[V])
        return;
      ValueLive[V] = true;
      Work.push_back(V);
    };

    // Roots: every store that can execute.
    rootRegion(F.Body, LiveValue);

    // Propagate.
    while (!Work.empty()) {
      ValueId V = Work.back();
      Work.pop_back();
      const ValueInfo &VI = F.Values[V];
      switch (VI.Def) {
      case ValueDef::Param:
        break;
      case ValueDef::Instr: {
        uint32_t Idx = VI.A;
        if (!InstrNeeded[Idx]) {
          InstrNeeded[Idx] = true;
          for (ValueId Op : keptOperands(F.Instrs[Idx], Idx))
            LiveValue(Op);
        }
        break;
      }
      case ValueDef::LoopInd:
      case ValueDef::LoopCarried:
      case ValueDef::LoopResult: {
        const LoopStmt &L = F.Loops[VI.A];
        LoopNeeded[VI.A] = true;
        LiveValue(L.Lower);
        LiveValue(L.Upper);
        LiveValue(L.Step);
        if (VI.Def != ValueDef::LoopInd) {
          const auto &C = L.Carried[VI.B];
          LiveValue(C.Init);
          LiveValue(C.Next);
          // The phi must survive so the carried slot exists.
          if (!ValueLive[C.Phi]) {
            ValueLive[C.Phi] = true;
          }
        }
        break;
      }
      }
    }
  }

  void recordModes(const Region &R, bool Scalar) {
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr:
        InstrRegionScalar[N.Index] = Scalar;
        break;
      case NodeKind::Loop: {
        const Region &Body = F.Loops[N.Index].Body;
        recordModes(Body, RegionScalar.count(&Body)
                              ? RegionScalar.at(&Body)
                              : Scalar);
        break;
      }
      case NodeKind::If: {
        const IfStmt &S = F.Ifs[N.Index];
        recordModes(S.Then, RegionScalar.count(&S.Then)
                                ? RegionScalar.at(&S.Then)
                                : Scalar);
        recordModes(S.Else, RegionScalar.count(&S.Else)
                                ? RegionScalar.at(&S.Else)
                                : Scalar);
        break;
      }
      }
    }
  }

  template <typename LiveFn> void rootRegion(const Region &R, LiveFn Live) {
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr: {
        const Instr &I = F.Instrs[N.Index];
        if (!writesMemory(I.Op))
          break;
        InstrNeeded[N.Index] = true;
        for (ValueId Op : keptOperands(I, N.Index))
          Live(Op);
        break;
      }
      case NodeKind::Loop: {
        const LoopStmt &L = F.Loops[N.Index];
        rootRegion(L.Body, Live);
        if (regionHasNeeded(L.Body)) {
          LoopNeeded[N.Index] = true;
          Live(L.Lower);
          Live(L.Upper);
          Live(L.Step);
        }
        break;
      }
      case NodeKind::If: {
        const IfStmt &S = F.Ifs[N.Index];
        auto Folded = FoldedGuards.find(S.Cond);
        if (Folded != FoldedGuards.end()) {
          rootRegion(Folded->second ? S.Then : S.Else, Live);
        } else {
          rootRegion(S.Then, Live);
          rootRegion(S.Else, Live);
          Live(S.Cond);
        }
        break;
      }
      }
    }
  }

  bool regionHasNeeded(const Region &R) const {
    for (const NodeRef &N : R.Nodes) {
      if (N.Kind == NodeKind::Instr && InstrNeeded[N.Index])
        return true;
      if (N.Kind == NodeKind::Loop &&
          (LoopNeeded[N.Index] || regionHasNeeded(F.Loops[N.Index].Body)))
        return true;
      if (N.Kind == NodeKind::If &&
          (regionHasNeeded(F.Ifs[N.Index].Then) ||
           regionHasNeeded(F.Ifs[N.Index].Else)))
        return true;
    }
    return false;
  }

  //===--- Pass 4: emission -----------------------------------------------===//

  // Machine-region insertion stack (stable across vector reallocation).
  struct MRef {
    enum class K : uint8_t { Body, LoopBody, IfThen, IfElse } Kind;
    uint32_t Idx = 0;
  };
  std::vector<MRef> MStack{{MRef::K::Body, 0}};

  MRegion &curRegion() {
    const MRef &R = MStack.back();
    switch (R.Kind) {
    case MRef::K::Body:
      return M.Body;
    case MRef::K::LoopBody:
      return M.Loops[R.Idx].Body;
    case MRef::K::IfThen:
      return M.Ifs[R.Idx].Then;
    case MRef::K::IfElse:
      return M.Ifs[R.Idx].Else;
    }
    vapor_unreachable("bad machine region ref");
  }

  MReg emit(MInstr I) {
    MReg Dst = I.Dst;
    M.Instrs.push_back(std::move(I));
    curRegion().Nodes.push_back(
        {MNodeKind::Instr, static_cast<uint32_t>(M.Instrs.size() - 1)});
    return Dst;
  }

  MReg ldImm(int64_t V, ScalarKind K = ScalarKind::I64) {
    MInstr I;
    I.Op = MOp::LdImm;
    I.Kind = K;
    I.Imm = V;
    I.Dst = M.makeReg(K, false);
    return emit(std::move(I));
  }

  MReg alu(Opcode SubOp, ScalarKind K, bool Vector, std::vector<MReg> Srcs) {
    MInstr I;
    I.Op = MOp::Alu;
    I.SubOp = SubOp;
    I.Kind = K;
    I.Vector = Vector;
    I.Srcs = std::move(Srcs);
    I.Dst = M.makeReg(isCompare(SubOp) ? ScalarKind::I1 : K, Vector);
    return emit(std::move(I));
  }

  MReg baseOf(uint32_t Array) {
    auto It = BaseReg.find(Array);
    if (It != BaseReg.end())
      return It->second;
    // Bases load once at entry; emit into the function body start.
    MInstr I;
    I.Op = MOp::LoadBase;
    I.Array = Array;
    I.Dst = M.makeReg(ScalarKind::I64, false);
    MReg R = I.Dst;
    M.Instrs.push_back(std::move(I));
    M.Body.Nodes.insert(M.Body.Nodes.begin(),
                        {MNodeKind::Instr,
                         static_cast<uint32_t>(M.Instrs.size() - 1)});
    return BaseReg[Array] = R;
  }

  /// Byte address of element \p IdxReg of \p Array, plus \p LaneOff lanes.
  MReg addrOf(uint32_t Array, MReg IdxReg, ScalarKind K, unsigned LaneOff) {
    MReg Idx = IdxReg;
    if (LaneOff != 0) {
      MReg Off = ldImm(LaneOff);
      Idx = alu(Opcode::Add, ScalarKind::I64, false, {IdxReg, Off});
    }
    MInstr I;
    I.Op = MOp::Addr;
    I.Srcs = {baseOf(Array), Idx};
    I.Scale = scalarSize(K);
    I.Folded = Opt.FoldAddressing;
    I.Dst = M.makeReg(ScalarKind::I64, false);
    return emit(std::move(I));
  }

  const std::vector<MReg> &lanesOf(ValueId V) {
    auto It = Map.find(V);
    assert(It != Map.end() && "IR value not yet lowered");
    return It->second;
  }

  unsigned scalarLaneCount(ScalarKind K) const {
    return std::max(1u, VSEff / scalarSize(K));
  }

  void emitRegion(const Region &R) {
    bool Scalar = RegionScalar.count(&R) ? RegionScalar.at(&R)
                                         : TopLevelScalar;
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr:
        if (InstrNeeded[N.Index])
          emitInstr(F.Instrs[N.Index], N.Index, Scalar);
        break;
      case NodeKind::Loop:
        if (LoopNeeded[N.Index] ||
            regionHasNeeded(F.Loops[N.Index].Body))
          emitLoop(F.Loops[N.Index],
                   RegionScalar.count(&F.Loops[N.Index].Body)
                       ? RegionScalar.at(&F.Loops[N.Index].Body)
                       : Scalar);
        break;
      case NodeKind::If:
        emitIf(F.Ifs[N.Index], Scalar);
        break;
      }
    }
  }

  void emitLoop(const LoopStmt &L, bool Scalar) {
    // A vector main loop whose body is scalar-expanded (dependence hint or
    // per-loop capability fallback) consumes fewer elements per iteration
    // than the get_VF its enclosing (vector) region materialized: its step
    // must be re-materialized at the scalar-expansion granularity. The
    // scalar step always divides the vector one (both powers of two), so
    // the precomputed main bound stays exact.
    MReg StepReg = lanesOf(L.Step)[0];
    if (Scalar && L.Role == LoopRole::VecMain) {
      unsigned MinSize = minVectorElemSize(F, L.Body);
      int64_t ScalarStep =
          MinSize == 16 ? 1
                        : std::max<int64_t>(1, VSEff / MinSize);
      StepReg = ldImm(ScalarStep);
    }
    M.Loops.emplace_back();
    uint32_t LoopIdx = static_cast<uint32_t>(M.Loops.size() - 1);
    {
      MLoop &ML = M.Loops[LoopIdx];
      ML.Lower = lanesOf(L.Lower)[0];
      ML.Upper = lanesOf(L.Upper)[0];
      ML.Step = StepReg;
      ML.IsVectorMain = L.Role == LoopRole::VecMain && !Scalar;
    }
    MReg Iv = M.makeReg(ScalarKind::I64, false);
    M.Loops[LoopIdx].IndVar = Iv;
    Map[L.IndVar] = {Iv};

    // Live carried variables become per-lane machine carried slots.
    struct CarriedLanes {
      const LoopStmt::CarriedVar *C;
      std::vector<MReg> Phis;
    };
    std::vector<CarriedLanes> LiveCarried;
    for (const auto &C : L.Carried) {
      if (!ValueLive[C.Phi] && !ValueLive[C.Result])
        continue;
      CarriedLanes CL;
      CL.C = &C;
      const std::vector<MReg> &Inits = lanesOf(C.Init);
      for (MReg Init : Inits) {
        MReg Phi = M.makeReg(M.Regs[Init].Kind, M.Regs[Init].Vector);
        M.Loops[LoopIdx].Carried.push_back({Phi, Init, NoReg});
        CL.Phis.push_back(Phi);
      }
      Map[C.Phi] = CL.Phis;
      LiveCarried.push_back(std::move(CL));
    }

    curRegion().Nodes.push_back({MNodeKind::Loop, LoopIdx});
    MStack.push_back({MRef::K::LoopBody, LoopIdx});
    emitRegion(L.Body);
    MStack.pop_back();

    // Wire carried nexts and expose results.
    size_t Slot = 0;
    for (const auto &CL : LiveCarried) {
      const std::vector<MReg> &Nexts = lanesOf(CL.C->Next);
      for (size_t LIdx = 0; LIdx < CL.Phis.size(); ++LIdx)
        M.Loops[LoopIdx].Carried[Slot + LIdx].Next = Nexts[LIdx];
      // After the loop the phi registers hold the final values.
      Map[CL.C->Result] = CL.Phis;
      Slot += CL.Phis.size();
    }
  }

  void emitIf(const IfStmt &S, bool Scalar) {
    auto Folded = FoldedGuards.find(S.Cond);
    if (Folded != FoldedGuards.end()) {
      emitRegion(Folded->second ? S.Then : S.Else);
      return;
    }
    if (!regionHasNeeded(S.Then) && !regionHasNeeded(S.Else))
      return;
    (void)Scalar;
    M.Ifs.emplace_back();
    uint32_t IfIdx = static_cast<uint32_t>(M.Ifs.size() - 1);
    M.Ifs[IfIdx].Cond = lanesOf(S.Cond)[0];
    curRegion().Nodes.push_back({MNodeKind::If, IfIdx});
    MStack.push_back({MRef::K::IfThen, IfIdx});
    emitRegion(S.Then);
    MStack.back().Kind = MRef::K::IfElse;
    emitRegion(S.Else);
    MStack.pop_back();
  }

  void emitInstr(const Instr &I, uint32_t Idx, bool Scalar);

  // Per-op emission helpers (defined below, out of line for readability).
  std::vector<MReg> lowerVectorLoad(const Instr &I, uint32_t Idx,
                                    bool Scalar);
  void lowerVectorStore(const Instr &I, uint32_t Idx, bool Scalar);
  std::vector<MReg> lowerGuardRuntime(const Instr &I);

  //===--- Pass 5: post passes --------------------------------------------===//

  void collectDefined(const MRegion &R, std::set<MReg> &Out) {
    for (const MNodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case MNodeKind::Instr:
        if (M.Instrs[N.Index].Dst != NoReg)
          Out.insert(M.Instrs[N.Index].Dst);
        break;
      case MNodeKind::Loop: {
        const MLoop &L = M.Loops[N.Index];
        Out.insert(L.IndVar);
        for (const auto &C : L.Carried)
          Out.insert(C.Phi);
        collectDefined(L.Body, Out);
        break;
      }
      case MNodeKind::If:
        collectDefined(M.Ifs[N.Index].Then, Out);
        collectDefined(M.Ifs[N.Index].Else, Out);
        break;
      }
    }
  }

  static bool hoistable(const MInstr &I) {
    switch (I.Op) {
    case MOp::LdImm:
    case MOp::LdFImm:
    case MOp::Mov:
    case MOp::LoadBase:
    case MOp::Alu:
    case MOp::Addr:
    case MOp::VSplat:
    case MOp::VAffine:
    case MOp::VSetLane0:
    case MOp::GetPerm:
      return true;
    default:
      return false; // Loads/stores and lane ops stay put.
    }
  }

  /// Strong-tier loop-invariant code motion: hoists pure instructions
  /// whose sources are defined outside the loop.
  void hoistInvariants(MRegion &R, MRegion *Parent, size_t MyNodePos) {
    (void)Parent;
    (void)MyNodePos;
    for (size_t NIdx = 0; NIdx < R.Nodes.size(); ++NIdx) {
      MNodeRef N = R.Nodes[NIdx];
      if (N.Kind == MNodeKind::If) {
        hoistInvariants(M.Ifs[N.Index].Then, &R, NIdx);
        hoistInvariants(M.Ifs[N.Index].Else, &R, NIdx);
        continue;
      }
      if (N.Kind != MNodeKind::Loop)
        continue;
      MLoop &L = M.Loops[N.Index];
      hoistInvariants(L.Body, &R, NIdx);
      bool Changed = true;
      while (Changed) {
        Changed = false;
        std::set<MReg> DefinedIn;
        collectDefined(L.Body, DefinedIn);
        DefinedIn.insert(L.IndVar);
        for (const auto &C : L.Carried)
          DefinedIn.insert(C.Phi);
        for (size_t BIdx = 0; BIdx < L.Body.Nodes.size(); ++BIdx) {
          MNodeRef BN = L.Body.Nodes[BIdx];
          if (BN.Kind != MNodeKind::Instr)
            continue;
          const MInstr &BI = M.Instrs[BN.Index];
          if (!hoistable(BI))
            continue;
          bool Invariant = true;
          for (MReg S : BI.Srcs)
            Invariant &= !DefinedIn.count(S);
          if (!Invariant)
            continue;
          // Move the node just before the loop in the parent region.
          L.Body.Nodes.erase(L.Body.Nodes.begin() + BIdx);
          auto Pos = std::find_if(R.Nodes.begin(), R.Nodes.end(),
                                  [&](const MNodeRef &X) {
                                    return X.Kind == MNodeKind::Loop &&
                                           X.Index == N.Index;
                                  });
          R.Nodes.insert(Pos, BN);
          Changed = true;
          break; // Restart: indices shifted.
        }
      }
    }
  }

  /// Linearizes the instructions of a region subtree in execution order.
  void linearize(const MRegion &R, std::vector<const MInstr *> &Out) {
    for (const MNodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case MNodeKind::Instr:
        Out.push_back(&M.Instrs[N.Index]);
        break;
      case MNodeKind::Loop:
        linearize(M.Loops[N.Index].Body, Out);
        break;
      case MNodeKind::If:
        linearize(M.Ifs[N.Index].Then, Out);
        linearize(M.Ifs[N.Index].Else, Out);
        break;
      }
    }
  }

  /// Maximum number of simultaneously live registers (per class) over the
  /// linearized body of \p L — a linear-scan allocator's demand. Carried
  /// phis and externally defined values live across the whole body.
  void maxLivePressure(const MLoop &L, unsigned &ScalarPeak,
                       unsigned &VecPeak) {
    std::vector<const MInstr *> Seq;
    linearize(L.Body, Seq);
    std::map<MReg, std::pair<int, int>> Range; // reg -> [def, last use]
    int End = static_cast<int>(Seq.size());
    auto NoteUse = [&](MReg Reg, int Pos) {
      if (Reg == NoReg)
        return;
      auto It = Range.find(Reg);
      if (It == Range.end())
        Range[Reg] = {0, Pos}; // Defined outside: live from entry.
      else
        It->second.second = std::max(It->second.second, Pos);
    };
    for (int Pos = 0; Pos < End; ++Pos) {
      for (MReg S : Seq[Pos]->Srcs)
        NoteUse(S, Pos);
      if (Seq[Pos]->Dst != NoReg && !Range.count(Seq[Pos]->Dst))
        Range[Seq[Pos]->Dst] = {Pos, Pos};
    }
    // Loop-carried state lives across the back edge: whole body.
    for (const auto &C : L.Carried) {
      Range[C.Phi] = {0, End};
      NoteUse(C.Next, End);
    }
    Range[L.IndVar] = {0, End};

    std::vector<std::pair<int, int>> Events; // (pos, +1/-1) per class tag
    std::vector<std::pair<int, int>> VEvents;
    for (const auto &[Reg, RangePair] : Range) {
      auto &Evs = M.Regs[Reg].Vector ? VEvents : Events;
      Evs.push_back({RangePair.first, +1});
      Evs.push_back({RangePair.second + 1, -1});
    }
    auto Peak = [](std::vector<std::pair<int, int>> &Evs) {
      std::sort(Evs.begin(), Evs.end());
      int Cur = 0, Max = 0;
      for (const auto &[Pos, Delta] : Evs) {
        (void)Pos;
        Cur += Delta;
        Max = std::max(Max, Cur);
      }
      return static_cast<unsigned>(Max);
    };
    ScalarPeak = Peak(Events);
    VecPeak = Peak(VEvents);
  }

  /// Inserts spill traffic into loop bodies whose peak register demand
  /// exceeds the (tier-adjusted) register file. The weak tier wastes half
  /// the file (paper: Mono's "lack of proper global register allocation").
  void modelRegisterPressure() {
    bool Weak = Opt.CompilerTier == Tier::Weak;
    unsigned SAvail = Weak ? std::max(3u, T.ScalarRegs / 2) : T.ScalarRegs;
    unsigned VAvail = Weak ? std::max(3u, T.VectorRegs / 2) : T.VectorRegs;
    for (MLoop &L : M.Loops) {
      unsigned SPeak = 0, VPeak = 0;
      maxLivePressure(L, SPeak, VPeak);
      unsigned Excess = 0;
      if (SPeak > SAvail)
        Excess += SPeak - SAvail;
      if (VPeak > VAvail)
        Excess += VPeak - VAvail;
      for (unsigned E = 0; E < Excess; ++E) {
        for (MOp Op : {MOp::SpillSt, MOp::SpillLd}) {
          MInstr SP;
          SP.Op = Op;
          M.Instrs.push_back(SP);
          L.Body.Nodes.insert(L.Body.Nodes.begin(),
                              {MNodeKind::Instr,
                               static_cast<uint32_t>(M.Instrs.size() - 1)});
        }
      }
    }
  }

  /// Legacy-codegen profile: accumulators live in memory (one spill store
  /// and reload per carried variable per iteration) — the Table 3 "lack
  /// of register promotion of the accumulator in reduction kernels".
  void demoteAccumulators() {
    for (MLoop &L : M.Loops) {
      for (size_t C = 0; C < L.Carried.size(); ++C) {
        for (MOp Op : {MOp::SpillLd, MOp::SpillSt}) {
          MInstr SP;
          SP.Op = Op;
          M.Instrs.push_back(SP);
          L.Body.Nodes.insert(L.Body.Nodes.begin(),
                              {MNodeKind::Instr,
                               static_cast<uint32_t>(M.Instrs.size() - 1)});
        }
      }
    }
  }
};

//===--- Instruction emission --------------------------------------------===//

void JitCompiler::emitInstr(const Instr &I, uint32_t Idx, bool Scalar) {
  auto SetLanes = [&](std::vector<MReg> Lanes) {
    if (I.hasResult())
      Map[I.Result] = std::move(Lanes);
  };

  switch (I.Op) {
  //===--- Constants and scalar arithmetic --------------------------------===//
  case Opcode::ConstInt:
    SetLanes({ldImm(I.IntImm, I.Ty.Elem)});
    return;
  case Opcode::ConstFP: {
    MInstr C;
    C.Op = MOp::LdFImm;
    C.Kind = I.Ty.Elem;
    C.FImm = I.FPImm;
    C.Dst = M.makeReg(I.Ty.Elem, false);
    SetLanes({emit(std::move(C))});
    return;
  }

  //===--- Machine-parameter idioms ---------------------------------------===//
  case Opcode::GetVF:
  case Opcode::GetAlignLimit: {
    unsigned Bytes = Scalar ? VSEff : T.VSBytes;
    SetLanes({ldImm(Bytes / scalarSize(I.TyParam))});
    return;
  }
  case Opcode::GetMisalign: {
    unsigned ES = scalarSize(F.Arrays[I.Array].Elem);
    unsigned AL = (Scalar ? VSEff : T.VSBytes) / ES;
    if (Opt.CompilerTier == Tier::Strong && RT.Arrays[I.Array].KnownBase) {
      uint64_t BaseElems = RT.Arrays[I.Array].Base / ES;
      SetLanes({ldImm((BaseElems + static_cast<uint64_t>(I.IntImm)) % AL)});
      return;
    }
    // Runtime computation: ((base / es) + off) & (AL - 1).
    MReg Base = baseOf(I.Array);
    MReg EsShift = ldImm(static_cast<int64_t>(63 - __builtin_clzll(ES)));
    MReg Elems = alu(Opcode::ShrL, ScalarKind::I64, false, {Base, EsShift});
    MReg Off = ldImm(I.IntImm);
    MReg Sum = alu(Opcode::Add, ScalarKind::I64, false, {Elems, Off});
    MReg Mask = ldImm(static_cast<int64_t>(AL) - 1);
    SetLanes({alu(Opcode::And, ScalarKind::I64, false, {Sum, Mask})});
    return;
  }
  case Opcode::LoopBound:
    SetLanes(lanesOf(I.Ops[loopBoundScalar(Idx) ? 1 : 0]));
    return;
  case Opcode::VersionGuard:
    // Folded guards never reach emission (their ifs were resolved).
    SetLanes(lowerGuardRuntime(I));
    return;

  //===--- Scalar memory --------------------------------------------------===//
  case Opcode::Load: {
    MReg Addr = addrOf(I.Array, lanesOf(I.Ops[0])[0], I.Ty.Elem, 0);
    MInstr L;
    L.Op = MOp::Load;
    L.Kind = I.Ty.Elem;
    L.Srcs = {Addr};
    L.Dst = M.makeReg(I.Ty.Elem, false);
    L.SrcInstr = Idx;
    SetLanes({emit(std::move(L))});
    return;
  }
  case Opcode::Store: {
    ScalarKind K = F.Arrays[I.Array].Elem;
    MReg Addr = addrOf(I.Array, lanesOf(I.Ops[0])[0], K, 0);
    MInstr S;
    S.Op = MOp::Store;
    S.Kind = K;
    S.Srcs = {Addr, lanesOf(I.Ops[1])[0]};
    S.SrcInstr = Idx;
    emit(std::move(S));
    return;
  }

  //===--- Vector memory and realignment ----------------------------------===//
  case Opcode::ALoad:
  case Opcode::ULoad:
  case Opcode::AlignLoad:
  case Opcode::RealignLoad:
    SetLanes(lowerVectorLoad(I, Idx, Scalar));
    return;
  case Opcode::AStore:
  case Opcode::UStore:
    lowerVectorStore(I, Idx, Scalar);
    return;
  case Opcode::GetRT: {
    // Live only when a realign_load keeps its chain (perm strategy).
    MReg Addr = addrOf(I.Array, lanesOf(I.Ops[0])[0],
                       F.Arrays[I.Array].Elem, 0);
    MInstr G;
    G.Op = MOp::GetPerm;
    G.Srcs = {Addr};
    G.Dst = M.makeReg(ScalarKind::U64, false);
    SetLanes({emit(std::move(G))});
    return;
  }

  //===--- Vector initialization ------------------------------------------===//
  case Opcode::InitUniform: {
    MReg V = lanesOf(I.Ops[0])[0];
    if (Scalar) {
      SetLanes(std::vector<MReg>(scalarLaneCount(I.Ty.Elem), V));
      return;
    }
    MInstr S;
    S.Op = MOp::VSplat;
    S.Kind = I.Ty.Elem;
    S.Vector = true;
    S.Srcs = {V};
    S.Dst = M.makeReg(I.Ty.Elem, true);
    SetLanes({emit(std::move(S))});
    return;
  }
  case Opcode::InitAffine: {
    MReg Val = lanesOf(I.Ops[0])[0];
    MReg Inc = lanesOf(I.Ops[1])[0];
    if (Scalar) {
      unsigned N = scalarLaneCount(I.Ty.Elem);
      std::vector<MReg> Lanes{Val};
      MReg Cur = Val;
      for (unsigned LIdx = 1; LIdx < N; ++LIdx) {
        Cur = alu(Opcode::Add, I.Ty.Elem, false, {Cur, Inc});
        Lanes.push_back(Cur);
      }
      SetLanes(std::move(Lanes));
      return;
    }
    MInstr A;
    A.Op = MOp::VAffine;
    A.Kind = I.Ty.Elem;
    A.Vector = true;
    A.Srcs = {Val, Inc};
    A.Dst = M.makeReg(I.Ty.Elem, true);
    SetLanes({emit(std::move(A))});
    return;
  }
  case Opcode::InitReduc: {
    MReg Val = lanesOf(I.Ops[0])[0];
    MReg Default = lanesOf(I.Ops[1])[0];
    if (Scalar) {
      unsigned N = scalarLaneCount(I.Ty.Elem);
      std::vector<MReg> Lanes{Val};
      for (unsigned LIdx = 1; LIdx < N; ++LIdx)
        Lanes.push_back(Default);
      SetLanes(std::move(Lanes));
      return;
    }
    MInstr S;
    S.Op = MOp::VSplat;
    S.Kind = I.Ty.Elem;
    S.Vector = true;
    S.Srcs = {Default};
    S.Dst = M.makeReg(I.Ty.Elem, true);
    MReg Spl = emit(std::move(S));
    MInstr L0;
    L0.Op = MOp::VSetLane0;
    L0.Kind = I.Ty.Elem;
    L0.Vector = true;
    L0.Srcs = {Spl, Val};
    L0.Dst = M.makeReg(I.Ty.Elem, true);
    SetLanes({emit(std::move(L0))});
    return;
  }

  //===--- Reductions and computational idioms ----------------------------===//
  case Opcode::ReducPlus:
  case Opcode::ReducMax:
  case Opcode::ReducMin: {
    Opcode K = I.Op == Opcode::ReducPlus
                   ? Opcode::Add
                   : (I.Op == Opcode::ReducMax ? Opcode::Max : Opcode::Min);
    const auto &Src = lanesOf(I.Ops[0]);
    if (Scalar) {
      MReg Acc = Src[0];
      for (size_t LIdx = 1; LIdx < Src.size(); ++LIdx)
        Acc = alu(K, I.Ty.Elem, false, {Acc, Src[LIdx]});
      SetLanes({Acc});
      return;
    }
    MInstr R;
    R.Op = MOp::Reduce;
    R.SubOp = K;
    R.Kind = I.Ty.Elem;
    R.Srcs = {Src[0]};
    R.Dst = M.makeReg(I.Ty.Elem, false);
    SetLanes({emit(std::move(R))});
    return;
  }

  case Opcode::DotProduct: {
    ScalarKind Narrow = F.typeOf(I.Ops[0]).Elem;
    ScalarKind Wide = I.Ty.Elem;
    const auto &A = lanesOf(I.Ops[0]);
    const auto &B = lanesOf(I.Ops[1]);
    const auto &Acc = lanesOf(I.Ops[2]);
    if (Scalar) {
      std::vector<MReg> Out;
      for (size_t J = 0; J < Acc.size(); ++J) {
        MReg A0 = alu(Opcode::Convert, Wide, false, {A[2 * J]});
        MReg B0 = alu(Opcode::Convert, Wide, false, {B[2 * J]});
        MReg P0 = alu(Opcode::Mul, Wide, false, {A0, B0});
        MReg A1 = alu(Opcode::Convert, Wide, false, {A[2 * J + 1]});
        MReg B1 = alu(Opcode::Convert, Wide, false, {B[2 * J + 1]});
        MReg P1 = alu(Opcode::Mul, Wide, false, {A1, B1});
        MReg S0 = alu(Opcode::Add, Wide, false, {Acc[J], P0});
        Out.push_back(alu(Opcode::Add, Wide, false, {S0, P1}));
      }
      SetLanes(std::move(Out));
      return;
    }
    (void)Narrow;
    MInstr D;
    D.Op = MOp::VDot;
    D.Kind = Wide;
    D.Vector = true;
    D.Srcs = {A[0], B[0], Acc[0]};
    D.Dst = M.makeReg(Wide, true);
    SetLanes({emit(std::move(D))});
    return;
  }

  case Opcode::WidenMultLo:
  case Opcode::WidenMultHi: {
    ScalarKind Wide = I.Ty.Elem;
    const auto &A = lanesOf(I.Ops[0]);
    const auto &B = lanesOf(I.Ops[1]);
    if (Scalar) {
      size_t Half = A.size() / 2;
      size_t Off = I.Op == Opcode::WidenMultHi ? Half : 0;
      std::vector<MReg> Out;
      for (size_t LIdx = 0; LIdx < Half; ++LIdx) {
        MReg WA = alu(Opcode::Convert, Wide, false, {A[Off + LIdx]});
        MReg WB = alu(Opcode::Convert, Wide, false, {B[Off + LIdx]});
        Out.push_back(alu(Opcode::Mul, Wide, false, {WA, WB}));
      }
      SetLanes(std::move(Out));
      return;
    }
    MInstr W;
    W.Op = T.supportsVecOp(I.Op)
               ? (I.Op == Opcode::WidenMultLo ? MOp::VWMulLo : MOp::VWMulHi)
               : MOp::CallLib;
    W.SubOp = I.Op;
    W.Kind = Wide;
    W.Vector = true;
    W.Srcs = {A[0], B[0]};
    W.Dst = M.makeReg(Wide, true);
    SetLanes({emit(std::move(W))});
    return;
  }

  case Opcode::Pack: {
    ScalarKind Narrow = I.Ty.Elem;
    const auto &A = lanesOf(I.Ops[0]);
    const auto &B = lanesOf(I.Ops[1]);
    if (Scalar) {
      std::vector<MReg> Out;
      for (MReg S : A)
        Out.push_back(alu(Opcode::Convert, Narrow, false, {S}));
      for (MReg S : B)
        Out.push_back(alu(Opcode::Convert, Narrow, false, {S}));
      SetLanes(std::move(Out));
      return;
    }
    MInstr P;
    P.Op = MOp::VPack;
    P.Kind = Narrow;
    P.Vector = true;
    P.Srcs = {A[0], B[0]};
    P.Dst = M.makeReg(Narrow, true);
    SetLanes({emit(std::move(P))});
    return;
  }
  case Opcode::UnpackLo:
  case Opcode::UnpackHi: {
    ScalarKind Wide = I.Ty.Elem;
    const auto &A = lanesOf(I.Ops[0]);
    if (Scalar) {
      size_t Half = A.size() / 2;
      size_t Off = I.Op == Opcode::UnpackHi ? Half : 0;
      std::vector<MReg> Out;
      for (size_t LIdx = 0; LIdx < Half; ++LIdx)
        Out.push_back(alu(Opcode::Convert, Wide, false, {A[Off + LIdx]}));
      SetLanes(std::move(Out));
      return;
    }
    MInstr U;
    U.Op = I.Op == Opcode::UnpackLo ? MOp::VUnpackLo : MOp::VUnpackHi;
    U.Kind = Wide;
    U.Vector = true;
    U.Srcs = {A[0]};
    U.Dst = M.makeReg(Wide, true);
    SetLanes({emit(std::move(U))});
    return;
  }

  //===--- Data reorganization --------------------------------------------===//
  case Opcode::Extract: {
    if (Scalar) {
      // Pure register renaming: no machine code at all.
      std::vector<MReg> Concat;
      for (ValueId Op : I.Ops)
        for (MReg R : lanesOf(Op))
          Concat.push_back(R);
      unsigned N = scalarLaneCount(I.Ty.Elem);
      std::vector<MReg> Out;
      for (unsigned LIdx = 0; LIdx < N; ++LIdx)
        Out.push_back(Concat[I.IntImm + static_cast<uint64_t>(LIdx) *
                                            I.IntImm2]);
      SetLanes(std::move(Out));
      return;
    }
    MInstr E;
    E.Op = MOp::VExtract;
    E.Kind = I.Ty.Elem;
    E.Vector = true;
    for (ValueId Op : I.Ops)
      E.Srcs.push_back(lanesOf(Op)[0]);
    E.Imm = I.IntImm;
    E.Imm2 = I.IntImm2;
    E.Dst = M.makeReg(I.Ty.Elem, true);
    SetLanes({emit(std::move(E))});
    return;
  }
  case Opcode::InterleaveLo:
  case Opcode::InterleaveHi: {
    const auto &A = lanesOf(I.Ops[0]);
    const auto &B = lanesOf(I.Ops[1]);
    if (Scalar) {
      size_t Half = A.size() / 2;
      size_t Off = I.Op == Opcode::InterleaveHi ? Half : 0;
      std::vector<MReg> Out(A.size());
      for (size_t LIdx = 0; LIdx < Half; ++LIdx) {
        Out[2 * LIdx] = A[Off + LIdx];
        Out[2 * LIdx + 1] = B[Off + LIdx];
      }
      SetLanes(std::move(Out));
      return;
    }
    MInstr V;
    V.Op = I.Op == Opcode::InterleaveLo ? MOp::VIlvLo : MOp::VIlvHi;
    V.Kind = I.Ty.Elem;
    V.Vector = true;
    V.Srcs = {A[0], B[0]};
    V.Dst = M.makeReg(I.Ty.Elem, true);
    SetLanes({emit(std::move(V))});
    return;
  }

  case Opcode::LibCall:
    vapor_unreachable("libcall appears only in machine code");

  //===--- Everything else: elementwise ALU -------------------------------===//
  default: {
    bool VectorInstr = I.Ty.isVector();
    for (ValueId Op : I.Ops)
      VectorInstr |= F.typeOf(Op).isVector();
    if (!VectorInstr) {
      std::vector<MReg> Srcs;
      for (ValueId Op : I.Ops)
        Srcs.push_back(lanesOf(Op)[0]);
      SetLanes({alu(I.Op, I.Ty.Elem, false, std::move(Srcs))});
      return;
    }
    if (Scalar) {
      size_t N = 0;
      for (ValueId Op : I.Ops)
        N = std::max(N, lanesOf(Op).size());
      std::vector<MReg> Out;
      for (size_t LIdx = 0; LIdx < N; ++LIdx) {
        std::vector<MReg> Srcs;
        for (ValueId Op : I.Ops) {
          const auto &Lanes = lanesOf(Op);
          Srcs.push_back(Lanes[Lanes.size() == 1 ? 0 : LIdx]);
        }
        Out.push_back(alu(I.Op, I.Ty.Elem, false, std::move(Srcs)));
      }
      SetLanes(std::move(Out));
      return;
    }
    // Vector ALU (or NEON library fallback for vector converts).
    std::vector<MReg> Srcs;
    for (ValueId Op : I.Ops)
      Srcs.push_back(lanesOf(Op)[0]);
    if (I.Op == Opcode::Convert && !T.supportsVecOp(Opcode::Convert)) {
      MInstr C;
      C.Op = MOp::CallLib;
      C.SubOp = Opcode::Convert;
      C.Kind = I.Ty.Elem;
      C.Vector = true;
      C.Srcs = std::move(Srcs);
      C.Dst = M.makeReg(I.Ty.Elem, true);
      SetLanes({emit(std::move(C))});
      return;
    }
    MInstr A;
    A.Op = MOp::Alu;
    A.SubOp = I.Op;
    A.Kind = I.Ty.Elem;
    A.Vector = true;
    A.Srcs = std::move(Srcs);
    A.Dst = M.makeReg(isCompare(I.Op) ? ScalarKind::I1 : I.Ty.Elem, true);
    SetLanes({emit(std::move(A))});
    return;
  }
  }
}

std::vector<MReg> JitCompiler::lowerVectorLoad(const Instr &I, uint32_t Idx,
                                               bool Scalar) {
  ScalarKind K = F.Arrays[I.Array].Elem;
  ValueId IdxOp = I.Op == Opcode::RealignLoad ? I.Ops[3] : I.Ops[0];
  MReg IdxReg = lanesOf(IdxOp)[0];

  if (Scalar) {
    unsigned N = scalarLaneCount(K);
    std::vector<MReg> Out;
    for (unsigned LIdx = 0; LIdx < N; ++LIdx) {
      MReg Addr = addrOf(I.Array, IdxReg, K, LIdx);
      MInstr L;
      L.Op = MOp::Load;
      L.Kind = K;
      L.Srcs = {Addr};
      L.Dst = M.makeReg(K, false);
      Out.push_back(emit(std::move(L)));
    }
    return Out;
  }

  MemStrategy S = MemStrategy::Aligned;
  if (I.Op == Opcode::ULoad || I.Op == Opcode::RealignLoad)
    S = Strat.at(Idx);

  if (I.Op == Opcode::RealignLoad && S == MemStrategy::Perm) {
    MInstr P;
    P.Op = MOp::VPerm;
    P.Kind = K;
    P.Vector = true;
    P.Srcs = {lanesOf(I.Ops[0])[0], lanesOf(I.Ops[1])[0],
              lanesOf(I.Ops[2])[0]};
    P.Dst = M.makeReg(K, true);
    return {emit(std::move(P))};
  }

  MReg Addr = addrOf(I.Array, IdxReg, K, 0);
  if (I.Op == Opcode::AlignLoad) {
    // Floor the address to a vector boundary, then an aligned load.
    MReg Mask = ldImm(~static_cast<int64_t>(T.VSBytes - 1));
    Addr = alu(Opcode::And, ScalarKind::I64, false, {Addr, Mask});
  }
  MInstr L;
  L.Op = (I.Op == Opcode::ALoad || I.Op == Opcode::AlignLoad ||
          S == MemStrategy::Aligned)
             ? MOp::VLoadA
             : MOp::VLoadU;
  L.Kind = K;
  L.Vector = true;
  L.Srcs = {Addr};
  L.Dst = M.makeReg(K, true);
  // Only plain vector loads are certificate-covered; align_load floors
  // its address and realign chains read out-of-range on purpose.
  if (I.Op != Opcode::AlignLoad && I.Op != Opcode::RealignLoad)
    L.SrcInstr = Idx;
  return {emit(std::move(L))};
}

void JitCompiler::lowerVectorStore(const Instr &I, uint32_t Idx,
                                   bool Scalar) {
  ScalarKind K = F.Arrays[I.Array].Elem;
  MReg IdxReg = lanesOf(I.Ops[0])[0];
  const auto &Vals = lanesOf(I.Ops[1]);

  if (Scalar) {
    for (unsigned LIdx = 0; LIdx < Vals.size(); ++LIdx) {
      MReg Addr = addrOf(I.Array, IdxReg, K, LIdx);
      MInstr S;
      S.Op = MOp::Store;
      S.Kind = K;
      S.Srcs = {Addr, Vals[LIdx]};
      emit(std::move(S));
    }
    return;
  }

  MemStrategy S = I.Op == Opcode::AStore ? MemStrategy::Aligned
                                         : Strat.at(Idx);
  MReg Addr = addrOf(I.Array, IdxReg, K, 0);
  MInstr St;
  St.Op = S == MemStrategy::Aligned ? MOp::VStoreA : MOp::VStoreU;
  St.Kind = K;
  St.Vector = true;
  St.Srcs = {Addr, Vals[0]};
  St.SrcInstr = Idx;
  emit(std::move(St));
}

std::vector<MReg> JitCompiler::lowerGuardRuntime(const Instr &I) {
  switch (I.Guard) {
  case GuardKind::BasesAligned: {
    // or-together (base & (VS-1)) for each array, compare against zero.
    unsigned VS = T.VSBytes ? T.VSBytes : VSEff;
    MReg Mask = ldImm(static_cast<int64_t>(VS) - 1);
    MReg Acc = NoReg;
    for (uint32_t A : I.GuardArgs) {
      MReg Bits = alu(Opcode::And, ScalarKind::I64, false,
                      {baseOf(A), Mask});
      Acc = Acc == NoReg
                ? Bits
                : alu(Opcode::Or, ScalarKind::I64, false, {Acc, Bits});
    }
    MReg Zero = ldImm(0);
    return {alu(Opcode::CmpEQ, ScalarKind::I64, false, {Acc, Zero})};
  }
  case GuardKind::TypeSupported:
  case GuardKind::PreferOuterLoop:
    // Always folded in foldGuards(); reaching here means the guard's if
    // was live with a folded condition value used elsewhere.
    return {ldImm(FoldedGuards.at(I.Result) ? 1 : 0, ScalarKind::I1)};
  case GuardKind::None:
    break;
  }
  vapor_unreachable("guard without kind reached emission");
}

} // namespace

CompileResult jit::compile(const Function &F, const TargetDesc &T,
                           const RuntimeInfo &RT, const Options &Opt) {
  obs::Span S("jit", "compile");
  S.arg("function", F.Name);
  S.arg("target", T.Name);
  S.arg("tier", Opt.CompilerTier == Tier::Strong ? "strong" : "weak");
  CompileResult R = JitCompiler(F, T, RT, Opt).run();
  R.Iaca = target::analyzeVectorLoop(R.Code, T);
  static obs::Counter Compiles("jit.compiles");
  static obs::Counter Scalarized("jit.scalarized");
  Compiles.add(1);
  if (R.Scalarized)
    Scalarized.add(1);
  S.arg("scalarized", R.Scalarized);
  S.arg("mem_aligned", static_cast<uint64_t>(R.Strategy.MemAligned));
  S.arg("mem_unaligned", static_cast<uint64_t>(R.Strategy.MemUnaligned));
  S.arg("mem_perm", static_cast<uint64_t>(R.Strategy.MemPerm));
  S.arg("mem_scalar", static_cast<uint64_t>(R.Strategy.MemScalar));
  S.arg("guards_runtime", static_cast<uint64_t>(R.Strategy.GuardsRuntime));
  return R;
}

Expected<CompileResult> jit::compileChecked(const Function &F,
                                            const TargetDesc &T,
                                            const RuntimeInfo &RT,
                                            const Options &Opt) {
  if (faultinject::shouldFire(faultinject::SiteClass::JitLower))
    return Status::error(status::Code::UnsupportedIdiom, status::Layer::Jit,
                         "fault-injection: forced unsupported-idiom failure "
                         "lowering " + F.Name + " for " + T.Name);
  return compile(F, T, RT, Opt);
}

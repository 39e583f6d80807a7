//===- vapor/Pipeline.cpp - End-to-end compilation/execution ----------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "vapor/Pipeline.h"

#include "bytecode/Bytecode.h"
#include "ir/Interp.h"
#include "ir/ScalarOps.h"
#include "ir/Verifier.h"
#include "mono/Mono.h"
#include "support/Support.h"
#include "target/VM.h"
#include "vapor/Executor.h"
#include "vapor/FillAdapters.h"

#include <chrono>
#include <cmath>

using namespace vapor;
using namespace vapor::ir;
using namespace vapor::target;

const char *vapor::flowName(Flow F) {
  switch (F) {
  case Flow::SplitVectorized:
    return "split-vectorized";
  case Flow::SplitScalar:
    return "split-scalar";
  case Flow::NativeVectorized:
    return "native-vectorized";
  case Flow::NativeScalar:
    return "native-scalar";
  }
  vapor_unreachable("bad flow");
}

const char *vapor::tierName(ExecTier T) {
  switch (T) {
  case ExecTier::Native:
    return "native";
  case ExecTier::Vectorized:
    return "vectorized";
  case ExecTier::ScalarJit:
    return "scalar-jit";
  case ExecTier::Interpreter:
    return "interpreter";
  }
  vapor_unreachable("bad tier");
}

const target::ElisionPlan &RunOutcome::elision() const {
  static const target::ElisionPlan Off;
  return Elision ? *Elision : Off;
}

/// The native flows: trusted offline compilation with full knowledge, no
/// interchange format, hard asserts. The split flows take the
/// fault-tolerant path through the Executor's degradation chain.
static RunOutcome runNative(const kernels::Kernel &K, Flow F,
                            const RunOptions &O) {
  RunOutcome Out;

  // --- Offline stage ---
  Function Source = mono::forceArrayAlignment(K.Source, K.ExternalArrays);

  Function Compiled("");
  if (F == Flow::NativeVectorized) {
    vectorizer::Options VO = O.VecOpts;
    VO.SLPAlignmentVersioning = false; // Era-accurate native SLP.
    auto VR = vectorizer::vectorize(Source, VO);
    Out.AnyLoopVectorized = VR.anyVectorized();
    Compiled = std::move(VR.Output);
  } else {
    Compiled = Source;
  }

  // Size statistic only: native flows don't cross the interchange format.
  Out.BytecodeBytes = bytecode::encode(Compiled).size();

  // --- Runtime layout ---
  Out.Mem = std::make_unique<MemoryImage>();
  for (uint32_t A = 0; A < Compiled.Arrays.size(); ++A) {
    const ArrayInfo &AI = Compiled.Arrays[A];
    bool External = K.ExternalArrays.count(AI.Name) != 0;
    Out.Mem->addArray(AI, External ? O.ExternalMisalign : 0);
  }

  // --- What the compiler knows about the runtime ---
  jit::RuntimeInfo RT;
  for (uint32_t A = 0; A < Compiled.Arrays.size(); ++A) {
    const ArrayInfo &AI = Compiled.Arrays[A];
    bool External = K.ExternalArrays.count(AI.Name) != 0;
    if (External)
      RT.Arrays.push_back({false, 0});
    else
      RT.Arrays.push_back({true, Out.Mem->base(A)});
  }

  // --- Codegen (timed for parity with the split flows) ---
  jit::Options JO;
  JO.CompilerTier = jit::Tier::Strong;
  JO.FoldAddressing = O.FoldAddressing;
  JO.PromoteAccumulators = O.PromoteAccumulators;
  auto T0 = std::chrono::steady_clock::now();
  auto CR = jit::compile(Compiled, O.Target, RT, JO);
  auto T1 = std::chrono::steady_clock::now();
  Out.CompileMicros =
      std::chrono::duration<double, std::micro>(T1 - T0).count();
  Out.Scalarized = CR.Scalarized;
  Out.Code = std::move(CR.Code);
  Out.Iaca = CR.Iaca;

  // --- Workload and execution (a native trap is a hard abort) ---
  detail::MemFill Fill(*Out.Mem);
  K.fill(Fill);

  VM Machine(Out.Code, O.Target, *Out.Mem, /*Weak=*/false);
  detail::applyParams(detail::bindParams(K, Compiled), Machine);
  Machine.run();
  Out.Cycles = Machine.cycles();
  Out.Tier = ExecTier::Vectorized;
  return Out;
}

RunOutcome vapor::runKernel(const kernels::Kernel &K, Flow F,
                            const RunOptions &O) {
  switch (F) {
  case Flow::SplitVectorized:
    return Executor(K, O).run(O.UseNative ? ExecTier::Native
                                          : ExecTier::Vectorized);
  case Flow::SplitScalar:
    // The scalar source's own bytecode: its "vectorized" lowering is the
    // scalar one, so the chain enters at the VM tier.
    return Executor(K, O, F).run(ExecTier::Vectorized);
  case Flow::NativeVectorized:
  case Flow::NativeScalar:
    return runNative(K, F, O);
  }
  vapor_unreachable("bad flow");
}

bool vapor::checkAgainstGolden(const kernels::Kernel &K,
                               const RunOutcome &Out, std::string &Err) {
  Evaluator E(K.Source, {});
  E.allocAllArrays();
  detail::EvalFill Fill(E);
  K.fill(Fill);
  detail::applyParams(detail::bindParams(K, K.Source), E);
  E.run();

  // Name the producing tier in every mismatch so degraded runs can't
  // masquerade as vectorized ones in failure reports.
  const std::string Where =
      K.Name + " [tier " + tierName(Out.Tier) + "]: ";
  for (uint32_t A = 0; A < K.Source.Arrays.size(); ++A) {
    const ArrayInfo &AI = K.Source.Arrays[A];
    for (uint64_t I = 0; I < AI.NumElems; ++I) {
      if (isFloatKind(AI.Elem)) {
        double Want = E.peekFP(A, I);
        double Got = Out.Mem->peekFP(A, I);
        double Tol = K.Tolerance * std::max(1.0, std::fabs(Want));
        if (std::fabs(Want - Got) > Tol &&
            !(std::isnan(Want) && std::isnan(Got))) {
          Err = Where + AI.Name + "[" + std::to_string(I) +
                "] = " + std::to_string(Got) + ", golden " +
                std::to_string(Want);
          return false;
        }
      } else {
        int64_t Want = E.peekInt(A, I);
        int64_t Got = Out.Mem->peekInt(A, I);
        if (Want != Got) {
          Err = Where + AI.Name + "[" + std::to_string(I) +
                "] = " + std::to_string(Got) + ", golden " +
                std::to_string(Want);
          return false;
        }
      }
    }
  }
  return true;
}

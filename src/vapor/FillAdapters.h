//===- vapor/FillAdapters.h - Shared workload-binding helpers --*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small adapters shared by the pipeline facade and the fault-tolerant
/// executor: FillSink bindings for the VM memory image and the golden
/// evaluator, and parameter binding from a kernel's workload.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_VAPOR_FILLADAPTERS_H
#define VAPOR_VAPOR_FILLADAPTERS_H

#include "ir/Interp.h"
#include "jit/Elision.h"
#include "kernels/Kernels.h"
#include "target/MemoryImage.h"

#include <functional>
#include <string>

namespace vapor {
namespace detail {

/// FillSink adapter for the VM's memory image.
class MemFill : public kernels::FillSink {
public:
  explicit MemFill(target::MemoryImage &Image) : Mem(Image) {}
  void pokeInt(uint32_t Arr, uint64_t Elem, int64_t V) override {
    Mem.pokeInt(Arr, Elem, V);
  }
  void pokeFP(uint32_t Arr, uint64_t Elem, double V) override {
    Mem.pokeFP(Arr, Elem, V);
  }

private:
  target::MemoryImage &Mem;
};

/// FillSink adapter for the golden evaluator.
class EvalFill : public kernels::FillSink {
public:
  explicit EvalFill(ir::Evaluator &Ev) : E(Ev) {}
  void pokeInt(uint32_t Arr, uint64_t Elem, int64_t V) override {
    E.pokeInt(Arr, Elem, V);
  }
  void pokeFP(uint32_t Arr, uint64_t Elem, double V) override {
    E.pokeFP(Arr, Elem, V);
  }

private:
  ir::Evaluator &E;
};

/// The bindings of every parameter of \p F from the kernel's workload
/// tables (defaults: 0 for ints, 1.0 for floats), in F.Params order. The
/// executor binds once per attempt and feeds the one list to the elision
/// plan's key and bounds evaluator and to the engine's setParam* calls.
inline jit::ParamBindings bindParams(const kernels::Kernel &K,
                                     const ir::Function &F) {
  jit::ParamBindings Out;
  Out.reserve(F.Params.size());
  for (ir::ValueId P : F.Params) {
    jit::ParamBinding B;
    B.Name = F.Values[P].Name;
    B.IsFP = ir::isFloatKind(F.typeOf(P).Elem);
    if (B.IsFP) {
      auto It = K.FPParams.find(B.Name);
      B.FP = It == K.FPParams.end() ? 1.0 : It->second;
    } else {
      auto It = K.IntParams.find(B.Name);
      B.Int = It == K.IntParams.end() ? 0 : It->second;
    }
    Out.push_back(std::move(B));
  }
  return Out;
}

/// Binds \p Params into \p Engine (a VM, NativeExec or Evaluator).
template <typename EngineT>
void applyParams(const jit::ParamBindings &Params, EngineT &Engine) {
  for (const jit::ParamBinding &P : Params) {
    if (P.IsFP)
      Engine.setParamFP(P.Name, P.FP);
    else
      Engine.setParamInt(P.Name, P.Int);
  }
}

/// Binds every parameter of \p F from the kernel's workload tables
/// through callbacks (the same values bindParams lists).
inline void
setParams(const kernels::Kernel &K, const ir::Function &F,
          const std::function<void(const std::string &, int64_t)> &SetI,
          const std::function<void(const std::string &, double)> &SetF) {
  for (const jit::ParamBinding &P : bindParams(K, F)) {
    if (P.IsFP)
      SetF(P.Name, P.FP);
    else
      SetI(P.Name, P.Int);
  }
}

} // namespace detail
} // namespace vapor

#endif // VAPOR_VAPOR_FILLADAPTERS_H

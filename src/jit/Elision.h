//===- jit/Elision.h - Certificate-driven check elision planner -*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The consumer half of the proof-carrying pipeline: turns a verifier-
/// produced SafetyCertificate into a target::ElisionPlan for one concrete
/// run. Zero trust in the producer — every fact is replayed by the
/// independent checker (analysis/Certificate.h) first, and the residual
/// runtime preconditions (concrete array base addresses, concrete
/// parameter values) are evaluated here against the actual MemoryImage.
/// Anything that cannot be re-proven keeps its checks; the plan only ever
/// removes checks the checker *and* the runtime preconditions both
/// discharge.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_JIT_ELISION_H
#define VAPOR_JIT_ELISION_H

#include "analysis/Certificate.h"
#include "ir/Function.h"
#include "target/Elision.h"
#include "target/MemoryImage.h"
#include "target/Target.h"

#include <string>
#include <vector>

namespace vapor {
namespace jit {

/// One scalar parameter as a run binds it (vapor/FillAdapters.h's
/// bindParams). A float parameter carries no integer value the bounds
/// evaluator may rely on.
struct ParamBinding {
  std::string Name;
  bool IsFP = false;
  int64_t Int = 0;
  double FP = 0;
};
using ParamBindings = std::vector<ParamBinding>;

/// The bounds evaluator's view of \p Params: each integer binding by
/// name; float and unbound names have no value. The returned function
/// refers to \p Params, which must outlive it.
analysis::ParamFn intParams(const ParamBindings &Params);

/// Builds the elision plan for running \p F on \p T against \p Image with
/// the parameter bindings \p Params (absent integer parameters default to
/// 0, mirroring FillAdapters::setParams).
///
/// \p Cert may be null (no certificate: the plan grants nothing). The
/// returned plan carries \p Mode verbatim — in Audit mode the Proven bits
/// describe what On mode *would* elide, and consumers compile counting
/// checks instead of removing them.
target::ElisionPlan buildElisionPlan(const ir::Function &F,
                                     const analysis::SafetyCertificate *Cert,
                                     const target::TargetDesc &T,
                                     const target::MemoryImage &Image,
                                     target::ElisionMode Mode,
                                     const analysis::ParamFn &Params);

} // namespace jit
} // namespace vapor

#endif // VAPOR_JIT_ELISION_H

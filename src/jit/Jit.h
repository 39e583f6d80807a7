//===- jit/Jit.h - The online (JIT) compilation stage ----------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The last, online compilation stage (paper Sec. III-C): translates
/// split-layer bytecode into target machine code in time linear in the
/// bytecode size, with no loop-level analysis. All decisions are local:
///
///  - realign_load is lowered per the target: explicit realignment
///    (lvsr/vperm) where supported, a misaligned load where supported, an
///    aligned load when the mis/mod hints prove alignment, and a scalar
///    load when scalarizing — the rest of the chain dies as dead code;
///  - version guards are resolved statically when the runtime base
///    addresses are known (strong tier), or lowered to runtime checks;
///  - get_VF / get_align_limit / loop_bound / get_misalign materialize;
///  - when the target has no (suitable) SIMD, vector code is *scalarized*
///    by per-lane expansion at the granularity of the widest element type,
///    producing plain scalar loops with no vector-era overheads.
///
/// Two quality tiers reproduce the paper's two online compilers:
///  - Strong ("gcc4cli"): constant folding of guards and machine
///    parameters, loop-invariant hoisting, folded addressing, generous
///    register allocation.
///  - Weak ("mono"): no guard folding (alignment tests execute where the
///    bytecode put them — per outer-loop iteration in nested loops), no
///    hoisting, tight register file with spill traffic, and x87 execution
///    of scalar floating point on x86.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_JIT_JIT_H
#define VAPOR_JIT_JIT_H

#include "ir/Function.h"
#include "support/Status.h"
#include "target/Iaca.h"
#include "target/MachineIR.h"
#include "target/MemoryImage.h"
#include "target/Target.h"

#include <optional>
#include <string>

namespace vapor {
namespace jit {

enum class Tier : uint8_t {
  Weak,   ///< Mono-like.
  Strong, ///< gcc4cli-like.
};

/// What the JIT knows about the runtime environment when it compiles.
struct RuntimeInfo {
  struct ArrayRT {
    bool KnownBase = false; ///< JIT knows the base address (can fold).
    uint64_t Base = 0;
  };
  std::vector<ArrayRT> Arrays;

  /// Runtime info for a fully bound memory image: every base known.
  static RuntimeInfo fromMemory(const target::MemoryImage &Mem);
  /// Runtime info for externally supplied arrays: nothing known.
  static RuntimeInfo unknown(size_t NumArrays);
};

struct Options {
  Tier CompilerTier = Tier::Strong;
  /// Table 3 "legacy" codegen profile (the older GCC used for split AVX):
  /// no scaled-index addressing and no accumulator register promotion.
  bool FoldAddressing = true;
  bool PromoteAccumulators = true;
  /// Lower the whole function scalar regardless of target SIMD support.
  /// The executor's deoptimization path uses this to re-enter at the
  /// scalar tier after a runtime alignment trap or a verifier rejection:
  /// scalar lowering emits no checked vector accesses, so no alignment
  /// lie in the bytecode can trap it.
  bool ForceScalarize = false;
};

/// Tally of the local strategy decisions one compile() took — the
/// observability layer's per-target record (vapor-explain prints it, the
/// executor forwards it through RunOutcome).
struct StrategyStats {
  uint32_t MemAligned = 0;   ///< Accesses lowered VLoadA/VStoreA.
  uint32_t MemUnaligned = 0; ///< Accesses lowered VLoadU/VStoreU.
  uint32_t MemPerm = 0;      ///< Explicit realignment chains kept.
  uint32_t MemScalar = 0;    ///< Accesses in scalar-expansion regions.
  uint32_t GuardsFoldedTrue = 0;  ///< version_guards folded to taken.
  uint32_t GuardsFoldedFalse = 0; ///< ... folded to not-taken.
  uint32_t GuardsRuntime = 0;     ///< ... left as runtime checks.
};

struct CompileResult {
  target::MFunction Code;
  bool Scalarized = false; ///< The whole function was scalar-expanded.
  std::string ScalarizeReason;
  StrategyStats Strategy;
  /// Static throughput of Code's vector main loop, analyzed once per
  /// compile (target::analyzeVectorLoop) so cached compiles carry it.
  target::IacaReport Iaca;
};

//===--- The per-target strategy model ------------------------------------===//
//
// Every decision the online compiler takes locally is exposed here as a
// pure function of (instruction, target, runtime knowledge), so that the
// offline verifier can enumerate exactly the lowerings this JIT could
// materialize. The compiler itself calls the same functions; there is a
// single source of truth for the strategy table.

/// How one memory idiom will be lowered.
enum class MemStrategy : uint8_t {
  Aligned,   ///< VLoadA / VStoreA.
  Unaligned, ///< VLoadU / VStoreU.
  Perm,      ///< Keep the explicit realignment chain (lvsr + vperm).
  Scalar,    ///< Per-lane scalar accesses (scalar-expansion region).
};

const char *memStrategyName(MemStrategy S);

/// Whether the hint proves T.VSBytes-alignment of the access. A hint
/// marked IfJitAligns is only valid when this compiler knows the runtime
/// base and that base is vector-aligned (paper Sec. III-B(c)).
bool hintProvesAligned(const ir::AlignHint &H, uint32_t Array,
                       const target::TargetDesc &T, const RuntimeInfo &RT);

/// Whether \p H could prove alignment in *some* runtime world: like
/// hintProvesAligned but optimistic about IfJitAligns bases. The verifier
/// uses this to make its region modes a superset of any actual run.
bool hintCouldProveAligned(const ir::AlignHint &H,
                           const target::TargetDesc &T);

/// The strategy chosen for memory idiom \p Op given the region lowering
/// mode and the hint decision. Non-memory opcodes have no strategy.
MemStrategy memStrategy(ir::Opcode Op, bool ScalarRegion, bool HintAligned,
                        const target::TargetDesc &T);

/// Idioms a LibFallbackForOps target can route to a library call.
bool isLibCallable(ir::Opcode Op);

/// \returns a reason string if instruction \p I (assumed to sit in a
/// vector-mode region) cannot be lowered vectorially on \p T, given the
/// hint-alignment decision for its access; "" when it can.
std::string vectorBlockReason(const ir::Function &F, const ir::Instr &I,
                              const target::TargetDesc &T, bool HintAligned);

/// The smallest vector element size (bytes) used inside \p R, or 16 when
/// the region holds no vector code.
unsigned minVectorElemSize(const ir::Function &F, const ir::Region &R);

/// This target's vectorization factor for loop \p L: vector size over the
/// smallest vector element kind used inside (1 when not vectorizable).
int64_t loopVF(const ir::Function &F, const ir::LoopStmt &L,
               const target::TargetDesc &T);

/// Statically folds the version_guard \p I the way tier \p CompilerTier
/// with knowledge \p RT does. \p NestedInLoop marks guards inside loops,
/// which the weak tier leaves as runtime checks (paper Sec. V-A(a)).
/// \returns nullopt when the guard stays a runtime check.
std::optional<bool> foldGuardStatic(const ir::Instr &I,
                                    const target::TargetDesc &T,
                                    const RuntimeInfo &RT, Tier CompilerTier,
                                    bool NestedInLoop);

/// Compiles split-layer bytecode \p F for \p T. Never fails: targets that
/// cannot execute the vector code get scalarized code.
CompileResult compile(const ir::Function &F, const target::TargetDesc &T,
                      const RuntimeInfo &RT, const Options &Opt = {});

/// The fault-tolerant pipeline's lowering surface: like compile(), but
/// lowering failures are *representable* — a Jit-layer Status comes back
/// instead of an abort. Organic failures cannot currently occur (every
/// idiom has at least a scalar expansion), so errors surface only under
/// fault injection (SiteClass::JitLower) — which is exactly what keeps the
/// executor's JIT-demotion edge honest and tested.
Expected<CompileResult> compileChecked(const ir::Function &F,
                                       const target::TargetDesc &T,
                                       const RuntimeInfo &RT,
                                       const Options &Opt = {});

} // namespace jit
} // namespace vapor

#endif // VAPOR_JIT_JIT_H

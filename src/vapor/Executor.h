//===- vapor/Executor.h - Fault-tolerant tiered execution ------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-tolerant driver behind the split flows. It prepares the
/// run's module once -- decode through the code cache, then the verify
/// gate -- and then walks a degradation chain until some tier completes,
/// reporting honestly which one did:
///
///   Native       the prepared module's vector lowering compiled to host
///                x86-64 (src/codegen) instead of run on the cycle-model
///                VM;
///   Vectorized   the prepared module's JIT lowering on the target VM in
///                trap-recording mode;
///   ScalarJit    the same module re-JITted with forced scalarization
///                (no checked vector accesses can be emitted, so no
///                alignment lie in the bytecode can trap it) -- also the
///                *deoptimization* target when the vectorized tier takes
///                a runtime alignment trap;
///   Interpreter  the golden IR evaluator on the kernel source. This tier
///                cannot fail: it shares no code with the stages that
///                can. Trusted kernel flows only.
///
/// The module comes from one of three sources: the kernel source through
/// the offline vectorizer (Flow::SplitVectorized), the kernel source as
/// is (Flow::SplitScalar, the Figs. 5/6 scalar-bytecode measurement), or
/// the server's pre-decoded wire module (runEncodedModule).
///
/// Demotion edges (each carries the demoting Status into the outcome):
///   decode fail     -> the floor (the fault is in the interchange layer,
///                      so no JIT tier has a module to run);
///   verify fail     -> ScalarJit (the gate rejected a vector lowering;
///                      forced-scalar code is safe by construction);
///   native fail     -> Vectorized (any failure: unsupported host, page
///                      allocation, lowering, runtime trap. The VM is the
///                      golden execution of the exact same lowering, so
///                      this edge is NOT a retry);
///   JIT lower fail  -> ScalarJit;
///   VM runtime trap -> ScalarJit, counted as a Retry (deoptimization);
///   ScalarJit fail  -> the floor.
///
/// The floor is the Interpreter for trusted kernel flows. Server runs
/// fail closed: the floor is a Terminal Status, because the interpreter
/// has no deadline checkpoint and must never run tenant-supplied input.
/// Deadline exhaustion is terminal on every tier.
///
/// Every VM at this level runs in trap-recording mode, so a runtime
/// fault comes back as a Vm-layer Status with structured TrapInfo rather
/// than killing the process. The offline stage (vectorizer, encoder) is
/// trusted and keeps its internal asserts.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_VAPOR_EXECUTOR_H
#define VAPOR_VAPOR_EXECUTOR_H

#include "analysis/Certificate.h"
#include "jit/Elision.h"
#include "vapor/Pipeline.h"

namespace vapor {

class Executor {
public:
  /// Trusted kernel flows: \p F is Flow::SplitVectorized or
  /// Flow::SplitScalar and picks the module source.
  Executor(const kernels::Kernel &K, const RunOptions &O,
           Flow F = Flow::SplitVectorized)
      : K(K), O(O), F(F) {}

  /// Server-mode executor: \p PreDecoded is the already-decoded module
  /// the (untrusted) encoded bytes produced and \p EncodedBytes its wire
  /// size. The chain FAIL-CLOSES: with no trusted kernel source behind the
  /// module, the floor is a Terminal Status, never the interpreter. \p K
  /// still supplies the workload (params, fill, name); its Source is
  /// unused. \p FnHash is the module's ir::hashFunction when the caller
  /// already has it (the code cache's module memo keeps it); 0 means
  /// "hash on first use".
  Executor(const kernels::Kernel &K, const RunOptions &O,
           std::shared_ptr<const ir::Function> PreDecoded,
           size_t EncodedBytes, uint64_t FnHash = 0)
      : K(K), O(O), Module(std::move(PreDecoded)), ModuleHash(FnHash),
        ModuleBytes(EncodedBytes), FailClosed(true) {}

  /// Walks the chain starting at \p Entry until a tier completes. Never
  /// aborts for representable configurations -- also not under fault
  /// injection; the outcome records the executed tier, every demoting
  /// Status, and the retry count.
  ///
  /// Under RunOptions::Tiered, \p Entry is the EAGER entry tier (the
  /// best this run may reach); the actual entry is chosen by the
  /// hotness engine -- see runTiered.
  RunOutcome run(ExecTier Entry = ExecTier::Vectorized);

  /// The hotness key this workload ticks under RunOptions::Tiered:
  /// function identity (module hash in server mode, kernel name and flow
  /// otherwise), target, external-array placement, every
  /// compilation-relevant option, and O.TieringSalt. Exposed so
  /// vapor-explain can look up the promotion timeline after a run.
  uint64_t tieringKey();

private:
  /// Which engine runModule hands the compiled MachineIR to.
  enum class RunEngine : uint8_t {
    Vm,     ///< Cycle-model target VM (trap-recording).
    Native, ///< Host x86-64 via codegen::compileNative.
  };

  /// The plain degradation chain starting at \p Entry (the body of
  /// run() before tiering existed).
  RunOutcome runChain(ExecTier Entry);

  /// Tiered execution: ticks the hotness engine, enters the chain at
  /// the cheapest READY tier, enqueues a claimed background compile
  /// (a fresh Executor over copies of K and O with Tiered off, run
  /// once at the promotion target so every artifact lands in the
  /// CodeCache), and reports demotions back as pins.
  RunOutcome runTiered(ExecTier Eager);

  /// The run's one prepare step, before the chain walks: obtains the
  /// module (trusted flows: offline stage, encode, and decode through
  /// the code cache) and, when \p Entry is a vector tier, runs the
  /// verify gate once. A Bytecode-layer failure leaves no module; a
  /// Verify-layer failure leaves one that only ScalarJit may run.
  status::Status prepare(RunOutcome &Out, ExecTier Entry);

  /// The verify gate, its verdict memoized in the code cache (keyed on
  /// the module hash and the run's target). Captures the certificate.
  status::Status verifyGate();

  /// ir::hashFunction(*Module): the code cache's copy when the module came
  /// through it, else computed once per executor.
  uint64_t moduleHash();

  /// Golden evaluator; materializes results into a fresh MemoryImage so
  /// checkAgainstGolden works uniformly across tiers.
  void runInterpreter(RunOutcome &Out);

  /// The shared online tail of the JIT tiers over the prepared module:
  /// layout, compileChecked (through the code cache when enabled), fill,
  /// VM or native run. On success fills the outcome's Cycles/Code/Mem;
  /// on failure \returns the Jit- or Vm-layer Status.
  status::Status runModule(RunOutcome &Out, bool ForceScalarize,
                           RunEngine Engine = RunEngine::Vm);

  /// The elision plan for running Module against \p Mem under \p Mode
  /// with \p Params bound, through the code cache's plan memo: a hit
  /// skips the certificate checker and the bounds evaluator entirely.
  /// Requires the verify gate's certificate.
  std::shared_ptr<const target::ElisionPlan>
  elisionPlan(const target::MemoryImage &Mem, target::ElisionMode Mode,
              const jit::ParamBindings &Params);

  const kernels::Kernel &K;
  const RunOptions &O;
  /// Module source of trusted kernel flows (unused in server mode).
  Flow F = Flow::SplitVectorized;
  /// The run's decoded module once prepared (given up front in server
  /// mode); possibly shared with the code cache (immutable either way).
  std::shared_ptr<const ir::Function> Module;
  uint64_t ModuleHash = 0; ///< ir::hashFunction(*Module); 0 = not yet.
  size_t ModuleBytes = 0;  ///< Encoded size of Module.
  /// Server mode: the floor is a Terminal Status instead of the
  /// interpreter, and the tiering cold tier is ScalarJit.
  bool FailClosed = false;
  /// Safety certificate the verify gate captured for Module (null when
  /// the verifier proved nothing or the gate did not run).
  std::shared_ptr<const analysis::SafetyCertificate> Cert;
};

} // namespace vapor

#endif // VAPOR_VAPOR_EXECUTOR_H

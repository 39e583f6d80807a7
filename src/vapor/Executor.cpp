//===- vapor/Executor.cpp - Fault-tolerant tiered execution -----------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "vapor/Executor.h"

#include "bytecode/Bytecode.h"
#include "ir/Interp.h"
#include "jit/CodeCache.h"
#include "jit/Elision.h"
#include "jit/Tiering.h"
#include "obs/Obs.h"
#include "support/FaultInject.h"
#include "support/Support.h"
#include "target/VM.h"
#include "vapor/FillAdapters.h"
#include "verify/Verify.h"

#include <chrono>

using namespace vapor;
using namespace vapor::ir;
using namespace vapor::status;
using namespace vapor::target;

namespace {

/// Every demoting Status becomes one trace event and one counter tick:
/// the degradation chain is exactly the thing a trace reader wants to see.
void recordDemotion(const kernels::Kernel &K, const RunOptions &O,
                    const Status &St, ExecTier From, ExecTier To) {
  static obs::Counter Demotions("executor.demotions");
  Demotions.add(1);
  if (!obs::tracingActive())
    return;
  obs::event("executor", "demote",
             {{"kernel", obs::argStr(K.Name)},
              {"target", obs::argStr(O.Target.Name)},
              {"from", obs::argStr(tierName(From))},
              {"to", obs::argStr(tierName(To))},
              {"status", obs::argStr(St.str())}});
}

/// One counter per lattice tier so "tier-at-execution" is readable off
/// a counter snapshot without parsing trace args.
void countExecTier(ExecTier T) {
  static obs::Counter Native("tiering.exec.native");
  static obs::Counter Vectorized("tiering.exec.vectorized");
  static obs::Counter ScalarJit("tiering.exec.scalar_jit");
  static obs::Counter Interp("tiering.exec.interpreter");
  switch (T) {
  case ExecTier::Native:
    Native.add(1);
    break;
  case ExecTier::Vectorized:
    Vectorized.add(1);
    break;
  case ExecTier::ScalarJit:
    ScalarJit.add(1);
    break;
  case ExecTier::Interpreter:
    Interp.add(1);
    break;
  }
}

/// The one decode path: hash the encoded bytes, look the module up in the
/// code cache, and decode (and insert) on a miss. The decoded module is a
/// pure function of the bytes, so a hit is exactly "same bytes in". With
/// the cache live, \p FnHash receives the module's ir::hashFunction, kept
/// in the cache entry; otherwise it is left 0 (computed on demand).
status::Expected<std::shared_ptr<const ir::Function>>
decodeCached(const std::vector<uint8_t> &Bytes, uint64_t &FnHash) {
  const bool Cached = jit::cache::enabled();
  uint64_t BytesHash = 0;
  if (Cached) {
    BytesHash = jit::cache::hashBytes(Bytes.data(), Bytes.size());
    if (auto Hit = jit::cache::findModule(BytesHash, &FnHash))
      return Hit;
  }
  auto Decoded = bytecode::decode(Bytes);
  if (!Decoded)
    return Decoded.status();
  if (Cached)
    return jit::cache::putModule(BytesHash, Decoded.take(), Bytes.size(),
                                 &FnHash);
  return std::make_shared<const ir::Function>(Decoded.take());
}

} // namespace

RunOutcome Executor::run(ExecTier Entry) {
  if (O.Tiered)
    return runTiered(Entry);
  return runChain(Entry);
}

uint64_t Executor::moduleHash() {
  if (!ModuleHash)
    ModuleHash = ir::hashFunction(*Module);
  return ModuleHash;
}

uint64_t Executor::tieringKey() {
  // Server mode: the decoded module IS the function; its structural hash
  // is also what the cache keys compiles under. Kernel mode: names are
  // unique in the registry and hashing one is O(bytes-of-name), which
  // keeps the per-invocation steady-state cost of tiering negligible.
  uint64_t H = FailClosed ? moduleHash()
                          : jit::cache::hashBytes(K.Name.data(), K.Name.size());
  H = jit::cache::hashCombine(H, jit::cache::hashTarget(O.Target));
  H = jit::cache::hashCombine(H, O.ExternalMisalign);
  uint64_t Flags = (O.UseNative ? 1u : 0u) | (FailClosed ? 2u : 0u) |
                   (O.FoldAddressing ? 4u : 0u) |
                   (O.PromoteAccumulators ? 8u : 0u) |
                   (O.FuseOps ? 16u : 0u) |
                   (F == Flow::SplitScalar ? 32u : 0u) |
                   (static_cast<uint64_t>(O.Tier) << 8) |
                   (static_cast<uint64_t>(O.Elide) << 16);
  H = jit::cache::hashCombine(H, Flags);
  return jit::cache::hashCombine(H, O.TieringSalt);
}

RunOutcome Executor::runTiered(ExecTier Eager) {
  namespace tiering = jit::tiering;
  const uint8_t EagerV = static_cast<uint8_t>(Eager);
  // Fail-closed flows must not touch the checkpoint-free interpreter;
  // their cheapest tier is the forced-scalar JIT, which also skips the
  // verify gate -- the scalar lowering emits no checked vector access a
  // bytecode lie could trap, so it is safe-by-construction like the
  // verify-fail demotion edge. Trusted kernel flows start all the way
  // down at the golden interpreter: zero compilation before the first
  // result.
  const uint8_t ColdV =
      static_cast<uint8_t>(FailClosed ? ExecTier::ScalarJit
                                      : ExecTier::Interpreter);
  if (EagerV >= ColdV)
    return runChain(Eager); // Nothing below the requested tier to tier.

  const uint64_t Key = tieringKey();
  tiering::Decision D = tiering::engine().onInvoke(Key, EagerV, ColdV);

  if (D.ShouldCompile) {
    // The background job is a fresh Executor over VALUE copies (this
    // one borrows K and O by reference and dies with the caller). It
    // runs the promotion target once with tiering off; success means
    // every artifact of that tier now sits in the content-addressed
    // cache under the exact keys the next foreground invocation will
    // look up -- placement is deterministic (MemoryImage::AddrBase), so
    // the swap-in is a warm hit, not a handoff. A server-mode kernel
    // carries no source, so its copy is cheap; the module is shared.
    RunOptions O2 = O;
    O2.Tiered = false;
    kernels::Kernel K2 = K;
    std::shared_ptr<const ir::Function> Mod = FailClosed ? Module : nullptr;
    size_t Bytes = ModuleBytes;
    uint64_t Hash = ModuleHash;
    Flow Fl = F;
    ExecTier CT = static_cast<ExecTier>(D.CompileTier);
    std::string Tenant = jit::cache::currentTenant();
    tiering::engine().enqueueCompile(
        Key, D.EntryTier, D.CompileTier,
        [K2, O2, Mod, Bytes, Hash, Fl, CT, Tenant]() -> bool {
          jit::cache::ScopedTenant Scope(Tenant);
          RunOutcome BG = Mod ? Executor(K2, O2, Mod, Bytes, Hash).runChain(CT)
                              : Executor(K2, O2, Fl).runChain(CT);
          return BG.Terminal.ok() &&
                 static_cast<uint8_t>(BG.Tier) <= static_cast<uint8_t>(CT);
        });
  }

  RunOutcome Out = runChain(static_cast<ExecTier>(D.EntryTier));
  countExecTier(Out.Tier);

  // Demotions feed back as pins so the engine never promotes into a
  // failing tier again (until cache invalidation). Deadline exhaustion
  // is exempt: the budget, not the tier, stopped the run.
  const bool Deadline =
      !Out.Terminal.ok() && Out.Terminal.code() == Code::DeadlineExceeded;
  const bool FinalFailed = !Out.Terminal.ok() && !Deadline;
  const bool TierFailure =
      !Out.Demotions.empty() || Out.Retries > 0 || FinalFailed;
  if (TierFailure) {
    uint8_t Pin = static_cast<uint8_t>(Out.Tier);
    if (FinalFailed)
      ++Pin; // Even the tier it ended on failed.
    tiering::engine().onOutcome(Key, Pin);
  }
  return Out;
}

RunOutcome Executor::runChain(ExecTier Entry) {
  obs::Span S("executor", "run");
  S.arg("kernel", K.Name);
  S.arg("target", O.Target.Name);
  RunOutcome Out;
  Out.EntryTier = Entry;
  ExecTier T = Entry;

  // One hop down the chain with \p St as its reason. \returns false when
  // the run stops instead: deadline exhaustion (a slower tier cannot
  // meet a budget the faster one missed) or a fail-closed floor.
  auto Demote = [&](const Status &St, ExecTier To) {
    if (St.code() == Code::DeadlineExceeded ||
        (FailClosed && To == ExecTier::Interpreter)) {
      Out.Tier = T;
      Out.Terminal = St;
      return false;
    }
    Out.Demotions.push_back(St);
    recordDemotion(K, O, St, T, To);
    T = To;
    return true;
  };

  bool Done = false;
  if (T != ExecTier::Interpreter) {
    Status St = prepare(Out, T);
    if (!St.ok())
      Done = !Demote(St, St.layer() == Layer::Verify ? ExecTier::ScalarJit
                                                      : ExecTier::Interpreter);
  }
  while (!Done) {
    Status St = Status::okStatus();
    ExecTier Next = ExecTier::Interpreter;
    switch (T) {
    case ExecTier::Native:
      // Every native failure demotes to the VM running the exact same
      // lowering. Not a Retry: the vector code is not suspect, only its
      // native binding, so no deoptimizing recompile happens.
      St = runModule(Out, /*ForceScalarize=*/false, RunEngine::Native);
      Next = ExecTier::Vectorized;
      break;
    case ExecTier::Vectorized:
      St = runModule(Out, /*ForceScalarize=*/false);
      Next = ExecTier::ScalarJit;
      break;
    case ExecTier::ScalarJit:
      St = runModule(Out, /*ForceScalarize=*/true);
      break;
    case ExecTier::Interpreter:
      runInterpreter(Out);
      break;
    }
    if (St.ok()) {
      Out.Tier = T;
      break;
    }
    const bool Deopt = T == ExecTier::Vectorized && St.layer() == Layer::Vm;
    Done = !Demote(St, Next);
    if (!Done && Deopt)
      ++Out.Retries; // Deoptimize: recompile scalar after the trap.
  }

  static obs::Counter Runs("executor.runs");
  Runs.add(1);
  if (!Out.Terminal.ok()) {
    static obs::Counter Terminals("executor.terminal");
    Terminals.add(1);
    S.arg("terminal", Out.Terminal.str());
  }
  S.arg("tier", tierName(Out.Tier));
  S.arg("demotions", static_cast<uint64_t>(Out.Demotions.size()));
  S.arg("retries", static_cast<uint64_t>(Out.Retries));
  S.arg("cycles", Out.Cycles);
  return Out;
}

Status Executor::prepare(RunOutcome &Out, ExecTier Entry) {
  if (!Module) {
    // --- Offline stage (trusted: keeps its internal asserts) ---
    std::vector<uint8_t> Encoded;
    if (F == Flow::SplitVectorized) {
      auto VR = vectorizer::vectorize(K.Source, O.VecOpts);
      Out.AnyLoopVectorized = VR.anyVectorized();
      Out.LoopDecisions = VR.Loops;
      Encoded = bytecode::encode(VR.Output);
    } else {
      Encoded = bytecode::encode(K.Source);
    }
    // The split layer is a real interchange format: decode what the
    // online compiler consumes (also yields the size statistic).
    if (obs::tracingActive())
      obs::event(
          "bytecode", "encode",
          {{"kernel", obs::argStr(K.Name)},
           {"bytes", obs::argStr(static_cast<uint64_t>(Encoded.size()))}});
    auto Decoded = decodeCached(Encoded, ModuleHash);
    if (!Decoded)
      return Decoded.status();
    Module = Decoded.take();
    ModuleBytes = Encoded.size();
  }
  Out.BytecodeBytes = ModuleBytes;

  // The split layer's contract: what crosses it must be provably safe
  // for every lowering the online compiler may pick on this target. A
  // forced-scalar entry picks none, so it skips the gate.
  if (Entry > ExecTier::Vectorized)
    return Status::okStatus();
  return verifyGate();
}

Status Executor::verifyGate() {
  const bool Cached = jit::cache::enabled();
  const uint64_t FnHash = Cached ? moduleHash() : 0;
  const uint64_t TargetHash = Cached ? jit::cache::hashTarget(O.Target) : 0;
  std::optional<jit::cache::VerifyResult> VRes;
  if (Cached)
    VRes = jit::cache::findVerify(FnHash, TargetHash);
  if (!VRes) {
    obs::Span S("verify", "verifyModule");
    S.arg("kernel", K.Name);
    S.arg("target", O.Target.Name);
    verify::VerifyOptions VO;
    VO.Targets = {O.Target};
    verify::Report Rep = verify::verifyModule(*Module, VO);
    static obs::Counter Proved("verify.obligations_proved");
    static obs::Counter Failed("verify.obligations_failed");
    Proved.add(Rep.ObligationsProved);
    Failed.add(Rep.ObligationsFailed);
    S.arg("ok", Rep.ok());
    S.arg("obligations_proved",
          static_cast<uint64_t>(Rep.ObligationsProved));
    S.arg("obligations_failed",
          static_cast<uint64_t>(Rep.ObligationsFailed));
    VRes = jit::cache::VerifyResult{Rep.ok(), Rep.ok() ? "" : Rep.str(), {}};
    // One target verified => at most one certificate.
    if (!Rep.Certificates.empty())
      VRes->Cert = std::make_shared<const analysis::SafetyCertificate>(
          std::move(Rep.Certificates.front()));
    if (Cached)
      jit::cache::putVerify(FnHash, TargetHash, *VRes);
  }
  Cert = VRes->Cert;
  if (!VRes->Ok)
    return Status::error(Code::VerificationFailed, Layer::Verify,
                         "bytecode verification failed for " + K.Name +
                             ":\n" + VRes->Report);
  return Status::okStatus();
}

Status Executor::runModule(RunOutcome &Out, bool ForceScalarize,
                           RunEngine Engine) {
  // One gate for the whole native tier: the encoding set (normally the
  // host CPUID probe, a forced subset in tests) must clear the x86-64 +
  // SSE2 baseline. Jit-layer because it is a lowering capability, and
  // the demotion edge lands on the tier that can always lower: the VM.
  if (Engine == RunEngine::Native && !codegen::supported(O.Native.Features))
    return Status::error(
        Code::UnsupportedIdiom, Layer::Jit,
        "native tier unsupported on this host (needs x86-64 + sse2; have '" +
            O.Native.Features.str() + "')");
  const ir::Function &Fn = *Module;
  // One binding pass per attempt: the plan key, the bounds evaluator and
  // the engine's setParam* calls all read this list.
  const jit::ParamBindings Params = detail::bindParams(K, Fn);

  // --- Runtime layout: a fresh image per attempt, because a trapped run
  // may have partially written arrays. ---
  Out.Mem = std::make_unique<MemoryImage>();
  for (uint32_t A = 0; A < Fn.Arrays.size(); ++A) {
    const ArrayInfo &AI = Fn.Arrays[A];
    bool External = K.ExternalArrays.count(AI.Name) != 0;
    Out.Mem->addArray(AI, External ? O.ExternalMisalign : 0);
  }

  // --- What the compiler knows about the runtime ---
  jit::RuntimeInfo RT;
  for (uint32_t A = 0; A < Fn.Arrays.size(); ++A) {
    const ArrayInfo &AI = Fn.Arrays[A];
    bool External = K.ExternalArrays.count(AI.Name) != 0;
    if (External)
      RT.Arrays.push_back({false, 0});
    else
      RT.Arrays.push_back({true, Out.Mem->base(A)});
  }

  // --- Online stage (timed; CompileMicros sums across retries, and a
  // warm cache hit reports the [near-zero] lookup time -- that is the
  // measurement, not an accounting gap) ---
  jit::Options JO;
  JO.CompilerTier = O.Tier;
  JO.FoldAddressing = O.FoldAddressing;
  JO.PromoteAccumulators = O.PromoteAccumulators;
  JO.ForceScalarize = ForceScalarize;
  const bool Cached = jit::cache::enabled();
  uint64_t CompKey = 0;
  std::shared_ptr<const jit::CompileResult> R;
  auto T0 = std::chrono::steady_clock::now();
  if (Cached) {
    CompKey = jit::cache::compileKey(moduleHash(), O.Target, JO, RT);
    R = jit::cache::findCompile(CompKey);
  }
  if (!R) {
    auto CR = jit::compileChecked(Fn, O.Target, RT, JO);
    if (!CR) {
      Out.CompileMicros += std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - T0)
                               .count();
      return CR.status();
    }
    R = Cached ? jit::cache::putCompile(CompKey, CR.take())
               : std::make_shared<const jit::CompileResult>(CR.take());
  }
  Out.CompileMicros += std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - T0)
                           .count();
  Out.Scalarized = R->Scalarized;
  Out.Code = R->Code;
  Out.Strategy = R->Strategy;
  Out.Iaca = R->Iaca;

  // --- Proof-carrying check elision. Fault-injected runs stand down
  // from On to Off -- an injected fault must never be masked by an
  // elided check (Audit keeps every check live, so it may pass
  // through). Forced-scalar recompiles run code the certificate does
  // not describe, so they never elide.
  target::ElisionMode EMode = O.Elide;
  if (EMode == target::ElisionMode::On && faultinject::controller().Active)
    EMode = target::ElisionMode::Off;
  if (ForceScalarize)
    EMode = target::ElisionMode::Off;
  Out.Elision = EMode != target::ElisionMode::Off && Cert
                    ? elisionPlan(*Out.Mem, EMode, Params)
                    : nullptr;
  const target::ElisionPlan *PlanPtr = Out.Elision.get();
  // Audit counters are NOT reset here: they accumulate across the whole
  // demotion chain, so a genuine would-have-fired in a trapped attempt
  // survives the recovery rerun (the soundness sweep reads the total).

  // --- Workload and execution ---
  detail::MemFill Fill(*Out.Mem);
  K.fill(Fill);

  if (Engine == RunEngine::Native) {
    // Fault-injection site: pretend the native run took an alignment
    // trap, so the crashtest can sweep the Native -> Vectorized edge
    // without depending on a placement that actually traps.
    if (faultinject::shouldFire(faultinject::SiteClass::NativeTrap))
      return Status::error(Code::AlignmentTrap, Layer::Vm,
                           "injected fault: native trap");

    // The unit is placement-, feature-, and plan-keyed in the cache;
    // compile time joins CompileMicros like the JIT lowering above.
    codegen::NativeOptions NO = O.Native;
    NO.Plan = PlanPtr;
    auto N0 = std::chrono::steady_clock::now();
    auto NU = Cached ? jit::cache::nativeFor(CompKey, R->Code, O.Target,
                                             *Out.Mem, NO)
                     : codegen::compileNative(R->Code, O.Target, *Out.Mem,
                                              NO);
    Out.CompileMicros += std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - N0)
                             .count();
    if (!NU.ok())
      return NU.status();
    std::shared_ptr<const codegen::NativeUnit> Unit = NU.take();

    codegen::NativeExec Exec(Unit, *Out.Mem);
    if (O.DeadlineFuel)
      Exec.setFuel(O.DeadlineFuel);
    detail::applyParams(Params, Exec);
    Status St = Exec.run();
    Out.AuditAlignFired += Exec.auditAlignFired();
    Out.AuditBoundsFired += Exec.auditBoundsFired();
    if (!St.ok())
      return St;
    // No cycle model ran: the native tier is measured in wall time by
    // the benches, not in modeled cycles.
    Out.Cycles = 0;
    Out.NativeCode = Unit->Stats;
    return Status::okStatus();
  }

  // The pre-decoded (and fused) program is immutable and placement-keyed,
  // so every cell of a sweep that compiles the same code for the same
  // layout shares one program.
  const bool Weak = JO.CompilerTier == jit::Tier::Weak;
  std::shared_ptr<const DecodedProgram> Prog =
      Cached ? jit::cache::programFor(CompKey, R->Code, O.Target, *Out.Mem,
                                      Weak, O.FuseOps, PlanPtr)
             : DecodedProgram::build(R->Code, O.Target, *Out.Mem, Weak,
                                     O.FuseOps, PlanPtr);
  VM Machine(Prog, *Out.Mem);
  Machine.setTrapRecording(true);
  if (O.DeadlineFuel)
    Machine.setFuel(O.DeadlineFuel);
  detail::applyParams(Params, Machine);
  Status St = Machine.run();
  Out.AuditAlignFired += Machine.auditAlignFired();
  Out.AuditBoundsFired += Machine.auditBoundsFired();
  if (!St.ok())
    return St;
  Out.Cycles = Machine.cycles();
  return Status::okStatus();
}

std::shared_ptr<const target::ElisionPlan>
Executor::elisionPlan(const MemoryImage &Mem, target::ElisionMode Mode,
                      const jit::ParamBindings &Params) {
  const bool Cached = jit::cache::enabled();
  uint64_t Key = 0;
  if (Cached) {
    Key = jit::cache::planKey(moduleHash(), O.Target, Mem, Mode, Params);
    if (auto Hit = jit::cache::findPlan(Key))
      return Hit;
  }
  // A miss replays the verifier's certificate through the independent
  // checker and evaluates its runtime preconditions against this
  // concrete placement and these parameter values.
  obs::Span S("jit", "elision_plan");
  S.arg("kernel", K.Name);
  S.arg("target", O.Target.Name);
  target::ElisionPlan Plan = jit::buildElisionPlan(
      *Module, Cert.get(), O.Target, Mem, Mode, jit::intParams(Params));
  S.arg("elided", static_cast<uint64_t>(Plan.AlignElided + Plan.BoundsElided));
  if (Cached)
    return jit::cache::putPlan(Key, std::move(Plan));
  return std::make_shared<const target::ElisionPlan>(std::move(Plan));
}

void Executor::runInterpreter(RunOutcome &Out) {
  Evaluator E(K.Source, {});
  E.allocAllArrays();
  detail::EvalFill Fill(E);
  K.fill(Fill);
  detail::applyParams(detail::bindParams(K, K.Source), E);
  E.run();

  // Materialize the evaluator's results into a fresh memory image so
  // checkAgainstGolden inspects every tier the same way.
  Out.Mem = std::make_unique<MemoryImage>();
  for (uint32_t A = 0; A < K.Source.Arrays.size(); ++A) {
    const ArrayInfo &AI = K.Source.Arrays[A];
    bool External = K.ExternalArrays.count(AI.Name) != 0;
    Out.Mem->addArray(AI, External ? O.ExternalMisalign : 0);
  }
  for (uint32_t A = 0; A < K.Source.Arrays.size(); ++A) {
    const ArrayInfo &AI = K.Source.Arrays[A];
    for (uint64_t I = 0; I < AI.NumElems; ++I) {
      if (isFloatKind(AI.Elem))
        Out.Mem->pokeFP(A, I, E.peekFP(A, I));
      else
        Out.Mem->pokeInt(A, I, E.peekInt(A, I));
    }
  }

  // No machine code ran: cost is the evaluator's dynamic-op count (a
  // cycle proxy), and the JIT consumed no bytecode.
  Out.Cycles = E.dynamicOps();
  Out.Scalarized = true;
  Out.BytecodeBytes = 0;
  Out.Code = MFunction();
  Out.Iaca = IacaReport();
}

RunOutcome vapor::runEncodedModule(const ModuleWorkload &W,
                                   const RunOptions &O) {
  obs::Span S("executor", "runEncodedModule");
  S.arg("name", W.Name);
  S.arg("bytes", static_cast<uint64_t>(W.Bytecode.size()));

  // The bytes are the only definition of the work, so a decode failure
  // is terminal -- no tier can synthesize a module the wire format
  // rejected.
  uint64_t FnHash = 0;
  auto Decoded = decodeCached(W.Bytecode, FnHash);
  if (!Decoded) {
    RunOutcome Out;
    Out.Terminal = Decoded.status();
    return Out;
  }
  std::shared_ptr<const ir::Function> Module = Decoded.take();

  // Synthesize the workload the executor drives: the decoded module is
  // the source of truth for arrays and params; the fill is the
  // deterministic default (seeded), so a client that knows the original
  // source can recompute the golden result independently. The fill
  // shares the module rather than copying it into the kernel's Source.
  kernels::Kernel K;
  K.Name = W.Name.empty() ? Module->Name : W.Name;
  K.Suite = "server";
  K.IntParams = W.IntParams;
  K.FPParams = W.FPParams;
  K.Fill = [Module, Seed = W.FillSeed](kernels::FillSink &Sink,
                                       const ir::Function &) {
    kernels::defaultFill(Sink, *Module, Seed);
  };

  return Executor(K, O, std::move(Module), W.Bytecode.size(), FnHash)
      .run(O.UseNative ? ExecTier::Native : ExecTier::Vectorized);
}

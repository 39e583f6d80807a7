//===- tests/executor_test.cpp - Degradation-chain unit tests -------------===//
//
// Part of the Vapor SIMD reproduction.
//
// Exercises every demotion edge of the fault-tolerant executor
// (vapor/Executor.h) under deterministic fault injection, and audits
// that no abort() is reachable from runKernel for any injected fault —
// the property the crashtest sweep (tools/vapor-crashtest) then scales
// to every kernel x target x site.
//
//===----------------------------------------------------------------------===//

#include "jit/CodeCache.h"
#include "obs/Obs.h"
#include "support/FaultInject.h"
#include "vapor/Executor.h"
#include "vapor/Pipeline.h"

#include <gtest/gtest.h>

using namespace vapor;
using namespace vapor::kernels;
using faultinject::ScopedFault;
using faultinject::SiteClass;

namespace {

Kernel kernelByName(const std::string &Name) {
  for (Kernel &K : allKernels())
    if (K.Name == Name)
      return K;
  ADD_FAILURE() << "missing kernel " << Name;
  return allKernels().front();
}

/// Runs split-vectorized on sse and checks the result against golden.
RunOutcome runChecked(const Kernel &K) {
  RunOptions O;
  O.Target = target::sseTarget();
  RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
  std::string Err;
  EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
  return Out;
}

//===--- Clean runs -------------------------------------------------------===//

TEST(ExecutorTest, CleanRunExecutesAtVectorizedTier) {
  RunOutcome Out = runChecked(kernelByName("saxpy_fp"));
  EXPECT_EQ(Out.Tier, ExecTier::Vectorized);
  EXPECT_TRUE(Out.Demotions.empty());
  EXPECT_EQ(Out.Retries, 0u);
  EXPECT_GT(Out.Cycles, 0u);
}

TEST(ExecutorTest, CleanRunCyclesMatchPreExecutorPath) {
  // The executor must be a pure refactor for clean runs: deterministic
  // cycle model, so two runs agree exactly.
  const Kernel K = kernelByName("sfir_fp");
  RunOptions O;
  O.Target = target::avxTarget();
  uint64_t A = runKernel(K, Flow::SplitVectorized, O).Cycles;
  uint64_t B = runKernel(K, Flow::SplitVectorized, O).Cycles;
  EXPECT_EQ(A, B);
}

TEST(ExecutorTest, SplitScalarFlowRunsScalarModuleAtVectorizedTier) {
  // The scalar flow enters the same chain as the vectorized one; only
  // its module differs (the source's own bytecode, no vector loop).
  const Kernel K = kernelByName("saxpy_fp");
  RunOptions O;
  O.Target = target::sseTarget();
  RunOutcome Out = runKernel(K, Flow::SplitScalar, O);
  EXPECT_EQ(Out.Tier, ExecTier::Vectorized);
  EXPECT_FALSE(Out.AnyLoopVectorized);
  EXPECT_TRUE(Out.Demotions.empty());
  EXPECT_GT(Out.BytecodeBytes, 0u);
  std::string Err;
  EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
}

//===--- One edge per test ------------------------------------------------===//

TEST(ExecutorTest, VerifyFailureDemotesToScalarJit) {
  ScopedFault F(SiteClass::Verify);
  RunOutcome Out = runChecked(kernelByName("saxpy_fp"));
  EXPECT_EQ(Out.Tier, ExecTier::ScalarJit);
  ASSERT_EQ(Out.Demotions.size(), 1u);
  EXPECT_EQ(Out.Demotions[0].layer(), status::Layer::Verify);
  EXPECT_EQ(Out.Demotions[0].code(), status::Code::VerificationFailed);
  EXPECT_TRUE(Out.Scalarized); // Forced-scalar code actually ran.
  EXPECT_EQ(Out.Retries, 0u);  // A demotion, not a deopt retry.
}

TEST(ExecutorTest, JitFailureDemotesToScalarJit) {
  ScopedFault F(SiteClass::JitLower);
  RunOutcome Out = runChecked(kernelByName("saxpy_fp"));
  EXPECT_EQ(Out.Tier, ExecTier::ScalarJit);
  ASSERT_EQ(Out.Demotions.size(), 1u);
  EXPECT_EQ(Out.Demotions[0].layer(), status::Layer::Jit);
  EXPECT_EQ(Out.Demotions[0].code(), status::Code::UnsupportedIdiom);
  EXPECT_TRUE(Out.Scalarized);
  EXPECT_EQ(Out.Retries, 0u); // A lowering failure is not a deopt.
}

TEST(ExecutorTest, VmTrapDeoptimizesToScalarJitAndCountsRetry) {
  ScopedFault F(SiteClass::VmAlign);
  RunOutcome Out = runChecked(kernelByName("saxpy_fp"));
  EXPECT_EQ(Out.Tier, ExecTier::ScalarJit);
  EXPECT_EQ(Out.Retries, 1u);
  ASSERT_EQ(Out.Demotions.size(), 1u);
  EXPECT_EQ(Out.Demotions[0].layer(), status::Layer::Vm);
  EXPECT_EQ(Out.Demotions[0].code(), status::Code::AlignmentTrap);
  // The Vm-layer Status carries the structured trap rendering.
  EXPECT_NE(Out.Demotions[0].context().find("alignment trap"),
            std::string::npos);
}

TEST(ExecutorTest, DecodeFailureDemotesToInterpreter) {
  // One-shot fault: the module is decoded once, so a failed decode
  // leaves no JIT tier anything to run.
  ScopedFault F(SiteClass::Decode);
  RunOutcome Out = runChecked(kernelByName("saxpy_fp"));
  EXPECT_EQ(Out.Tier, ExecTier::Interpreter);
  ASSERT_EQ(Out.Demotions.size(), 1u);
  EXPECT_EQ(Out.Demotions[0].layer(), status::Layer::Bytecode);
}

TEST(ExecutorTest, StickyDecodeFailureFallsBackToInterpreter) {
  ScopedFault F(SiteClass::Decode, 0, /*Sticky=*/true);
  RunOutcome Out = runChecked(kernelByName("saxpy_fp"));
  EXPECT_EQ(Out.Tier, ExecTier::Interpreter);
  ASSERT_EQ(Out.Demotions.size(), 1u); // Decoded once, sticky or not.
  EXPECT_EQ(Out.Demotions[0].layer(), status::Layer::Bytecode);
  EXPECT_GT(Out.Cycles, 0u); // The dynamic-op proxy still reports cost.
  EXPECT_EQ(Out.BytecodeBytes, 0u); // No JIT consumed any bytecode.
}

TEST(ExecutorTest, StickyJitFailureFallsBackToInterpreter) {
  ScopedFault F(SiteClass::JitLower, 0, /*Sticky=*/true);
  RunOutcome Out = runChecked(kernelByName("saxpy_fp"));
  EXPECT_EQ(Out.Tier, ExecTier::Interpreter);
  ASSERT_EQ(Out.Demotions.size(), 2u); // Vector, then scalar lowering.
}

TEST(ExecutorTest, NativeDemotionReusesThePreparedModule) {
  // Decode and verify run once, before the chain walks: a Native ->
  // Vectorized demotion re-runs neither.
  if (!codegen::supported())
    GTEST_SKIP() << "native tier unsupported on this host";
  const Kernel K = kernelByName("saxpy_fp");
  RunOptions O;
  O.Target = target::sseTarget();
  O.UseNative = true;
  ScopedFault F(SiteClass::NativeTrap);
  RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
  EXPECT_EQ(Out.Tier, ExecTier::Vectorized);
  ASSERT_EQ(Out.Demotions.size(), 1u);
  EXPECT_EQ(faultinject::hits(SiteClass::Decode), 1u);
  EXPECT_EQ(faultinject::hits(SiteClass::Verify), 1u);
  std::string Err;
  EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
}

TEST(ExecutorTest, NativeEntryVerifyFailureDemotesToScalarJit) {
  // The gate runs before the chain, so its verdict sends a native-entry
  // run straight to the forced-scalar JIT, not through the VM.
  if (!codegen::supported())
    GTEST_SKIP() << "native tier unsupported on this host";
  const Kernel K = kernelByName("saxpy_fp");
  RunOptions O;
  O.Target = target::sseTarget();
  O.UseNative = true;
  ScopedFault F(SiteClass::Verify);
  RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
  EXPECT_EQ(Out.Tier, ExecTier::ScalarJit);
  ASSERT_EQ(Out.Demotions.size(), 1u);
  EXPECT_EQ(Out.Demotions[0].layer(), status::Layer::Verify);
  std::string Err;
  EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
}

//===--- Chain composition ------------------------------------------------===//

TEST(ExecutorTest, InterpreterTierMatchesGoldenOnEveryKernel) {
  // The bottom tier must hold the golden contract for all kernels, since
  // it is what every other failure ultimately lands on.
  ScopedFault F(SiteClass::Decode, 0, /*Sticky=*/true);
  for (const Kernel &K : allKernels()) {
    RunOptions O;
    O.Target = target::sseTarget();
    RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
    EXPECT_EQ(Out.Tier, ExecTier::Interpreter) << K.Name;
    std::string Err;
    EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
  }
}

TEST(ExecutorTest, DeoptRetainsCorrectResultsUnderMisalignedExternals) {
  // A runtime trap with externally misaligned buffers: the deoptimized
  // scalar re-JIT must still produce golden-exact results in the same
  // (misaligned) memory layout.
  const Kernel K = kernelByName("saxpy_fp");
  RunOptions O;
  O.Target = target::sseTarget();
  O.ExternalMisalign = 4;
  ScopedFault F(SiteClass::VmAlign);
  RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
  std::string Err;
  EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
  EXPECT_EQ(Out.Tier, ExecTier::ScalarJit);
  EXPECT_EQ(Out.Retries, 1u);
}

TEST(ExecutorTest, CompileMicrosAccumulatesAcrossRetries) {
  const Kernel K = kernelByName("saxpy_fp");
  RunOptions O;
  O.Target = target::sseTarget();
  RunOutcome Clean = runKernel(K, Flow::SplitVectorized, O);
  ScopedFault F(SiteClass::VmAlign);
  RunOutcome Deopt = runKernel(K, Flow::SplitVectorized, O);
  // Two compiles happened; wall time is noisy, so only assert presence.
  EXPECT_GT(Deopt.CompileMicros, 0.0);
  EXPECT_GT(Clean.CompileMicros, 0.0);
}

//===--- Honest reporting -------------------------------------------------===//

TEST(ExecutorTest, GoldenMismatchErrorNamesTheExecutedTier) {
  const Kernel K = kernelByName("saxpy_fp");
  RunOutcome Out = runChecked(K);
  // Corrupt one output element so the golden check fails, then confirm
  // the error string names the tier that produced the results.
  Out.Mem->pokeFP(0, 0, 12345678.0);
  std::string Err;
  ASSERT_FALSE(checkAgainstGolden(K, Out, Err));
  EXPECT_NE(Err.find("[tier vectorized]"), std::string::npos) << Err;

  ScopedFault F(SiteClass::Verify);
  RunOutcome Demoted = runChecked(K);
  Demoted.Mem->pokeFP(0, 0, 12345678.0);
  ASSERT_FALSE(checkAgainstGolden(K, Demoted, Err));
  EXPECT_NE(Err.find("[tier scalar-jit]"), std::string::npos) << Err;
}

TEST(ExecutorTest, TierNamesAreStable) {
  EXPECT_STREQ(tierName(ExecTier::Native), "native");
  EXPECT_STREQ(tierName(ExecTier::Vectorized), "vectorized");
  EXPECT_STREQ(tierName(ExecTier::ScalarJit), "scalar-jit");
  EXPECT_STREQ(tierName(ExecTier::Interpreter), "interpreter");
}

//===--- Code-cache memos of the warm path --------------------------------===//

/// Every memo test starts and ends on an empty, enabled, unbounded cache
/// with zeroed tallies (the cache is process-global).
class ExecutorMemoTest : public ::testing::Test {
protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    jit::cache::setEnabled(true);
    jit::cache::setCapacity(0);
    jit::cache::clear();
    jit::cache::resetStats();
  }
};

RunOptions onTarget(const target::TargetDesc &T) {
  RunOptions O;
  O.Target = T;
  return O;
}

/// Runs \p K split-vectorized under \p O, checks it against golden, and
/// \returns the outcome with the plan-memo tallies it moved.
RunOutcome runCounted(const Kernel &K, const RunOptions &O,
                      uint64_t &PlanHits, uint64_t &PlanMisses) {
  jit::cache::Stats S0 = jit::cache::stats();
  RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
  jit::cache::Stats S1 = jit::cache::stats();
  PlanHits = S1.PlanHits - S0.PlanHits;
  PlanMisses = S1.PlanMisses - S0.PlanMisses;
  std::string Err;
  EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
  return Out;
}

TEST_F(ExecutorMemoTest, WarmRunHitsThePlanMemoAndSkipsTheChecker) {
  const Kernel K = kernelByName("saxpy_fp");
  const RunOptions O = onTarget(target::sseTarget());
  uint64_t Hits = 0, Misses = 0;
  RunOutcome Cold = runCounted(K, O, Hits, Misses);
  EXPECT_EQ(Misses, 1u);
  EXPECT_EQ(Hits, 0u);
  ASSERT_NE(Cold.Elision, nullptr) << "saxpy_fp certifies on sse";
  EXPECT_GT(Cold.elision().AlignElided + Cold.elision().BoundsElided, 0u);

  // The warm run shares the cold run's plan: neither the checker nor the
  // bounds evaluator runs again.
  RunOutcome Warm;
  {
    obs::TraceSink Sink(""); // Collect only.
    Warm = runCounted(K, O, Hits, Misses);
#if VAPOR_OBS_ENABLED
    for (const obs::Event &E : Sink.events())
      EXPECT_FALSE(E.Cat == "jit" && E.Name == "elision_plan")
          << "a warm run rebuilt its elision plan";
#endif
  }
  EXPECT_EQ(Hits, 1u);
  EXPECT_EQ(Misses, 0u);
  EXPECT_EQ(Warm.Elision.get(), Cold.Elision.get());
}

TEST_F(ExecutorMemoTest, ColdRunTracesOnePlanBuild) {
#if !VAPOR_OBS_ENABLED
  GTEST_SKIP() << "built with -DVAPOR_OBS=OFF: no spans to inspect";
#else
  obs::TraceSink Sink("");
  uint64_t Hits = 0, Misses = 0;
  runCounted(kernelByName("saxpy_fp"), onTarget(target::sseTarget()), Hits,
             Misses);
  unsigned Builds = 0;
  for (const obs::Event &E : Sink.events())
    Builds += E.Cat == "jit" && E.Name == "elision_plan";
  EXPECT_EQ(Builds, 1u);
#endif
}

/// Runs \p Base warm, then \p Variant: the variant must miss the plan
/// memo (its key differs) and get a plan of its own.
void expectOwnPlan(const Kernel &KBase, const RunOptions &Base,
                   const Kernel &KVar, const RunOptions &Variant,
                   const char *What) {
  uint64_t Hits = 0, Misses = 0;
  RunOutcome B = runCounted(KBase, Base, Hits, Misses);
  runCounted(KBase, Base, Hits, Misses);
  ASSERT_EQ(Hits, 1u) << What << ": the base run must be warm";
  RunOutcome V = runCounted(KVar, Variant, Hits, Misses);
  EXPECT_EQ(Misses, 1u) << What << " must be part of the plan key";
  EXPECT_EQ(Hits, 0u) << What << " must be part of the plan key";
  ASSERT_NE(B.Elision, nullptr) << What;
  ASSERT_NE(V.Elision, nullptr) << What;
  EXPECT_NE(V.Elision.get(), B.Elision.get()) << What;
}

TEST_F(ExecutorMemoTest, ExternalMisalignmentIsPartOfThePlanKey) {
  // sad_s8's inputs are external: the misalignment moves their bases,
  // which decides the align grants.
  const Kernel K = kernelByName("sad_s8");
  RunOptions Mis = onTarget(target::sseTarget());
  Mis.ExternalMisalign = 8;
  expectOwnPlan(K, onTarget(target::sseTarget()), K, Mis,
                "external misalignment");
}

TEST_F(ExecutorMemoTest, IntegerParameterValueIsPartOfThePlanKey) {
  // A shorter trip count narrows every bounds range the plan evaluates.
  const Kernel K = kernelByName("saxpy_fp");
  Kernel Short = K;
  Short.IntParams["n"] = K.IntParams.at("n") / 2;
  const RunOptions O = onTarget(target::sseTarget());
  expectOwnPlan(K, O, Short, O, "integer parameter value");
  uint64_t Hits = 0, Misses = 0;
  RunOutcome Long = runCounted(K, O, Hits, Misses);
  RunOutcome Half = runCounted(Short, O, Hits, Misses);
  EXPECT_NE(Long.elision().Decisions, Half.elision().Decisions)
      << "the bounds ranges must follow the bound value of n";
}

TEST_F(ExecutorMemoTest, ElisionModeIsPartOfThePlanKey) {
  const Kernel K = kernelByName("saxpy_fp");
  RunOptions Audit = onTarget(target::sseTarget());
  Audit.Elide = target::ElisionMode::Audit;
  expectOwnPlan(K, onTarget(target::sseTarget()), K, Audit, "Audit vs On");
  uint64_t Hits = 0, Misses = 0;
  EXPECT_EQ(runCounted(K, Audit, Hits, Misses).elision().Mode,
            target::ElisionMode::Audit);
}

TEST_F(ExecutorMemoTest, TargetIsPartOfThePlanKey) {
  const Kernel K = kernelByName("saxpy_fp");
  expectOwnPlan(K, onTarget(target::sseTarget()), K,
                onTarget(target::avxTarget()), "target");
}

TEST_F(ExecutorMemoTest, ClearDropsPlans) {
  const Kernel K = kernelByName("saxpy_fp");
  const RunOptions O = onTarget(target::sseTarget());
  uint64_t Hits = 0, Misses = 0;
  runCounted(K, O, Hits, Misses);
  jit::cache::clear();
  runCounted(K, O, Hits, Misses);
  EXPECT_EQ(Misses, 1u);
  EXPECT_EQ(Hits, 0u);
}

TEST_F(ExecutorMemoTest, CacheOffRebuildsThePlanEveryRun) {
  const Kernel K = kernelByName("saxpy_fp");
  const RunOptions O = onTarget(target::sseTarget());
  jit::cache::setEnabled(false);
  uint64_t Hits = 0, Misses = 0;
  RunOutcome A = runCounted(K, O, Hits, Misses);
  RunOutcome B = runCounted(K, O, Hits, Misses);
  EXPECT_EQ(Hits + Misses, 0u) << "the memo is not consulted";
  ASSERT_NE(A.Elision, nullptr);
  ASSERT_NE(B.Elision, nullptr);
  EXPECT_NE(A.Elision.get(), B.Elision.get()) << "each run built its own";
  EXPECT_EQ(A.elision().Decisions, B.elision().Decisions);
}

TEST_F(ExecutorMemoTest, FaultControllerRebuildsThePlanEveryRun) {
  // Audit keeps its plan under fault injection (On stands down to Off),
  // so the plan is still built -- just never memoized.
  const Kernel K = kernelByName("saxpy_fp");
  RunOptions O = onTarget(target::sseTarget());
  O.Elide = target::ElisionMode::Audit;
  ScopedFault F(SiteClass::VmAlign, /*FireAt=*/~0ull >> 1);
  uint64_t Hits = 0, Misses = 0;
  RunOutcome A = runCounted(K, O, Hits, Misses);
  RunOutcome B = runCounted(K, O, Hits, Misses);
  EXPECT_EQ(Hits + Misses, 0u) << "the cache stands down";
  ASSERT_NE(A.Elision, nullptr);
  ASSERT_NE(B.Elision, nullptr);
  EXPECT_NE(A.Elision.get(), B.Elision.get());
}

void expectSameRun(const RunOutcome &A, const RunOutcome &B,
                   const std::string &What) {
  const target::ElisionPlan &PA = A.elision(), &PB = B.elision();
  EXPECT_EQ(PA.Mode, PB.Mode) << What;
  EXPECT_EQ(PA.Proven, PB.Proven) << What;
  EXPECT_EQ(PA.Hash, PB.Hash) << What;
  EXPECT_EQ(PA.AlignElided, PB.AlignElided) << What;
  EXPECT_EQ(PA.BoundsElided, PB.BoundsElided) << What;
  EXPECT_EQ(PA.ChecksKept, PB.ChecksKept) << What;
  EXPECT_EQ(PA.FactsRejected, PB.FactsRejected) << What;
  EXPECT_EQ(PA.CheckerError, PB.CheckerError) << What;
  EXPECT_EQ(PA.Decisions, PB.Decisions) << What;
  EXPECT_EQ(A.Iaca.Found, B.Iaca.Found) << What;
  EXPECT_EQ(A.Iaca.Cycles, B.Iaca.Cycles) << What;
  EXPECT_EQ(A.Cycles, B.Cycles) << What;
  EXPECT_EQ(A.Tier, B.Tier) << What;
}

TEST_F(ExecutorMemoTest, WarmColdAndCacheOffRunsReportTheSameEverywhere) {
  for (const Kernel &K : allKernels()) {
    for (const target::TargetDesc &T : target::allTargets()) {
      const RunOptions O = onTarget(T);
      const std::string What = K.Name + " on " + T.Name;
      jit::cache::clear();
      RunOutcome Cold = runKernel(K, Flow::SplitVectorized, O);
      RunOutcome Warm = runKernel(K, Flow::SplitVectorized, O);
      jit::cache::setEnabled(false);
      RunOutcome Off = runKernel(K, Flow::SplitVectorized, O);
      jit::cache::setEnabled(true);
      expectSameRun(Cold, Warm, What + " (warm)");
      expectSameRun(Cold, Off, What + " (cache off)");
    }
  }
}

//===--- Death audit ------------------------------------------------------===//

// The point of the whole subsystem: no abort() is reachable from
// runKernel's split flows under any injected fault. Each case runs the
// full chain in a death-test-free process section; reaching the golden
// check alive IS the property. As a belt-and-braces audit, the sticky
// variants push through every demotion edge in one process.
TEST(ExecutorAbortAuditTest, NoAbortReachableUnderAnyInjectedFault) {
  const Kernel K = kernelByName("sfir_s16");
  for (SiteClass C : {SiteClass::Decode, SiteClass::Verify,
                      SiteClass::JitLower, SiteClass::VmAlign}) {
    for (bool Sticky : {false, true}) {
      ScopedFault F(C, 0, Sticky);
      for (const target::TargetDesc &T : target::allTargets()) {
        RunOptions O;
        O.Target = T;
        RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
        std::string Err;
        EXPECT_TRUE(checkAgainstGolden(K, Out, Err))
            << faultinject::siteClassName(C) << (Sticky ? " sticky" : "")
            << " on " << T.Name << ": " << Err;
      }
    }
  }
}

} // namespace

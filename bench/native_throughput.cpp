//===- bench/native_throughput.cpp - Native tier vs VM payoff --------------===//
//
// Part of the Vapor SIMD reproduction.
//
// The payoff measurement for the native x86-64 tier (src/codegen): the
// same JIT-lowered MachineIR executed on the cycle-model VM (fused
// dispatch, the strong tier every sweep runs) and as compiled host code,
// per kernel x target. Both sides are normalized by the VM's dispatched-
// op count, so "ns per VM op" is directly comparable and the speedup is
// the ratio of whole-run wall times.
//
//   native_throughput [--json [PATH]] [--seconds S]
//
// Each cell is also measured with proof-carrying check elision applied
// (the verifier's certificate replayed through the independent checker,
// jit::buildElisionPlan): the elided native ns/op and the elision-ON-vs-
// OFF speedup quantify what dropping the certified align/bounds check
// sequences buys on real hardware.
//
// --json writes the machine-readable report (BENCH_native.json by
// default): cpu_features, the headline cell (saxpy_fp x sse, the same
// cell BENCH_vm.json gates on), every kernel x target cell, and the
// geometric-mean speedups. scripts/perf_gate.py --native-floor holds the
// headline's native ns/op at or below half the VM's fused ns/op;
// --elision-floor holds the headline's elided ns/op at or below the
// unelided measurement in the same report.
//
// On hosts without the native tier (non-x86-64 or -DVAPOR_NATIVE=OFF)
// the binary prints a notice and writes "native_supported": false; the
// perf gate passes such reports with a notice instead of failing.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "codegen/NativeJit.h"
#include "support/Support.h"
#include "target/VM.h"
#include "vapor/Pipeline.h"
#include "vapor/Sweep.h"

#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace vapor;
using namespace vapor::bench;

namespace {

using Clock = std::chrono::steady_clock;

/// Repeats \p Run (one prepared kernel execution) in batches until
/// \p Seconds of wall time accumulated; \returns ns per run.
template <typename Fn> double timeRuns(Fn &&Run, double Seconds) {
  uint64_t Runs = 0;
  auto Start = Clock::now();
  double Elapsed = 0;
  do {
    for (int I = 0; I < 16; ++I)
      Run();
    Runs += 16;
    Elapsed = std::chrono::duration<double>(Clock::now() - Start).count();
  } while (Elapsed < Seconds);
  return Elapsed * 1e9 / static_cast<double>(Runs);
}

struct Cell {
  std::string Kernel;
  std::string Target;
  uint64_t OpsPerRun = 0; ///< VM dispatched ops (fused), the denominator.
  double VmNsPerOp = 0;   ///< Cycle-model VM, fused dispatch.
  double NativeNsPerOp = 0;
  double Speedup = 0; ///< VM wall time / native wall time.
  /// Proof-carrying check elision applied (jit::buildElisionPlan), same
  /// MachineIR and placement; ElidedChecks = 0 means the plan granted
  /// nothing and these equal the unelided numbers.
  double NativeElideNsPerOp = 0;
  double ElideSpeedup = 0; ///< Native unelided / native elided wall time.
  uint32_t ElidedChecks = 0;
  /// Lowering shape from NativeStats: how many machine ops were emitted
  /// as inline host code, how many fell back to the interpreter-helper
  /// shim, and how many inline vector ops used packed SSE encodings.
  /// scripts/perf_gate.py --native-floor holds saturating-kernel cells
  /// (Saturating = kernel carries the "saturating" feature) to packed
  /// lowering on SIMD targets: the paddsb/psubusw family must stay
  /// inline, not regress to an all-shim lowering.
  uint64_t InlineOps = 0;
  uint64_t HelperOps = 0;
  uint64_t PackedOps = 0;
  bool Saturating = false;
};

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = nullptr;
  double Seconds = 0.05;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--json")) {
      JsonPath = "BENCH_native.json";
      if (I + 1 < argc && argv[I + 1][0] != '-')
        JsonPath = argv[++I];
    } else if (!std::strcmp(argv[I], "--seconds") && I + 1 < argc) {
      Seconds = std::atof(argv[++I]);
    } else {
      std::printf("usage: native_throughput [--json [PATH]] [--seconds S]\n");
      return 2;
    }
  }

  const codegen::CpuFeatures &FX = codegen::hostFeatures();
  if (!codegen::supported(FX)) {
    std::printf("native tier unsupported on this host (features: %s); "
                "no measurements taken\n",
                FX.str().c_str());
    if (JsonPath) {
      std::ofstream OS(JsonPath);
      OS << "{\n  \"bench\": \"native_throughput\",\n"
            "  \"native_supported\": false,\n  \"cpu_features\": \""
         << FX.str() << "\",\n  \"cells\": []\n}\n";
      std::printf("wrote %s\n", JsonPath);
    }
    return 0;
  }

  auto Sink = traceSinkFromEnv();
  const std::pair<const char *, target::TargetDesc> Targets[] = {
      {"sse", target::sseTarget()},
      {"altivec", target::altivecTarget()},
      {"neon", target::neonTarget()},
      {"avx", target::avxTarget()},
      {"scalar", target::scalarTarget()}};

  std::vector<Cell> Cells;
  for (const kernels::Kernel &K : kernels::allKernels()) {
    for (const auto &[TName, T] : Targets) {
      RunOptions O;
      O.Target = T;
      RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
      if (Out.Tier != ExecTier::Vectorized)
        fatalError(K.Name + " on " + TName + " did not reach the VM tier");

      // The headline cell gets a longer window (it feeds the perf gate);
      // the matrix rows keep the binary's wall time reasonable.
      bool Headline =
          K.Name == "saxpy_fp" && !std::strcmp(TName, "sse");
      double Secs = Headline ? 6 * Seconds : Seconds;

      Cell C;
      C.Kernel = K.Name;
      C.Target = TName;

      // VM side: fused dispatch, exactly the strong tier's configuration.
      auto Prog =
          target::DecodedProgram::build(Out.Code, T, *Out.Mem, false, true);
      target::VM M(Prog, *Out.Mem);
      for (const auto &P : K.IntParams)
        M.setParamInt(P.first, P.second);
      for (const auto &P : K.FPParams)
        M.setParamFP(P.first, P.second);
      M.run(); // Warm-up; also gives the per-run op count.
      C.OpsPerRun = M.instrsExecuted();
      double VmNsPerRun = timeRuns([&] { M.run(); }, Secs);

      // Native side: same MachineIR, same MemoryImage placement.
      auto NU = codegen::compileNative(Out.Code, T, *Out.Mem,
                                       codegen::NativeOptions());
      if (!NU.ok())
        fatalError("compileNative failed for " + K.Name + " on " + TName +
                   ": " + NU.status().str());
      std::shared_ptr<const codegen::NativeUnit> Unit = NU.take();
      C.InlineOps = Unit->Stats.InlineOps;
      C.HelperOps = Unit->Stats.HelperOps;
      C.PackedOps = Unit->Stats.PackedOps;
      for (const std::string &F : K.Features)
        if (F == "saturating")
          C.Saturating = true;
      codegen::NativeExec Exec(Unit, *Out.Mem);
      for (const auto &P : K.IntParams)
        Exec.setParamInt(P.first, P.second);
      for (const auto &P : K.FPParams)
        Exec.setParamFP(P.first, P.second);
      if (!Exec.run().ok()) // Warm-up.
        fatalError("native run trapped for " + K.Name + " on " + TName);
      double NativeNsPerRun = timeRuns([&] { Exec.run(); }, Secs);

      // Elided native side: the grants of the plan the executor checked
      // for this run's placement, baked in.
      C.ElidedChecks =
          Out.elision().AlignElided + Out.elision().BoundsElided;
      codegen::NativeOptions NOE;
      NOE.Plan = Out.Elision.get();
      auto NUE = codegen::compileNative(Out.Code, T, *Out.Mem, NOE);
      if (!NUE.ok())
        fatalError("elided compileNative failed for " + K.Name + " on " +
                   TName + ": " + NUE.status().str());
      std::shared_ptr<const codegen::NativeUnit> UnitE = NUE.take();
      codegen::NativeExec ExecE(UnitE, *Out.Mem);
      for (const auto &P : K.IntParams)
        ExecE.setParamInt(P.first, P.second);
      for (const auto &P : K.FPParams)
        ExecE.setParamFP(P.first, P.second);
      if (!ExecE.run().ok()) // Warm-up.
        fatalError("elided native run trapped for " + K.Name + " on " +
                   TName);
      double ElideNsPerRun = timeRuns([&] { ExecE.run(); }, Secs);

      double Ops = static_cast<double>(C.OpsPerRun);
      C.VmNsPerOp = VmNsPerRun / Ops;
      C.NativeNsPerOp = NativeNsPerRun / Ops;
      C.Speedup = VmNsPerRun / NativeNsPerRun;
      C.NativeElideNsPerOp = ElideNsPerRun / Ops;
      C.ElideSpeedup = NativeNsPerRun / ElideNsPerRun;
      Cells.push_back(std::move(C));
    }
  }

  const Cell *Head = nullptr;
  std::vector<double> Speedups, ElideSpeedups;
  for (const Cell &C : Cells) {
    Speedups.push_back(C.Speedup);
    ElideSpeedups.push_back(C.ElideSpeedup);
    if (C.Kernel == "saxpy_fp" && C.Target == "sse")
      Head = &C;
  }
  double GeoSpeedup = geoMean(Speedups);
  double GeoElide = geoMean(ElideSpeedups);

  printHeader("Native x86-64 tier vs cycle-model VM (split-vectorized, "
              "fused dispatch)");
  std::printf("host features: %s\n\n", FX.str().c_str());
  std::printf("%-16s %-8s %10s %12s %12s %9s %12s %8s %7s\n", "kernel",
              "target", "ops/run", "vm-ns/op", "nat-ns/op", "speedup",
              "elide-ns/op", "elide-x", "elided");
  for (const Cell &C : Cells)
    std::printf("%-16s %-8s %10llu %12.3f %12.4f %8.1fx %12.4f %7.2fx %7u\n",
                C.Kernel.c_str(), C.Target.c_str(),
                (unsigned long long)C.OpsPerRun, C.VmNsPerOp, C.NativeNsPerOp,
                C.Speedup, C.NativeElideNsPerOp, C.ElideSpeedup,
                C.ElidedChecks);
  std::printf("\ngeomean speedup     %8.1fx\n", GeoSpeedup);
  std::printf("geomean elide gain  %8.2fx (elision ON vs OFF, native)\n",
              GeoElide);
  if (Head)
    std::printf("headline (saxpy_fp, sse): vm %.3f ns/op, native %.4f "
                "ns/op, %.1fx; elided %.4f ns/op (%.2fx over unelided)\n",
                Head->VmNsPerOp, Head->NativeNsPerOp, Head->Speedup,
                Head->NativeElideNsPerOp, Head->ElideSpeedup);

  if (!JsonPath)
    return 0;
  if (!Head)
    fatalError("headline cell (saxpy_fp x sse) missing");
  std::ofstream OS(JsonPath);
  if (!OS)
    fatalError(std::string("cannot write ") + JsonPath);
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\n"
                "  \"bench\": \"native_throughput\",\n"
                "  \"native_supported\": true,\n"
                "  \"cpu_features\": \"%s\",\n"
                "  \"kernel\": \"saxpy_fp\",\n"
                "  \"target\": \"sse\",\n"
                "  \"vm_ns_per_op\": %.3f,\n"
                "  \"native_ns_per_op\": %.4f,\n"
                "  \"headline_speedup\": %.2f,\n"
                "  \"geomean_speedup\": %.2f,\n"
                "  \"native_ns_per_op_elide\": %.4f,\n"
                "  \"elide_speedup\": %.2f,\n"
                "  \"geomean_elide_speedup\": %.2f,\n"
                "  \"cells\": [\n",
                FX.str().c_str(), Head->VmNsPerOp, Head->NativeNsPerOp,
                Head->Speedup, GeoSpeedup, Head->NativeElideNsPerOp,
                Head->ElideSpeedup, GeoElide);
  OS << Buf;
  for (size_t I = 0; I < Cells.size(); ++I) {
    const Cell &C = Cells[I];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"kernel\": \"%s\", \"target\": \"%s\", "
                  "\"ops_per_run\": %llu, \"vm_ns_per_op\": %.3f, "
                  "\"native_ns_per_op\": %.4f, \"speedup\": %.2f, "
                  "\"native_ns_per_op_elide\": %.4f, "
                  "\"elide_speedup\": %.2f, \"elided_checks\": %u, "
                  "\"inline_ops\": %llu, \"helper_ops\": %llu, "
                  "\"packed_ops\": %llu, \"saturating\": %s}%s\n",
                  C.Kernel.c_str(), C.Target.c_str(),
                  (unsigned long long)C.OpsPerRun, C.VmNsPerOp,
                  C.NativeNsPerOp, C.Speedup, C.NativeElideNsPerOp,
                  C.ElideSpeedup, C.ElidedChecks,
                  (unsigned long long)C.InlineOps,
                  (unsigned long long)C.HelperOps,
                  (unsigned long long)C.PackedOps,
                  C.Saturating ? "true" : "false",
                  I + 1 < Cells.size() ? "," : "");
    OS << Buf;
  }
  OS << "  ]\n}\n";
  std::printf("wrote %s\n", JsonPath);
  return 0;
}

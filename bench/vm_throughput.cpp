//===- bench/vm_throughput.cpp - VM dispatch-speed microbenchmark ----------===//
//
// Part of the Vapor SIMD reproduction.
//
// Every figure in the repro is produced by replaying kernels through the
// target VM, so its dispatch speed bounds how fast the whole experiment
// matrix runs. This binary measures the host-side throughput of the
// pre-decoded interpreter -- with and without the macro-op fusion
// peephole -- on a small kernel basket (streaming saxpy_fp, the
// compute-dense dct_s32fp, and the reduction-carrying sfir_fp) across
// all five modelled targets (sse, altivec, neon, avx, scalar).
//
//   vm_throughput          print the human-readable measurements
//   vm_throughput --json [PATH]
//                          also write the machine-readable baseline
//                          (headline throughput, per-cell fused/unfused
//                          rows, and Fig. 6 harmonic means for every
//                          target) to PATH (default BENCH_vm.json in
//                          the working directory)
//
// The headline ns_per_dispatched_op (the perf gate's metric,
// scripts/perf_gate.py) is aligned split-vectorized saxpy_fp on sse with
// fusion ON -- the configuration every sweep actually runs. Every cell
// runs an untimed warm-up window first, then times 16-run batches; its
// ns/op is the median batch and its spread the batches' IQR. Timing runs
// are serial on purpose (wall-clock timing under an oversubscribed pool
// measures contention, not dispatch); only the deterministic Fig. 6
// cycle sweep uses the thread pool.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "target/VM.h"
#include "vapor/Pipeline.h"
#include "vapor/Sweep.h"

#include <algorithm>
#include <tuple>
#include <chrono>
#include <cstring>
#include <fstream>

using namespace vapor;
using namespace vapor::bench;

namespace {

struct Throughput {
  double OpsPerSec = 0;
  double NsPerOp = 0; ///< Median over the timed 16-run batches.
  double NsIqr = 0;   ///< Interquartile range of the same batches.
  uint64_t OpsPerRun = 0;
  uint32_t PreFusionOps = 0; ///< Static ops before the peephole.
  uint32_t SuperOps = 0;     ///< Superops the peephole emitted.
};

/// Untimed replay before every cell's measurement: brings the cell's
/// program, memory image and dispatch targets into the CPU caches and
/// the core out of its idle clock, so the first cell timed is not the
/// cold one.
constexpr double WarmupSeconds = 0.05;

/// Replays one prepared kernel execution in 16-run batches until \p
/// Seconds of timed wall time has accumulated (after the warm-up window)
/// and \returns the median and IQR of the batches' ns per dispatched op.
/// \p Fuse selects whether the measured program ran the fusion peephole.
Throughput measure(const RunOutcome &Out, const target::TargetDesc &T,
                   const kernels::Kernel &K, bool Fuse,
                   double Seconds = 0.5) {
  auto Prog =
      target::DecodedProgram::build(Out.Code, T, *Out.Mem, false, Fuse);
  target::VM M(Prog, *Out.Mem);
  for (const auto &P : K.IntParams)
    M.setParamInt(P.first, P.second);
  for (const auto &P : K.FPParams)
    M.setParamFP(P.first, P.second);

  M.run(); // Also gives the per-run op count.
  uint64_t OpsPerRun = M.instrsExecuted();

  using Clock = std::chrono::steady_clock;
  auto Since = [](Clock::time_point T0) {
    return std::chrono::duration<double>(Clock::now() - T0).count();
  };
  for (auto W0 = Clock::now(); Since(W0) < WarmupSeconds;)
    M.run();

  const double BatchOps = static_cast<double>(OpsPerRun) * 16.0;
  std::vector<double> BatchNs;
  double Elapsed = 0;
  do {
    auto B0 = Clock::now();
    for (int I = 0; I < 16; ++I)
      M.run();
    double Secs = Since(B0);
    BatchNs.push_back(Secs * 1e9 / BatchOps);
    Elapsed += Secs;
  } while (Elapsed < Seconds);

  Spread S = medianIqr(std::move(BatchNs));
  return {1e9 / S.Median, S.Median, S.Iqr, OpsPerRun, Prog->PreFusionOps,
          Prog->FusedOps};
}

/// Measures the fused program's dispatch cost in the default observability
/// state (compiled in, no sink installed: "ON-but-idle") and with the
/// master switch dark, alternating 16-run batches between the two modes
/// and keeping each mode's *fastest* batch. Host noise (frequency steps,
/// neighbors, interrupts) only ever adds time, so the per-mode minimum
/// over thousands of interleaved ~50us batches converges on the true
/// dispatch cost for both modes; a mode-per-window mean at this overhead
/// scale measures only noise and would flap the perf gate's 2% check
/// (scripts/perf_gate.py --obs-overhead).
std::pair<double, double> measureObsOverhead(const RunOutcome &Out,
                                             const target::TargetDesc &T,
                                             const kernels::Kernel &K,
                                             double Seconds = 0.6) {
  auto Prog =
      target::DecodedProgram::build(Out.Code, T, *Out.Mem, false, true);
  target::VM M(Prog, *Out.Mem);
  for (const auto &P : K.IntParams)
    M.setParamInt(P.first, P.second);
  for (const auto &P : K.FPParams)
    M.setParamFP(P.first, P.second);
  M.run(); // Warm-up.
  uint64_t OpsPerRun = M.instrsExecuted();

  using Clock = std::chrono::steady_clock;
  double Total = 0;
  double MinIdle = 1e30, MinOff = 1e30;
  do {
    auto T0 = Clock::now();
    for (int I = 0; I < 16; ++I)
      M.run();
    auto T1 = Clock::now();
    bool Prev = obs::setEnabled(false);
    auto T2 = Clock::now();
    for (int I = 0; I < 16; ++I)
      M.run();
    auto T3 = Clock::now();
    obs::setEnabled(Prev);
    double DIdle = std::chrono::duration<double>(T1 - T0).count();
    double DOff = std::chrono::duration<double>(T3 - T2).count();
    MinIdle = std::min(MinIdle, DIdle);
    MinOff = std::min(MinOff, DOff);
    Total += DIdle + DOff;
  } while (Total < Seconds);

  double BatchOps = static_cast<double>(OpsPerRun) * 16.0;
  return {MinIdle * 1e9 / BatchOps, MinOff * 1e9 / BatchOps};
}

/// One benchmark cell: kernel x target, measured fused and unfused.
struct Cell {
  std::string Kernel;
  std::string Target;
  Throughput Fused;
  Throughput Unfused;
};

double figure6HarmonicMean(const target::TargetDesc &T,
                           const std::vector<kernels::Kernel> &All,
                           unsigned Jobs) {
  std::vector<sweep::SplitNativeCell> Cells(All.size());
  sweep::forEachCell(Jobs, All.size(), [&](size_t I) {
    Cells[I] = sweep::splitOverNativeCell(All[I], T);
  });
  std::vector<double> Ratios;
  for (const sweep::SplitNativeCell &C : Cells)
    Ratios.push_back(C.ratio());
  return harmonicMean(Ratios);
}

} // namespace

int main(int argc, char **argv) {
  bool Json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const char *JsonPath = argc > 2 ? argv[2] : "BENCH_vm.json";

  auto Sink = traceSinkFromEnv();
  std::vector<kernels::Kernel> All = kernels::allKernels();

  // The measured basket: a streaming FP kernel, a compute-dense integer/
  // FP transform, a reduction (carried accumulator) kernel, and a
  // striped saturating-DP kernel (narrow-int lanes, sat-add/max recur-
  // rence, horizontal-max epilogue), on every target the repro models
  // (the scalar row is the no-SIMD baseline the harmonic means are
  // normalized against).
  const char *KernelNames[] = {"saxpy_fp", "dct_s32fp", "sfir_fp", "ssv_u8"};
  const std::pair<const char *, target::TargetDesc> Targets[] = {
      {"sse", target::sseTarget()},
      {"altivec", target::altivecTarget()},
      {"neon", target::neonTarget()},
      {"avx", target::avxTarget()},
      {"scalar", target::scalarTarget()}};

  std::vector<Cell> Cells;
  // Headline obs overhead: the fused headline measurement runs in the
  // default state (obs compiled in, no per-dispatch cost, counters live
  // = "ON-but-idle"); NsObsOff re-measures with the master switch dark.
  // scripts/perf_gate.py --obs-overhead holds idle <= off * 1.02.
  double NsObsIdle = 0, NsObsOff = 0;
  for (const char *KName : KernelNames) {
    const kernels::Kernel *K = sweep::kernelByNameOrNull(All, KName);
    if (!K)
      fatalError(std::string("no such kernel: ") + KName);
    for (const auto &[TName, T] : Targets) {
      RunOptions O;
      O.Target = T;
      RunOutcome Out = runKernel(*K, Flow::SplitVectorized, O);
      Cell C;
      C.Kernel = KName;
      C.Target = TName;
      // The headline cell gets the long window; the matrix rows use a
      // shorter one to keep the binary's wall time reasonable.
      bool Headline = !std::strcmp(KName, "saxpy_fp") && !std::strcmp(TName, "sse");
      double Secs = Headline ? 0.5 : 0.2;
      C.Unfused = measure(Out, T, *K, /*Fuse=*/false, Secs);
      C.Fused = measure(Out, T, *K, /*Fuse=*/true, Secs);
      if (Headline)
        std::tie(NsObsIdle, NsObsOff) = measureObsOverhead(Out, T, *K);
      Cells.push_back(std::move(C));
    }
  }

  const Cell &Headline = Cells.front(); // saxpy_fp x sse.

  printHeader("VM dispatch throughput (split-vectorized, strong tier, "
              "fused vs unfused)");
  std::printf("(ns/op: median of 16-run batches after a %.0f ms warm-up; "
              "iqr: their interquartile range)\n",
              WarmupSeconds * 1e3);
  std::printf("%-12s %-6s %10s %12s %8s %12s %8s %9s %9s\n", "kernel",
              "target", "ops/run", "ns/op-unf", "iqr", "ns/op-fus", "iqr",
              "superops", "speedup");
  for (const Cell &C : Cells)
    std::printf("%-12s %-6s %10llu %12.3f %8.3f %12.3f %8.3f %4u/%-4u "
                "%8.1f%%\n",
                C.Kernel.c_str(), C.Target.c_str(),
                static_cast<unsigned long long>(C.Fused.OpsPerRun),
                C.Unfused.NsPerOp, C.Unfused.NsIqr, C.Fused.NsPerOp,
                C.Fused.NsIqr, C.Fused.SuperOps,
                C.Fused.PreFusionOps,
                100.0 * (C.Unfused.NsPerOp - C.Fused.NsPerOp) /
                    C.Unfused.NsPerOp);
  std::printf("\nheadline (saxpy_fp, sse, fused):\n");
  std::printf("machine ops / sec     %12.3e\n", Headline.Fused.OpsPerSec);
  std::printf("ns / dispatched op    %12.2f  (iqr %.3f)\n",
              Headline.Fused.NsPerOp, Headline.Fused.NsIqr);
  std::printf("ns / op, obs idle     %12.2f\n", NsObsIdle);
  std::printf("ns / op, obs off      %12.2f  (tracing overhead %+.2f%%)\n",
              NsObsOff, 100.0 * (NsObsIdle - NsObsOff) / NsObsOff);

  if (!Json)
    return 0;

  unsigned Jobs = sweep::defaultJobs();
  double HM[4] = {figure6HarmonicMean(target::sseTarget(), All, Jobs),
                  figure6HarmonicMean(target::altivecTarget(), All, Jobs),
                  figure6HarmonicMean(target::neonTarget(), All, Jobs),
                  figure6HarmonicMean(target::avxTarget(), All, Jobs)};
  std::ofstream OS(JsonPath);
  if (!OS)
    fatalError(std::string("cannot write ") + JsonPath);
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\n"
                "  \"bench\": \"vm_throughput\",\n"
                "  \"kernel\": \"saxpy_fp\",\n"
                "  \"target\": \"sse\",\n"
                "  \"fused\": true,\n"
                "  \"vm_ops_per_sec\": %.4e,\n"
                "  \"estimator\": \"median of 16-run batches after a "
                "%.0f ms warm-up\",\n"
                "  \"ns_per_dispatched_op\": %.3f,\n"
                "  \"ns_per_dispatched_op_iqr\": %.3f,\n"
                "  \"ns_per_op_obs_idle\": %.3f,\n"
                "  \"ns_per_op_obs_off\": %.3f,\n"
                "  \"cells\": [\n",
                Headline.Fused.OpsPerSec, WarmupSeconds * 1e3,
                Headline.Fused.NsPerOp, Headline.Fused.NsIqr, NsObsIdle,
                NsObsOff);
  OS << Buf;
  for (size_t I = 0; I < Cells.size(); ++I) {
    const Cell &C = Cells[I];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"kernel\": \"%s\", \"target\": \"%s\", "
                  "\"ns_per_op_unfused\": %.3f, \"ns_per_op_fused\": %.3f, "
                  "\"iqr_unfused\": %.3f, \"iqr_fused\": %.3f, "
                  "\"static_ops\": %u, \"superops\": %u}%s\n",
                  C.Kernel.c_str(), C.Target.c_str(), C.Unfused.NsPerOp,
                  C.Fused.NsPerOp, C.Unfused.NsIqr, C.Fused.NsIqr,
                  C.Fused.PreFusionOps, C.Fused.SuperOps,
                  I + 1 < Cells.size() ? "," : "");
    OS << Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "  ],\n"
                "  \"fig6_harmonic_mean\": {\n"
                "    \"sse\": %.4f,\n"
                "    \"altivec\": %.4f,\n"
                "    \"neon\": %.4f,\n"
                "    \"avx\": %.4f\n"
                "  }\n"
                "}\n",
                HM[0], HM[1], HM[2], HM[3]);
  OS << Buf;
  std::printf("wrote %s\n", JsonPath);
  return 0;
}

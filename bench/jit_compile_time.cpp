//===- bench/jit_compile_time.cpp - JIT compile time (Sec. V-A(c)) ----------===//
//
// Part of the Vapor SIMD reproduction.
//
// "We observed a similar increase of 4.85x/5.37x in compile time on
// x86/PowerPC, respectively, confirming that JIT compilation time is
// proportional to the bytecode size. Overall, the JIT compile time
// remained negligible ... in the microsecond range."
//
// Built on google-benchmark: wall-clock time of the online compiler on
// scalar vs vectorized bytecode, followed by a printed ratio summary and
// a cold-vs-warm measurement of the content-addressed code cache on the
// executor's integrated compile path.
//
//   jit_compile_time [--json [PATH]] [google-benchmark flags]
//
// --json writes the machine-readable cache baseline (BENCH_jit.json by
// default). Use --benchmark_filter=NONE to skip the timed micro-runs
// and only produce the summaries. VAPOR_TRACE=<path> writes the Chrome
// trace of the run.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "bytecode/Bytecode.h"
#include "jit/CodeCache.h"
#include "jit/Jit.h"
#include "kernels/Kernels.h"
#include "vapor/Pipeline.h"
#include "vectorizer/Vectorizer.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>

using namespace vapor;

namespace {

struct Prepared {
  ir::Function Scalar{""};
  ir::Function Vector{""};
  size_t ScalarBytes = 0;
  size_t VectorBytes = 0;
};

Prepared prepare(const std::string &Name) {
  kernels::Kernel K = kernels::kernelByName(Name);
  Prepared P;
  P.Scalar = K.Source;
  P.Vector = vectorizer::vectorize(K.Source).Output;
  P.ScalarBytes = bytecode::encodedSize(P.Scalar);
  P.VectorBytes = bytecode::encodedSize(P.Vector);
  return P;
}

void jitOnce(const ir::Function &F, const target::TargetDesc &T) {
  auto RT = jit::RuntimeInfo::unknown(F.Arrays.size());
  auto CR = jit::compile(F, T, RT);
  benchmark::DoNotOptimize(CR.Code.Instrs.data());
}

void BM_JitScalarBytecode(benchmark::State &State,
                          const std::string &Kernel,
                          target::TargetDesc T) {
  Prepared P = prepare(Kernel);
  for (auto _ : State)
    jitOnce(P.Scalar, T);
  State.counters["bytecode_bytes"] = static_cast<double>(P.ScalarBytes);
}

void BM_JitVectorBytecode(benchmark::State &State,
                          const std::string &Kernel,
                          target::TargetDesc T) {
  Prepared P = prepare(Kernel);
  for (auto _ : State)
    jitOnce(P.Vector, T);
  State.counters["bytecode_bytes"] = static_cast<double>(P.VectorBytes);
}

const char *SampleKernels[] = {"saxpy_fp", "sfir_s16", "dissolve_s8",
                               "convolve_s32", "mmm_fp"};

void registerAll() {
  for (const char *K : SampleKernels) {
    for (auto [TName, T] :
         {std::pair<const char *, target::TargetDesc>{"sse",
                                                      target::sseTarget()},
          {"altivec", target::altivecTarget()}}) {
      benchmark::RegisterBenchmark(
          (std::string("jit_scalar/") + K + "/" + TName).c_str(),
          [K = std::string(K), T](benchmark::State &S) {
            BM_JitScalarBytecode(S, K, T);
          });
      benchmark::RegisterBenchmark(
          (std::string("jit_vector/") + K + "/" + TName).c_str(),
          [K = std::string(K), T](benchmark::State &S) {
            BM_JitVectorBytecode(S, K, T);
          });
    }
  }
}

/// After the timed runs, print the paper-style summary: compile-time
/// ratio vs bytecode-size ratio across the whole suite, measured once.
void printRatioSummary() {
  using Clock = std::chrono::steady_clock;
  bench::printHeader(
      "JIT compile time: vectorized vs scalar bytecode (paper: ~4.85x on "
      "x86 / ~5.37x on PowerPC, proportional to bytecode size)");
  bench::printColumnLabels({"time-ratio", "size-ratio", "us-vector"});

  for (auto [TName, T] :
       {std::pair<const char *, target::TargetDesc>{"sse",
                                                    target::sseTarget()},
        {"altivec", target::altivecTarget()}}) {
    std::vector<double> TimeRatios, SizeRatios;
    double SumVecMicros = 0;
    unsigned Count = 0;
    for (const kernels::Kernel &K : kernels::allKernels()) {
      Prepared P;
      P.Scalar = K.Source;
      auto VR = vectorizer::vectorize(K.Source);
      if (!VR.anyVectorized())
        continue;
      P.Vector = std::move(VR.Output);
      auto Time = [&](const ir::Function &F) {
        // Median of repeated runs to tame scheduler noise.
        std::vector<double> Micros;
        for (int Rep = 0; Rep < 7; ++Rep) {
          auto T0 = Clock::now();
          jitOnce(F, T);
          auto T1 = Clock::now();
          Micros.push_back(
              std::chrono::duration<double, std::micro>(T1 - T0).count());
        }
        std::sort(Micros.begin(), Micros.end());
        return Micros[Micros.size() / 2];
      };
      double ScalarUs = Time(P.Scalar);
      double VectorUs = Time(P.Vector);
      TimeRatios.push_back(VectorUs / ScalarUs);
      SizeRatios.push_back(
          static_cast<double>(bytecode::encodedSize(P.Vector)) /
          static_cast<double>(bytecode::encodedSize(P.Scalar)));
      SumVecMicros += VectorUs;
      ++Count;
    }
    bench::printRow(std::string("avg/") + TName,
                    {{"t", bench::arithMean(TimeRatios)},
                     {"s", bench::arithMean(SizeRatios)},
                     {"us", SumVecMicros / Count}});
  }
}

/// Cold-vs-warm measurement of the content-addressed code cache on the
/// executor's integrated compile path (Pipeline::runKernel). Cold runs
/// start from a cleared cache and pay hash + verify + compile + decode;
/// warm runs repeat the identical request and pay only the hash and
/// lookup. Optionally writes the machine-readable baseline to
/// \p JsonPath.
void printCacheSummary(const char *JsonPath) {
  bench::printHeader(
      "Online-stage code cache: compile path cold (empty cache) vs warm "
      "(content hit), split-vectorized on sse");
  std::printf("%-14s %10s %10s %10s\n", "kernel", "cold-us", "warm-us",
              "speedup");

  struct Row {
    const char *Kernel;
    double ColdUs = 0, WarmUs = 0;
  };
  std::vector<Row> Rows;
  const bool WasEnabled = jit::cache::setEnabled(true);
  for (const char *Name : SampleKernels) {
    kernels::Kernel K = kernels::kernelByName(Name);
    RunOptions O;
    O.Target = target::sseTarget();
    // Median of repeated cold/warm pairs; each pair starts from a
    // cleared cache so "cold" really compiles.
    std::vector<double> Cold, Warm;
    for (int Rep = 0; Rep < 7; ++Rep) {
      jit::cache::clear();
      Cold.push_back(runKernel(K, Flow::SplitVectorized, O).CompileMicros);
      Warm.push_back(runKernel(K, Flow::SplitVectorized, O).CompileMicros);
    }
    std::sort(Cold.begin(), Cold.end());
    std::sort(Warm.begin(), Warm.end());
    Row R{Name, Cold[Cold.size() / 2], Warm[Warm.size() / 2]};
    std::printf("%-14s %10.2f %10.3f %9.0fx\n", R.Kernel, R.ColdUs, R.WarmUs,
                R.ColdUs / R.WarmUs);
    Rows.push_back(R);
  }
  jit::cache::setEnabled(WasEnabled);
  jit::cache::clear();

  if (!JsonPath)
    return;
  std::ofstream OS(JsonPath);
  if (!OS) {
    std::fprintf(stderr, "cannot write %s\n", JsonPath);
    std::exit(1);
  }
  double SumCold = 0, SumWarm = 0;
  for (const Row &R : Rows) {
    SumCold += R.ColdUs;
    SumWarm += R.WarmUs;
  }
  char Buf[256];
  OS << "{\n  \"bench\": \"jit_compile_time\",\n"
        "  \"flow\": \"split_vectorized\",\n  \"target\": \"sse\",\n";
  std::snprintf(Buf, sizeof(Buf),
                "  \"cache_speedup_avg\": %.1f,\n  \"kernels\": [\n",
                SumCold / SumWarm);
  OS << Buf;
  for (size_t I = 0; I < Rows.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"kernel\": \"%s\", \"cold_compile_us\": %.2f, "
                  "\"warm_compile_us\": %.3f}%s\n",
                  Rows[I].Kernel, Rows[I].ColdUs, Rows[I].WarmUs,
                  I + 1 < Rows.size() ? "," : "");
    OS << Buf;
  }
  OS << "  ]\n}\n";
  std::printf("wrote %s\n", JsonPath);
}

} // namespace

int main(int argc, char **argv) {
  // Peel off our own --json [PATH] before google-benchmark sees argv --
  // it rejects flags it does not recognize.
  const char *JsonPath = nullptr;
  std::vector<char *> Args;
  Args.push_back(argv[0]);
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0) {
      JsonPath = "BENCH_jit.json";
      if (I + 1 < argc && argv[I + 1][0] != '-')
        JsonPath = argv[++I];
    } else {
      Args.push_back(argv[I]);
    }
  }
  int BenchArgc = static_cast<int>(Args.size());
  // VAPOR_TRACE=<path> records the cold/warm pairs: only the cold run of
  // each pair carries decode, verify, compile and elision_plan spans.
  auto Sink = bench::traceSinkFromEnv();

  registerAll();
  benchmark::Initialize(&BenchArgc, Args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  printRatioSummary();
  printCacheSummary(JsonPath);
  return 0;
}

//===- perfbench/harness/Main.cpp - End-to-end split-pipeline benchmark ---===//
//
// Part of the Vapor SIMD reproduction's end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
//
// Drives the program from outside through its public entry points and
// measures the paper's cost split: the first run of shipped bytecode on a
// device, repeated runs, and the daemon on top of the warm path. Every
// workload runs the same cells -- every kernel x target x {VM, native}
// engine -- from modules vectorized and encoded once at set-up, and checks
// every op's output.
//
//   deploy_cold  vapor::runEncodedModule on an empty code cache per op;
//   steady       vapor::runEncodedModule on a cache warmed at set-up;
//   serve        RunReq frames to an in-process server::Server (2 workers,
//                2 closed-loop clients, 3 tenants, cache below the
//                compiled working set).
//
// With --trace 1 a separate run replays each op's stages through the
// public function of each layer, alternating with untraced ops, and
// reports per-layer times, counts, the time no stage accounts for, and
// the tracing overhead. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Refs.h"
#include "Trace.h"

#include "analysis/Certificate.h"
#include "bytecode/Bytecode.h"
#include "codegen/NativeJit.h"
#include "ir/Interp.h"
#include "jit/CodeCache.h"
#include "jit/Elision.h"
#include "kernels/Kernels.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "target/Iaca.h"
#include "target/VM.h"
#include "vapor/FillAdapters.h"
#include "vapor/Pipeline.h"
#include "vectorizer/Vectorizer.h"
#include "verify/Verify.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace vapor;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double usSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
}

/// Whole rounds every run makes at least: 3 x 360 ops leaves more than ten
/// samples beyond the 99th percentile.
constexpr uint64_t MinRounds = 3;
/// Set-up is repeated this many times; setup_s is the median.
constexpr unsigned NumSetups = 5;
constexpr unsigned ServeWorkers = 2;
constexpr unsigned ServeClients = 2;
constexpr unsigned ServeTenants = 3;
/// Serve's code-cache capacity as a share of the compiled working set.
constexpr double ServeCacheShare = 0.9;
/// The server's default dispatch budget, mirrored by the serve replay.
constexpr uint64_t ServeFuel = server::ServerOptions().DefaultDeadlineFuel;

//===--- Statistics -------------------------------------------------------===//

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[Rank ? Rank - 1 : 0];
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / V.size());
}

double mean(const std::vector<double> &V) {
  return V.empty() ? 0 : std::accumulate(V.begin(), V.end(), 0.0) / V.size();
}

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

//===--- Options ----------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SelfTest = false;
  std::string OutDir = ".bench_build/perfbench/out";
};

const char *const Workloads[] = {"deploy_cold", "steady", "serve"};

bool parseArgs(int Argc, char **Argv, Options &O, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--selftest") {
      O.SelfTest = true;
      continue;
    }
    if (!(V = Next())) {
      Err = A + " needs a value";
      return false;
    }
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      O.Trace = std::string(V) == "1";
    else if (A == "--out-dir")
      O.OutDir = V;
    else {
      Err = "unknown argument " + A;
      return false;
    }
  }
  if (O.SelfTest)
    return true;
  if (std::find(std::begin(Workloads), std::end(Workloads), O.Workload) ==
      std::end(Workloads)) {
    Err = "--workload must be deploy_cold, steady or serve";
    return false;
  }
  if (!(O.Seconds > 0)) {
    Err = "--seconds must be positive";
    return false;
  }
  return true;
}

//===--- Output lanes -----------------------------------------------------===//
// Outputs are compared as 64-bit lanes, the server's wire encoding: the
// integer value, or the bit pattern of the double for FP arrays.

using Lanes = std::vector<std::vector<uint64_t>>;

uint64_t fpBits(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

double bitsFp(uint64_t B) {
  double V;
  std::memcpy(&V, &B, sizeof(V));
  return V;
}

/// The first \p N arrays of \p M (the source arrays; the vectorizer's
/// "__vt" scratch arrays follow them).
Lanes lanesOf(const target::MemoryImage &M, size_t N) {
  Lanes L(std::min(N, M.arrayCount()));
  for (uint32_t A = 0; A < L.size(); ++A) {
    const ir::ArrayInfo &AI = M.info(A);
    L[A].resize(AI.NumElems);
    for (uint64_t I = 0; I < AI.NumElems; ++I)
      L[A][I] = ir::isFloatKind(AI.Elem)
                    ? fpBits(M.peekFP(A, I))
                    : static_cast<uint64_t>(M.peekInt(A, I));
  }
  return L;
}

/// Compares \p Got against \p Want: integer arrays exactly, FP arrays
/// within \p Tol relative (absolute below 1), or bit for bit when \p Tol
/// is negative. \returns "" on a match, else the first difference.
std::string compareLanes(const Lanes &Got, const Lanes &Want,
                         const std::vector<std::string> &Names,
                         const std::vector<bool> &IsFP, double Tol) {
  if (Got.size() != Want.size())
    return "array count " + std::to_string(Got.size()) + ", want " +
           std::to_string(Want.size());
  for (size_t A = 0; A < Want.size(); ++A) {
    if (Got[A].size() != Want[A].size())
      return Names[A] + ": length " + std::to_string(Got[A].size()) +
             ", want " + std::to_string(Want[A].size());
    for (size_t I = 0; I < Want[A].size(); ++I) {
      uint64_t G = Got[A][I], W = Want[A][I];
      if (G == W)
        continue;
      if (IsFP[A] && Tol >= 0) {
        double Gv = bitsFp(G), Wv = bitsFp(W);
        if ((std::isnan(Gv) && std::isnan(Wv)) ||
            std::fabs(Gv - Wv) <= Tol * std::max(1.0, std::fabs(Wv)))
          continue;
        return Names[A] + "[" + std::to_string(I) +
               "] = " + std::to_string(Gv) + ", want " + std::to_string(Wv);
      }
      if (IsFP[A]) {
        char Buf[96];
        std::snprintf(Buf, sizeof(Buf), "[%zu] = %.17g, want %.17g", I,
                      bitsFp(G), bitsFp(W));
        return Names[A] + Buf;
      }
      return Names[A] + "[" + std::to_string(I) + "] = " +
             std::to_string(static_cast<int64_t>(G)) + ", want " +
             std::to_string(static_cast<int64_t>(W));
    }
  }
  return "";
}

//===--- Kernel preparation (the offline stage, run at set-up) -------------===//

/// One kernel as shipped: its encoded module, the workload a client sends
/// with it, and the golden interpreter's reference outputs.
struct Prep {
  kernels::Kernel K;
  ModuleWorkload W;
  std::vector<std::string> Names; ///< Source array names.
  std::vector<bool> IsFP;
  Lanes Ref;
  uint32_t LoopsVectorized = 0;
  double VectorizeUs = 0, EncodeUs = 0, InterpUs = 0;
};

/// Captures the default fill as element values, narrowed the way the
/// array's element kind stores them.
class CaptureFill : public kernels::FillSink {
public:
  CaptureFill(const ir::Function &F, std::vector<ArrayData> &Out)
      : F(F), Out(Out) {
    Out.resize(F.Arrays.size());
    for (size_t A = 0; A < F.Arrays.size(); ++A) {
      Out[A].Name = F.Arrays[A].Name;
      Out[A].IsFP = ir::isFloatKind(F.Arrays[A].Elem);
      if (Out[A].IsFP)
        Out[A].F.assign(F.Arrays[A].NumElems, 0.0);
      else
        Out[A].I.assign(F.Arrays[A].NumElems, 0);
    }
  }
  void pokeInt(uint32_t Arr, uint64_t Elem, int64_t V) override {
    unsigned Bits = ir::scalarSize(F.Arrays[Arr].Elem) * 8;
    if (Bits < 64) {
      uint64_t Mask = (1ull << Bits) - 1, U = static_cast<uint64_t>(V) & Mask;
      if (ir::isSignedKind(F.Arrays[Arr].Elem) && (U >> (Bits - 1)) & 1)
        U |= ~Mask;
      V = static_cast<int64_t>(U);
    }
    Out[Arr].I[Elem] = V;
  }
  void pokeFP(uint32_t Arr, uint64_t Elem, double V) override {
    if (F.Arrays[Arr].Elem == ir::ScalarKind::F32)
      V = static_cast<float>(V);
    Out[Arr].F[Elem] = V;
  }

private:
  const ir::Function &F;
  std::vector<ArrayData> &Out;
};

Prep prepare(kernels::Kernel K, uint64_t FillSeed) {
  Prep P;
  auto T0 = Clock::now();
  vectorizer::Result VR = vectorizer::vectorize(K.Source);
  P.VectorizeUs = usSince(T0);
  for (const vectorizer::LoopReport &L : VR.Loops)
    P.LoopsVectorized += L.Vectorized;
  T0 = Clock::now();
  P.W.Bytecode = bytecode::encode(VR.Output);
  P.EncodeUs = usSince(T0);
  P.W.Name = K.Name;
  P.W.IntParams = K.IntParams;
  P.W.FPParams = K.FPParams;
  P.W.FillSeed = FillSeed;

  // The golden reference: the scalar source on the interpreter, with the
  // fill and parameters runEncodedModule binds.
  T0 = Clock::now();
  ir::Evaluator E(K.Source, {});
  E.allocAllArrays();
  detail::EvalFill Fill(E);
  kernels::defaultFill(Fill, K.Source, FillSeed);
  detail::setParams(
      K, K.Source,
      [&](const std::string &N, int64_t V) { E.setParamInt(N, V); },
      [&](const std::string &N, double V) { E.setParamFP(N, V); });
  E.run();
  for (uint32_t A = 0; A < K.Source.Arrays.size(); ++A) {
    const ir::ArrayInfo &AI = K.Source.Arrays[A];
    P.Names.push_back(AI.Name);
    P.IsFP.push_back(ir::isFloatKind(AI.Elem));
    std::vector<uint64_t> L(AI.NumElems);
    for (uint64_t I = 0; I < AI.NumElems; ++I)
      L[I] = P.IsFP.back() ? fpBits(E.peekFP(A, I))
                           : static_cast<uint64_t>(E.peekInt(A, I));
    P.Ref.push_back(std::move(L));
  }
  P.InterpUs = usSince(T0);
  P.K = std::move(K);
  return P;
}

/// Checks the interpreter reference against the hand-written C++ loop,
/// for the kernels that have one. \returns "" when they agree.
std::string checkIndependent(const Prep &P) {
  if (!hasIndependentRef(P.K.Name))
    return "";
  std::vector<ArrayData> Arrays;
  CaptureFill Fill(P.K.Source, Arrays);
  kernels::defaultFill(Fill, P.K.Source, P.W.FillSeed);
  if (std::string E =
          runIndependentRef(P.K.Name, Arrays, P.K.IntParams, P.K.FPParams);
      !E.empty())
    return E;
  Lanes L;
  for (const ArrayData &A : Arrays) {
    std::vector<uint64_t> V;
    if (A.IsFP)
      for (double X : A.F)
        V.push_back(fpBits(X));
    else
      for (int64_t X : A.I)
        V.push_back(static_cast<uint64_t>(X));
    L.push_back(std::move(V));
  }
  std::string D = compareLanes(P.Ref, L, P.Names, P.IsFP, P.K.Tolerance);
  return D.empty() ? "" : "interpreter disagrees with the C++ reference: " + D;
}

//===--- Cells and op accounting ------------------------------------------===//

struct Cell {
  uint32_t K = 0, T = 0;
  bool Native = false;
  std::string Name; ///< kernel/target/engine
  RunOptions O;
  std::string Bad;  ///< Set-up validation failure: every op fails.
  std::vector<double> Us;
  uint64_t Cycles = 0;
  codegen::NativeStats NStats;
};

/// Per-stage accumulators of the traced replay.
enum Stage : unsigned {
  SLookup,
  SDecode,
  SBind,
  SHash,
  SVerify,
  SLayout,
  SLower,
  SIaca,
  SPlan,
  SFill,
  SPredecode,
  SEmit,
  SVmRun,
  SNativeRun,
  NumStages
};
const char *const StageCat[NumStages] = {
    "jit",    "bytecode", "vapor",   "ir",     "verify",
    "target", "jit",      "target",  "jit",    "kernels",
    "target", "codegen",  "target",  "codegen"};
const char *const StageName[NumStages] = {
    "cache_lookup", "decode", "bind",      "hash",   "verify",
    "layout",       "lower",  "iaca",      "elision_plan", "fill",
    "predecode",    "emit",   "vm_run",    "native_run"};

struct CellTrace {
  std::vector<double> OpUs;     ///< Untraced ops of the traced run.
  std::vector<double> InProcUs; ///< Untraced in-process ops (the replay's
                                ///< counterpart; = OpUs except on serve).
  std::array<std::vector<double>, NumStages> StageUs;
  std::vector<double> CertUs, WallUs;
};

struct Bench {
  Options Opt;
  std::vector<target::TargetDesc> Targets = target::allTargets();
  std::vector<Prep> Preps;
  std::vector<Cell> Cells;
  std::vector<Lanes> Expected; ///< Validated output per (kernel, target).
  std::vector<double> SetupS;
  size_t WorkingSetBytes = 0;

  std::mutex Mu;
  uint64_t Attempted = 0, Failed = 0;
  bool WrongOutput = false;
  std::map<std::string, uint64_t> FailKinds;
  std::vector<double> AllUs;
  uint64_t Rounds = 0;
  double TimedS = 0;

  // Traced-run state.
  std::vector<CellTrace> Traces;
  uint64_t ReplayObligations = 0, ReplayChecksElided = 0, ReplayVmInstrs = 0;
  jit::cache::Stats CacheDelta;
  double CodecUs = 0, RespBytes = 0;
  uint64_t CodecOps = 0, QueueDepthMax = 0, Rejected = 0;

  const Lanes &expected(const Cell &C) const {
    return Expected[C.K * Targets.size() + C.T];
  }

  /// Counts one attempted op; \p Err empty means it passed.
  void record(Cell &C, double Us, const std::string &Err, bool Output,
              bool Sample = true) {
    std::lock_guard<std::mutex> L(Mu);
    ++Attempted;
    if (!Err.empty()) {
      ++Failed;
      WrongOutput |= Output;
      if (FailKinds[Err]++ == 0)
        std::fprintf(stderr, "perfbench: FAILED %s: %s\n", C.Name.c_str(),
                     Err.c_str());
      return;
    }
    if (Sample) {
      C.Us.push_back(Us);
      AllUs.push_back(Us);
    }
  }
};

ExecTier wantTier(const Cell &C) {
  return C.Native ? ExecTier::Native : ExecTier::Vectorized;
}

/// Checks an in-process outcome. \p Output is set when the failure is a
/// wrong answer rather than a failed or misrouted run.
std::string checkOutcome(const Bench &B, const Cell &C, const RunOutcome &Out,
                         bool &Output) {
  Output = false;
  if (!C.Bad.empty())
    return C.Bad;
  if (!Out.Terminal.ok())
    return "run failed: " + Out.Terminal.str();
  if (Out.Tier != wantTier(C))
    return std::string("ran on tier ") + tierName(Out.Tier) +
           ", asked for " + tierName(wantTier(C));
  if (!Out.Mem)
    return "no results";
  const Prep &P = B.Preps[C.K];
  std::string D = compareLanes(lanesOf(*Out.Mem, P.Names.size()),
                               B.expected(C), P.Names, P.IsFP, -1);
  Output = !D.empty();
  return D.empty() ? "" : "wrong output: " + D;
}

/// deploy_cold: one miss in every cache stage the op runs, and no hit.
std::string coldCacheError(const jit::cache::Stats &A,
                           const jit::cache::Stats &B, bool Native) {
  uint64_t Hits = (B.ModuleHits - A.ModuleHits) +
                  (B.VerifyHits - A.VerifyHits) +
                  (B.CompileHits - A.CompileHits) +
                  (B.ProgramHits - A.ProgramHits) +
                  (B.NativeHits - A.NativeHits);
  bool Missed = B.ModuleMisses > A.ModuleMisses &&
                B.VerifyMisses > A.VerifyMisses &&
                B.CompileMisses > A.CompileMisses &&
                (Native ? B.NativeMisses > A.NativeMisses
                        : B.ProgramMisses > A.ProgramMisses);
  if (Hits || !Missed)
    return "cold op did not miss in every cache stage";
  return "";
}

/// steady: no miss at all.
std::string warmCacheError(const jit::cache::Stats &A,
                           const jit::cache::Stats &B) {
  uint64_t Misses = (B.ModuleMisses - A.ModuleMisses) +
                    (B.VerifyMisses - A.VerifyMisses) +
                    (B.CompileMisses - A.CompileMisses) +
                    (B.ProgramMisses - A.ProgramMisses) +
                    (B.NativeMisses - A.NativeMisses);
  return Misses ? "warm op missed the code cache" : "";
}

void addDelta(jit::cache::Stats &Acc, const jit::cache::Stats &A,
              const jit::cache::Stats &B) {
  Acc.ModuleHits += B.ModuleHits - A.ModuleHits;
  Acc.VerifyHits += B.VerifyHits - A.VerifyHits;
  Acc.CompileHits += B.CompileHits - A.CompileHits;
  Acc.ProgramHits += B.ProgramHits - A.ProgramHits;
  Acc.NativeHits += B.NativeHits - A.NativeHits;
  Acc.ModuleMisses += B.ModuleMisses - A.ModuleMisses;
  Acc.VerifyMisses += B.VerifyMisses - A.VerifyMisses;
  Acc.CompileMisses += B.CompileMisses - A.CompileMisses;
  Acc.ProgramMisses += B.ProgramMisses - A.ProgramMisses;
  Acc.NativeMisses += B.NativeMisses - A.NativeMisses;
  Acc.Evictions += B.Evictions - A.Evictions;
}

uint64_t hits(const jit::cache::Stats &S) {
  return S.ModuleHits + S.VerifyHits + S.CompileHits + S.ProgramHits +
         S.NativeHits;
}
uint64_t misses(const jit::cache::Stats &S) {
  return S.ModuleMisses + S.VerifyMisses + S.CompileMisses +
         S.ProgramMisses + S.NativeMisses;
}

/// The cells in round \p Round's order (a fresh seeded shuffle per round).
std::vector<uint32_t> roundOrder(const Bench &B, uint64_t Round) {
  std::vector<uint32_t> Ord(B.Cells.size());
  std::iota(Ord.begin(), Ord.end(), 0);
  std::mt19937_64 Rng(splitmix(B.Opt.Seed * 0x100000001b3ull + Round));
  std::shuffle(Ord.begin(), Ord.end(), Rng);
  return Ord;
}

//===--- Set-up -------------------------------------------------------------//

/// One complete set-up: offline stage, references, and a validation run of
/// every cell on a fresh cache (which leaves the cache warm).
void setupOnce(Bench &B) {
  std::vector<kernels::Kernel> Ks = kernels::allKernels();
  B.Preps.clear();
  for (size_t I = 0; I < Ks.size(); ++I)
    B.Preps.push_back(
        prepare(std::move(Ks[I]), splitmix(B.Opt.Seed ^ splitmix(I + 1))));

  B.Cells.clear();
  for (uint32_t K = 0; K < B.Preps.size(); ++K)
    for (uint32_t T = 0; T < B.Targets.size(); ++T)
      for (bool Native : {false, true}) {
        Cell C;
        C.K = K;
        C.T = T;
        C.Native = Native;
        C.Name = B.Preps[K].K.Name + "/" + B.Targets[T].Name + "/" +
                 (Native ? "native" : "vm");
        C.O.Target = B.Targets[T];
        C.O.UseNative = Native;
        B.Cells.push_back(std::move(C));
      }

  jit::cache::setCapacity(0);
  jit::cache::clear();
  const size_t NT = B.Targets.size();
  B.Expected.assign(B.Preps.size() * NT, Lanes());
  for (uint32_t K = 0; K < B.Preps.size(); ++K) {
    const Prep &P = B.Preps[K];
    std::string KernelBad = checkIndependent(P);
    for (uint32_t T = 0; T < NT; ++T) {
      Cell &Vm = B.Cells[(K * NT + T) * 2], &Nat = B.Cells[(K * NT + T) * 2 + 1];
      RunOutcome OV = runEncodedModule(P.W, Vm.O);
      RunOutcome ON = runEncodedModule(P.W, Nat.O);
      std::string Bad = KernelBad;
      for (auto [C, Out] : {std::pair{&Vm, &OV}, std::pair{&Nat, &ON}}) {
        if (!Bad.empty())
          break;
        if (!Out->Terminal.ok() || !Out->Mem || Out->Tier != wantTier(*C))
          Bad = "set-up run of " + C->Name + " failed or ran on tier " +
                tierName(Out->Tier) + ": " + Out->Terminal.str();
      }
      Lanes LV, LN;
      if (Bad.empty()) {
        LV = lanesOf(*OV.Mem, P.Names.size());
        LN = lanesOf(*ON.Mem, P.Names.size());
        if (std::string D = compareLanes(LN, LV, P.Names, P.IsFP, -1);
            !D.empty())
          Bad = "VM and native outputs differ: " + D;
        else if (std::string D2 =
                     compareLanes(LV, P.Ref, P.Names, P.IsFP, P.K.Tolerance);
                 !D2.empty())
          Bad = "differs from the interpreter reference: " + D2;
      }
      Vm.Bad = Nat.Bad = Bad;
      Vm.Cycles = OV.Cycles;
      Nat.NStats = ON.NativeCode;
      B.Expected[K * NT + T] = std::move(LV);
    }
    // Cross-target agreement: integer arrays bit for bit, FP arrays within
    // the kernel's tolerance, each against the last (scalar) target.
    const Lanes &Base = B.Expected[K * NT + NT - 1];
    for (uint32_t T = 0; T + 1 < NT; ++T) {
      Cell &Vm = B.Cells[(K * NT + T) * 2], &Nat = B.Cells[(K * NT + T) * 2 + 1];
      if (!Vm.Bad.empty() || Base.empty())
        continue;
      if (std::string D = compareLanes(B.Expected[K * NT + T], Base, P.Names,
                                       P.IsFP, P.K.Tolerance);
          !D.empty())
        Vm.Bad = Nat.Bad = "disagrees with the scalar target: " + D;
    }
  }
  B.WorkingSetBytes = jit::cache::stats().BytesLive;
}

void setup(Bench &B) {
  for (unsigned I = 0; I < NumSetups; ++I) {
    auto T0 = Clock::now();
    setupOnce(B);
    B.SetupS.push_back(usSince(T0) / 1e6);
  }
  B.Traces.assign(B.Cells.size(), CellTrace());
}

//===--- The traced replay ------------------------------------------------===//

struct ReplayResult {
  std::array<double, NumStages> Us{};
  double CertUs = 0, WallUs = 0;
  std::string Err;
};

/// Replays one op the way runEncodedModule runs it, stage by stage, each
/// stage through the public function of its layer, with a span per stage.
/// Cache lookups hit or miss exactly as the untraced op would; a miss runs
/// the stage and inserts its product. \p Fuel mirrors the server's budget.
ReplayResult replayOp(Bench &B, const Cell &C, uint64_t Fuel, TraceLog &Log,
                      uint64_t OpId) {
  ReplayResult R;
  const Prep &P = B.Preps[C.K];
  const target::TargetDesc &T = C.O.Target;
  const std::vector<uint8_t> &Bytes = P.W.Bytecode;
  const double Start = Log.nowUs();
  auto Timed = [&](Stage S, auto &&Fn) {
    double A = Log.nowUs();
    Fn();
    double E = Log.nowUs();
    R.Us[S] += E - A;
    Log.span(StageCat[S], StageName[S], 0, A, E, OpId, C.Name);
  };
  /// A cache call that builds on a miss: attributed to \p Build when the
  /// counter \p Miss moved, else to the lookup.
  auto TimedBuild = [&](Stage Build, uint64_t jit::cache::Stats::*Miss,
                        auto &&Fn) {
    uint64_t M0 = jit::cache::stats().*Miss;
    double A = Log.nowUs();
    Fn();
    double E = Log.nowUs();
    Stage S = jit::cache::stats().*Miss > M0 ? Build : SLookup;
    R.Us[S] += E - A;
    Log.span(StageCat[S], StageName[S], 0, A, E, OpId, C.Name);
  };

  std::shared_ptr<const ir::Function> Module;
  uint64_t BytesHash = 0;
  Timed(SLookup, [&] {
    BytesHash = jit::cache::hashBytes(Bytes.data(), Bytes.size());
    Module = jit::cache::findModule(BytesHash);
  });
  if (!Module) {
    std::string Err;
    Timed(SDecode, [&] {
      auto D = bytecode::decode(Bytes);
      if (!D) {
        Err = D.status().str();
        return;
      }
      Module = jit::cache::putModule(BytesHash, D.take(), Bytes.size());
    });
    if (!Module) {
      R.Err = "decode failed: " + Err;
      return R;
    }
  }

  // The workload runEncodedModule synthesizes (and destroys before it
  // returns: see the end of this function).
  std::optional<kernels::Kernel> KHolder(std::in_place);
  kernels::Kernel &K = *KHolder;
  Timed(SBind, [&] {
    K.Name = P.W.Name;
    K.Suite = "server";
    K.Source = *Module;
    K.IntParams = P.W.IntParams;
    K.FPParams = P.W.FPParams;
    const uint64_t Seed = P.W.FillSeed;
    K.Fill = [Seed](kernels::FillSink &Sink, const ir::Function &F) {
      kernels::defaultFill(Sink, F, Seed);
    };
  });

  uint64_t FnHash = 0;
  Timed(SHash, [&] { FnHash = ir::hashFunction(*Module); });

  std::optional<jit::cache::VerifyResult> VRes;
  uint64_t TargetHash = 0;
  Timed(SLookup, [&] {
    TargetHash = jit::cache::hashTarget(T);
    VRes = jit::cache::findVerify(FnHash, TargetHash);
  });
  if (!VRes)
    Timed(SVerify, [&] {
      verify::VerifyOptions VO;
      VO.Targets = {T};
      verify::Report Rep = verify::verifyModule(*Module, VO);
      B.ReplayObligations += Rep.ObligationsProved;
      VRes = jit::cache::VerifyResult{Rep.ok(), Rep.ok() ? "" : Rep.str(), {}};
      if (!Rep.Certificates.empty())
        VRes->Cert = std::make_shared<const analysis::SafetyCertificate>(
            std::move(Rep.Certificates.front()));
      jit::cache::putVerify(FnHash, TargetHash, *VRes);
    });
  if (!VRes->Ok) {
    R.Err = "verification failed";
    return R;
  }

  auto Mem = std::make_unique<target::MemoryImage>();
  jit::RuntimeInfo RT;
  Timed(SLayout, [&] {
    for (const ir::ArrayInfo &AI : Module->Arrays)
      Mem->addArray(AI, 0);
    for (uint32_t A = 0; A < Module->Arrays.size(); ++A)
      RT.Arrays.push_back({true, Mem->base(A)});
  });

  jit::Options JO;
  uint64_t CompKey = 0;
  std::shared_ptr<const jit::CompileResult> CR;
  Timed(SLookup, [&] {
    CompKey = jit::cache::compileKey(FnHash, T, JO, RT);
    CR = jit::cache::findCompile(CompKey);
  });
  if (!CR)
    Timed(SLower, [&] {
      auto X = jit::compileChecked(*Module, T, RT, JO);
      if (X)
        CR = jit::cache::putCompile(CompKey, X.take());
    });
  if (!CR) {
    R.Err = "lowering failed";
    return R;
  }

  // The outcome's copy of the machine code and its static loop analysis.
  target::MFunction Code;
  Timed(SIaca, [&] {
    Code = CR->Code;
    (void)target::analyzeVectorLoop(Code, T);
  });

  // buildElisionPlan runs the checker itself; this separate call measures
  // it alone and is not part of the stage sum.
  if (VRes->Cert) {
    double A = Log.nowUs();
    std::string E = analysis::checkCertificate(*Module, *VRes->Cert);
    double E2 = Log.nowUs();
    R.CertUs = E2 - A;
    Log.span("analysis", "cert_check", 0, A, E2, OpId, C.Name);
  }

  target::ElisionPlan Plan;
  std::vector<std::string> Decisions;
  Timed(SPlan, [&] {
    if (!VRes->Cert) {
      Plan.Mode = target::ElisionMode::Off;
      return;
    }
    std::map<std::string, int64_t> IntVals;
    detail::setParams(
        K, *Module, [&](const std::string &N, int64_t V) { IntVals[N] = V; },
        [](const std::string &, double) {});
    analysis::ParamFn PF =
        [&IntVals](const std::string &N) -> std::optional<int64_t> {
      auto It = IntVals.find(N);
      if (It != IntVals.end())
        return It->second;
      return std::nullopt;
    };
    Plan = jit::buildElisionPlan(*Module, VRes->Cert.get(), T, *Mem,
                                 target::ElisionMode::On, PF);
    Decisions = Plan.Decisions; // The outcome's copy.
  });
  B.ReplayChecksElided += Plan.AlignElided + Plan.BoundsElided;
  const target::ElisionPlan *PlanPtr =
      Plan.Mode != target::ElisionMode::Off ? &Plan : nullptr;

  Timed(SFill, [&] {
    detail::MemFill Fill(*Mem);
    K.fill(Fill);
  });

  auto BindParams = [&](auto &Engine) {
    detail::setParams(
        K, *Module,
        [&](const std::string &N, int64_t V) { Engine.setParamInt(N, V); },
        [&](const std::string &N, double V) { Engine.setParamFP(N, V); });
  };
  status::Status St = status::Status::okStatus();
  if (!C.Native) {
    std::shared_ptr<const target::DecodedProgram> Prog;
    TimedBuild(SPredecode, &jit::cache::Stats::ProgramMisses, [&] {
      Prog = jit::cache::programFor(CompKey, CR->Code, T, *Mem, false, true,
                                    PlanPtr);
    });
    Timed(SVmRun, [&] {
      target::VM Machine(Prog, *Mem);
      Machine.setTrapRecording(true);
      if (Fuel)
        Machine.setFuel(Fuel);
      BindParams(Machine);
      St = Machine.run();
      B.ReplayVmInstrs += Machine.instrsExecuted();
    });
  } else {
    codegen::NativeOptions NO;
    NO.Plan = PlanPtr;
    std::shared_ptr<const codegen::NativeUnit> Unit;
    TimedBuild(SEmit, &jit::cache::Stats::NativeMisses, [&] {
      auto NU = jit::cache::nativeFor(CompKey, CR->Code, T, *Mem, NO);
      if (NU)
        Unit = NU.take();
      else
        St = NU.status();
    });
    if (Unit)
      Timed(SNativeRun, [&] {
        codegen::NativeExec Exec(Unit, *Mem);
        if (Fuel)
          Exec.setFuel(Fuel);
        BindParams(Exec);
        St = Exec.run();
      });
  }
  // What runEncodedModule frees before returning: the plan and the
  // synthesized workload. The outcome's parts outlive the op.
  Timed(SPlan, [&] { Plan = target::ElisionPlan(); });
  Timed(SBind, [&] { KHolder.reset(); });
  const double End = Log.nowUs();
  Log.span("vapor", "op", 0, Start, End, OpId, C.Name);
  R.WallUs = End - Start - R.CertUs; // The extra checker call is no op work.
  if (!St.ok()) {
    R.Err = "replayed run failed: " + St.str();
    return R;
  }
  std::string D = compareLanes(lanesOf(*Mem, P.Names.size()), B.expected(C),
                               P.Names, P.IsFP, -1);
  if (!D.empty())
    R.Err = "replay: wrong output: " + D;
  return R;
}

void recordReplay(Bench &B, size_t CellIdx, const ReplayResult &R) {
  Cell &C = B.Cells[CellIdx];
  B.record(C, 0, R.Err, R.Err.rfind("replay: wrong", 0) == 0,
           /*Sample=*/false);
  if (!R.Err.empty())
    return;
  CellTrace &CT = B.Traces[CellIdx];
  for (unsigned S = 0; S < NumStages; ++S)
    CT.StageUs[S].push_back(R.Us[S]);
  CT.CertUs.push_back(R.CertUs);
  CT.WallUs.push_back(R.WallUs);
}

//===--- In-process workloads ---------------------------------------------===//

void runInProcess(Bench &B, bool Cold, TraceLog *Log) {
  auto T0 = Clock::now();
  uint64_t OpId = 0;
  for (B.Rounds = 0;;) {
    for (uint32_t Idx : roundOrder(B, B.Rounds)) {
      Cell &C = B.Cells[Idx];
      auto Untraced = [&] {
        if (Cold)
          jit::cache::clear();
        jit::cache::Stats S0 = jit::cache::stats();
        auto O0 = Clock::now();
        RunOutcome Out = runEncodedModule(B.Preps[C.K].W, C.O);
        double Us = usSince(O0);
        jit::cache::Stats S1 = jit::cache::stats();
        bool Output = false;
        std::string Err = checkOutcome(B, C, Out, Output);
        if (Err.empty())
          Err = Cold ? coldCacheError(S0, S1, C.Native)
                     : warmCacheError(S0, S1);
        B.record(C, Us, Err, Output);
        if (!Log)
          return;
        addDelta(B.CacheDelta, S0, S1);
        if (Err.empty()) {
          B.Traces[Idx].OpUs.push_back(Us);
          B.Traces[Idx].InProcUs.push_back(Us);
        }
      };
      auto Traced = [&] {
        if (Cold)
          jit::cache::clear();
        recordReplay(B, Idx, replayOp(B, C, 0, *Log, ++OpId));
      };
      // The second of the two finds the cell's data in the CPU caches;
      // alternating the order keeps that out of the attribution.
      if (Log && B.Rounds % 2) {
        Traced();
        Untraced();
      } else {
        Untraced();
        if (Log)
          Traced();
      }
    }
    if (++B.Rounds == MinRounds && Log)
      Log->stopKeeping();
    if (usSince(T0) >= B.Opt.Seconds * 1e6 && B.Rounds >= MinRounds)
      break;
  }
  B.TimedS = usSince(T0) / 1e6;
}

//===--- serve ------------------------------------------------------------===//

int connectUnix(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

struct Client {
  int Fd = -1;
  uint64_t NextId = 0;
  double CodecUs = 0, RespBytes = 0;
  uint64_t Ops = 0;
};

/// Checks a RunResp against the cell's validated output.
std::string checkResponse(const Bench &B, const Cell &C,
                          const server::RunResponse &Resp, bool &Output) {
  Output = false;
  if (!C.Bad.empty())
    return C.Bad;
  if (Resp.Code != 0)
    return "server answered code " + std::to_string(Resp.Code) + " layer " +
           std::to_string(Resp.Layer) + ": " + Resp.Message;
  if (Resp.Tier != static_cast<uint8_t>(wantTier(C)))
    return std::string("ran on tier ") +
           tierName(static_cast<ExecTier>(Resp.Tier)) + ", asked for " +
           tierName(wantTier(C));
  const Prep &P = B.Preps[C.K];
  const Lanes &Want = B.expected(C);
  Output = true;
  if (Resp.Arrays.size() < Want.size())
    return "wrong output: " + std::to_string(Resp.Arrays.size()) + " arrays";
  for (size_t A = 0; A < Resp.Arrays.size(); ++A) {
    const server::ArrayDump &D = Resp.Arrays[A];
    if (A >= Want.size()) {
      if (D.Name.rfind("__vt", 0) != 0)
        return "wrong output: unexpected array " + D.Name;
      continue;
    }
    if (D.Name != P.Names[A] || (D.IsFP != 0) != P.IsFP[A])
      return "wrong output: array " + std::to_string(A) + " is " + D.Name;
    if (D.Lanes != Want[A])
      return "wrong output: " +
             compareLanes({D.Lanes}, {Want[A]}, {D.Name}, {P.IsFP[A]}, -1);
  }
  Output = false;
  return "";
}

/// One closed-loop request. \returns "" on success; \p Us is the client's
/// whole op: request encode, round trip, response decode.
std::string serveOp(Bench &B, Client &Cl, const Cell &C, size_t Pos,
                    double &Us, bool &Output) {
  const Prep &P = B.Preps[C.K];
  server::RunRequest Req;
  Req.RequestId = ++Cl.NextId;
  Req.Tenant = "tenant-" + std::to_string(Pos % ServeTenants);
  Req.Name = P.W.Name;
  Req.Target = C.O.Target.Name;
  Req.UseNative = C.Native;
  Req.FillSeed = P.W.FillSeed;
  Req.IntParams = P.W.IntParams;
  Req.FPParams = P.W.FPParams;
  Req.Bytecode = P.W.Bytecode;
  Output = false;

  auto T0 = Clock::now();
  std::vector<uint8_t> Payload = server::encodeRunRequest(Req);
  double EncUs = usSince(T0);
  if (!server::writeFrame(Cl.Fd, server::FrameKind::RunReq, Payload))
    return "server connection lost on write";
  server::FrameKind Kind;
  bool CleanEof = false;
  status::Status St = server::readFrame(Cl.Fd, Kind, Payload, CleanEof);
  if (!St.ok() || CleanEof || Kind != server::FrameKind::RunResp)
    return "server connection lost on read";
  auto D0 = Clock::now();
  server::RunResponse Resp;
  St = server::decodeRunResponse(Payload.data(), Payload.size(), Resp);
  double DecUs = usSince(D0);
  Us = usSince(T0);
  if (!St.ok())
    return "malformed response: " + St.str();
  if (Resp.RequestId != Req.RequestId)
    return "response for another request";
  Cl.CodecUs += EncUs + DecUs;
  Cl.RespBytes += Payload.size();
  ++Cl.Ops;
  return checkResponse(B, C, Resp, Output);
}

/// Sends this client's share of one round: positions Idx, Idx+N, ...
/// A server pass (see runServe) checks and counts its ops but keeps no
/// latency sample.
void serveRound(Bench &B, Client &Cl, const std::vector<uint32_t> &Ord,
                unsigned Idx, bool Pass) {
  for (size_t Pos = Idx; Pos < Ord.size(); Pos += ServeClients) {
    Cell &C = B.Cells[Ord[Pos]];
    double Us = 0;
    bool Output = false;
    std::string Err = serveOp(B, Cl, C, Pos, Us, Output);
    B.record(C, Us, Err, Output, /*Sample=*/!Pass);
    if (B.Opt.Trace && !Pass && Err.empty()) {
      std::lock_guard<std::mutex> L(B.Mu);
      B.Traces[Ord[Pos]].OpUs.push_back(Us);
    }
  }
}

/// Polls StatsReq on its own connection until \p Stop, keeping the
/// deepest queue seen.
void sampleQueue(const std::string &Path, std::atomic<bool> &Stop,
                 uint64_t &Max) {
  int Fd = connectUnix(Path);
  if (Fd < 0)
    return;
  while (!Stop.load()) {
    if (!server::writeFrame(Fd, server::FrameKind::StatsReq, {}))
      break;
    server::FrameKind Kind;
    std::vector<uint8_t> Payload;
    bool CleanEof = false;
    if (!server::readFrame(Fd, Kind, Payload, CleanEof).ok() || CleanEof)
      break;
    server::StatsResponse S;
    if (server::decodeStatsResponse(Payload.data(), Payload.size(), S).ok())
      Max = std::max(Max, S.QueueDepth);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(Fd);
}

uint64_t rejectedTotal(const server::StatsResponse &S) {
  return S.RejectedOverload + S.RejectedQuota + S.RejectedDuplicate +
         S.RejectedMalformed + S.RejectedUnavailable + S.RejectedInvalid;
}

/// The serve workload, or with \p Pass the server pass of steady's traced
/// run: MinRounds rounds on the warm, unbounded cache (so steady keeps
/// hitting), measuring only the server layer's metrics.
bool runServe(Bench &B, TraceLog *Log, bool Pass = false) {
  server::ServerOptions SO;
  SO.SocketPath = B.Opt.OutDir + "/serve-" + std::to_string(::getpid()) +
                  ".sock";
  SO.Workers = ServeWorkers;
  SO.CacheCapacityBytes =
      Pass ? 0
           : std::max<size_t>(1, static_cast<size_t>(B.WorkingSetBytes *
                                                     ServeCacheShare));
  server::Server Srv(SO);
  if (status::Status St = Srv.start(); !St.ok()) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n",
                 St.str().c_str());
    return false;
  }
  std::vector<Client> Clients(ServeClients);
  bool Ok = true;
  for (Client &Cl : Clients)
    Ok &= (Cl.Fd = connectUnix(SO.SocketPath)) >= 0;

  const uint64_t Rejected0 = rejectedTotal(Srv.statsSnapshot());
  auto T0 = Clock::now();
  double ClientS = 0;
  uint64_t OpId = 0, Rounds = 0;
  for (; Ok;) {
    std::vector<uint32_t> Ord = roundOrder(B, Rounds);
    std::atomic<bool> StopSampler{false};
    std::thread Sampler;
    if (Log)
      Sampler = std::thread(sampleQueue, SO.SocketPath, std::ref(StopSampler),
                            std::ref(B.QueueDepthMax));
    jit::cache::Stats S0 = jit::cache::stats();
    auto R0 = Clock::now();
    std::vector<std::thread> Ts;
    for (unsigned I = 0; I < ServeClients; ++I)
      Ts.emplace_back(serveRound, std::ref(B), std::ref(Clients[I]),
                      std::cref(Ord), I, Pass);
    for (std::thread &T : Ts)
      T.join();
    ClientS += usSince(R0) / 1e6;
    if (Log) {
      StopSampler = true;
      Sampler.join();
    }
    if (Log && !Pass) {
      addDelta(B.CacheDelta, S0, jit::cache::stats());
      // Per cell: an in-process op under the server's options that
      // brings back whatever the round evicted, the same op timed, then
      // its replay -- the last two both on the warm path.
      for (uint32_t Idx : Ord) {
        Cell &C = B.Cells[Idx];
        RunOptions O = C.O;
        O.DeadlineFuel = ServeFuel;
        for (bool Timed : {false, true}) {
          auto O0 = Clock::now();
          RunOutcome Out = runEncodedModule(B.Preps[C.K].W, O);
          double Us = usSince(O0);
          bool Output = false;
          std::string Err = checkOutcome(B, C, Out, Output);
          B.record(C, Us, Err, Output, /*Sample=*/false);
          if (Timed && Err.empty())
            B.Traces[Idx].InProcUs.push_back(Us);
        }
        recordReplay(B, Idx, replayOp(B, C, ServeFuel, *Log, ++OpId));
      }
    }
    if (++Rounds == MinRounds) {
      if (Pass)
        break;
      if (Log)
        Log->stopKeeping();
    }
    if (usSince(T0) >= B.Opt.Seconds * 1e6 && Rounds >= MinRounds)
      break;
  }
  if (!Pass) {
    B.Rounds = Rounds;
    B.TimedS = Log ? ClientS : usSince(T0) / 1e6;
  }
  B.Rejected = rejectedTotal(Srv.statsSnapshot()) - Rejected0;
  for (Client &Cl : Clients) {
    B.CodecUs += Cl.CodecUs;
    B.RespBytes += Cl.RespBytes;
    B.CodecOps += Cl.Ops;
    if (Cl.Fd >= 0)
      ::close(Cl.Fd);
  }
  Srv.drain();
  if (!Ok)
    std::fprintf(stderr, "perfbench: cannot connect to %s\n",
                 SO.SocketPath.c_str());
  return Ok;
}

//===--- Metrics and report -----------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};

void printResult(const Bench &B, const std::vector<Metric> &Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              B.WrongOutput ? "false" : "true",
              static_cast<unsigned long long>(B.Attempted),
              static_cast<unsigned long long>(B.Failed));
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

double peakRssMiB() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// Per-cell rows, one JSON line. The 99th-percentile op latency rides
/// here: too unsteady between runs on a shared host to be gated.
void printCells(const Bench &B) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"rounds\": %llu, "
              "\"ops\": %zu, \"op_us_p99\": %.3f, \"cells\": [",
              B.Opt.Workload.c_str(),
              static_cast<unsigned long long>(B.Opt.Seed),
              static_cast<unsigned long long>(B.Rounds), B.AllUs.size(),
              quantile(B.AllUs, 0.99));
  for (size_t I = 0; I < B.Cells.size(); ++I) {
    const Cell &C = B.Cells[I];
    std::printf("%s{\"kernel\": \"%s\", \"target\": \"%s\", \"engine\": "
                "\"%s\", \"median_us\": %.3f, \"samples\": %zu}",
                I ? ", " : "", B.Preps[C.K].K.Name.c_str(),
                B.Targets[C.T].Name.c_str(), C.Native ? "native" : "vm",
                median(C.Us), C.Us.size());
  }
  std::printf("]}\n");
}

std::vector<Metric> endToEnd(const Bench &B) {
  std::vector<double> Vm, Nat, Cycles;
  double CodeBytes = 0;
  for (const Cell &C : B.Cells) {
    double M = median(C.Us);
    if (M > 0)
      (C.Native ? Nat : Vm).push_back(M);
    if (C.Native)
      CodeBytes += C.NStats.CodeBytes;
    else if (C.Cycles)
      Cycles.push_back(static_cast<double>(C.Cycles));
  }
  double Bytecode = 0;
  for (const Prep &P : B.Preps)
    Bytecode += P.W.Bytecode.size();
  const double Ops = static_cast<double>(B.AllUs.size());
  return {
      {"setup_s", "s", median(B.SetupS)},
      {"op_us_p50", "us", quantile(B.AllUs, 0.50)},
      {"ops_per_s", "1/s", B.TimedS > 0 ? Ops / B.TimedS : 0},
      {"vm_cell_us", "us", geomean(Vm)},
      {"native_cell_us", "us", geomean(Nat)},
      {"modeled_cycles", "cycles", geomean(Cycles)},
      {"bytecode_bytes", "bytes", Bytecode},
      {"native_code_bytes", "bytes", CodeBytes},
      {"peak_rss_mb", "MiB", peakRssMiB()},
  };
}

std::vector<Metric> perLayer(const Bench &B) {
  // Set-up stages, per kernel.
  std::vector<double> Vec, Enc, Interp;
  double Loops = 0;
  for (const Prep &P : B.Preps) {
    Vec.push_back(P.VectorizeUs);
    Enc.push_back(P.EncodeUs);
    Interp.push_back(P.InterpUs);
    Loops += P.LoopsVectorized;
  }
  // Op stages: mean over cells of each cell's median, so the stage means
  // and the unattributed mean add up to the mean op median.
  std::array<double, NumStages> Stage{};
  double Cert = 0, OpMed = 0, Unattr = 0, Overhead = 0;
  size_t N = 0;
  for (const CellTrace &CT : B.Traces) {
    if (CT.OpUs.empty() || CT.WallUs.empty())
      continue;
    ++N;
    double Op = median(CT.OpUs), Sum = 0;
    for (unsigned S = 0; S < NumStages; ++S) {
      double M = median(CT.StageUs[S]);
      Stage[S] += M;
      Sum += M;
    }
    Cert += median(CT.CertUs);
    OpMed += Op;
    Unattr += Op - Sum;
    Overhead += median(CT.WallUs) - median(CT.InProcUs);
  }
  auto PerCell = [&](double V) { return N ? V / N : 0; };
  const double Rounds = std::max<double>(1, B.Rounds);
  double Inline = 0, Helper = 0, Packed = 0;
  for (const Cell &C : B.Cells) {
    Inline += C.NStats.InlineOps;
    Helper += C.NStats.HelperOps;
    Packed += C.NStats.PackedOps;
  }
  const jit::cache::Stats &CD = B.CacheDelta;
  const double Codec = B.CodecOps ? B.CodecUs / B.CodecOps : 0;
  const double Resp = B.CodecOps ? B.RespBytes / B.CodecOps : 0;
  // Only serve's ops include the codec; steady's server pass is separate.
  const double CodecInOp = B.Opt.Workload == "serve" ? Codec : 0;
  return {
      {"vectorizer.vectorize_us", "us", mean(Vec)},
      {"vectorizer.loops_vectorized", "count", Loops},
      {"bytecode.encode_us", "us", mean(Enc)},
      {"bytecode.decode_us", "us", PerCell(Stage[SDecode])},
      {"ir.hash_us", "us", PerCell(Stage[SHash])},
      {"ir.interp_us", "us", mean(Interp)},
      {"verify.verify_us", "us", PerCell(Stage[SVerify])},
      {"verify.obligations", "count", B.ReplayObligations / Rounds},
      {"analysis.cert_check_us", "us", PerCell(Cert)},
      {"jit.lower_us", "us", PerCell(Stage[SLower])},
      {"jit.elision_plan_us", "us", PerCell(Stage[SPlan])},
      {"jit.checks_elided", "count", B.ReplayChecksElided / Rounds},
      {"jit.cache_lookup_us", "us", PerCell(Stage[SLookup])},
      {"jit.cache_hits", "count", hits(CD) / Rounds},
      {"jit.cache_misses", "count", misses(CD) / Rounds},
      {"jit.cache_evictions", "count", CD.Evictions / Rounds},
      {"kernels.fill_us", "us", PerCell(Stage[SFill])},
      {"target.layout_us", "us", PerCell(Stage[SLayout])},
      {"target.iaca_us", "us", PerCell(Stage[SIaca])},
      {"target.predecode_us", "us", PerCell(Stage[SPredecode])},
      {"target.vm_run_us", "us", PerCell(Stage[SVmRun])},
      {"target.vm_instrs", "count", B.ReplayVmInstrs / Rounds},
      {"codegen.emit_us", "us", PerCell(Stage[SEmit])},
      {"codegen.native_run_us", "us", PerCell(Stage[SNativeRun])},
      {"codegen.inline_ops", "count", Inline},
      {"codegen.helper_ops", "count", Helper},
      {"codegen.packed_ops", "count", Packed},
      {"server.frame_codec_us", "us", Codec},
      {"server.resp_bytes", "bytes", Resp},
      {"server.rejected", "count", static_cast<double>(B.Rejected)},
      {"server.queue_depth_max", "count",
       static_cast<double>(B.QueueDepthMax)},
      {"vapor.bind_us", "us", PerCell(Stage[SBind])},
      {"vapor.op_us", "us", PerCell(OpMed)},
      {"vapor.unattributed_us", "us", PerCell(Unattr) - CodecInOp},
      {"vapor.unattributed_share", "ratio",
       OpMed > 0 ? (PerCell(Unattr) - CodecInOp) / PerCell(OpMed) : 0},
      {"vapor.trace_overhead_us", "us", PerCell(Overhead)},
  };
}

//===--- Self-test of the failure accounting ------------------------------===//

/// A short pass with three planted failures -- a corrupted module, an op
/// whose output is wrong, an op that ends on another tier than requested
/// -- each in process, plus a good and a corrupted request to a server.
/// \returns 0 when exactly the planted ops are counted as failed.
int selfTest(Bench &B) {
  setupOnce(B);
  auto CellOf = [&](const std::string &K, const std::string &T,
                    bool Native) -> size_t {
    for (size_t I = 0; I < B.Cells.size(); ++I)
      if (B.Preps[B.Cells[I].K].K.Name == K &&
          B.Targets[B.Cells[I].T].Name == T && B.Cells[I].Native == Native)
        return I;
    std::fprintf(stderr, "selftest: no cell %s/%s\n", K.c_str(), T.c_str());
    std::exit(2);
  };
  auto InProcess = [&](Cell &C, const ModuleWorkload &W, const Lanes *Want) {
    RunOutcome Out = runEncodedModule(W, C.O);
    bool Output = false;
    std::string Err;
    if (Want) { // Check against a planted expectation instead.
      const Prep &P = B.Preps[C.K];
      if (!Out.Mem)
        Err = "no results";
      else if (std::string D = compareLanes(lanesOf(*Out.Mem, P.Names.size()),
                                            *Want, P.Names, P.IsFP, -1);
               !D.empty()) {
        Err = "wrong output: " + D;
        Output = true;
      }
    } else {
      Err = checkOutcome(B, C, Out, Output);
    }
    B.record(C, 1, Err, Output);
    return Err;
  };

  std::vector<std::pair<std::string, bool>> Expect; // (label, should fail)
  std::vector<std::string> Got;
  Cell &Good = B.Cells[CellOf("saxpy_fp", "sse", false)];
  const Prep &GP = B.Preps[Good.K];
  Got.push_back(InProcess(Good, GP.W, nullptr));
  Expect.push_back({"good op", false});

  ModuleWorkload Corrupt = GP.W;
  Corrupt.Bytecode.resize(Corrupt.Bytecode.size() / 2);
  Got.push_back(InProcess(Good, Corrupt, nullptr));
  Expect.push_back({"corrupted module", true});

  Lanes Wrong = B.expected(Good);
  Wrong[1][3] ^= 1;
  Got.push_back(InProcess(Good, GP.W, &Wrong));
  Expect.push_back({"wrong output", true});

  Cell Demoted = B.Cells[CellOf("sad_s8", "sse", true)];
  Demoted.O.Native.Features = codegen::CpuFeatures(); // No usable ISA.
  Got.push_back(InProcess(Demoted, B.Preps[Demoted.K].W, nullptr));
  Expect.push_back({"other tier", true});

  // The same accounting behind the server.
  server::ServerOptions SO;
  SO.SocketPath = B.Opt.OutDir + "/selftest-" + std::to_string(::getpid()) +
                  ".sock";
  SO.Workers = 1;
  server::Server Srv(SO);
  if (!Srv.start().ok())
    return 2;
  Client Cl;
  Cl.Fd = connectUnix(SO.SocketPath);
  for (bool Bad : {false, true}) {
    Prep Saved = B.Preps[Good.K];
    if (Bad)
      B.Preps[Good.K].W = Corrupt;
    double Us = 0;
    bool Output = false;
    std::string Err = Cl.Fd >= 0 ? serveOp(B, Cl, Good, 0, Us, Output)
                                 : "cannot connect";
    B.Preps[Good.K] = std::move(Saved);
    B.record(Good, Us, Err, Output);
    Got.push_back(Err);
    Expect.push_back({Bad ? "corrupted request" : "good request", Bad});
  }
  if (Cl.Fd >= 0)
    ::close(Cl.Fd);
  Srv.drain();

  bool Ok = B.Attempted == Expect.size();
  uint64_t WantFailed = 0;
  for (size_t I = 0; I < Expect.size(); ++I) {
    bool Failed = !Got[I].empty();
    WantFailed += Expect[I].second;
    Ok &= Failed == Expect[I].second;
    std::fprintf(stderr, "selftest: %-18s %s%s%s\n", Expect[I].first.c_str(),
                 Failed ? "failed" : "passed", Failed ? ": " : "",
                 Got[I].c_str());
  }
  Ok &= B.Failed == WantFailed && B.WrongOutput;
  printResult(B, {});
  std::fprintf(stderr, "selftest: %s\n", Ok ? "PASS" : "FAIL");
  return Ok ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Bench B;
  std::string Err;
  if (!parseArgs(Argc, Argv, B.Opt, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  std::error_code EC;
  std::filesystem::create_directories(B.Opt.OutDir, EC);
  if (B.Opt.SelfTest)
    return selfTest(B);

  setup(B);
  std::unique_ptr<TraceLog> Log;
  if (B.Opt.Trace)
    Log = std::make_unique<TraceLog>();
  bool Ok = true;
  if (B.Opt.Workload == "serve") {
    Ok = runServe(B, Log.get());
  } else {
    runInProcess(B, B.Opt.Workload == "deploy_cold", Log.get());
    if (Log && B.Opt.Workload == "steady")
      Ok = runServe(B, Log.get(), /*Pass=*/true);
  }
  if (!Ok)
    return 1;

  if (Log) {
    std::string Path = B.Opt.OutDir + "/trace-" + B.Opt.Workload + "-" +
                       std::to_string(B.Opt.Seed) + ".json";
    if (!Log->write(Path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: trace written to %s\n", Path.c_str());
  }
  printCells(B);
  printResult(B, B.Opt.Trace ? perLayer(B) : endToEnd(B));
  return 0;
}

//===- perfbench/harness/Refs.cpp - Independent kernel references ---------===//
//
// Part of the Vapor SIMD reproduction's end-to-end benchmark.
//
//===----------------------------------------------------------------------===//

#include "Refs.h"

#include <algorithm>

using namespace perfbench;

namespace {

ArrayData *find(std::vector<ArrayData> &As, const std::string &Name,
                bool IsFP, size_t MinElems) {
  for (ArrayData &A : As)
    if (A.Name == Name && A.IsFP == IsFP &&
        (IsFP ? A.F.size() : A.I.size()) >= MinElems)
      return &A;
  return nullptr;
}

int64_t intParam(const std::map<std::string, int64_t> &Ps,
                 const std::string &Name) {
  auto It = Ps.find(Name);
  return It == Ps.end() ? 0 : It->second;
}

/// y[i] = y[i] + alpha * x[i] in single precision.
std::string saxpyFp(std::vector<ArrayData> &As,
                    const std::map<std::string, int64_t> &IP,
                    const std::map<std::string, double> &FP) {
  const int64_t N = intParam(IP, "n");
  ArrayData *X = find(As, "x", true, N), *Y = find(As, "y", true, N);
  auto Alpha = FP.find("alpha");
  if (!X || !Y || Alpha == FP.end())
    return "saxpy_fp: arrays x/y or parameter alpha missing";
  const float A = static_cast<float>(Alpha->second);
  for (int64_t I = 0; I < N; ++I) {
    float Prod = A * static_cast<float>(X->F[I]);
    Y->F[I] = static_cast<float>(static_cast<float>(Y->F[I]) + Prod);
  }
  return "";
}

/// out[0] = sum |a[i] - b[i]| over unsigned bytes, 32-bit accumulator.
std::string sadS8(std::vector<ArrayData> &As,
                  const std::map<std::string, int64_t> &IP,
                  const std::map<std::string, double> &) {
  const int64_t N = intParam(IP, "n");
  ArrayData *A = find(As, "a", false, N), *B = find(As, "b", false, N);
  ArrayData *Out = find(As, "out", false, 1);
  if (!A || !B || !Out)
    return "sad_s8: arrays a/b/out missing";
  int32_t S = 0;
  for (int64_t I = 0; I < N; ++I) {
    uint8_t X = static_cast<uint8_t>(A->I[I]);
    uint8_t Y = static_cast<uint8_t>(B->I[I]);
    S += X > Y ? X - Y : Y - X;
  }
  Out->I[0] = S;
  return "";
}

/// C += A * B over 32x32 single-precision matrices, ikj order.
std::string mmmFp(std::vector<ArrayData> &As,
                  const std::map<std::string, int64_t> &,
                  const std::map<std::string, double> &) {
  constexpr int64_t N = 32;
  ArrayData *A = find(As, "A", true, N * N), *B = find(As, "B", true, N * N);
  ArrayData *C = find(As, "C", true, N * N);
  if (!A || !B || !C)
    return "mmm_fp: arrays A/B/C missing";
  std::vector<float> Cf(C->F.begin(), C->F.begin() + N * N);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t K = 0; K < N; ++K) {
      const float Aik = static_cast<float>(A->F[I * N + K]);
      for (int64_t J = 0; J < N; ++J)
        Cf[I * N + J] =
            Cf[I * N + J] + Aik * static_cast<float>(B->F[K * N + J]);
    }
  std::copy(Cf.begin(), Cf.end(), C->F.begin());
  return "";
}

/// Striped single-state filter over unsigned bytes: per row, saturating
/// add of the row's scores, saturating bias subtract, running max.
std::string ssvU8(std::vector<ArrayData> &As,
                  const std::map<std::string, int64_t> &IP,
                  const std::map<std::string, double> &) {
  const int64_t Rows = intParam(IP, "rows"), QW = intParam(IP, "qw");
  const int Bias = static_cast<int>(intParam(IP, "bias"));
  ArrayData *Dp = find(As, "dp", false, QW);
  ArrayData *Sc = find(As, "sc", false, Rows * QW);
  ArrayData *Best = find(As, "best", false, 1);
  if (!Dp || !Sc || !Best)
    return "ssv_u8: arrays dp/sc/best missing";
  auto Sat = [](int V) { return static_cast<uint8_t>(std::clamp(V, 0, 255)); };
  std::vector<uint8_t> D(QW);
  for (int64_t J = 0; J < QW; ++J)
    D[J] = static_cast<uint8_t>(Dp->I[J]);
  uint8_t BestV = static_cast<uint8_t>(Best->I[0]);
  for (int64_t T = 0; T < Rows; ++T) {
    uint8_t M = 0;
    for (int64_t J = 0; J < QW; ++J) {
      uint8_t V = Sat(D[J] + static_cast<uint8_t>(Sc->I[T * QW + J]));
      V = Sat(V - Bias);
      D[J] = V;
      M = std::max(M, V);
    }
    BestV = std::max(BestV, M);
  }
  for (int64_t J = 0; J < QW; ++J)
    Dp->I[J] = D[J];
  Best->I[0] = BestV;
  return "";
}

} // namespace

bool perfbench::hasIndependentRef(const std::string &Kernel) {
  return Kernel == "saxpy_fp" || Kernel == "sad_s8" || Kernel == "mmm_fp" ||
         Kernel == "ssv_u8";
}

std::string
perfbench::runIndependentRef(const std::string &Kernel,
                             std::vector<ArrayData> &Arrays,
                             const std::map<std::string, int64_t> &IntParams,
                             const std::map<std::string, double> &FPParams) {
  if (Kernel == "saxpy_fp")
    return saxpyFp(Arrays, IntParams, FPParams);
  if (Kernel == "sad_s8")
    return sadS8(Arrays, IntParams, FPParams);
  if (Kernel == "mmm_fp")
    return mmmFp(Arrays, IntParams, FPParams);
  if (Kernel == "ssv_u8")
    return ssvU8(Arrays, IntParams, FPParams);
  return Kernel + ": no independent reference";
}

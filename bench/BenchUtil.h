//===- bench/BenchUtil.h - Shared benchmark-harness helpers ----*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table formatting and mean helpers shared by the per-figure benchmark
/// binaries. Every binary prints the rows/series of one paper figure or
/// table (see DESIGN.md's per-experiment index) from the deterministic
/// cycle models, so runs are exactly reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_BENCH_BENCHUTIL_H
#define VAPOR_BENCH_BENCHUTIL_H

#include "obs/Obs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace vapor {
namespace bench {

/// Installs a trace sink when VAPOR_TRACE=<path> is set: every bench can
/// emit the Chrome-trace timeline of its sweep with zero flags. Hold the
/// returned pointer in main — the destructor writes the file.
inline std::unique_ptr<obs::TraceSink> traceSinkFromEnv() {
  return std::unique_ptr<obs::TraceSink>(obs::TraceSink::fromEnv("VAPOR_TRACE"));
}

inline void printHeader(const std::string &Title) {
  std::printf("\n== %s ==\n", Title.c_str());
}

inline void printRow(const std::string &Name,
                     const std::vector<std::pair<std::string, double>> &Cols) {
  std::printf("%-18s", Name.c_str());
  for (const auto &[Label, V] : Cols) {
    (void)Label;
    std::printf("  %10.3f", V);
  }
  std::printf("\n");
}

inline void printColumnLabels(const std::vector<std::string> &Labels) {
  std::printf("%-18s", "kernel");
  for (const auto &L : Labels)
    std::printf("  %10s", L.c_str());
  std::printf("\n");
}

inline double arithMean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double S = 0;
  for (double X : Xs)
    S += X;
  return S / static_cast<double>(Xs.size());
}

inline double harmonicMean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double S = 0;
  for (double X : Xs)
    S += 1.0 / X;
  return static_cast<double>(Xs.size()) / S;
}

inline double geoMean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double S = 0;
  for (double X : Xs)
    S += std::log(X);
  return std::exp(S / static_cast<double>(Xs.size()));
}

/// Median and interquartile range of a sample of repeated trials -- the
/// centre and spread a timed bench publishes.
struct Spread {
  double Median = 0;
  double Iqr = 0;
};

/// Quantile \p Q of the sorted sample \p Xs (linear interpolation).
inline double quantileSorted(const std::vector<double> &Xs, double Q) {
  if (Xs.empty())
    return 0;
  double Pos = Q * static_cast<double>(Xs.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Xs.size() - 1);
  return Xs[Lo] + (Xs[Hi] - Xs[Lo]) * (Pos - static_cast<double>(Lo));
}

inline Spread medianIqr(std::vector<double> Xs) {
  std::sort(Xs.begin(), Xs.end());
  return {quantileSorted(Xs, 0.5),
          quantileSorted(Xs, 0.75) - quantileSorted(Xs, 0.25)};
}

} // namespace bench
} // namespace vapor

#endif // VAPOR_BENCH_BENCHUTIL_H

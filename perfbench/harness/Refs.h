//===- perfbench/harness/Refs.h - Independent kernel references -*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction's end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written C++ loops for one kernel of each idiom family: FP
/// streaming (saxpy_fp), widening integer reduction (sad_s8), matrix
/// product (mmm_fp) and saturating striped DP (ssv_u8). They share no code
/// with the program's interpreter, VM or native tier: they read the arrays
/// the default fill wrote and compute the kernel the way its comment in
/// src/kernels/Kernels.cpp describes it. The benchmark checks the golden
/// interpreter against them at set-up.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFS_H
#define PERFBENCH_REFS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One array's contents as element values: integers for integer kinds,
/// doubles for FP kinds (F32 values are already rounded to float).
struct ArrayData {
  std::string Name;
  bool IsFP = false;
  std::vector<int64_t> I;
  std::vector<double> F;
};

/// Whether \p Kernel has an independent reference.
bool hasIndependentRef(const std::string &Kernel);

/// Runs the reference for \p Kernel over \p Arrays (the filled inputs,
/// updated in place to the outputs) with the kernel's parameter tables.
/// \returns an empty string, or why the inputs do not fit the reference.
std::string runIndependentRef(const std::string &Kernel,
                              std::vector<ArrayData> &Arrays,
                              const std::map<std::string, int64_t> &IntParams,
                              const std::map<std::string, double> &FPParams);

} // namespace perfbench

#endif // PERFBENCH_REFS_H

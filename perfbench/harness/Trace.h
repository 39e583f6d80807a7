//===- perfbench/harness/Trace.h - In-memory span log ----------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction's end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span log. Spans are recorded by the harness around its
/// calls into each layer, kept in memory, and written once at the end as
/// Chrome-trace JSON (the format scripts/check_trace.py validates). Every
/// span of one replayed op carries the same "op" id. Within a thread,
/// spans are appended in completion order, so per-thread completion
/// timestamps are monotonic in file order.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class TraceLog {
public:
  using Clock = std::chrono::steady_clock;

  explicit TraceLog(size_t MaxSpans = 200000) : Max(MaxSpans) {}

  /// Microseconds since the log was created.
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - T0)
        .count();
  }

  /// Stops keeping spans (timing goes on): the harness keeps the first
  /// rounds only, so a long run's trace stays small and complete.
  void stopKeeping() {
    std::lock_guard<std::mutex> L(Mu);
    Keeping = false;
  }

  /// Records one complete span [StartUs, EndUs) on thread \p Tid.
  void span(const char *Cat, const char *Name, uint32_t Tid, double StartUs,
            double EndUs, uint64_t Op, const std::string &Cell) {
    std::lock_guard<std::mutex> L(Mu);
    if (!Keeping)
      return;
    if (Spans.size() >= Max) {
      ++Dropped;
      return;
    }
    Spans.push_back({Cat, Name, Tid, StartUs, EndUs - StartUs, Op, Cell});
  }

  /// Writes the Chrome-trace file. \returns false when it cannot.
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"traceEvents\":[");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Rec &R = Spans[I];
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%llu,\"cell\":\"%s\"}}",
                   I ? "," : "", R.Name, R.Cat, R.Tid, R.TsUs, R.DurUs,
                   static_cast<unsigned long long>(R.Op), R.Cell.c_str());
    }
    std::fprintf(F, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":"
                    "{\"dropped\":%llu}}\n",
                 static_cast<unsigned long long>(Dropped));
    return std::fclose(F) == 0;
  }

private:
  struct Rec {
    const char *Cat;
    const char *Name;
    uint32_t Tid;
    double TsUs;
    double DurUs;
    uint64_t Op;
    std::string Cell;
  };
  Clock::time_point T0 = Clock::now();
  size_t Max;
  bool Keeping = true;
  mutable std::mutex Mu;
  std::vector<Rec> Spans;
  uint64_t Dropped = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H

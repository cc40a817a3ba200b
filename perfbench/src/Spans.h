//===- perfbench/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's spans: one per call into a layer's public function,
/// recorded from the benchmark's own files (no library code is
/// instrumented). A span keeps its name, an optional tag (the cell or
/// stage it covers), start and end in seconds since the log's epoch, and
/// the id of the span that caused it (0 = none). Spans stay in memory and
/// are written out once, when the benchmark ends.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "Bench.h"

#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint32_t Id = 0;
  uint32_t Parent = 0;
  std::string Name;
  std::string Tag;
  double Start = 0.0;
  double End = 0.0;

  double seconds() const { return End - Start; }
};

/// Thread-safe span log; ids start at 1.
class SpanLog {
public:
  SpanLog() : Epoch(Clock::now()) {}

  /// Opens a span now and returns its id.
  uint32_t open(std::string Name, uint32_t Parent, std::string Tag = "");
  /// Closes span \p Id now and returns its duration in seconds.
  double close(uint32_t Id);

  /// A copy of every span recorded so far, in open order.
  std::vector<Span> spans() const;

  /// Writes all spans as one JSON document; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  double now() const { return secondsBetween(Epoch, Clock::now()); }

  const Clock::time_point Epoch;
  mutable std::mutex Mutex; ///< Guards Spans.
  std::vector<Span> Spans;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, std::string Name, uint32_t Parent,
             std::string Tag = "")
      : Log(Log), Id(Log.open(std::move(Name), Parent, std::move(Tag))) {}
  ~ScopedSpan() {
    if (Id)
      Log.close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  uint32_t id() const { return Id; }
  /// Closes the span early and returns its duration in seconds.
  double close() {
    const double S = Log.close(Id);
    Id = 0;
    return S;
  }

private:
  SpanLog &Log;
  uint32_t Id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H

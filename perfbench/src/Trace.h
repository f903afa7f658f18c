//===- perfbench/src/Trace.h - The benchmark's own span recorder -*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around each call it makes into a
/// module. A span has a name ("<module>.<step>"), start, end, parent and the
/// id of the unit (pass or request) it belongs to. Spans stay in memory and
/// are written at exit as Chrome trace_event JSON.
///
/// A module's self time is the time its spans cover minus the time their
/// child spans cover. Spans of the "bench" module (the "bench.pass" roots,
/// for instance) are the benchmark's own loop: their self time is the
/// unattributed remainder.
///
/// When tracing is off, a Span costs one branch and reads no clock.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_PERFBENCH_TRACE_H
#define DCB_PERFBENCH_TRACE_H

#include "Bench.h"

#include <string>
#include <vector>

namespace dcb {
namespace perfbench {

class Tracer {
public:
  struct Record {
    const char *Name;
    uint64_t Start = 0, End = 0;
    int64_t Parent = -1;
    uint64_t Unit = 0;
    uint32_t Tid = 0;
  };

  static Tracer &get();

  bool on() const { return On; }
  void setOn(bool Enabled) { On = Enabled; }

  /// Opens a span nested under the innermost open one; returns its index.
  size_t open(const char *Name, uint64_t Unit);
  void close(size_t Idx);
  /// Records a finished span with no parent (asynchronous requests).
  void add(const char *Name, uint64_t Start, uint64_t End, uint64_t Unit,
           uint32_t Tid);

  /// Self time per module of every span that starts in [From, To), sorted
  /// by time, largest first.
  std::vector<ModuleTime> selfTimes(uint64_t From, uint64_t To) const;
  /// Sum of durations of spans named \p Name starting in [From, To), ms.
  double totalMs(const std::string &Name, uint64_t From, uint64_t To) const;

  /// Chrome trace_event document of every recorded span.
  std::string chromeJson() const;

private:
  bool On = false;
  std::vector<Record> Spans;
  std::vector<size_t> Stack;
};

/// RAII span; does nothing while tracing is off.
class Span {
public:
  Span(const char *Name, uint64_t Unit = 0)
      : Idx(Tracer::get().on() ? Tracer::get().open(Name, Unit) : None) {}
  ~Span() {
    if (Idx != None)
      Tracer::get().close(Idx);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  static constexpr size_t None = ~size_t(0);
  size_t Idx;
};

/// The module a span name belongs to: the text before the first dot.
std::string moduleOf(const std::string &SpanName);

/// In a traced run the units (passes, invocations) alternate between traced
/// and untraced, so both medians see the same machine conditions and their
/// gap is the tracing overhead. A probe traces every unit.
inline bool tracedUnit(const RunConfig &Cfg, uint64_t Unit) {
  return Cfg.Trace && (Cfg.Probe || Unit % 2 == 0);
}

/// Turns the span recorder and the library's telemetry counters on or off.
void setTracing(bool On);

/// Splits unit times into untraced and traced, records the overhead of
/// tracing (traced median over untraced median, minus one) in \p R, and
/// returns the untraced times, which the end-to-end metrics use (all of
/// them when every unit was traced).
std::vector<double> splitTraced(const std::vector<double> &UnitMs,
                                const std::vector<bool> &Traced, Result &R);

} // namespace perfbench
} // namespace dcb

#endif // DCB_PERFBENCH_TRACE_H

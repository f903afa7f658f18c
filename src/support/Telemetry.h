//===- support/Telemetry.h - Pipeline-wide metrics & tracing ----*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead, thread-safe telemetry layer shared by every stage of the
/// learn / assemble / decode pipeline:
///
///  - a global metrics registry of named monotonic Counters, Gauges and
///    power-of-two-bucket Histograms (latencies, sizes, scan lengths);
///  - a span tracer recording `{name, thread, start, duration}` events into
///    per-thread buffers, exportable as a Chrome `trace_event` JSON that
///    `chrome://tracing` and Perfetto load directly;
///  - a span *flight recorder*: a fixed-size per-thread ring of the most
///    recent spans (overwriting, allocation-free after thread start) a
///    long-running daemon keeps always on, so `dcb client trace` can pull
///    a Perfetto-loadable trace from production without a restart;
///  - human-readable (`statsTable`), machine-readable (`statsJson`) and
///    Prometheus text-exposition (`statsProm`) snapshots of the registry,
///    each stamped with build provenance (`buildInfo`).
///
/// Design rules, enforced throughout:
///
///  - **Disabled is (almost) free.** Counters/histograms and spans are each
///    gated on one global `std::atomic<bool>` read with relaxed ordering;
///    a site whose gate is off costs exactly that one relaxed load. Metric
///    handles are resolved once (namespace-scope structs of references in
///    each instrumented .cpp), never per event.
///  - **Observability never changes outputs.** Instrumented code records
///    numbers and timestamps only; listings, learned databases and
///    diagnostics are byte-identical with telemetry on or off (tier-1
///    tests assert this through the `dcb` CLI).
///
/// Span names (and counter names passed at registration) follow the
/// `subsystem.verb_or_noun` convention catalogued in docs/OBSERVABILITY.md.
/// Span name strings must have static storage duration (use literals): the
/// tracer stores the pointer, not a copy.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SUPPORT_TELEMETRY_H
#define DCB_SUPPORT_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <string>

#include "support/Errors.h"

namespace dcb {
namespace telemetry {

/// Decoded state of one histogram: power-of-two buckets where bucket 0
/// counts zero values and bucket B >= 1 counts values V with
/// 2^(B-1) <= V < 2^B (i.e. B = bit_width(V)).
struct HistData {
  static constexpr unsigned NumBuckets = 65;
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Max = 0;
  uint64_t Buckets[NumBuckets] = {};
};

namespace detail {
extern std::atomic<bool> CountersOn; ///< Gates Counter/Gauge/Histogram.
extern std::atomic<bool> SpansOn;    ///< Gates the span tracer.
unsigned bitWidth(uint64_t V);
} // namespace detail

/// Whether counter/gauge/histogram sites record. One relaxed load.
inline bool countersEnabled() {
  return detail::CountersOn.load(std::memory_order_relaxed);
}
/// Whether span sites record. One relaxed load.
inline bool spansEnabled() {
  return detail::SpansOn.load(std::memory_order_relaxed);
}

void setCountersEnabled(bool On);
void setSpansEnabled(bool On);
/// Enables/disables both counters and spans.
void setEnabled(bool On);

/// Enables/disables the span flight recorder: a fixed-size per-thread ring
/// of the most recent spans, overwriting and allocation-free, meant to stay
/// on for the lifetime of a daemon. Shares the span site gate with the
/// tracer (`detail::SpansOn` is on when either consumer is), so a span site
/// still costs exactly one relaxed load when both are off.
void setFlightRecorderEnabled(bool On);
bool flightRecorderEnabled();

/// Monotonic counter. add() is wait-free: one gate load plus one relaxed
/// fetch_add when enabled.
class Counter {
public:
  void add(uint64_t N = 1) {
    if (countersEnabled())
      V.fetch_add(N, std::memory_order_relaxed);
  }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  friend void resetForTest();
  std::atomic<uint64_t> V{0};
};

/// Last-write-wins instantaneous value (index sizes, lane counts).
class Gauge {
public:
  void set(int64_t X) {
    if (countersEnabled())
      V.store(X, std::memory_order_relaxed);
  }
  int64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  friend void resetForTest();
  std::atomic<int64_t> V{0};
};

/// Power-of-two-bucket histogram; see HistData for bucket semantics.
/// record() is a handful of relaxed atomic ops — no locks, exact counts
/// and sums under any concurrency.
class Histogram {
public:
  void record(uint64_t Value) {
    if (!countersEnabled())
      return;
    Buckets[detail::bitWidth(Value)].fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(Value, std::memory_order_relaxed);
    uint64_t Cur = Max.load(std::memory_order_relaxed);
    while (Value > Cur &&
           !Max.compare_exchange_weak(Cur, Value, std::memory_order_relaxed))
      ;
  }
  HistData snapshot() const;

private:
  friend void resetForTest();
  std::atomic<uint64_t> Buckets[HistData::NumBuckets] = {};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Max{0};
};

/// Registry lookups: intern \p Name and return the (process-lifetime)
/// metric instance. Takes a lock — resolve handles once at static-init or
/// setup time, never on a hot path.
Counter &counter(const std::string &Name);
Gauge &gauge(const std::string &Name);
Histogram &histogram(const std::string &Name);

/// Nanoseconds on the steady clock since the process-global trace epoch.
uint64_t nowNs();

/// Appends one completed span to the calling thread's trace buffer.
/// \p Name must have static storage duration.
void recordSpan(const char *Name, uint64_t StartNs, uint64_t DurNs);

/// RAII span: captures the gate and the start time at construction, records
/// at destruction. When tracing is off the whole object is one relaxed
/// load and two dead stores.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *SpanName)
      : Name(spansEnabled() ? SpanName : nullptr),
        Start(Name ? nowNs() : 0) {}
  ~ScopedSpan() {
    if (Name)
      recordSpan(Name, Start, nowNs() - Start);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  const char *Name;
  uint64_t Start;
};

/// Convenience RAII span covering the rest of the scope:
///   DCB_SPAN("vendor.decodeKernelCode");
#define DCB_SPAN_CONCAT_IMPL(A, B) A##B
#define DCB_SPAN_CONCAT(A, B) DCB_SPAN_CONCAT_IMPL(A, B)
#define DCB_SPAN(NAME)                                                       \
  ::dcb::telemetry::ScopedSpan DCB_SPAN_CONCAT(DcbSpan_, __LINE__)(NAME)

// --- Exports ---------------------------------------------------------------

/// Interpolated quantile estimate over a power-of-two-bucket histogram.
/// Locates the bucket containing the Q-th value (Q in [0,1]) and linearly
/// interpolates between the bucket's bounds, capped at the observed max —
/// so the absolute error is bounded by the width of the containing bucket
/// (the estimate is always within a factor of two of the true quantile,
/// and exact for zero values and for the bucket holding the max). Returns
/// 0 for an empty histogram.
double histQuantile(const HistData &H, double Q);

/// Build/runtime provenance stamped into every exported snapshot.
struct BuildInfo {
  std::string GitRev;    ///< $DCB_GIT_REV (scripts/run_benches.sh, CI) or "unknown".
  std::string BuildType; ///< "release" (NDEBUG) or "debug".
  std::string Telemetry; ///< "on" / "off": whether counters record.
};
BuildInfo buildInfo();

/// Human-readable snapshot: a provenance line, counters, gauges, then
/// histograms with count / sum / mean / interpolated p50/p90/p99
/// (histQuantile) / max. Names sort lexicographically. Empty registry ->
/// a single explanatory line.
std::string statsTable();

/// Machine-readable snapshot (schema `dcb-stats-v1`):
///   {"schema":"dcb-stats-v1",
///    "provenance":{"dcb_git_rev":R,"build_type":B,"telemetry":T,
///                  "uptime_ns":N},
///    "counters":{...},"gauges":{...},
///    "histograms":{"name":{"count":C,"sum":S,"max":M,
///                          "buckets":[[bucket,count],...]}}}
std::string statsJson();

/// statsJson() on a single line (no newlines anywhere), embeddable as a
/// JSON object inside another newline-framed document — the daemon's
/// `{"op":"stats"}` response uses it.
std::string statsJsonLine();

/// One-line `name=value` pairs (counters and gauges only), semicolon
/// separated — safe to embed as a benchmark context string.
std::string statsCompact();

/// Prometheus text-exposition (v0.0.4) snapshot: counters and gauges as
/// scalar series, histograms as cumulative `_bucket{le=...}`/`_sum`/
/// `_count` with exact integer bucket bounds (bucket B covers values <=
/// 2^B - 1), plus a `dcb_build_info` info gauge and `dcb_uptime_seconds`.
/// Names are sanitized to `dcb_<name with non-alphanumerics as '_'>`.
std::string statsProm();

/// Chrome trace_event JSON of every recorded span, sorted by start time
/// (ts/dur in microseconds). Loads in chrome://tracing and Perfetto.
std::string traceJson();

/// Spans currently resident in (and overwritten out of) the flight rings.
struct FlightStats {
  uint64_t Recorded = 0; ///< Spans written into rings since reset.
  uint64_t Dropped = 0;  ///< Spans overwritten (Recorded minus resident).
};
FlightStats flightStats();

/// Chrome trace_event JSON of the spans resident in the flight rings,
/// rendered on a single line. \p LastNs > 0 keeps only spans that *ended*
/// within the trailing LastNs window. Includes a top-level
/// `"flightDropped"` count (extra keys are ignored by trace viewers).
std::string flightTraceJson(uint64_t LastNs = 0);

/// Renders a statsJson() document back into the statsTable() layout — the
/// `dcb stats <file>` pretty-printer. Fails on malformed input.
Expected<std::string> renderStatsJson(const std::string &Json);

/// Renders a statsJson() document into the statsProm() exposition — the
/// `dcb stats --format=prom <file>` path. Fails on malformed input.
Expected<std::string> statsJsonToProm(const std::string &Json);

/// Zeroes every registered metric and drops all span buffers (tests only;
/// racing with concurrent recorders is the caller's problem).
void resetForTest();

} // namespace telemetry
} // namespace dcb

#endif // DCB_SUPPORT_TELEMETRY_H

//===- support/Telemetry.cpp ----------------------------------------------===//

#include "support/Telemetry.h"

#include "support/Json.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

using namespace dcb;
using namespace dcb::telemetry;

// --- Snapshot rendering ----------------------------------------------------

namespace {

std::string u64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, V);
  return Buf;
}

std::string i64(int64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%" PRId64, V);
  return Buf;
}

/// Snapshot of the whole registry, decoupled from the live atomics so the
/// table / JSON / compact / Prometheus renderers share one consistent view.
/// Provenance values are kept as strings; `uptime_ns` is the one key
/// rendered as a JSON number.
struct Snapshot {
  std::map<std::string, std::string> Provenance;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, int64_t> Gauges;
  std::map<std::string, HistData> Histograms;
};

/// Stamps buildInfo() + uptime into \p S, the common prologue of every
/// export entry point.
void stampProvenance(Snapshot &S) {
  BuildInfo B = telemetry::buildInfo();
  S.Provenance["dcb_git_rev"] = B.GitRev;
  S.Provenance["build_type"] = B.BuildType;
  S.Provenance["telemetry"] = B.Telemetry;
  S.Provenance["uptime_ns"] = u64(telemetry::nowNs());
}

std::string provValue(const Snapshot &S, const char *Key) {
  auto It = S.Provenance.find(Key);
  return It == S.Provenance.end() ? std::string("unknown") : It->second;
}

std::string renderTable(const Snapshot &S) {
  if (S.Counters.empty() && S.Gauges.empty() && S.Histograms.empty())
    return "telemetry: no metrics recorded\n";
  std::string Out;
  if (!S.Provenance.empty())
    Out += "provenance: rev=" + provValue(S, "dcb_git_rev") +
           " build=" + provValue(S, "build_type") +
           " telemetry=" + provValue(S, "telemetry") + "\n";
  size_t NameWidth = 8;
  for (const auto &[Name, V] : S.Counters)
    NameWidth = std::max(NameWidth, Name.size());
  for (const auto &[Name, V] : S.Gauges)
    NameWidth = std::max(NameWidth, Name.size());
  for (const auto &[Name, V] : S.Histograms)
    NameWidth = std::max(NameWidth, Name.size());

  char Line[512];
  if (!S.Counters.empty()) {
    Out += "counters:\n";
    for (const auto &[Name, V] : S.Counters) {
      std::snprintf(Line, sizeof(Line), "  %-*s %14" PRIu64 "\n",
                    static_cast<int>(NameWidth), Name.c_str(), V);
      Out += Line;
    }
  }
  if (!S.Gauges.empty()) {
    Out += "gauges:\n";
    for (const auto &[Name, V] : S.Gauges) {
      std::snprintf(Line, sizeof(Line), "  %-*s %14" PRId64 "\n",
                    static_cast<int>(NameWidth), Name.c_str(), V);
      Out += Line;
    }
  }
  if (!S.Histograms.empty()) {
    std::snprintf(Line, sizeof(Line),
                  "histograms: %-*s %12s %16s %12s %12s %12s %12s %12s\n",
                  static_cast<int>(NameWidth) - 10, "", "count", "sum",
                  "mean", "~p50", "~p90", "~p99", "max");
    Out += Line;
    for (const auto &[Name, H] : S.Histograms) {
      uint64_t Mean = H.Count ? H.Sum / H.Count : 0;
      auto Q = [&H](double Quantile) {
        return static_cast<uint64_t>(histQuantile(H, Quantile) + 0.5);
      };
      std::snprintf(Line, sizeof(Line),
                    "  %-*s %12" PRIu64 " %16" PRIu64 " %12" PRIu64
                    " %12" PRIu64 " %12" PRIu64 " %12" PRIu64 " %12" PRIu64
                    "\n",
                    static_cast<int>(NameWidth), Name.c_str(), H.Count,
                    H.Sum, Mean, Q(0.50), Q(0.90), Q(0.99), H.Max);
      Out += Line;
    }
  }
  return Out;
}

/// Renders the dcb-stats-v1 document; \p Pretty selects the multi-line
/// indented form vs the single-line embeddable form.
std::string renderJson(const Snapshot &S, bool Pretty) {
  const char *NL = Pretty ? "\n" : "";
  const char *I1 = Pretty ? "  " : "";
  const char *I2 = Pretty ? "    " : "";
  std::string Out = "{";
  Out += NL;
  Out += I1;
  Out += "\"schema\": \"dcb-stats-v1\",";
  Out += NL;
  Out += I1;
  Out += "\"provenance\": {";
  bool First = true;
  for (const auto &[Key, V] : S.Provenance) {
    if (!First)
      Out += ", ";
    First = false;
    json::appendString(Out, Key);
    Out += ": ";
    if (Key == "uptime_ns")
      Out += V;
    else
      json::appendString(Out, V);
  }
  Out += "},";
  Out += NL;
  Out += I1;
  Out += "\"counters\": {";
  First = true;
  for (const auto &[Name, V] : S.Counters) {
    Out += First ? NL : (Pretty ? ",\n" : ",");
    First = false;
    Out += I2;
    json::appendString(Out, Name);
    Out += ": " + u64(V);
  }
  if (!First) {
    Out += NL;
    Out += I1;
  }
  Out += "},";
  Out += NL;
  Out += I1;
  Out += "\"gauges\": {";
  First = true;
  for (const auto &[Name, V] : S.Gauges) {
    Out += First ? NL : (Pretty ? ",\n" : ",");
    First = false;
    Out += I2;
    json::appendString(Out, Name);
    Out += ": " + i64(V);
  }
  if (!First) {
    Out += NL;
    Out += I1;
  }
  Out += "},";
  Out += NL;
  Out += I1;
  Out += "\"histograms\": {";
  First = true;
  for (const auto &[Name, H] : S.Histograms) {
    Out += First ? NL : (Pretty ? ",\n" : ",");
    First = false;
    Out += I2;
    json::appendString(Out, Name);
    Out += ": {\"count\": " + u64(H.Count) + ", \"sum\": " + u64(H.Sum) +
           ", \"max\": " + u64(H.Max) + ", \"buckets\": [";
    bool FirstBucket = true;
    for (unsigned B = 0; B < HistData::NumBuckets; ++B) {
      if (!H.Buckets[B])
        continue;
      if (!FirstBucket)
        Out += ", ";
      FirstBucket = false;
      Out += "[" + u64(B) + ", " + u64(H.Buckets[B]) + "]";
    }
    Out += "]}";
  }
  if (!First) {
    Out += NL;
    Out += I1;
  }
  Out += "}";
  Out += NL;
  Out += "}";
  if (Pretty)
    Out += "\n";
  return Out;
}

std::string renderCompact(const Snapshot &S) {
  std::string Out;
  for (const auto &[Name, V] : S.Counters) {
    if (!Out.empty())
      Out += "; ";
    Out += Name + "=" + u64(V);
  }
  for (const auto &[Name, V] : S.Gauges) {
    if (!Out.empty())
      Out += "; ";
    Out += Name + "=" + i64(V);
  }
  return Out;
}

// --- Prometheus text exposition --------------------------------------------

/// `dcb_` + the metric name with every non-alphanumeric mapped to '_'.
std::string promName(const std::string &Name) {
  std::string Out = "dcb_";
  for (char C : Name)
    Out += std::isalnum(static_cast<unsigned char>(C)) ? C : '_';
  return Out;
}

/// A label value with the text format's three escapes (backslash, quote,
/// newline). It defines no others, so every other byte below 0x20 becomes
/// '_', as in promName, and no sample spans two lines.
void appendPromLabelValue(std::string &Out, const std::string &V) {
  for (char C : V) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '"')
      Out += "\\\"";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += static_cast<unsigned char>(C) < 0x20 ? '_' : C;
  }
}

/// Inclusive integer upper bound of histogram bucket \p B: bucket B >= 1
/// holds values in [2^(B-1), 2^B), whose largest integer member is
/// 2^B - 1; bucket 0 holds exactly the value 0.
uint64_t bucketUpperBoundInclusive(unsigned B) {
  if (B == 0)
    return 0;
  if (B >= 64)
    return UINT64_MAX;
  return (uint64_t(1) << B) - 1;
}

std::string renderProm(const Snapshot &S) {
  std::string Out;
  Out += "# HELP dcb_build_info Build and runtime provenance; value is "
         "always 1.\n";
  Out += "# TYPE dcb_build_info gauge\n";
  Out += "dcb_build_info{revision=\"";
  appendPromLabelValue(Out, provValue(S, "dcb_git_rev"));
  Out += "\",build_type=\"";
  appendPromLabelValue(Out, provValue(S, "build_type"));
  Out += "\",telemetry=\"";
  appendPromLabelValue(Out, provValue(S, "telemetry"));
  Out += "\"} 1\n";
  {
    auto It = S.Provenance.find("uptime_ns");
    if (It != S.Provenance.end()) {
      uint64_t Ns = std::strtoull(It->second.c_str(), nullptr, 10);
      char Line[64];
      std::snprintf(Line, sizeof(Line),
                    "# TYPE dcb_uptime_seconds gauge\n"
                    "dcb_uptime_seconds %.3f\n",
                    static_cast<double>(Ns) / 1e9);
      Out += Line;
    }
  }
  for (const auto &[Name, V] : S.Counters) {
    std::string N = promName(Name);
    Out += "# TYPE " + N + " counter\n";
    Out += N + " " + u64(V) + "\n";
  }
  for (const auto &[Name, V] : S.Gauges) {
    std::string N = promName(Name);
    Out += "# TYPE " + N + " gauge\n";
    Out += N + " " + i64(V) + "\n";
  }
  for (const auto &[Name, H] : S.Histograms) {
    std::string N = promName(Name);
    Out += "# TYPE " + N + " histogram\n";
    uint64_t Cum = 0;
    for (unsigned B = 0; B < HistData::NumBuckets; ++B) {
      if (!H.Buckets[B])
        continue;
      Cum += H.Buckets[B];
      Out += N + "_bucket{le=\"" + u64(bucketUpperBoundInclusive(B)) +
             "\"} " + u64(Cum) + "\n";
    }
    Out += N + "_bucket{le=\"+Inf\"} " + u64(H.Count) + "\n";
    Out += N + "_sum " + u64(H.Sum) + "\n";
    Out += N + "_count " + u64(H.Count) + "\n";
  }
  return Out;
}

// --- Reading a saved dcb-stats-v1 document ---------------------------------

/// Reads a saved dcb-stats-v1 document into a Snapshot: the shared front
/// half of renderStatsJson and statsJsonToProm. Every number must be an
/// integer that fits its field.
Expected<Snapshot> parseStatsDocument(const std::string &Text) {
  Expected<json::Value> Doc = json::parse(Text);
  if (!Doc)
    return Failure("stats JSON: " + Doc.message());
  if (!Doc->isObject())
    return Failure("stats JSON: expected top-level object");
  const json::Value *Schema = Doc->field("schema");
  if (!Schema)
    return Failure("stats JSON: missing schema marker");
  if (Schema->Str != "dcb-stats-v1")
    return Failure("stats JSON: unsupported schema '" + Schema->Str + "'");
  Snapshot S;
  for (const auto &[Key, Map] : Doc->Obj) {
    if (Key == "schema")
      continue;
    if (Key != "provenance" && Key != "counters" && Key != "gauges" &&
        Key != "histograms")
      return Failure("stats JSON: unknown key '" + Key + "'");
    if (!Map.isObject())
      return Failure("stats JSON: malformed " + Key + " map");
    for (const auto &[Name, V] : Map.Obj) {
      if (Key == "histograms") {
        Expected<HistData> H = histFromJson(V);
        if (!H)
          return Failure("stats JSON: histogram '" + Name +
                         "': " + H.message());
        S.Histograms[Name] = *H;
      } else if (Key == "counters" && V.UInt) {
        S.Counters[Name] = *V.UInt;
      } else if (Key == "gauges" && V.Int) {
        S.Gauges[Name] = *V.Int;
      } else if (Key == "provenance" && (V.isString() || V.UInt || V.Int)) {
        S.Provenance[Name] = V.isString() ? V.Str
                             : V.UInt     ? u64(*V.UInt)
                                          : i64(*V.Int);
      } else {
        return Failure("stats JSON: malformed " + Key + " entry '" + Name +
                       "'");
      }
    }
  }
  return S;
}

} // namespace

Expected<std::string> telemetry::renderStatsJson(const std::string &Json) {
  Expected<Snapshot> S = parseStatsDocument(Json);
  if (!S)
    return Failure(S.message());
  return renderTable(*S);
}

Expected<std::string> telemetry::statsJsonToProm(const std::string &Json) {
  Expected<Snapshot> S = parseStatsDocument(Json);
  if (!S)
    return Failure(S.message());
  return renderProm(*S);
}

Expected<HistData> telemetry::histFromJson(const json::Value &V) {
  if (!V.isObject())
    return Failure("expected an object");
  HistData H;
  for (const auto &[Field, X] : V.Obj) {
    if (Field == "buckets" && X.K == json::Value::Kind::Array) {
      for (const json::Value &Pair : X.Arr) {
        if (Pair.Arr.size() != 2 || !Pair.Arr[0].UInt ||
            *Pair.Arr[0].UInt >= HistData::NumBuckets || !Pair.Arr[1].UInt)
          return Failure("malformed bucket");
        H.Buckets[*Pair.Arr[0].UInt] = *Pair.Arr[1].UInt;
      }
      continue;
    }
    uint64_t *Slot = Field == "count" ? &H.Count
                     : Field == "sum" ? &H.Sum
                     : Field == "max" ? &H.Max
                                      : nullptr;
    if (!Slot || !X.UInt)
      return Failure("malformed field '" + Field + "'");
    *Slot = *X.UInt;
  }
  return H;
}

double telemetry::histQuantile(const HistData &H, double Q) {
  if (H.Count == 0)
    return 0.0;
  if (Q < 0.0)
    Q = 0.0;
  if (Q > 1.0)
    Q = 1.0;
  // Rank of the target sample in [1, Count] (nearest-rank, then linear
  // interpolation of that rank's position inside its bucket).
  double Rank = Q * static_cast<double>(H.Count);
  if (Rank < 1.0)
    Rank = 1.0;
  uint64_t Seen = 0;
  for (unsigned B = 0; B < HistData::NumBuckets; ++B) {
    uint64_t N = H.Buckets[B];
    if (!N)
      continue;
    if (static_cast<double>(Seen) + static_cast<double>(N) >= Rank) {
      if (B == 0)
        return 0.0; // Bucket 0 holds exactly the value 0.
      double Lo = std::ldexp(1.0, static_cast<int>(B) - 1);
      double Hi = std::ldexp(1.0, static_cast<int>(B));
      double Frac =
          (Rank - static_cast<double>(Seen)) / static_cast<double>(N);
      double V = Lo + Frac * (Hi - Lo);
      double MaxV = static_cast<double>(H.Max);
      return V < MaxV ? V : MaxV;
    }
    Seen += N;
  }
  return static_cast<double>(H.Max);
}

BuildInfo telemetry::buildInfo() {
  BuildInfo B;
  const char *Rev = std::getenv("DCB_GIT_REV");
  B.GitRev = (Rev && *Rev) ? Rev : "unknown";
#ifdef NDEBUG
  B.BuildType = "release";
#else
  B.BuildType = "debug";
#endif
  B.Telemetry = countersEnabled() ? "on" : "off";
  return B;
}

// --- Live registry ---------------------------------------------------------

std::atomic<bool> detail::CountersOn{false};
std::atomic<bool> detail::SpansOn{false};

unsigned detail::bitWidth(uint64_t V) {
  unsigned W = 0;
  while (V) {
    ++W;
    V >>= 1;
  }
  return W;
}

namespace {

/// The span site gate `detail::SpansOn` is the OR of these two consumer
/// gates: the unbounded trace buffer (--trace) and the flight recorder.
std::atomic<bool> TraceBufOn{false};
std::atomic<bool> FlightOn{false};

/// One span event; Name points at static storage (documented contract).
struct SpanEvent {
  const char *Name;
  uint64_t StartNs;
  uint64_t DurNs;
};

/// Flight-ring capacity per thread. Fixed so recording never allocates;
/// 256 recent spans per thread is plenty to reconstruct what a daemon
/// thread was doing when an operator pulls a trace.
constexpr uint64_t FlightCap = 256;

/// Per-thread span buffer. Owned jointly by the registry (so events
/// survive thread exit, e.g. TaskPool workers joined before export) and
/// referenced by a thread_local pointer on the recording side.
struct ThreadBuf {
  unsigned Tid = 0;
  std::mutex M; ///< Uncontended except during a concurrent export.
  std::vector<SpanEvent> Events;
  SpanEvent Flight[FlightCap] = {}; ///< Ring; slot = FlightNext % FlightCap.
  uint64_t FlightNext = 0;          ///< Total flight writes ever.
};

/// The process-wide registry. Deliberately leaked: spans can be recorded
/// by threads that outlive main()'s locals, and exports can run from
/// atexit paths; a destructed registry would turn those into UB.
struct Registry {
  std::mutex M;
  std::map<std::string, Counter> Counters;
  std::map<std::string, Gauge> Gauges;
  std::map<std::string, Histogram> Histograms;

  std::mutex SpanM;
  std::vector<std::shared_ptr<ThreadBuf>> Threads;
  unsigned NextTid = 1;
};

Registry &registry() {
  static Registry *R = new Registry;
  return *R;
}

ThreadBuf &threadBuf() {
  thread_local std::shared_ptr<ThreadBuf> Buf = [] {
    auto B = std::make_shared<ThreadBuf>();
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.SpanM);
    B->Tid = R.NextTid++;
    R.Threads.push_back(B);
    return B;
  }();
  return *Buf;
}

Snapshot takeSnapshot() {
  Registry &R = registry();
  Snapshot S;
  {
    std::lock_guard<std::mutex> Lock(R.M);
    for (const auto &[Name, C] : R.Counters)
      S.Counters[Name] = C.value();
    for (const auto &[Name, G] : R.Gauges)
      S.Gauges[Name] = G.value();
    for (const auto &[Name, H] : R.Histograms)
      S.Histograms[Name] = H.snapshot();
  }
  // Surface flight-recorder totals as synthetic counters so every
  // renderer (table, JSON, Prometheus) reports them without special
  // cases. Only once the recorder has ever written, to keep ordinary
  // --stats runs free of noise rows.
  FlightStats FS = telemetry::flightStats();
  if (FS.Recorded) {
    S.Counters["telemetry.flight.spans"] = FS.Recorded;
    S.Counters["telemetry.flight.dropped"] = FS.Dropped;
  }
  return S;
}

/// Calls \p Visit on every thread's span buffer, locked, in thread order.
template <typename Fn> void forEachThreadBuf(Fn Visit) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.SpanM);
  for (const std::shared_ptr<ThreadBuf> &Buf : R.Threads) {
    std::lock_guard<std::mutex> BufLock(Buf->M);
    Visit(*Buf);
  }
}

/// One exported span and the thread that recorded it.
struct Flat {
  SpanEvent E;
  unsigned Tid;
};

/// Chrome trace_event JSON of \p All sorted by start time; ts and dur are
/// microseconds with ns precision. \p Pretty puts each event on its own
/// line (the --trace file); otherwise the document is one line the daemon
/// can embed in a response. \p Extra goes before the closing key.
std::string renderTrace(std::vector<Flat> All, bool Pretty,
                        const std::string &Extra) {
  std::stable_sort(All.begin(), All.end(), [](const Flat &A, const Flat &B) {
    return A.E.StartNs < B.E.StartNs;
  });
  std::string Out = "{\"traceEvents\": [";
  char Line[256];
  for (size_t I = 0; I < All.size(); ++I) {
    const Flat &F = All[I];
    if (Pretty)
      Out += I ? ",\n " : "\n ";
    else if (I)
      Out += ", ";
    std::snprintf(Line, sizeof(Line),
                  "{\"name\": \"%s\", \"cat\": \"dcb\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %u, \"ts\": %" PRIu64 ".%03u, "
                  "\"dur\": %" PRIu64 ".%03u}",
                  F.E.Name, F.Tid, F.E.StartNs / 1000,
                  static_cast<unsigned>(F.E.StartNs % 1000),
                  F.E.DurNs / 1000,
                  static_cast<unsigned>(F.E.DurNs % 1000));
    Out += Line;
  }
  Out += Pretty && !All.empty() ? "\n]" : "]";
  return Out + Extra + ", \"displayTimeUnit\": \"ms\"}\n";
}

} // namespace

void telemetry::setCountersEnabled(bool On) {
  detail::CountersOn.store(On, std::memory_order_relaxed);
}
void telemetry::setSpansEnabled(bool On) {
  TraceBufOn.store(On, std::memory_order_relaxed);
  detail::SpansOn.store(On || FlightOn.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
}
void telemetry::setEnabled(bool On) {
  setCountersEnabled(On);
  setSpansEnabled(On);
}
void telemetry::setFlightRecorderEnabled(bool On) {
  FlightOn.store(On, std::memory_order_relaxed);
  detail::SpansOn.store(On || TraceBufOn.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
}
bool telemetry::flightRecorderEnabled() {
  return FlightOn.load(std::memory_order_relaxed);
}

Counter &telemetry::counter(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  return R.Counters[Name]; // std::map: stable addresses, in-place default.
}

Gauge &telemetry::gauge(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  return R.Gauges[Name];
}

Histogram &telemetry::histogram(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  return R.Histograms[Name];
}

HistData Histogram::snapshot() const {
  HistData D;
  for (unsigned B = 0; B < HistData::NumBuckets; ++B) {
    D.Buckets[B] = Buckets[B].load(std::memory_order_relaxed);
    D.Count += D.Buckets[B];
  }
  D.Sum = Sum.load(std::memory_order_relaxed);
  D.Max = Max.load(std::memory_order_relaxed);
  return D;
}

uint64_t telemetry::nowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Epoch)
          .count());
}

void telemetry::recordSpan(const char *Name, uint64_t StartNs,
                           uint64_t DurNs) {
  ThreadBuf &Buf = threadBuf();
  std::lock_guard<std::mutex> Lock(Buf.M);
  if (TraceBufOn.load(std::memory_order_relaxed))
    Buf.Events.push_back({Name, StartNs, DurNs});
  if (FlightOn.load(std::memory_order_relaxed)) {
    Buf.Flight[Buf.FlightNext % FlightCap] = {Name, StartNs, DurNs};
    ++Buf.FlightNext;
  }
}

std::string telemetry::statsTable() {
  Snapshot S = takeSnapshot();
  stampProvenance(S);
  return renderTable(S);
}
std::string telemetry::statsJson() {
  Snapshot S = takeSnapshot();
  stampProvenance(S);
  return renderJson(S, /*Pretty=*/true);
}
std::string telemetry::statsJsonLine() {
  Snapshot S = takeSnapshot();
  stampProvenance(S);
  return renderJson(S, /*Pretty=*/false);
}
std::string telemetry::statsProm() {
  Snapshot S = takeSnapshot();
  stampProvenance(S);
  return renderProm(S);
}
std::string telemetry::statsCompact() {
  return renderCompact(takeSnapshot());
}

std::string telemetry::traceJson() {
  std::vector<Flat> All;
  forEachThreadBuf([&All](const ThreadBuf &Buf) {
    for (const SpanEvent &E : Buf.Events)
      All.push_back({E, Buf.Tid});
  });
  return renderTrace(std::move(All), /*Pretty=*/true, "");
}

FlightStats telemetry::flightStats() {
  FlightStats FS;
  forEachThreadBuf([&FS](const ThreadBuf &Buf) {
    FS.Recorded += Buf.FlightNext;
    if (Buf.FlightNext > FlightCap)
      FS.Dropped += Buf.FlightNext - FlightCap;
  });
  return FS;
}

std::string telemetry::flightTraceJson(uint64_t LastNs) {
  std::vector<Flat> All;
  uint64_t Dropped = 0;
  uint64_t Horizon = 0;
  if (LastNs) {
    uint64_t Now = nowNs();
    Horizon = LastNs < Now ? Now - LastNs : 0;
  }
  forEachThreadBuf([&](const ThreadBuf &Buf) {
    uint64_t Resident = std::min(Buf.FlightNext, FlightCap);
    if (Buf.FlightNext > FlightCap)
      Dropped += Buf.FlightNext - FlightCap;
    for (uint64_t I = Buf.FlightNext - Resident; I < Buf.FlightNext; ++I) {
      const SpanEvent &E = Buf.Flight[I % FlightCap];
      if (E.Name && E.StartNs + E.DurNs >= Horizon)
        All.push_back({E, Buf.Tid});
    }
  });
  return renderTrace(std::move(All), /*Pretty=*/false,
                     ", \"flightDropped\": " + u64(Dropped));
}

void telemetry::resetForTest() {
  Registry &R = registry();
  {
    std::lock_guard<std::mutex> Lock(R.M);
    for (auto &[Name, C] : R.Counters)
      C.V.store(0, std::memory_order_relaxed);
    for (auto &[Name, G] : R.Gauges)
      G.V.store(0, std::memory_order_relaxed);
    for (auto &[Name, H] : R.Histograms) {
      for (unsigned B = 0; B < HistData::NumBuckets; ++B)
        H.Buckets[B].store(0, std::memory_order_relaxed);
      H.Sum.store(0, std::memory_order_relaxed);
      H.Max.store(0, std::memory_order_relaxed);
    }
  }
  forEachThreadBuf([](ThreadBuf &Buf) {
    Buf.Events.clear();
    Buf.FlightNext = 0;
  });
}

//===- tests/telemetry_test.cpp - Telemetry registry and tracer ------------===//
//
// Exercises the metrics registry under concurrency (counts must be exact,
// not sampled), the span tracer's export format, and the runtime gates.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

using namespace dcb;
using namespace dcb::telemetry;

namespace {

class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    resetForTest();
    setEnabled(true);
  }
  void TearDown() override {
    setEnabled(false);
    resetForTest();
  }
};

} // namespace

TEST_F(TelemetryTest, ConcurrentCounterSumsExactly) {
  Counter &C = counter("test.hammer");
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 20000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&C] {
      for (uint64_t I = 0; I < PerThread; ++I)
        C.add();
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(C.value(), Threads * PerThread);
}

TEST_F(TelemetryTest, ConcurrentHistogramCountsAndSumsExactly) {
  Histogram &H = histogram("test.hammer_hist");
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 20000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&H, T] {
      for (uint64_t I = 0; I < PerThread; ++I)
        H.record(T + 1);
    });
  for (std::thread &T : Pool)
    T.join();
  HistData D = H.snapshot();
  EXPECT_EQ(D.Count, Threads * PerThread);
  // Sum of (T+1) * PerThread for T in [0, Threads).
  EXPECT_EQ(D.Sum, PerThread * Threads * (Threads + 1) / 2);
  EXPECT_EQ(D.Max, Threads);
}

TEST_F(TelemetryTest, HistogramBucketSemantics) {
  Histogram &H = histogram("test.buckets");
  H.record(0); // bucket 0: zero values.
  H.record(1); // bucket 1: bit_width 1.
  H.record(2); // bucket 2.
  H.record(3); // bucket 2.
  H.record(4); // bucket 3.
  HistData D = H.snapshot();
  EXPECT_EQ(D.Buckets[0], 1u);
  EXPECT_EQ(D.Buckets[1], 1u);
  EXPECT_EQ(D.Buckets[2], 2u);
  EXPECT_EQ(D.Buckets[3], 1u);
  EXPECT_EQ(D.Count, 5u);
  EXPECT_EQ(D.Sum, 10u);
  EXPECT_EQ(D.Max, 4u);
}

TEST_F(TelemetryTest, DisabledGateRecordsNothing) {
  setEnabled(false);
  Counter &C = counter("test.gated");
  Histogram &H = histogram("test.gated_hist");
  C.add(42);
  H.record(42);
  {
    ScopedSpan Span("test.gated_span");
  }
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(H.snapshot().Count, 0u);
  setSpansEnabled(true);
  EXPECT_EQ(traceJson().find("test.gated_span"), std::string::npos);
}

TEST_F(TelemetryTest, GaugeLastWriteWins) {
  Gauge &G = gauge("test.gauge");
  G.set(7);
  G.set(3);
  EXPECT_EQ(G.value(), 3);
}

TEST_F(TelemetryTest, TraceJsonIsWellFormedAndMonotonic) {
  {
    DCB_SPAN("test.outer");
    DCB_SPAN("test.inner");
  }
  std::thread([] { DCB_SPAN("test.worker"); }).join();
  std::string J = traceJson();

  // Minimal shape checks; CI additionally runs the output through a real
  // JSON parser (python3 -m json.tool).
  EXPECT_EQ(J.find("{\"traceEvents\": ["), 0u);
  const std::string Tail = "\"displayTimeUnit\": \"ms\"}\n";
  ASSERT_GE(J.size(), Tail.size());
  EXPECT_EQ(J.substr(J.size() - Tail.size()), Tail);
  EXPECT_NE(J.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(J.find("\"test.inner\""), std::string::npos);
  EXPECT_NE(J.find("\"test.worker\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\": \"X\""), std::string::npos);

  // Events are exported sorted by start time.
  double LastTs = -1.0;
  size_t Events = 0;
  for (size_t Pos = J.find("\"ts\": "); Pos != std::string::npos;
       Pos = J.find("\"ts\": ", Pos + 1)) {
    double Ts = std::stod(J.substr(Pos + 6));
    EXPECT_GE(Ts, LastTs);
    LastTs = Ts;
    ++Events;
  }
  EXPECT_EQ(Events, 3u);
}

TEST_F(TelemetryTest, StatsJsonRoundTripsThroughRenderer) {
  counter("test.roundtrip").add(5);
  gauge("test.roundtrip_gauge").set(-2);
  histogram("test.roundtrip_hist").record(100);
  std::string J = statsJson();
  EXPECT_NE(J.find("\"schema\": \"dcb-stats-v1\""), std::string::npos);

  Expected<std::string> Rendered = renderStatsJson(J);
  ASSERT_TRUE(bool(Rendered)) << Rendered.message();
  EXPECT_NE(Rendered->find("test.roundtrip"), std::string::npos);
  EXPECT_EQ(*Rendered, statsTable());
  EXPECT_FALSE(bool(renderStatsJson("not json")));
  EXPECT_FALSE(bool(renderStatsJson("{\"schema\": \"wrong\"}")));
}

TEST_F(TelemetryTest, InterpolatedQuantilesInterpolateWithinBuckets) {
  // histQuantile is a pure function over HistData.
  HistData H;
  EXPECT_EQ(histQuantile(H, 0.5), 0.0); // Empty -> 0.

  // 50 samples in bucket 4 ([8,16)) and 50 in bucket 6 ([32,64)).
  H.Count = 100;
  H.Buckets[4] = 50;
  H.Buckets[6] = 50;
  H.Max = 60;
  H.Sum = 50 * 10 + 50 * 40;
  double P50 = histQuantile(H, 0.50);
  EXPECT_GE(P50, 8.0);
  EXPECT_LE(P50, 16.0); // Rank 50 is the last sample of bucket 4.
  double P90 = histQuantile(H, 0.90);
  EXPECT_GE(P90, 32.0);
  EXPECT_LE(P90, 60.0);
  double P99 = histQuantile(H, 0.99);
  EXPECT_GE(P99, P90); // Monotonic in Q.
  EXPECT_LE(P99, 60.0); // Never exceeds the observed max.

  // A single-bucket histogram interpolates inside that bucket and the
  // error is bounded by the bucket width (a factor of two).
  HistData One;
  One.Count = 100;
  One.Buckets[10] = 100; // [512, 1024).
  One.Max = 1000;
  EXPECT_GE(histQuantile(One, 0.5), 512.0);
  EXPECT_LE(histQuantile(One, 0.5), 1000.0);

  // Bucket 0 holds exactly the value zero.
  HistData Z;
  Z.Count = 10;
  Z.Buckets[0] = 10;
  EXPECT_EQ(histQuantile(Z, 0.99), 0.0);
}

TEST_F(TelemetryTest, PrometheusExpositionShape) {
  counter("test.prom_counter").add(7);
  gauge("test.prom_gauge").set(-3);
  Histogram &H = histogram("test.prom_hist");
  H.record(1);
  H.record(3);
  H.record(1000);
  std::string P = statsProm();

  // Provenance is always present.
  EXPECT_NE(P.find("# TYPE dcb_build_info gauge"), std::string::npos);
  EXPECT_NE(P.find("dcb_build_info{revision="), std::string::npos);
  EXPECT_NE(P.find("dcb_uptime_seconds "), std::string::npos);
  EXPECT_NE(P.find("# TYPE dcb_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(P.find("dcb_test_prom_counter 7\n"), std::string::npos);
  EXPECT_NE(P.find("dcb_test_prom_gauge -3\n"), std::string::npos);
  // Buckets are cumulative with inclusive integer bounds (2^B - 1):
  // 1 -> le="1", 3 -> le="3", 1000 -> le="1023", then +Inf == count.
  EXPECT_NE(P.find("dcb_test_prom_hist_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(P.find("dcb_test_prom_hist_bucket{le=\"3\"} 2\n"),
            std::string::npos);
  EXPECT_NE(P.find("dcb_test_prom_hist_bucket{le=\"1023\"} 3\n"),
            std::string::npos);
  EXPECT_NE(P.find("dcb_test_prom_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(P.find("dcb_test_prom_hist_sum 1004\n"), std::string::npos);
  EXPECT_NE(P.find("dcb_test_prom_hist_count 3\n"), std::string::npos);
}

TEST_F(TelemetryTest, StatsJsonToPromRendersSavedSnapshots) {
  counter("test.prom_rt").add(2);
  histogram("test.prom_rt_hist").record(42);
  Expected<std::string> P = statsJsonToProm(statsJson());
  ASSERT_TRUE(bool(P)) << P.message();
  EXPECT_NE(P->find("dcb_build_info{"), std::string::npos);
  EXPECT_NE(P->find("dcb_test_prom_rt 2\n"), std::string::npos);
  EXPECT_NE(P->find("dcb_test_prom_rt_hist_bucket{le=\"63\"} 1\n"),
            std::string::npos);
  EXPECT_FALSE(bool(statsJsonToProm("not json")));
}

TEST_F(TelemetryTest, FlightRecorderKeepsRecentSpansAndCountsDrops) {
  // The flight recorder works with the ordinary gates off: it shares the
  // span site gate as an OR, so turning it on alone records.
  setEnabled(false);
  setFlightRecorderEnabled(true);
  EXPECT_TRUE(flightRecorderEnabled());
  for (int I = 0; I < 300; ++I) {
    DCB_SPAN("test.flight");
  }
  FlightStats FS = flightStats();
  std::string J = flightTraceJson();
  // Valid Chrome trace_event JSON.
  EXPECT_EQ(J.find("{\"traceEvents\": ["), 0u);
  EXPECT_NE(J.find("\"flightDropped\": "), std::string::npos);
  EXPECT_EQ(FS.Recorded, 300u);
  EXPECT_EQ(FS.Dropped, 300u - 256u); // Ring capacity is 256 per thread.
  // The ring retains exactly the newest 256 spans.
  size_t Events = 0;
  for (size_t Pos = J.find("\"test.flight\""); Pos != std::string::npos;
       Pos = J.find("\"test.flight\"", Pos + 1))
    ++Events;
  EXPECT_EQ(Events, 256u);
  EXPECT_NE(J.find("\"flightDropped\": 44"), std::string::npos);
  // The unbounded trace buffer stayed off.
  EXPECT_EQ(traceJson().find("test.flight"), std::string::npos);
  // Snapshots surface the totals as synthetic counters.
  std::string Stats = statsJson();
  EXPECT_NE(Stats.find("\"telemetry.flight.spans\": 300"),
            std::string::npos);
  EXPECT_NE(Stats.find("\"telemetry.flight.dropped\": 44"),
            std::string::npos);

  // Off again: nothing further records, and one relaxed load is all a
  // disabled span site pays (contract; asserted here only functionally).
  setFlightRecorderEnabled(false);
  { DCB_SPAN("test.flight_off"); }
  EXPECT_EQ(flightStats().Recorded, FS.Recorded);
  EXPECT_EQ(flightTraceJson().find("test.flight_off"), std::string::npos);
}

TEST_F(TelemetryTest, BuildInfoAndProvenanceAreStamped) {
  BuildInfo B = buildInfo();
  EXPECT_FALSE(B.GitRev.empty());
  EXPECT_TRUE(B.BuildType == "release" || B.BuildType == "debug");
  EXPECT_EQ(B.Telemetry, countersEnabled() ? "on" : "off");
  std::string J = statsJson();
  EXPECT_NE(J.find("\"provenance\""), std::string::npos);
  EXPECT_NE(J.find("\"dcb_git_rev\""), std::string::npos);
  EXPECT_NE(J.find("\"uptime_ns\""), std::string::npos);
  // The provenance block round-trips through the stats renderer.
  Expected<std::string> Rendered = renderStatsJson(J);
  ASSERT_TRUE(bool(Rendered)) << Rendered.message();
}

TEST_F(TelemetryTest, ResetZeroesEverything) {
  counter("test.reset").add(9);
  histogram("test.reset_hist").record(9);
  { DCB_SPAN("test.reset_span"); }
  resetForTest();
  EXPECT_EQ(counter("test.reset").value(), 0u);
  EXPECT_EQ(histogram("test.reset_hist").snapshot().Count, 0u);
  EXPECT_EQ(traceJson().find("test.reset_span"), std::string::npos);
}

TEST_F(TelemetryTest, ControlBytesAreEscapedAndReadBack) {
  // JSON forbids raw control bytes in strings, so a provenance value or a
  // metric name holding one is written as \u00XX, and `dcb stats` reads it
  // back.
  const char *Saved = std::getenv("DCB_GIT_REV");
  const std::string Old = Saved ? Saved : "";
  ::setenv("DCB_GIT_REV", "abc\rdef\x01", 1);
  counter("test.ctl\x02name").add(3);
  const std::string J = statsJson();
  const std::string Line = statsJsonLine();
  const std::string Table = statsTable();
  if (Saved)
    ::setenv("DCB_GIT_REV", Old.c_str(), 1);
  else
    ::unsetenv("DCB_GIT_REV");

  for (char C : J)
    EXPECT_TRUE(static_cast<unsigned char>(C) >= 0x20 || C == '\n')
        << "raw control byte " << int(C) << " in " << J;
  for (char C : Line)
    EXPECT_GE(static_cast<unsigned char>(C), 0x20) << Line;
  EXPECT_NE(J.find("\"abc\\u000ddef\\u0001\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"test.ctl\\u0002name\": 3"), std::string::npos) << J;

  Expected<std::string> Rendered = renderStatsJson(J);
  ASSERT_TRUE(bool(Rendered)) << Rendered.message();
  EXPECT_EQ(*Rendered, Table);
  EXPECT_NE(Rendered->find("rev=abc\rdef\x01 "), std::string::npos);

  // A \u escape cut short, or naming a code point past ASCII, is malformed.
  for (const char *Bad : {"\\u00", "\\u00zz", "\\u00e9"})
    EXPECT_FALSE(bool(renderStatsJson(
        std::string("{\"schema\": \"dcb-stats-v1\", \"counters\": {\"a") +
        Bad + "\": 1}}")))
        << Bad;
}

//===- perfbench/src/Trace.cpp --------------------------------------------===//

#include "Trace.h"
#include "Measure.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace dcb {
namespace perfbench {

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

size_t Tracer::open(const char *Name, uint64_t Unit) {
  Record R;
  R.Name = Name;
  R.Parent = Stack.empty() ? -1 : static_cast<int64_t>(Stack.back());
  R.Unit = Unit;
  if (R.Parent >= 0 && Unit == 0)
    R.Unit = Spans[static_cast<size_t>(R.Parent)].Unit;
  Spans.push_back(R);
  Stack.push_back(Spans.size() - 1);
  Spans.back().Start = nowNs();
  return Spans.size() - 1;
}

void Tracer::close(size_t Idx) {
  Spans[Idx].End = nowNs();
  if (!Stack.empty() && Stack.back() == Idx)
    Stack.pop_back();
}

void Tracer::add(const char *Name, uint64_t Start, uint64_t End,
                 uint64_t Unit, uint32_t Tid) {
  Record R;
  R.Name = Name;
  R.Start = Start;
  R.End = End;
  R.Unit = Unit;
  R.Tid = Tid;
  Spans.push_back(R);
}

std::string moduleOf(const std::string &SpanName) {
  return SpanName.substr(0, SpanName.find('.'));
}

void setTracing(bool On) {
  Tracer::get().setOn(On);
  telemetry::setCountersEnabled(On);
}

std::vector<double> splitTraced(const std::vector<double> &UnitMs,
                                const std::vector<bool> &Traced, Result &R) {
  std::vector<double> Plain, WithSpans;
  for (size_t I = 0; I < UnitMs.size(); ++I)
    (Traced[I] ? WithSpans : Plain).push_back(UnitMs[I]);
  if (Plain.empty())
    return UnitMs;
  if (!WithSpans.empty()) {
    R.HasOverhead = true;
    R.TracingOverhead = median(WithSpans) / median(Plain) - 1;
  }
  return Plain;
}

std::vector<ModuleTime> Tracer::selfTimes(uint64_t From, uint64_t To) const {
  // Children of a span are disjoint (one thread, strictly nested), so a
  // span's self time is its duration minus the sum of its children's.
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Record &R : Spans)
    if (R.Parent >= 0 && R.End >= R.Start)
      ChildNs[static_cast<size_t>(R.Parent)] += R.End - R.Start;
  std::map<std::string, uint64_t> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Record &R = Spans[I];
    if (R.Start < From || R.Start >= To || R.End < R.Start)
      continue;
    uint64_t Dur = R.End - R.Start;
    Self[moduleOf(R.Name)] += Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
  }
  std::vector<ModuleTime> Out;
  for (const auto &[Module, Ns] : Self)
    Out.push_back({Module, static_cast<double>(Ns) / 1e6});
  std::sort(Out.begin(), Out.end(), [](const ModuleTime &A,
                                       const ModuleTime &B) {
    return A.Ms > B.Ms;
  });
  return Out;
}

double Tracer::totalMs(const std::string &Name, uint64_t From,
                       uint64_t To) const {
  uint64_t Ns = 0;
  for (const Record &R : Spans)
    if (R.Start >= From && R.Start < To && Name == R.Name && R.End >= R.Start)
      Ns += R.End - R.Start;
  return static_cast<double>(Ns) / 1e6;
}

std::string Tracer::chromeJson() const {
  uint64_t Base = ~uint64_t(0);
  for (const Record &R : Spans)
    Base = std::min(Base, R.Start);
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char Buf[256];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Record &R = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"unit\":%llu,\"parent\":%lld}}",
                  I ? "," : "", R.Name, moduleOf(R.Name).c_str(),
                  static_cast<double>(R.Start - Base) / 1e3,
                  static_cast<double>(R.End - R.Start) / 1e3, R.Tid,
                  static_cast<unsigned long long>(R.Unit),
                  static_cast<long long>(R.Parent));
    Out += Buf;
  }
  Out += "]}\n";
  return Out;
}

} // namespace perfbench
} // namespace dcb

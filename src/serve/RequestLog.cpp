//===- serve/RequestLog.cpp -----------------------------------------------===//

#include "serve/RequestLog.h"

#include <cinttypes>

#include "serve/Json.h"
#include "support/Telemetry.h"

using namespace dcb;
using namespace dcb::serve;

namespace {

struct ReqLogTelemetry {
  telemetry::Counter &Records = telemetry::counter("serve.reqlog.records");
  telemetry::Counter &Suppressed =
      telemetry::counter("serve.reqlog.suppressed");
} Tel;

} // namespace

RequestLog::~RequestLog() {
  if (Out)
    std::fclose(Out);
}

Error RequestLog::open(const std::string &Path, uint64_t SlowThresholdNs) {
  Out = std::fopen(Path.c_str(), "a");
  if (!Out)
    return Error::failure("request log: cannot open '" + Path + "'");
  SlowNs = SlowThresholdNs;
  return Error::success();
}

void RequestLog::append(const Record &R) {
  if (!Out)
    return;
  if (SlowNs && R.ServiceNs < SlowNs) {
    Suppressed.fetch_add(1, std::memory_order_relaxed);
    Tel.Suppressed.add();
    return;
  }
  std::string Line;
  Line.reserve(192);
  char Buf[256];
  Line += "{\"schema\":\"dcb-reqlog-v1\",\"req\":";
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, R.Id);
  Line += Buf;
  Line += ",\"op\":";
  json::appendString(Line, R.Op);
  Line += ",\"outcome\":";
  json::appendString(Line, R.Outcome);
  Line += ",\"status\":";
  json::appendString(Line, R.Status);
  std::snprintf(Buf, sizeof(Buf),
                ",\"queue_wait_ns\":%" PRIu64 ",\"service_ns\":%" PRIu64
                ",\"bytes_in\":%" PRIu64 ",\"bytes_out\":%" PRIu64 "}\n",
                R.QueueWaitNs, R.ServiceNs, R.BytesIn, R.BytesOut);
  Line += Buf;

  {
    std::lock_guard<std::mutex> Lock(M);
    std::fwrite(Line.data(), 1, Line.size(), Out);
    std::fflush(Out);
  }
  Written.fetch_add(1, std::memory_order_relaxed);
  Tel.Records.add();
}

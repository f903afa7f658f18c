//===- bench/BenchContext.cpp - Build-provenance for bench JSON ------------===//
//
// The distro's google-benchmark library is a Debug build, so the
// "library_build_type" field in every --benchmark_out JSON says "debug"
// regardless of how THIS project was compiled — which silently mislabels
// results. Record the truth about the benchmark binary itself instead:
// scripts/run_benches.sh refuses to publish results whose
// "dcb_build_type" is not "release".
//
// The same context block carries the rest of the provenance story:
// - dcb_git_rev / dcb_git_dirty: stamped from the DCB_GIT_REV /
//   DCB_GIT_DIRTY environment variables exported by scripts/run_benches.sh,
//   so a BENCH_*.json can always be traced to the exact tree it measured.
// - dcb_telemetry: always "off": benches time the libraries with every
//   telemetry gate closed.
// - dcb_telemetry_snapshot: added by addTelemetryContext() after the
//   report section runs, capturing the setup phase's counter values.
//
// A global constructor is safe here: AddCustomContext appends to a plain
// zero-initialized pointer inside the library, with no static-init-order
// hazard, and runs before main() parses --benchmark_out.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include <benchmark/benchmark.h>

#include <cstdlib>

namespace {

struct RegisterBuildType {
  RegisterBuildType() {
#ifdef NDEBUG
    benchmark::AddCustomContext("dcb_build_type", "release");
#else
    benchmark::AddCustomContext("dcb_build_type", "debug");
#endif
    const char *Rev = std::getenv("DCB_GIT_REV");
    benchmark::AddCustomContext("dcb_git_rev", Rev ? Rev : "unknown");
    const char *Dirty = std::getenv("DCB_GIT_DIRTY");
    benchmark::AddCustomContext("dcb_git_dirty", Dirty ? Dirty : "unknown");
    benchmark::AddCustomContext("dcb_telemetry", "off");
  }
} Registrar;

} // namespace

namespace dcb {
namespace bench {

void addTelemetryContext() {
  benchmark::AddCustomContext("dcb_telemetry_snapshot",
                              telemetry::statsCompact());
}

} // namespace bench
} // namespace dcb

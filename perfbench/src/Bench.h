//===- perfbench/src/Bench.h - Shared benchmark types -----------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the four benchmark workloads (learn, rewrite, serve,
/// cli): the run configuration, the result every workload fills in, and
/// the compiled suite every workload draws its inputs from.
///
/// The benchmark measures the repository's modules from outside: it times
/// calls into their public functions, and for the daemon it uses the wire
/// protocol and the `stats` op. Nothing here adds instrumentation inside
/// the libraries.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_PERFBENCH_BENCH_H
#define DCB_PERFBENCH_BENCH_H

#include "analyzer/IsaAnalyzer.h"
#include "elf/Cubin.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dcb {
namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Prints \p Msg to stderr and exits 2: a broken benchmark set-up, not a
/// failed output check (those are counted in Result::Failed).
[[noreturn]] void fatal(const std::string &Msg);

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// A short run (one unit or a fraction of a second) used by another
  /// workload's traced run to fill in this workload's per-layer metrics.
  bool Probe = false;
  std::string Dcb;     ///< The `dcb` binary the serve and cli workloads run.
  std::string WorkDir; ///< Scratch files (databases, listings, traces).
  unsigned Lanes = 1;  ///< `nproc`: rewrite's reference pass, checks.
  double ServeRate = 0; ///< Fixed offered rate of serve phase 1, req/s.
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Self time of one module inside the timed window (traced runs).
struct ModuleTime {
  std::string Module;
  double Ms = 0;
};

struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// End-to-end metrics: p5_ms (learn, rewrite) or p50_ms (serve, cli),
  /// then rate_per_s, setup_s and peak_rss_mb.
  std::vector<Metric> EndToEnd;
  /// The same numbers under the names the workload's own reading uses
  /// (pass_ms, words_per_s, max_rps ...), printed in the report.
  std::vector<Metric> Named;
  std::vector<Metric> Layers;
  /// Workload properties printed beside the metrics: corpus shape, op mix,
  /// sample counts behind percentiles.
  std::vector<std::string> Properties;
  std::vector<std::string> FailureNotes;
  std::vector<ModuleTime> Modules;
  double TimedWallMs = 0; ///< Wall time the module table divides.
  double TracingOverhead = 0; ///< traced/untraced - 1 on the headline metric.
  bool HasOverhead = false;

  /// Counts one checked output; a false \p Ok is a failure with \p What.
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (FailureNotes.size() < 20)
        FailureNotes.push_back(What);
    }
  }
  void e2e(const std::string &Name, double Value, const std::string &Unit) {
    EndToEnd.push_back({Name, Value, Unit});
  }
  void named(const std::string &Name, double Value, const std::string &Unit) {
    Named.push_back({Name, Value, Unit});
  }
  void layer(const std::string &Name, double Value, const std::string &Unit) {
    Layers.push_back({Name, Value, Unit});
  }
  void property(const std::string &Text) { Properties.push_back(Text); }
};

/// One supported architecture's compiled benchmark suite: the paper's
/// fixed inputs, produced by the simulated vendor compiler.
struct SuiteArch {
  Arch A = Arch::SM35;
  elf::Cubin Cubin;
  std::vector<uint8_t> Image;
  /// Kernels the VM runs to completion (others, such as the indirect
  /// branch in `reduction`, are refused by the VM).
  std::vector<std::string> ExecClean;
  size_t Words = 0; ///< Instruction words in the suite, SCHI included.
};

/// The 8 fully supported architectures.
std::vector<Arch> benchArchs();

/// Compiles the suite for every architecture once per process.
const std::vector<SuiteArch> &suites();
const SuiteArch &suiteFor(Arch A);

/// Instruction words in a kernel's code bytes.
size_t wordCount(Arch A, const std::vector<uint8_t> &Code);

/// Learns the flipped encoding database for one architecture: the learn
/// workload's steps without timing. Used to make the databases the other
/// workloads read.
analyzer::EncodingDatabase learnDatabase(const SuiteArch &S);

/// The workloads. Each measures for Cfg.Seconds (or one short unit in
/// probe mode) and fills \p R.
void runLearn(const RunConfig &Cfg, Result &R);
void runRewrite(const RunConfig &Cfg, Result &R);
void runServe(const RunConfig &Cfg, Result &R);
void runCli(const RunConfig &Cfg, Result &R);

/// One daemon start, from spawn until `health` reports ready, in seconds.
/// \p Tag keeps concurrent port files apart.
double serveSetupProbe(const RunConfig &Cfg, unsigned Tag);

/// Writes \p Bytes to \p Path or exits via fatal().
void writeFileOrDie(const std::string &Path, const std::string &Bytes);
std::string readFileOrDie(const std::string &Path);

/// Paths of the files the serve and cli workloads hand to `dcb`.
std::string dbPath(const RunConfig &Cfg, Arch A);
std::string cubinPath(const RunConfig &Cfg, Arch A);
std::string listingPath(const RunConfig &Cfg, Arch A);

/// Writes each architecture's learned database, suite cubin and suite
/// listing into the work directory (once per process).
void writeSuiteFiles(const RunConfig &Cfg);

} // namespace perfbench
} // namespace dcb

#endif // DCB_PERFBENCH_BENCH_H

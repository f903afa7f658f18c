//===- perfbench/src/Measure.h - Percentiles, memory, children --*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef DCB_PERFBENCH_MEASURE_H
#define DCB_PERFBENCH_MEASURE_H

#include "support/Telemetry.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dcb {
namespace perfbench {

double median(std::vector<double> V);

/// The quantile of pass times learn and rewrite report as p5_ms. On a
/// shared virtual machine, other guests slow a pass by up to 1.6x for
/// seconds at a time, and how much of a run falls in such spells changes
/// from run to run: ten 40-second runs of one build read median passes
/// 22% (learn) and 20% (rewrite) apart, interquartile range over median,
/// and 5th percentiles 9% and 5% apart. Contention only ever adds time, so
/// the fast end of a run reads the program's own cost; at 40 s a run has
/// about ten passes below it.
constexpr double FastQuantile = 0.05;

/// The tail a sample set can support: the highest whole percentile, at
/// most 99, with at least ten samples beyond it (nearest rank).
struct Tail {
  double Value = 0;
  unsigned Percentile = 0;
  size_t Samples = 0;
  size_t Beyond = 0;
};
Tail tail(std::vector<double> V);

/// Nearest-rank quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);

/// Samples ranked below quantile(V, Q) when V holds \p N samples.
size_t samplesBelow(size_t N, double Q);

/// The samples a histogram took between two snapshots. Max stays the
/// later snapshot's: an upper cap, since the window's own is not kept.
telemetry::HistData histDelta(const telemetry::HistData &After,
                              const telemetry::HistData &Before);

/// Peak resident set of this process, in MB.
double selfPeakRssMb();

/// Outcome of one child process run to completion.
struct ChildRun {
  int Exit = -1;        ///< Exit code, or 128 + signal.
  std::string Stdout;
  std::string Stderr;
  double PeakRssMb = 0; ///< The child's own peak resident set.
  double WallMs = 0;    ///< Spawn to reaped.
};

/// Runs \p Argv (Argv[0] is a path) and captures both output streams.
ChildRun runChild(const std::vector<std::string> &Argv);

/// A child left running (the daemon). The destructor kills and reaps it.
class Daemon {
public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Starts \p Argv with stdout and stderr discarded.
  void start(const std::vector<std::string> &Argv);
  bool running() const { return Pid > 0; }
  /// Waits for exit (after a `shutdown` request) and returns the child's
  /// peak resident set in MB; kills it after \p TimeoutMs.
  double wait(unsigned TimeoutMs);

private:
  int Pid = -1;
};

} // namespace perfbench
} // namespace dcb

#endif // DCB_PERFBENCH_MEASURE_H

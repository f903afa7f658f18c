//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
//
// perfbench --workload learn|rewrite|serve|cli --seed N --seconds S
//           --trace 0|1 --dcb <dcb binary> --work <dir> --serve-rate R
//
// Runs one workload and prints a report followed, as the last line, by one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs report the per-layer metrics,
// the per-module self-time table and the tracing overhead, and write the
// spans as Chrome trace_event JSON to <work>/trace.json. Exits 1 when any
// output check failed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Measure.h"
#include "Trace.h"

#include "vendor/CuobjdumpSim.h"

#include <cstdio>
#include <thread>

using namespace dcb;
using namespace dcb::perfbench;

namespace {

/// Fresh processes (or daemons) per run; setup_s is their median.
constexpr unsigned SetupSamples = 9;

const char *const Workloads[] = {"learn", "rewrite", "serve", "cli"};

void runWorkload(const std::string &Name, const RunConfig &Cfg, Result &R) {
  if (Name == "learn")
    runLearn(Cfg, R);
  else if (Name == "rewrite")
    runRewrite(Cfg, R);
  else if (Name == "serve")
    runServe(Cfg, R);
  else
    runCli(Cfg, R);
}

/// The set-up a workload pays before its first timed unit, measured inside
/// a fresh process: decode-table freezing, plus loading and freezing every
/// learned database for the workloads that read them.
double setupInThisProcess(const RunConfig &Cfg) {
  uint64_t T0 = nowNs();
  vendor::warmDecodeTables();
  if (Cfg.Workload != "learn")
    for (Arch A : benchArchs()) {
      Expected<analyzer::EncodingDatabase> Db =
          analyzer::EncodingDatabase::deserialize(readFileOrDie(dbPath(Cfg, A)));
      if (!Db)
        fatal(Db.message());
      Db->freeze();
    }
  return static_cast<double>(nowNs() - T0) / 1e9;
}

double measureSetup(const RunConfig &Cfg, const std::string &Self) {
  std::vector<double> Samples;
  for (unsigned I = 0; I < SetupSamples; ++I) {
    if (Cfg.Workload == "serve") {
      Samples.push_back(serveSetupProbe(Cfg, I + 1));
      continue;
    }
    ChildRun Run = runChild({Self, "--setup-probe", "--workload",
                             Cfg.Workload, "--work", Cfg.WorkDir});
    if (Run.Exit != 0)
      fatal("set-up probe failed: " + Run.Stderr);
    Samples.push_back(std::strtod(Run.Stdout.c_str(), nullptr));
  }
  return median(Samples);
}

const Metric *find(const std::vector<Metric> &Ms, const std::string &Name) {
  for (const Metric &M : Ms)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

void printReport(const std::string &Name, const RunConfig &Cfg,
                 const Result &R) {
  std::printf("== %s (seed %llu, %.1f s, trace %d)\n", Name.c_str(),
              static_cast<unsigned long long>(Cfg.Seed), Cfg.Seconds,
              Cfg.Trace ? 1 : 0);
  for (const std::string &P : R.Properties)
    std::printf("  %s\n", P.c_str());
  for (const Metric &M : R.Named)
    std::printf("  %-34s %14.4f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  for (const Metric &M : R.EndToEnd)
    std::printf("  %-34s %14.4f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("  %-34s %14.4f ratio (%llu failed / %llu attempted)\n",
              "fail_ratio",
              R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 0.0,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  for (const std::string &F : R.FailureNotes)
    std::printf("  FAILED: %s\n", F.c_str());
  if (!Cfg.Trace)
    return;
  std::printf("  -- self time by module (%.1f ms timed wall)\n",
              R.TimedWallMs);
  // "bench.*" spans are the benchmark's own loop; their self time is part
  // of the unattributed remainder.
  double Covered = 0;
  for (const ModuleTime &M : R.Modules) {
    if (M.Module == "bench")
      continue;
    std::printf("  %-34s %12.2f ms %6.1f%%\n", M.Module.c_str(), M.Ms,
                100.0 * M.Ms / R.TimedWallMs);
    Covered += M.Ms;
  }
  std::printf("  %-34s %12.2f ms %6.1f%%\n", "(unattributed)",
              R.TimedWallMs - Covered,
              100.0 * (R.TimedWallMs - Covered) / R.TimedWallMs);
  if (R.HasOverhead)
    std::printf("  tracing overhead on the median unit: %+.2f%% (traced "
                "against untraced units, interleaved)\n",
                100.0 * R.TracingOverhead);
  else
    std::printf("  tracing overhead on p50_ms: none in the timed phase "
                "(request spans are built afterwards)\n");
  for (const Metric &M : R.Layers)
    std::printf("  %-44s %14.4f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
}

std::string resultJson(const Result &R, const std::vector<Metric> &Ms) {
  std::string Out = "{\"correct\": ";
  Out += R.Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + Ms[I].Name + "\": {\"value\": " + number(Ms[I].Value) +
           ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  return Out + "}}";
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload learn|rewrite|serve|cli "
               "--seed N --seconds S --trace 0|1 --dcb PATH --work DIR "
               "--serve-rate R\n");
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  Cfg.Lanes = std::max(1u, std::thread::hardware_concurrency());
  bool SetupProbe = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--setup-probe") {
      SetupProbe = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage();
    std::string V = Argv[++I];
    if (Arg == "--workload")
      Cfg.Workload = V;
    else if (Arg == "--seed")
      Cfg.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      Cfg.Seconds = std::strtod(V.c_str(), nullptr);
    else if (Arg == "--trace")
      Cfg.Trace = V == "1";
    else if (Arg == "--dcb")
      Cfg.Dcb = V;
    else if (Arg == "--work")
      Cfg.WorkDir = V;
    else if (Arg == "--serve-rate")
      Cfg.ServeRate = std::strtod(V.c_str(), nullptr);
    else
      usage();
  }
  bool Known = false;
  for (const char *W : Workloads)
    Known |= Cfg.Workload == W;
  if (!Known || Cfg.WorkDir.empty() || Cfg.Seconds <= 0)
    usage();

  if (SetupProbe) {
    std::printf("%.9f\n", setupInThisProcess(Cfg));
    return 0;
  }
  if (Cfg.Dcb.empty() || Cfg.ServeRate <= 0)
    usage();

  // Inputs first (the fixed suite, learned databases, generated files);
  // none of this is timed.
  suites();
  if (Cfg.Workload != "learn")
    writeSuiteFiles(Cfg);
  double SetupS = measureSetup(Cfg, Argv[0]);
  vendor::warmDecodeTables();

  Result R;
  runWorkload(Cfg.Workload, Cfg, R);
  if (Cfg.Trace) {
    // One short probe of every other workload fills in their per-layer
    // metrics, so each traced run reports all of them.
    for (const char *W : Workloads) {
      if (Cfg.Workload == W)
        continue;
      RunConfig P = Cfg;
      P.Workload = W;
      P.Probe = true;
      Result Companion;
      runWorkload(W, P, Companion);
      R.Attempted += Companion.Attempted;
      R.Failed += Companion.Failed;
      for (const std::string &F : Companion.FailureNotes)
        R.FailureNotes.push_back(std::string(W) + ": " + F);
      R.Layers.insert(R.Layers.end(), Companion.Layers.begin(),
                      Companion.Layers.end());
    }
    writeFileOrDie(Cfg.WorkDir + "/trace.json", Tracer::get().chromeJson());
  }
  R.e2e("setup_s", SetupS, "s");
  if (!find(R.EndToEnd, "peak_rss_mb"))
    R.e2e("peak_rss_mb", selfPeakRssMb(), "MB");

  printReport(Cfg.Workload, Cfg, R);
  std::printf("%s\n", resultJson(R, Cfg.Trace ? R.Layers : R.EndToEnd).c_str());
  std::fflush(stdout);
  return R.Failed == 0 ? 0 : 1;
}

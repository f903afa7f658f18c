//===- perfbench/src/Cli.cpp - The one-shot command workload --------------===//
//
// cli: a closed loop running one `dcb` child process at a time -- `dcb
// disasm <suite cubin>`, `dcb asm --db <db> <listing>` or `dcb lint --json
// <cubin>` on a seeded architecture -- and comparing its stdout with the
// same serve::op* run in-process. Start-up is most of each run: process
// start, decode-table freeze, database load and freeze, ELF read.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Measure.h"
#include "Trace.h"

#include "serve/Json.h"
#include "serve/Ops.h"
#include "support/Rng.h"

#include <cstdio>

namespace dcb {
namespace perfbench {

namespace {

enum class Cmd { Disasm, Asm, Lint };
constexpr const char *CmdNames[3] = {"disasm", "asm", "lint"};
/// The in-process module each command's op spends its time in.
constexpr const char *CmdModules[3] = {"vendor", "asmgen", "analysis"};

std::vector<std::string> argvFor(const RunConfig &Cfg, Cmd C, Arch A) {
  switch (C) {
  case Cmd::Disasm:
    return {Cfg.Dcb, "disasm", cubinPath(Cfg, A)};
  case Cmd::Asm:
    return {Cfg.Dcb, "asm", "--db", dbPath(Cfg, A), listingPath(Cfg, A)};
  case Cmd::Lint:
    return {Cfg.Dcb, "lint", "--json", cubinPath(Cfg, A)};
  }
  return {};
}

analyzer::EncodingDatabase loadDb(const RunConfig &Cfg, Arch A) {
  Expected<analyzer::EncodingDatabase> Db =
      analyzer::EncodingDatabase::deserialize(readFileOrDie(dbPath(Cfg, A)));
  if (!Db)
    fatal(Db.message());
  return Db.takeValue();
}

/// The in-process op a command routes through, on the same input.
serve::OpResult inProcess(const RunConfig &Cfg, Cmd C, Arch A,
                          const analyzer::EncodingDatabase &Db) {
  Expected<serve::OpResult> R = Failure("unset");
  switch (C) {
  case Cmd::Disasm: {
    std::string Bytes = readFileOrDie(cubinPath(Cfg, A));
    R = serve::opDisasm(std::vector<uint8_t>(Bytes.begin(), Bytes.end()),
                        vendor::DisasmOptions());
    break;
  }
  case Cmd::Asm:
    R = serve::opAsm(Db, readFileOrDie(listingPath(Cfg, A)), BatchOptions());
    break;
  case Cmd::Lint:
    R = serve::opLint(readFileOrDie(cubinPath(Cfg, A)), cubinPath(Cfg, A));
    break;
  }
  if (!R)
    fatal(std::string("in-process ") + CmdNames[static_cast<int>(C)] + ": " +
          R.message());
  return R.takeValue();
}

/// Sum of a histogram in a dcb-stats-v1 document, or 0.
double histogramSum(const std::string &Json, const std::string &Name) {
  Expected<serve::json::Value> V = serve::json::parse(Json);
  if (!V)
    return 0;
  const serve::json::Value *Hists = V->field("histograms");
  const serve::json::Value *H = Hists ? Hists->field(Name) : nullptr;
  return H ? static_cast<double>(H->num("sum")) : 0;
}

} // namespace

void runCli(const RunConfig &Cfg, Result &R) {
  writeSuiteFiles(Cfg);
  std::vector<Arch> Archs = benchArchs();
  std::map<Arch, analyzer::EncodingDatabase> Dbs;
  for (Arch A : Archs)
    Dbs.emplace(A, loadDb(Cfg, A));
  // Expected stdout and exit code of every (command, arch) pair.
  std::map<std::pair<int, Arch>, serve::OpResult> Expect;
  for (int C = 0; C < 3; ++C)
    for (Arch A : Archs)
      Expect[{C, A}] = inProcess(Cfg, static_cast<Cmd>(C), A, Dbs.at(A));

  Rng Pick(Cfg.Seed);
  std::vector<double> WallMs;
  std::vector<bool> Traced;
  std::vector<double> CmdMs[3];
  double PeakRss = 0;
  size_t Count[3] = {};
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(Cfg.Seconds * 1e9);
  for (uint64_t I = 1;; ++I) {
    Arch A = Archs[Pick.below(Archs.size())];
    int C = static_cast<int>(Pick.below(3));
    Traced.push_back(tracedUnit(Cfg, I));
    setTracing(Traced.back());
    ChildRun Run;
    {
      Span Sp("bench.invocation", I);
      Run = runChild(argvFor(Cfg, static_cast<Cmd>(C), A));
    }
    const serve::OpResult &E = Expect.at({C, A});
    R.check(Run.Exit == E.Exit && Run.Stdout == E.Output,
            std::string("dcb ") + CmdNames[C] + " " + archName(A) +
                ": exit " + std::to_string(Run.Exit) +
                (Run.Stdout == E.Output ? "" : ", stdout differs"));
    WallMs.push_back(Run.WallMs);
    CmdMs[C].push_back(Run.WallMs);
    ++Count[C];
    PeakRss = std::max(PeakRss, Run.PeakRssMb);
    if ((Cfg.Probe && I >= 6) || nowNs() >= Deadline)
      break;
  }
  setTracing(false);
  uint64_t End = nowNs();

  std::vector<double> Plain = splitTraced(WallMs, Traced, R);
  double P50 = median(Plain);
  Tail Tl = tail(Plain);
  R.e2e("p50_ms", P50, "ms");
  // Like learn and rewrite: the rate at the median unit. The loop's mean
  // rate follows the tail, which moves far more between identical runs.
  R.e2e("rate_per_s", 1e3 / P50, "1/s");
  R.e2e("peak_rss_mb", PeakRss, "MB");
  R.named("p99_ms", Tl.Value, "ms");
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "invocations: %zu (disasm %zu, asm %zu, lint %zu); tail = p%u "
                "with %zu samples beyond",
                WallMs.size(), Count[0], Count[1], Count[2], Tl.Percentile,
                Tl.Beyond);
  R.property(Buf);
  std::snprintf(Buf, sizeof(Buf), "p50 by command: disasm %.3f ms, asm %.3f "
                                  "ms, lint %.3f ms",
                median(CmdMs[0]), median(CmdMs[1]), median(CmdMs[2]));
  R.property(Buf);

  if (!Cfg.Trace)
    return;
  // Start-up floor: `dcb` with no command (usage, exit 2).
  std::vector<double> Floor;
  for (int I = 0; I < 20; ++I)
    Floor.push_back(runChild({Cfg.Dcb}).WallMs);
  // Decode-table freezing, from the child's own telemetry.
  std::vector<double> Freeze;
  for (Arch A : Archs) {
    std::string Stats = Cfg.WorkDir + "/cli-stats.json";
    std::vector<std::string> Argv = argvFor(Cfg, Cmd::Disasm, A);
    Argv.push_back("--stats=" + Stats);
    ChildRun Run = runChild(Argv);
    R.check(Run.Exit == 0, "dcb disasm --stats failed");
    Freeze.push_back(histogramSum(readFileOrDie(Stats),
                                  "isa.freeze_decode_ns") / 1e6);
  }
  // Database load and freeze, and each op, in-process on the same inputs.
  std::vector<double> DbLoad;
  for (Arch A : Archs)
    for (int Rep = 0; Rep < 3; ++Rep) {
      uint64_t T0 = nowNs();
      loadDb(Cfg, A).freeze();
      DbLoad.push_back(static_cast<double>(nowNs() - T0) / 1e6);
    }
  double OpMs[3] = {};
  for (int C = 0; C < 3; ++C) {
    std::vector<double> Ms;
    for (int Rep = 0; Rep < 3; ++Rep)
      for (Arch A : Archs) {
        uint64_t T0 = nowNs();
        serve::OpResult Out = inProcess(Cfg, static_cast<Cmd>(C), A, Dbs.at(A));
        Ms.push_back(static_cast<double>(nowNs() - T0) / 1e6);
        R.check(Out.Output == Expect.at({C, A}).Output,
                "in-process op is not deterministic");
      }
    OpMs[C] = median(Ms);
  }
  R.layer("cli.p99_ms", Tl.Value, "ms");
  R.layer("cli.floor_ms", median(Floor), "ms");
  R.layer("isa.freeze_ms", median(Freeze), "ms");
  R.layer("analyzer.db_load_ms", median(DbLoad), "ms");
  for (int C = 0; C < 3; ++C)
    R.layer(std::string("cli.op_ms.") + CmdNames[C], OpMs[C], "ms");

  // The module table: each invocation's in-process op time goes to the
  // module that op runs in; the rest of the child's wall time is start-up.
  R.TimedWallMs = static_cast<double>(End - Start) / 1e6;
  double OpTotal = 0;
  for (int C = 0; C < 3; ++C) {
    double Ms = OpMs[C] * static_cast<double>(Count[C]);
    R.Modules.push_back({CmdModules[C], Ms});
    OpTotal += Ms;
  }
  double Children = 0;
  for (double Ms : WallMs)
    Children += Ms;
  R.Modules.push_back({"startup", Children - OpTotal});
}

} // namespace perfbench
} // namespace dcb

//===- tools/dcb.cpp - The framework's command-line driver -----------------===//
//
// One binary exposing the artifact's workflow steps (§A.E) as subcommands,
// so the paper's procExes.sh pipeline can be reproduced from a shell:
//
//   dcb make-suite <arch> -o suite.cubin     compile the benchmark suite
//                                            (the closed-source compiler's
//                                            role; replace with real cubins
//                                            when a CUDA toolchain exists)
//   dcb disasm <cubin> [--jobs N]            cuobjdump-style listing
//   dcb analyze <listing> [--db in] -o out   run the ISA Analyzer
//   dcb flip <cubin> --db in -o out          bit-flip enrichment rounds
//   dcb genasm --db db -o asm2bin.cpp        emit the C++ assembler (Alg. 3)
//   dcb asm --db db [--jobs N] <listing>     reassemble, print hex words
//   dcb verify --db db [--jobs N] <listing>  reassemble + compare binary
//   dcb ir <cubin> <kernel>                  human-readable IR dump
//   dcb instrument <cubin> --db db --clear-regs 9,10 -o out.cubin
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "analysis/DbLint.h"
#include "analysis/Findings.h"
#include "analysis/Hazards.h"
#include "analysis/Liveness.h"
#include "analysis/RegModel.h"
#include "analysis/TypeInference.h"
#include "analysis/TypedCheckers.h"
#include "analyzer/BitFlipper.h"
#include "analyzer/IsaAnalyzer.h"
#include "asmgen/AssemblerGenerator.h"
#include "asmgen/TableAssembler.h"
#include "ir/Builder.h"
#include "ir/Layout.h"
#include "serve/Client.h"
#include "serve/Ops.h"
#include "serve/Server.h"
#include "transform/Passes.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/IsaLint.h"
#include "vendor/NvccSim.h"
#include "vm/Differ.h"
#include "workloads/Suite.h"

#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <thread>
#include <sstream>

using namespace dcb;

namespace {

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "dcb: %s\n", Msg.c_str());
  std::exit(1);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot open " + Path);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

std::vector<uint8_t> readBinary(const std::string &Path) {
  std::string Text = readFile(Path);
  return std::vector<uint8_t>(Text.begin(), Text.end());
}

void writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    die("cannot write " + Path);
  Out << Contents;
}

void writeBinary(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  writeFile(Path, std::string(Bytes.begin(), Bytes.end()));
}

/// Tiny argument cursor.
struct Args {
  std::vector<std::string> Positional;
  std::map<std::string, std::string> Options;

  static Args parse(int Argc, char **Argv, int Start) {
    Args A;
    for (int I = Start; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg.rfind("--", 0) == 0 || Arg == "-o") {
        std::string Key = Arg == "-o" ? "--out" : Arg;
        // --key=value binds the value inline; a few flags are also legal
        // bare (--stats prints to stderr, --json prints to stdout, the
        // mode/disable switches take no value at all).
        size_t Eq = Key.find('=');
        if (Eq != std::string::npos) {
          A.Options[Key.substr(0, Eq)] = Key.substr(Eq + 1);
          continue;
        }
        if (Key == "--stats" || Key == "--json" || Key == "--liveness" ||
            Key == "--hazards" || Key == "--no-verify" || Key == "--regs" ||
            Key == "--types" || Key == "--bounds" || Key == "--races" ||
            Key == "--watch-shared") {
          A.Options[Key] = "";
          continue;
        }
        if (I + 1 >= Argc)
          die("option " + Arg + " needs a value");
        A.Options[Key] = Argv[++I];
      } else {
        A.Positional.push_back(Arg);
      }
    }
    return A;
  }

  std::string need(const std::string &Key) const {
    auto It = Options.find(Key);
    if (It == Options.end())
      die("missing required option " + Key);
    return It->second;
  }
  std::optional<std::string> get(const std::string &Key) const {
    auto It = Options.find(Key);
    if (It == Options.end())
      return std::nullopt;
    return It->second;
  }
};

/// Reads flag \p Key, when given, into \p Slot. A value that is not an
/// integer in [\p Min, \p Max] dies, and \p Max defaults to the largest
/// value \p Slot holds, so no value is truncated. The one parser of dcb's
/// numeric flags.
template <typename T>
void uintFlag(const Args &A, const char *Key, T &Slot, uint64_t Min = 1,
              uint64_t Max = std::numeric_limits<T>::max()) {
  if (auto V = A.get(Key)) {
    std::optional<uint64_t> N = parseUInt(*V);
    if (!N || *N < Min || *N > Max)
      die(std::string("bad ") + Key + " value '" + *V + "'");
    Slot = static_cast<T>(*N);
  }
}

Arch archOrDie(const std::string &Name) {
  std::optional<Arch> A = archFromName(Name);
  if (!A)
    die("unknown architecture '" + Name + "'");
  return *A;
}

analyzer::EncodingDatabase loadDb(const std::string &Path) {
  Expected<analyzer::EncodingDatabase> Db =
      analyzer::EncodingDatabase::deserialize(readFile(Path));
  if (!Db)
    die(Db.message());
  return Db.takeValue();
}

analyzer::Listing loadListing(const std::string &Path) {
  Expected<analyzer::Listing> L = analyzer::parseListing(readFile(Path));
  if (!L)
    die(L.message());
  return L.takeValue();
}

/// Loads \p Path as either a cubin or a listing and lifts it to IR
/// (serve::loadProgramBytes). The lint/analyze commands accept both.
ir::Program loadProgramFile(const std::string &Path) {
  Expected<ir::Program> P = serve::loadProgramBytes(readFile(Path), Path);
  if (!P)
    die(P.message());
  return P.takeValue();
}

/// The `--fail-on` threshold (lint and the analyze checker modes): exit
/// non-zero only on findings at or above the given severity. Defaults to
/// error, the historical behavior; docs/ANALYSIS.md documents the codes.
serve::FailOn failOnOf(const Args &A) {
  std::string V = A.get("--fail-on").value_or("error");
  if (V == "error")
    return serve::FailOn::Error;
  if (V == "warning")
    return serve::FailOn::Warning;
  if (V == "never")
    return serve::FailOn::Never;
  die("bad --fail-on value '" + V + "' (error|warning|never)");
}

int exitForReport(const analysis::Report &R, serve::FailOn Fail) {
  switch (Fail) {
  case serve::FailOn::Error:
    return R.clean() ? 0 : 1;
  case serve::FailOn::Warning:
    return R.Findings.empty() ? 0 : 1;
  case serve::FailOn::Never:
    break;
  }
  return 0;
}

/// Renders \p R as text (stdout) or as dcb-lint-v1 JSON (stdout or a file)
/// per the --json option, and returns the process exit code.
int emitReport(const analysis::Report &R, const std::string &Target,
               const std::optional<std::string> &Json, serve::FailOn Fail) {
  if (Json) {
    std::string Doc = R.toJson(Target);
    if (Json->empty())
      std::fputs(Doc.c_str(), stdout);
    else
      writeFile(*Json, Doc);
  } else {
    std::fputs(R.toText().c_str(), stdout);
  }
  return exitForReport(R, Fail);
}

/// The architectures `--isa all` audits: every fully supported generation
/// plus the partially decoded Volta tables.
std::vector<Arch> allIsaArchs() {
  unsigned Count = 0;
  const Arch *All = supportedArchs(Count);
  std::vector<Arch> Archs(All, All + Count);
  Archs.push_back(Arch::SM70);
  return Archs;
}

int cmdMakeSuite(const Args &A) {
  if (A.Positional.empty())
    die("usage: dcb make-suite <arch> -o <cubin>");
  Arch Target = archOrDie(A.Positional[0]);
  vendor::NvccSim Nvcc(Target);
  // Volta is only partially decoded (paper §IV-B); use the reduced probe.
  std::vector<vendor::KernelBuilder> Kernels =
      Target == Arch::SM70
          ? std::vector<vendor::KernelBuilder>{workloads::voltaProbe(Target)}
          : workloads::buildSuite(Target);
  Expected<std::vector<uint8_t>> Image = Nvcc.compileToImage(Kernels);
  if (!Image)
    die(Image.message());
  writeBinary(A.need("--out"), *Image);
  std::printf("wrote %s (%zu bytes, %zu kernels)\n", A.need("--out").c_str(),
              Image->size(), Kernels.size());
  return 0;
}

int cmdDisasm(const Args &A) {
  if (A.Positional.empty())
    die("usage: dcb disasm <cubin> [--jobs N]");
  vendor::DisasmOptions Opts;
  uintFlag(A, "--jobs", Opts.NumThreads, 0); // 0 = hardware width.
  // Routed through the daemon-shared op, so a served disasm request and
  // this one-shot are the same code path (byte-identical by construction).
  Expected<serve::OpResult> R = serve::opDisasm(readBinary(A.Positional[0]),
                                                Opts);
  if (!R)
    die(R.message());
  std::fputs(R->Output.c_str(), stdout);
  return R->Exit;
}

/// Comma-separated slot names of a live set ("-" when empty).
std::string slotList(const analysis::BitSet &S) {
  std::string Out;
  S.forEach([&Out](unsigned Slot) {
    if (!Out.empty())
      Out += ",";
    Out += analysis::slotName(Slot);
  });
  return Out.empty() ? "-" : Out;
}

std::string slotListJson(const analysis::BitSet &S) {
  std::string Out = "[";
  bool First = true;
  S.forEach([&](unsigned Slot) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\"" + analysis::slotName(Slot) + "\"";
  });
  return Out + "]";
}

/// `dcb analyze --liveness`: the dataflow report (per-block live-in/out,
/// peak pressure, and the occupancy cross-check of docs/ANALYSIS.md).
int cmdAnalyzeLiveness(const Args &A) {
  const std::string &Path = A.Positional[0];
  ir::Program P = loadProgramFile(Path);
  std::optional<std::string> Json = A.get("--json");

  std::string Doc = "{\"schema\": \"dcb-analysis-v1\", \"target\": ";
  json::appendString(Doc, Path);
  Doc += ", \"kernels\": [";
  bool FirstKernel = true;
  for (const ir::Kernel &K : P.Kernels) {
    analysis::Liveness L = analysis::computeLiveness(K);
    transform::PressureReport PR = transform::pressureReport(K, L);
    if (Json) {
      if (!FirstKernel)
        Doc += ", ";
      FirstKernel = false;
      Doc += "{\"name\": ";
      json::appendString(Doc, K.Name);
      Doc += ", \"arch\": \"" + std::string(archName(K.A)) + "\"";
      Doc += ", \"peak_live_regs\": " + std::to_string(L.MaxLiveRegs);
      Doc += ", \"peak_live_preds\": " + std::to_string(L.MaxLivePreds);
      Doc += ", \"peak_block\": " + std::to_string(L.PeakBlock);
      Doc += ", \"peak_inst\": " + std::to_string(L.PeakInst);
      Doc += ", \"referenced_regs\": " + std::to_string(PR.UsageRegs);
      Doc += ", \"alloc_regs\": " + std::to_string(PR.AllocRegs);
      Doc += ", \"occupancy\": {\"live_warps\": " +
             std::to_string(PR.LiveOcc.ResidentWarps) +
             ", \"footprint_warps\": " +
             std::to_string(PR.UsageOcc.ResidentWarps) + "}";
      Doc += ", \"blocks\": [";
      for (size_t B = 0; B < K.Blocks.size(); ++B) {
        if (B)
          Doc += ", ";
        Doc += "{\"live_in\": " + slotListJson(L.LiveIn[B]) +
               ", \"live_out\": " + slotListJson(L.LiveOut[B]) + "}";
      }
      Doc += "]}";
    } else {
      std::printf("kernel %s (%s): peak %u live regs + %u preds at BB%d:%d\n",
                  K.Name.c_str(), archName(K.A), L.MaxLiveRegs,
                  L.MaxLivePreds, L.PeakBlock, L.PeakInst);
      std::printf("  referenced %u regs (alloc %u); occupancy live %u "
                  "warps, footprint %u warps\n",
                  PR.UsageRegs, PR.AllocRegs, PR.LiveOcc.ResidentWarps,
                  PR.UsageOcc.ResidentWarps);
      for (size_t B = 0; B < K.Blocks.size(); ++B)
        std::printf("  BB%zu live-in: %s live-out: %s\n", B,
                    slotList(L.LiveIn[B]).c_str(),
                    slotList(L.LiveOut[B]).c_str());
    }
  }
  if (Json) {
    Doc += "]}\n";
    if (Json->empty())
      std::fputs(Doc.c_str(), stdout);
    else
      writeFile(*Json, Doc);
  }
  return 0;
}

/// `dcb analyze --hazards`: CFG + SCHI hazard findings for one program.
int cmdAnalyzeHazards(const Args &A) {
  const std::string &Path = A.Positional[0];
  ir::Program P = loadProgramFile(Path);
  analysis::Report R;
  for (const ir::Kernel &K : P.Kernels) {
    R.append(analysis::validateCfg(K));
    R.append(analysis::checkHazards(K));
  }
  return emitReport(R, Path, A.get("--json"), failOnOf(A));
}

/// Launch/memory shape for the bounds/races checkers, sharing the exec
/// flag vocabulary so static findings line up with a same-shaped run.
analysis::LaunchShape launchShapeOf(const Args &A) {
  analysis::LaunchShape Shape;
  uintFlag(A, "--threads", Shape.NumThreads);
  uintFlag(A, "--blocks", Shape.NumBlocks);
  uintFlag(A, "--warp-size", Shape.WarpSize);
  return Shape;
}

/// `dcb analyze --types|--bounds|--races`: the typed-IR checker modes.
/// JSON mode routes through the daemon-shared op (byte-identical to a
/// served analyze request); text mode prints the type facts and findings
/// human-readably.
int cmdAnalyzeChecks(const Args &A, const std::string &Mode) {
  const std::string &Path = A.Positional[0];
  serve::AnalyzeOptions Opts;
  Opts.Mode = Mode;
  Opts.Fail = failOnOf(A);
  Opts.Shape = launchShapeOf(A);

  if (auto Json = A.get("--json")) {
    Expected<serve::OpResult> R = serve::opAnalyze(readFile(Path), Path, Opts);
    if (!R)
      die(R.message());
    if (Json->empty())
      std::fputs(R->Output.c_str(), stdout);
    else
      writeFile(*Json, R->Output);
    return R->Exit;
  }

  if (Mode != "types")
    if (Error E = analysis::validateLaunchShape(Opts.Shape))
      die(E.message());
  ir::Program P = loadProgramFile(Path);
  analysis::Report R;
  for (const ir::Kernel &K : P.Kernels) {
    if (Mode == "types") {
      analysis::TypeInference T = analysis::inferTypes(K);
      std::printf("kernel %s (%s): typed in %u solver visits\n",
                  K.Name.c_str(), archName(K.A), T.Iterations);
      for (size_t B = 0; B < K.Blocks.size(); ++B) {
        std::string Facts;
        for (unsigned S = 0; S < analysis::kNumRegSlots; ++S) {
          if (!T.Out[B][S])
            continue;
          if (!Facts.empty())
            Facts += " ";
          Facts += analysis::slotName(S) + "=" +
                   analysis::typeMaskName(T.Out[B][S]);
        }
        std::printf("  BB%zu out: %s\n", B,
                    Facts.empty() ? "-" : Facts.c_str());
      }
      R.append(analysis::checkTypes(K));
    } else if (Mode == "bounds") {
      R.append(analysis::checkBounds(K, Opts.Shape));
    } else {
      R.append(analysis::checkRaces(K, Opts.Shape));
    }
  }
  std::fputs(R.toText().c_str(), stdout);
  return exitForReport(R, Opts.Fail);
}

int cmdAnalyze(const Args &A) {
  const bool WantLiveness = A.Options.count("--liveness") != 0;
  const bool WantHazards = A.Options.count("--hazards") != 0;
  const bool WantTypes = A.Options.count("--types") != 0;
  const bool WantBounds = A.Options.count("--bounds") != 0;
  const bool WantRaces = A.Options.count("--races") != 0;
  const int Modes =
      WantLiveness + WantHazards + WantTypes + WantBounds + WantRaces;
  if (Modes > 1)
    die("pick one of --liveness / --hazards / --types / --bounds / --races");
  if (Modes == 1) {
    if (A.Positional.empty())
      die("usage: dcb analyze --liveness|--hazards|--types|--bounds|--races "
          "<cubin|listing> [--json[=FILE]] [--fail-on SEV] [--threads N] "
          "[--blocks N] [--warp-size N]");
    if (WantLiveness)
      return cmdAnalyzeLiveness(A);
    if (WantHazards)
      return cmdAnalyzeHazards(A);
    return cmdAnalyzeChecks(A, WantTypes   ? "types"
                               : WantBounds ? "bounds"
                                            : "races");
  }
  if (A.Positional.empty())
    die("usage: dcb analyze <listing>... [--db in.db] -o <out.db>");
  std::optional<analyzer::IsaAnalyzer> Analyzer;
  if (auto DbPath = A.get("--db"))
    Analyzer.emplace(loadDb(*DbPath));
  for (const std::string &Path : A.Positional) {
    analyzer::Listing L = loadListing(Path);
    if (!Analyzer)
      Analyzer.emplace(L.A);
    if (Error E = Analyzer->analyzeListing(L))
      die(E.message());
  }
  auto Stats = Analyzer->database().stats();
  writeFile(A.need("--out"), Analyzer->database().serialize());
  std::printf("%zu operations, %zu modifiers, %zu unary ops, %zu tokens -> "
              "%s\n",
              Stats.NumOperations, Stats.NumModifiers, Stats.NumUnaries,
              Stats.NumTokens, A.need("--out").c_str());
  return 0;
}

int cmdFlip(const Args &A) {
  if (A.Positional.empty())
    die("usage: dcb flip <cubin> --db in.db -o <out.db>");
  Expected<elf::Cubin> Cubin =
      elf::Cubin::deserialize(readBinary(A.Positional[0]));
  if (!Cubin)
    die(Cubin.message());
  analyzer::IsaAnalyzer Analyzer(loadDb(A.need("--db")));
  if (Analyzer.database().arch() != Cubin->arch())
    die("database and cubin target different architectures");

  std::map<std::string, std::vector<uint8_t>> KernelCode;
  for (const elf::KernelSection &Kernel : Cubin->kernels())
    KernelCode[Kernel.Name] = Kernel.Code;
  Arch Target = Cubin->arch();
  analyzer::BitFlipper Flipper(
      Analyzer,
      [Target](const std::string &Name, const std::vector<uint8_t> &Code) {
        return vendor::disassembleKernelCode(Target, Name, Code);
      },
      [Target](const std::string &Name, const std::vector<uint8_t> &Code,
               uint64_t Addr) {
        return vendor::disassembleInstructionAt(Target, Name, Code, Addr);
      },
      // Print-free fast path: hand the flipper decoded instructions
      // directly instead of listing text it would have to re-parse.
      [Target](const std::string &Name, const std::vector<uint8_t> &Code,
               uint64_t Addr) -> Expected<analyzer::WindowDecode> {
        Expected<vendor::DecodedWord> W =
            vendor::decodeInstructionAt(Target, Name, Code, Addr);
        if (!W)
          return std::move(W).takeError();
        analyzer::WindowDecode D;
        if (!W->IsSchi) {
          D.HasPair = true;
          D.Pair.Address = W->Address;
          D.Pair.Inst = std::move(W->Inst);
          D.Pair.Binary = std::move(W->Word);
        }
        return D;
      });
  auto Rounds = Flipper.run(KernelCode);
  for (size_t R = 0; R < Rounds.size(); ++R)
    std::printf("round %zu: %u variants, %u crashes, %u accepted, "
                "%u rejected, %u cache hits\n",
                R + 1, Rounds[R].VariantsTried, Rounds[R].Crashes,
                Rounds[R].Accepted, Rounds[R].Rejected,
                Rounds[R].CacheHits);
  writeFile(A.need("--out"), Analyzer.database().serialize());
  return 0;
}

int cmdGenasm(const Args &A) {
  analyzer::EncodingDatabase Db = loadDb(A.need("--db"));
  writeFile(A.need("--out"), asmgen::generateAssemblerSource(Db));
  std::printf("wrote %s\n", A.need("--out").c_str());
  return 0;
}

int cmdAsmOrVerify(const Args &A, bool Verify) {
  if (A.Positional.empty())
    die("usage: dcb asm|verify --db db [--jobs N] <listing>");
  analyzer::EncodingDatabase Db = loadDb(A.need("--db"));
  BatchOptions Batch;
  uintFlag(A, "--jobs", Batch.NumThreads, 0); // 0 = hardware width.

  if (!Verify) {
    // Routed through the daemon-shared op: hex words to stdout, failed
    // instructions to stderr, same bytes served or one-shot.
    Expected<serve::OpResult> R =
        serve::opAsm(Db, readFile(A.Positional[0]), Batch);
    if (!R)
      die(R.message());
    for (const std::string &E : R->Errors)
      std::fprintf(stderr, "%s\n", E.c_str());
    std::fputs(R->Output.c_str(), stdout);
    return R->Exit;
  }

  analyzer::Listing L = loadListing(A.Positional[0]);
  // Whole-listing batch; results come back in listing order, so the output
  // is identical for every --jobs value.
  std::vector<asmgen::AsmJob> JobList;
  for (const analyzer::ListingKernel &Kernel : L.Kernels)
    for (const analyzer::ListingInst &Pair : Kernel.Insts)
      JobList.push_back({&Pair.Inst, Pair.Address});
  std::vector<Expected<BitString>> Words =
      asmgen::assembleProgram(Db, JobList, Batch);

  size_t Total = JobList.size(), Identical = 0, Idx = 0;
  for (const analyzer::ListingKernel &Kernel : L.Kernels) {
    for (const analyzer::ListingInst &Pair : Kernel.Insts) {
      Expected<BitString> &Word = Words[Idx++];
      if (!Word) {
        std::fprintf(stderr, "error: %s\n", Word.message().c_str());
        continue;
      }
      Identical += *Word == Pair.Binary;
    }
  }
  std::printf("%zu/%zu instructions byte-identical\n", Identical, Total);
  return Identical == Total ? 0 : 1;
}

/// `dcb lint`: the static verifier over programs, learned databases and
/// ground-truth ISA tables. Any mix of targets is allowed; the findings
/// merge into one report (docs/ANALYSIS.md catalogs the rule ids).
int cmdLint(const Args &A) {
  if (A.Positional.empty() && !A.get("--db") && !A.get("--isa"))
    die("usage: dcb lint [<cubin|listing>...] [--db <db>] "
        "[--isa <arch|all>] [--json[=FILE]]");

  analysis::Report R;
  std::string Target;
  auto addTarget = [&Target](const std::string &T) {
    if (!Target.empty())
      Target += " ";
    Target += T;
  };

  for (const std::string &Path : A.Positional) {
    addTarget(Path);
    ir::Program P = loadProgramFile(Path);
    for (const ir::Kernel &K : P.Kernels) {
      R.append(analysis::validateCfg(K));
      R.append(analysis::checkHazards(K));
    }
  }
  if (auto DbPath = A.get("--db")) {
    addTarget(*DbPath);
    R.append(analysis::lintDatabase(loadDb(*DbPath)));
  }
  if (auto IsaName = A.get("--isa")) {
    addTarget("isa:" + *IsaName);
    std::vector<Arch> Archs;
    if (*IsaName == "all")
      Archs = allIsaArchs();
    else
      Archs.push_back(archOrDie(*IsaName));
    for (Arch Spec : Archs)
      R.append(vendor::lintIsaTables(Spec));
  }
  return emitReport(R, Target, A.get("--json"), failOnOf(A));
}

int cmdStats(const Args &A) {
  if (A.Positional.empty())
    die("usage: dcb stats <stats.json> [--format=table|prom]");
  std::string Format = A.get("--format").value_or("table");
  if (Format != "table" && Format != "prom")
    die("bad --format value '" + Format + "' (table|prom)");
  std::string Json = readFile(A.Positional[0]);
  // Both renderers consume the same dcb-stats-v1 document; `prom` turns a
  // saved snapshot into the Prometheus text exposition a live daemon would
  // serve on --metrics-port, so offline files and scrapes stay comparable.
  Expected<std::string> Out = Format == "prom"
                                  ? telemetry::statsJsonToProm(Json)
                                  : telemetry::renderStatsJson(Json);
  if (!Out)
    die(Out.message());
  std::fputs(Out->c_str(), stdout);
  return 0;
}

int cmdIr(const Args &A) {
  if (A.Positional.size() < 2)
    die("usage: dcb ir <cubin> <kernel>");
  Expected<elf::Cubin> Cubin =
      elf::Cubin::deserialize(readBinary(A.Positional[0]));
  if (!Cubin)
    die(Cubin.message());
  const elf::KernelSection *Kernel = Cubin->findKernel(A.Positional[1]);
  if (!Kernel)
    die("no kernel named " + A.Positional[1]);
  Expected<std::string> Text = vendor::disassembleKernelCode(
      Cubin->arch(), Kernel->Name, Kernel->Code);
  if (!Text)
    die(Text.message());
  Expected<analyzer::Listing> L = analyzer::parseListing(
      "code for " + std::string(archName(Cubin->arch())) + "\n" + *Text);
  if (!L)
    die(L.message());
  Expected<ir::Kernel> K = ir::buildKernel(Cubin->arch(),
                                           L->Kernels.front());
  if (!K)
    die(K.message());
  std::fputs(ir::printKernel(*K).c_str(), stdout);
  return 0;
}

int cmdInstrument(const Args &A) {
  if (A.Positional.empty())
    die("usage: dcb instrument <cubin> --db db --clear-regs 9,10 -o out");
  Expected<elf::Cubin> Cubin =
      elf::Cubin::deserialize(readBinary(A.Positional[0]));
  if (!Cubin)
    die(Cubin.message());
  analyzer::EncodingDatabase Db = loadDb(A.need("--db"));

  // Only registers the target can name: a larger number would encode RZ
  // (clearing nothing) or spill into neighbouring fields.
  std::vector<unsigned> Regs;
  const std::string RegList = A.need("--clear-regs"); // split() views it.
  for (std::string_view Piece : split(RegList, ',')) {
    std::optional<uint64_t> Reg = parseUInt(Piece);
    if (!Reg || *Reg >= archGeneralRegs(Cubin->arch()))
      die("bad register list");
    Regs.push_back(static_cast<unsigned>(*Reg));
  }

  Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
  if (!Text)
    die(Text.message());
  Expected<analyzer::Listing> L = analyzer::parseListing(*Text);
  if (!L)
    die(L.message());
  Expected<ir::Program> P = ir::buildProgram(*L);
  if (!P)
    die(P.message());

  // Every pipeline runs through runPasses so the post-transform verifier
  // (CFG, hazards, clobbers, pressure) guards the output by default.
  transform::PipelineOptions PO;
  PO.Verify = !A.Options.count("--no-verify");
  unsigned Sites = 0;
  std::vector<transform::Pass> Pipeline = {
      {"clear-regs", [&Regs, &Sites](ir::Kernel &K) {
         Sites += transform::clearRegistersBeforeExit(K, Regs);
       }}};
  for (ir::Kernel &K : P->Kernels) {
    transform::PipelineResult Result = transform::runPasses(K, Pipeline, PO);
    if (!Result.ok()) {
      std::fputs(Result.Verification.toText().c_str(), stderr);
      die("verification failed for kernel " + K.Name +
          " (use --no-verify to override)");
    }
  }
  std::vector<uint8_t> Original = readBinary(A.Positional[0]);
  Expected<std::vector<uint8_t>> NewImage = ir::emitProgram(Db, *P,
                                                            Original);
  if (!NewImage)
    die(NewImage.message());
  writeBinary(A.need("--out"), *NewImage);
  std::printf("instrumented %u exit site(s) across %zu kernels -> %s\n",
              Sites, P->Kernels.size(), A.need("--out").c_str());
  return 0;
}

/// Shared option parsing for exec/diffexec. Both commands drive the VM
/// through the same vm::ExecOptions, so the launch shape flags are one
/// vocabulary.
vm::ExecOptions execOptions(const Args &A) {
  vm::ExecOptions Opts;
  uintFlag(A, "--threads", Opts.NumThreads);
  uintFlag(A, "--blocks", Opts.NumBlocks);
  uintFlag(A, "--warp-size", Opts.WarpSize);
  uintFlag(A, "--seeds", Opts.Seeds);
  uintFlag(A, "--seed", Opts.FirstSeed, 0);
  Opts.CompareRegs = A.Options.count("--regs") != 0;
  Opts.WatchShared = A.Options.count("--watch-shared") != 0;
  if (auto V = A.get("--oob")) {
    if (*V == "wrap")
      Opts.Oob = vm::OobPolicy::Wrap;
    else if (*V == "fault")
      Opts.Oob = vm::OobPolicy::Fault;
    else
      die("bad --oob value '" + *V + "' (wrap|fault)");
  }
  return Opts;
}

int cmdExec(const Args &A) {
  if (A.Positional.size() < 2)
    die("usage: dcb exec <cubin|listing> <kernel|all> [--seed N] "
        "[--threads N] [--blocks N] [--warp-size N] [--oob wrap|fault] "
        "[--watch-shared]");
  // Routed through the daemon-shared op (one summary line per kernel on
  // stdout, exit 1 when any kernel failed) so served exec requests return
  // the same bytes this one-shot prints.
  Expected<serve::OpResult> R =
      serve::opExec(readFile(A.Positional[0]), A.Positional[0],
                    A.Positional[1], execOptions(A));
  if (!R)
    die(R.message());
  std::fputs(R->Output.c_str(), stdout);
  return R->Exit;
}

int cmdDiffexec(const Args &A) {
  if (A.Positional.size() < 2)
    die("usage: dcb diffexec <orig> <transformed> [--seeds N] [--regs] "
        "[--threads N] [--blocks N] [--warp-size N]");
  ir::Program Orig = loadProgramFile(A.Positional[0]);
  ir::Program Transformed = loadProgramFile(A.Positional[1]);
  vm::ExecOptions Opts = execOptions(A);

  vm::DiffResult R = vm::diffPrograms(Orig, Transformed, Opts);
  for (const vm::KernelDiff &D : R.Kernels) {
    const char *Verdict = D.Verdict == vm::DiffVerdict::Match      ? "match"
                          : D.Verdict == vm::DiffVerdict::Skipped ? "skipped"
                                                                  : "MISMATCH";
    if (D.Detail.empty())
      std::printf("%s: %s\n", D.Kernel.c_str(), Verdict);
    else
      std::printf("%s: %s (%s)\n", D.Kernel.c_str(), Verdict,
                  D.Detail.c_str());
  }
  std::printf("diffexec: %u matched, %u skipped, %u mismatched\n", R.Matched,
              R.Skipped, R.Mismatched);
  return R.clean() ? 0 : 1;
}

volatile std::sig_atomic_t ServeStopSignal = 0;
volatile std::sig_atomic_t ServeDumpSignal = 0;

void onServeSignal(int) { ServeStopSignal = 1; }
void onServeDumpSignal(int) { ServeDumpSignal = 1; }

/// Where a SIGUSR1 dump goes: the global --stats/--trace destinations,
/// stashed by main() before dispatch so the daemon loop can write them
/// while the process keeps running.
std::optional<std::string> ServeStatsPath;
std::optional<std::string> ServeTracePath;

int cmdServe(const Args &A) {
  serve::ServerOptions Opts;
  uintFlag(A, "--port", Opts.Port, 0);
  uintFlag(A, "--jobs", Opts.Jobs, 0); // 0 = hardware width.
  uintFlag(A, "--max-queued", Opts.MaxQueued, 0);
  size_t CacheMb = Opts.CacheBytes >> 20;
  uintFlag(A, "--cache-mb", CacheMb, 1, SIZE_MAX >> 20);
  Opts.CacheBytes = CacheMb << 20;
  uintFlag(A, "--shards", Opts.CacheShards, 0);
  if (auto V = A.get("--persist"))
    Opts.PersistPath = *V;
  uintFlag(A, "--metrics-port", Opts.MetricsPort, 0, 65535);
  if (auto V = A.get("--request-log"))
    Opts.RequestLogPath = *V;
  // The request log compares latencies in nanoseconds.
  uintFlag(A, "--slow-ms", Opts.SlowMs, 0, UINT64_MAX / 1000000);

  // The daemon always runs with counters and the span flight recorder on:
  // the stats/health/trace admin ops and `dcb top` read them live
  // (docs/OBSERVABILITY.md has the measured cost). One-shot commands keep
  // the opt-in default.
  telemetry::setCountersEnabled(true);
  telemetry::setFlightRecorderEnabled(true);

  std::optional<analyzer::EncodingDatabase> Db;
  if (auto V = A.get("--db"))
    Db.emplace(loadDb(*V));

  serve::Server Server(Opts, std::move(Db));
  if (Error E = Server.start())
    die(E.message());
  if (auto V = A.get("--port-file"))
    writeFile(*V, std::to_string(Server.port()) + "\n");
  if (auto V = A.get("--metrics-port-file"))
    writeFile(*V, std::to_string(Server.metricsPort()) + "\n");
  std::fprintf(stderr, "dcb serve: listening on 127.0.0.1:%u\n",
               static_cast<unsigned>(Server.port()));
  if (Server.metricsPort())
    std::fprintf(stderr, "dcb serve: metrics on 127.0.0.1:%u\n",
                 static_cast<unsigned>(Server.metricsPort()));

  // SIGTERM/SIGINT and the client `shutdown` op land on the same flagged
  // path; the loop below is the only place that observes either. SIGUSR1
  // dumps the global --stats/--trace destinations without stopping
  // (bare --stats = table to stderr; the trace is the flight recorder's
  // recent-span ring, so it needs no prior opt-in).
  std::signal(SIGTERM, onServeSignal);
  std::signal(SIGINT, onServeSignal);
  std::signal(SIGUSR1, onServeDumpSignal);
  while (!ServeStopSignal && !Server.stopRequested()) {
    if (ServeDumpSignal) {
      ServeDumpSignal = 0;
      if (ServeStatsPath && !ServeStatsPath->empty())
        writeFile(*ServeStatsPath, telemetry::statsJson());
      else
        std::fputs(telemetry::statsTable().c_str(), stderr);
      if (ServeTracePath)
        writeFile(*ServeTracePath, telemetry::flightTraceJson());
      std::fprintf(stderr, "dcb serve: dumped stats%s on SIGUSR1\n",
                   ServeTracePath ? " and flight trace" : "");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "dcb serve: shutting down\n");
  Server.stop();
  return 0;
}

uint16_t clientPort(const Args &A) {
  std::string Text;
  if (auto V = A.get("--port"))
    Text = *V;
  else if (auto V = A.get("--port-file"))
    Text = readFile(*V);
  else
    die("client needs --port N or --port-file FILE");
  while (!Text.empty() && (Text.back() == '\n' || Text.back() == '\r' ||
                           Text.back() == ' '))
    Text.pop_back();
  std::optional<uint64_t> N = parseUInt(Text);
  if (!N || *N == 0 || *N > 65535)
    die("bad port '" + Text + "'");
  return static_cast<uint16_t>(*N);
}

int cmdClient(const Args &A) {
  if (A.Positional.empty())
    die("usage: dcb client <op> [<file> [<kernel|all>]] "
        "(--port N | --port-file FILE) [op options]");
  const std::string &Op = A.Positional[0];

  unsigned Retries = 0;
  uintFlag(A, "--retries", Retries, 0);

  if (Op == "batch") {
    // Pipelined mode: newline-delimited JSON request lines on stdin, raw
    // response lines (in request order) on stdout. One connection, one
    // buffered send — this is `serve::Client::batch` exposed to shell.
    std::vector<std::string> Requests;
    std::string Line;
    while (std::getline(std::cin, Line))
      if (!Line.empty())
        Requests.push_back(Line);
    if (Requests.empty())
      return 0;
    Expected<serve::Client> C = serve::Client::connect(clientPort(A));
    if (!C)
      die(C.message());
    Expected<std::vector<std::string>> Responses = C->batch(Requests);
    if (!Responses)
      die(Responses.message());
    for (const std::string &R : *Responses)
      std::printf("%s\n", R.c_str());
    return 0;
  }

  std::string Req = "{\"op\":";
  json::appendString(Req, Op);
  if (A.Positional.size() > 1) {
    Req += ",\"data_b64\":\"";
    Req += json::base64Encode(readFile(A.Positional[1]));
    Req += "\",\"name\":";
    json::appendString(Req, A.Positional[1]);
  }
  if (A.Positional.size() > 2) {
    Req += ",\"kernel\":";
    json::appendString(Req, A.Positional[2]);
  }
  // Option passthrough, one wire field per CLI flag (same names as the
  // one-shot subcommands; --warp-size travels as "warp").
  struct {
    const char *Flag, *Field;
  } NumKeys[] = {{"--threads", "threads"}, {"--blocks", "blocks"},
                 {"--warp-size", "warp"},   {"--seed", "seed"},
                 {"--last-ms", "last_ms"}};
  for (const auto &Key : NumKeys) {
    if (auto V = A.get(Key.Flag)) {
      std::optional<uint64_t> N = parseUInt(*V);
      if (!N)
        die(std::string("bad ") + Key.Flag + " value '" + *V + "'");
      Req += ",\"" + std::string(Key.Field) + "\":" + std::to_string(*N);
    }
  }
  if (A.Options.count("--watch-shared"))
    Req += ",\"watch_shared\":true";
  if (auto V = A.get("--oob")) {
    Req += ",\"oob\":";
    json::appendString(Req, *V);
  }
  if (auto V = A.get("--mode")) {
    Req += ",\"mode\":";
    json::appendString(Req, *V);
  }
  if (auto V = A.get("--fail-on")) {
    Req += ",\"fail_on\":";
    json::appendString(Req, *V);
  }
  if (auto V = A.get("--name")) {
    Req += ",\"name\":";
    json::appendString(Req, *V);
  }
  Req += "}";

  Expected<serve::Client> C = serve::Client::connect(clientPort(A));
  if (!C)
    die(C.message());
  Expected<std::string> Resp = Failure("no attempt made");
  std::string Status;
  for (unsigned Attempt = 0;; ++Attempt) {
    Resp = C->roundTrip(Req);
    if (!Resp)
      die(Resp.message());
    Expected<json::Value> Peek = json::parse(*Resp);
    Status = Peek ? Peek->str("status") : "";
    if (Status != "busy" || Attempt >= Retries)
      break;
    // Exponential backoff on the same connection: 50ms, 100ms, ... capped
    // at 2s. Shedding is transient by design (the queue bound is small),
    // so early retries usually land.
    uint64_t DelayMs = std::min<uint64_t>(50ull << std::min(Attempt, 6u), 2000);
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
  }
  Expected<json::Value> V = json::parse(*Resp);
  if (!V)
    die("bad response: " + V.message());

  if (Status == "busy") {
    // EX_TEMPFAIL-style: distinguishable from a hard error so callers can
    // back off and retry (or raise --retries).
    std::fprintf(stderr, "dcb client: server busy, retry\n");
    return 75;
  }
  if (Status != "ok")
    die(V->str("error", "server error"));
  if (const json::Value *Output = V->field("output")) {
    if (const json::Value *Errs = V->field("errors"))
      for (const json::Value &Err : Errs->Arr)
        std::fprintf(stderr, "%s\n", Err.Str.c_str());
    std::fputs(Output->Str.c_str(), stdout);
    return static_cast<int>(V->num("exit", 0));
  }
  // The `metrics` and `trace` admin ops wrap a whole document in one
  // string field; print it verbatim so `dcb client metrics` is directly
  // scrapeable and `dcb client trace > t.json` loads in Perfetto.
  if (const json::Value *Doc = V->field("exposition")) {
    std::fputs(Doc->Str.c_str(), stdout);
    return 0;
  }
  if (const json::Value *Doc = V->field("trace")) {
    std::fputs(Doc->Str.c_str(), stdout);
    if (Doc->Str.empty() || Doc->Str.back() != '\n')
      std::fputs("\n", stdout);
    return 0;
  }
  // Control ops (ping/stats/shutdown): the raw response line is the
  // payload.
  std::printf("%s\n", Resp->c_str());
  return 0;
}

/// One `{"op":"stats"}` poll, reduced to the totals `dcb top` rates.
/// Every field is a monotonic counter on the server, so consecutive
/// samples subtract into exact per-interval deltas.
struct TopSample {
  uint64_t UptimeNs = 0;
  uint64_t Requests = 0;
  uint64_t CacheHits = 0;
  uint64_t RenderHits = 0;
  uint64_t Busy = 0;
  uint64_t Active = 0;
  telemetry::HistData RequestNs; ///< serve.request_ns, zero when absent.
};

TopSample topSample(serve::Client &C) {
  Expected<std::string> Resp = C.roundTrip("{\"op\":\"stats\"}");
  if (!Resp)
    die(Resp.message());
  Expected<json::Value> V = json::parse(*Resp);
  if (!V)
    die("bad stats response: " + V.message());
  if (V->str("status") != "ok")
    die("stats op failed: " + V->str("error", "server error"));
  TopSample S;
  S.UptimeNs = V->num("uptime_ns");
  if (const json::Value *Sess = V->field("sessions")) {
    S.Requests = Sess->num("requests");
    S.Busy = Sess->num("busy");
    S.Active = Sess->num("active");
  }
  if (const json::Value *Cache = V->field("cache"))
    S.CacheHits = Cache->num("hits");
  if (const json::Value *Render = V->field("render"))
    S.RenderHits = Render->num("hits");
  const json::Value *Stats = V->field("telemetry_stats");
  const json::Value *Hists = Stats ? Stats->field("histograms") : nullptr;
  if (const json::Value *H =
          Hists ? Hists->field("serve.request_ns") : nullptr) {
    Expected<telemetry::HistData> D = telemetry::histFromJson(*H);
    if (!D)
      die("bad stats response: serve.request_ns: " + D.message());
    S.RequestNs = *D;
  }
  return S;
}

/// `dcb top`: a load meter over a running daemon. Polls `{"op":"stats"}`
/// and prints one line per interval from snapshot deltas — req/s, cache
/// hit rate (content cache + render memo over requests), busy sheds, and
/// interpolated p50/p99 of the per-interval serve.request_ns histogram
/// delta. Time base is the server's own uptime_ns delta, so client-side
/// scheduling jitter cannot skew the rates.
int cmdTop(const Args &A) {
  uint64_t IntervalMs = 1000, Count = 0;
  uintFlag(A, "--interval-ms", IntervalMs);
  uintFlag(A, "--count", Count, 0); // 0 = run until interrupted.
  Expected<serve::Client> C = serve::Client::connect(clientPort(A));
  if (!C)
    die(C.message());

  std::printf("%10s %6s %8s %9s %9s %6s\n", "req/s", "hit%", "busy/s",
              "p50(ms)", "p99(ms)", "conns");
  TopSample Prev = topSample(*C);
  for (uint64_t Sample = 0; Count == 0 || Sample < Count; ++Sample) {
    std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
    TopSample Cur = topSample(*C);
    double Dt = static_cast<double>(Cur.UptimeNs - Prev.UptimeNs) / 1e9;
    if (Dt <= 0)
      Dt = static_cast<double>(IntervalMs) / 1e3;
    uint64_t DReq = Cur.Requests - Prev.Requests;
    uint64_t DHit = (Cur.CacheHits + Cur.RenderHits) -
                    (Prev.CacheHits + Prev.RenderHits);
    uint64_t DBusy = Cur.Busy - Prev.Busy;
    double HitPct =
        DReq ? 100.0 * static_cast<double>(DHit) / static_cast<double>(DReq)
             : 0.0;
    telemetry::HistData D;
    D.Count = Cur.RequestNs.Count - Prev.RequestNs.Count;
    D.Sum = Cur.RequestNs.Sum - Prev.RequestNs.Sum;
    D.Max = Cur.RequestNs.Max; // Upper cap; per-interval max is unknowable.
    for (unsigned B = 0; B < telemetry::HistData::NumBuckets; ++B)
      D.Buckets[B] = Cur.RequestNs.Buckets[B] - Prev.RequestNs.Buckets[B];
    char P50[32] = "-", P99[32] = "-";
    if (D.Count) {
      std::snprintf(P50, sizeof(P50), "%.2f",
                    telemetry::histQuantile(D, 0.50) / 1e6);
      std::snprintf(P99, sizeof(P99), "%.2f",
                    telemetry::histQuantile(D, 0.99) / 1e6);
    }
    std::printf("%10.0f %6.1f %8.0f %9s %9s %6" PRIu64 "\n",
                static_cast<double>(DReq) / Dt, HitPct,
                static_cast<double>(DBusy) / Dt, P50, P99, Cur.Active);
    std::fflush(stdout);
    Prev = Cur;
  }
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: dcb <command> ...\n"
      "  make-suite <arch> -o <cubin>            compile the synthetic suite\n"
      "  disasm <cubin> [--jobs N]               print the listing\n"
      "                                          (--jobs 0 = all cores;\n"
      "                                          output is identical for\n"
      "                                          every --jobs value)\n"
      "  analyze <listing>... [--db in] -o <db>  learn encodings\n"
      "  flip <cubin> --db <db> -o <db>          bit-flip enrichment\n"
      "  genasm --db <db> -o <cpp>               generate an assembler\n"
      "  asm --db <db> [--jobs N] <listing>      assemble, print hex\n"
      "  verify --db <db> [--jobs N] <listing>   reassemble and compare\n"
      "                                          (--jobs 0 = all cores;\n"
      "                                          output is identical for\n"
      "                                          every --jobs value)\n"
      "  ir <cubin> <kernel>                     dump the IR\n"
      "  instrument <cubin> --db <db> --clear-regs N[,N...] -o <cubin>\n"
      "                                          (verified by default;\n"
      "                                          --no-verify to override;\n"
      "                                          N below 63 on sm_20/21/30,\n"
      "                                          below 255 elsewhere)\n"
      "  lint [<cubin|listing>...] [--db <db>] [--isa <arch|all>]\n"
      "                                          static checks: CFG/SCHI\n"
      "                                          hazards, database and ISA\n"
      "                                          table audits; exits 1 on\n"
      "                                          any error finding\n"
      "  analyze --liveness|--hazards <cubin|listing>\n"
      "                                          dataflow / hazard report\n"
      "                                          for one program\n"
      "  analyze --types|--bounds|--races <cubin|listing>\n"
      "          [--threads N] [--blocks N] [--warp-size N]\n"
      "                                          typed-IR checkers: type\n"
      "                                          inference + TYP confusion\n"
      "                                          rules (--types), static\n"
      "                                          bounds/alignment vs the\n"
      "                                          launch shape (--bounds),\n"
      "                                          barrier-interval shared-\n"
      "                                          memory races (--races);\n"
      "                                          --json emits dcb-analysis-v1\n"
      "  (lint/analyze: --json prints dcb-lint-v1 JSON, --json=FILE saves;\n"
      "   --fail-on error|warning|never picks the findings severity that\n"
      "   makes the exit code non-zero — default error)\n"
      "  exec <cubin|listing> <kernel|all> [--seed N]\n"
      "       [--threads N] [--blocks N] [--warp-size N] [--oob wrap|fault]\n"
      "       [--watch-shared]\n"
      "                                          run kernels on the VM over\n"
      "                                          a seeded input image\n"
      "  diffexec <orig> <transformed> [--seeds N] [--regs]\n"
      "                                          run both binaries on\n"
      "                                          randomized inputs, compare\n"
      "                                          final memory (--regs: also\n"
      "                                          registers); exits 1 on any\n"
      "                                          behavioral mismatch\n"
      "  stats <stats.json> [--format=table|prom]\n"
      "                                          render a saved stats file\n"
      "                                          (prom = Prometheus text\n"
      "                                          exposition)\n"
      "  serve [--port N] [--port-file FILE] [--db <db>] [--jobs N]\n"
      "        [--max-queued N] [--cache-mb N] [--shards N] [--persist FILE]\n"
      "        [--metrics-port N] [--metrics-port-file FILE]\n"
      "        [--request-log FILE.jsonl] [--slow-ms N]\n"
      "                                          long-running daemon on\n"
      "                                          127.0.0.1 (newline-JSON\n"
      "                                          protocol, docs/SERVE.md);\n"
      "                                          epoll reactor, pipelined\n"
      "                                          requests; --port 0 =\n"
      "                                          ephemeral, the bound port\n"
      "                                          goes to --port-file;\n"
      "                                          --persist reloads the\n"
      "                                          result cache on restart;\n"
      "                                          --metrics-port serves the\n"
      "                                          Prometheus exposition over\n"
      "                                          HTTP; --request-log writes\n"
      "                                          dcb-reqlog-v1 JSONL (with\n"
      "                                          --slow-ms N: outliers only);\n"
      "                                          SIGUSR1 dumps --stats/\n"
      "                                          --trace without stopping\n"
      "  client <op> [<file> [<kernel|all>]] (--port N | --port-file FILE)\n"
      "         [--retries N]\n"
      "                                          send one request to a\n"
      "                                          running daemon; work ops\n"
      "                                          print the same bytes the\n"
      "                                          one-shot subcommand would\n"
      "                                          (exit 75 = busy, retry;\n"
      "                                          --retries N = backoff and\n"
      "                                          resend before giving up)\n"
      "  client batch (--port N | --port-file FILE)\n"
      "                                          pipeline newline-JSON\n"
      "                                          request lines from stdin\n"
      "                                          over one connection; raw\n"
      "                                          response lines (request\n"
      "                                          order) to stdout\n"
      "  (admin ops: client stats | health | metrics | trace [--last-ms N]\n"
      "   — answered inline on the reactor, so they work at saturation;\n"
      "   metrics prints the Prometheus exposition, trace a Chrome\n"
      "   trace_event JSON of the daemon's recent spans)\n"
      "  top (--port N | --port-file FILE) [--interval-ms N] [--count N]\n"
      "                                          live load meter: polls the\n"
      "                                          stats op and prints req/s,\n"
      "                                          cache hit %%, busy sheds\n"
      "                                          and p50/p99 latency from\n"
      "                                          snapshot deltas\n"
      "\n"
      "global options (every command):\n"
      "  --stats            print the telemetry table to stderr on exit\n"
      "  --stats=FILE.json  write the telemetry snapshot as JSON instead\n"
      "  --trace=FILE.json  write a Chrome trace_event span trace\n"
      "                     (load in chrome://tracing or ui.perfetto.dev)\n");
  std::exit(2);
}

int runCommand(const std::string &Cmd, const Args &A) {
  if (Cmd == "make-suite")
    return cmdMakeSuite(A);
  if (Cmd == "disasm")
    return cmdDisasm(A);
  if (Cmd == "analyze")
    return cmdAnalyze(A);
  if (Cmd == "flip")
    return cmdFlip(A);
  if (Cmd == "genasm")
    return cmdGenasm(A);
  if (Cmd == "asm")
    return cmdAsmOrVerify(A, false);
  if (Cmd == "verify")
    return cmdAsmOrVerify(A, true);
  if (Cmd == "ir")
    return cmdIr(A);
  if (Cmd == "instrument")
    return cmdInstrument(A);
  if (Cmd == "exec")
    return cmdExec(A);
  if (Cmd == "diffexec")
    return cmdDiffexec(A);
  if (Cmd == "lint")
    return cmdLint(A);
  if (Cmd == "stats")
    return cmdStats(A);
  if (Cmd == "serve")
    return cmdServe(A);
  if (Cmd == "client")
    return cmdClient(A);
  if (Cmd == "top")
    return cmdTop(A);
  usage();
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    usage();
  std::string Cmd = Argv[1];
  Args A = Args::parse(Argc, Argv, 2);

  // Global telemetry flags, stripped before subcommand dispatch. Counters
  // and spans stay off unless requested, so the default run pays only the
  // per-site gate loads; the stats table goes to stderr and JSON goes to
  // files, keeping stdout byte-identical either way.
  std::optional<std::string> Stats = A.Options.count("--stats")
                                         ? std::optional(A.Options["--stats"])
                                         : std::nullopt;
  std::optional<std::string> Trace = A.Options.count("--trace")
                                         ? std::optional(A.Options["--trace"])
                                         : std::nullopt;
  A.Options.erase("--stats");
  A.Options.erase("--trace");
  if (Trace && Trace->empty())
    die("--trace needs a file: --trace=FILE.json");
  telemetry::setCountersEnabled(Stats.has_value());
  telemetry::setSpansEnabled(Trace.has_value());
  ServeStatsPath = Stats;
  ServeTracePath = Trace;

  int Ret = runCommand(Cmd, A);

  if (Stats) {
    if (Stats->empty())
      std::fputs(telemetry::statsTable().c_str(), stderr);
    else
      writeFile(*Stats, telemetry::statsJson());
  }
  if (Trace)
    writeFile(*Trace, telemetry::traceJson());
  return Ret;
}

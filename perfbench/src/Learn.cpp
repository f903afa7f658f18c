//===- perfbench/src/Learn.cpp - The artifact workflow workload -----------===//
//
// learn: the paper's artifact workflow for all 8 supported architectures,
// in-process on one lane: oracle listing, listing parse, Algorithms 1-2,
// bit flipping (all three callback tiers, wired as `dcb flip` wires them),
// assembler generation, then reassembly of every suite instruction. A
// closed loop of back-to-back passes over the fixed suite; the seed does
// not apply.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Measure.h"
#include "Trace.h"

#include "analyzer/BitFlipper.h"
#include "asmgen/AssemblerGenerator.h"
#include "asmgen/TableAssembler.h"
#include "support/Hash.h"
#include "vendor/CuobjdumpSim.h"

namespace dcb {
namespace perfbench {

namespace {

struct ArchPass {
  analyzer::EncodingDatabase Db;
  uint64_t Variants = 0, Accepted = 0, Crashes = 0, CacheHits = 0;
  size_t Insts = 0, Identical = 0;
  uint64_t GeneratedHash = 0;
  std::string Error;
};

/// The three flip callback tiers, exactly as `dcb flip` wires them.
analyzer::BitFlipper makeFlipper(analyzer::IsaAnalyzer &Analyzer, Arch A) {
  return analyzer::BitFlipper(
      Analyzer,
      [A](const std::string &Name, const std::vector<uint8_t> &Code) {
        return vendor::disassembleKernelCode(A, Name, Code);
      },
      [A](const std::string &Name, const std::vector<uint8_t> &Code,
          uint64_t Addr) {
        return vendor::disassembleInstructionAt(A, Name, Code, Addr);
      },
      [A](const std::string &Name, const std::vector<uint8_t> &Code,
          uint64_t Addr) -> Expected<analyzer::WindowDecode> {
        Expected<vendor::DecodedWord> W =
            vendor::decodeInstructionAt(A, Name, Code, Addr);
        if (!W)
          return W.takeError();
        analyzer::WindowDecode D;
        if (!W->IsSchi) {
          D.HasPair = true;
          D.Pair.Address = W->Address;
          D.Pair.Inst = std::move(W->Inst);
          D.Pair.Binary = std::move(W->Word);
        }
        return D;
      });
}

ArchPass learnArch(const SuiteArch &S) {
  ArchPass Out;
  Expected<std::string> Text = [&] {
    Span Sp("vendor.listing");
    return vendor::disassembleCubin(S.Cubin);
  }();
  if (!Text) {
    Out.Error = Text.message();
    return Out;
  }
  Expected<analyzer::Listing> L = [&] {
    Span Sp("analyzer.parse");
    return analyzer::parseListing(*Text);
  }();
  if (!L) {
    Out.Error = L.message();
    return Out;
  }
  analyzer::IsaAnalyzer Analyzer(S.A);
  {
    Span Sp("analyzer.analyze");
    if (Error E = Analyzer.analyzeListing(*L)) {
      Out.Error = E.message();
      return Out;
    }
  }
  std::map<std::string, std::vector<uint8_t>> KernelCode;
  for (const elf::KernelSection &K : S.Cubin.kernels())
    KernelCode[K.Name] = K.Code;
  analyzer::BitFlipper Flipper = makeFlipper(Analyzer, S.A);
  std::vector<analyzer::BitFlipper::RoundStats> Rounds;
  {
    Span Sp("analyzer.flip");
    Rounds = Flipper.run(KernelCode, analyzer::BitFlipper::Options());
  }
  for (const analyzer::BitFlipper::RoundStats &R : Rounds) {
    Out.Variants += R.VariantsTried;
    Out.Accepted += R.Accepted;
    Out.Crashes += R.Crashes;
    Out.CacheHits += R.CacheHits;
  }
  std::string Generated;
  {
    Span Sp("asmgen.generate");
    Generated = asmgen::generateAssemblerSource(Analyzer.database());
  }
  Out.GeneratedHash = hash64(Generated);

  std::vector<asmgen::AsmJob> Jobs;
  for (const analyzer::ListingKernel &K : L->Kernels)
    for (const analyzer::ListingInst &Pair : K.Insts)
      Jobs.push_back({&Pair.Inst, Pair.Address});
  std::vector<Expected<BitString>> Words;
  {
    Span Sp("asmgen.reassemble");
    Words = asmgen::assembleProgram(Analyzer.database(), Jobs, BatchOptions());
  }
  size_t Idx = 0;
  for (const analyzer::ListingKernel &K : L->Kernels)
    for (const analyzer::ListingInst &Pair : K.Insts) {
      Expected<BitString> &W = Words[Idx++];
      Out.Identical += W && *W == Pair.Binary;
    }
  Out.Insts = Jobs.size();
  Out.Db = std::move(Analyzer.database());
  return Out;
}

} // namespace

analyzer::EncodingDatabase learnDatabase(const SuiteArch &S) {
  ArchPass P = learnArch(S);
  if (!P.Error.empty())
    fatal("learning " + std::string(archName(S.A)) + ": " + P.Error);
  return std::move(P.Db);
}

void runLearn(const RunConfig &Cfg, Result &R) {
  const std::vector<SuiteArch> &Suites = suites();
  size_t SuiteWords = 0, SuiteInsts = 0;
  for (const SuiteArch &S : Suites)
    SuiteWords += S.Words;

  // One untimed pass fixes the reference outputs every timed pass must
  // reproduce: the generated assembler of each architecture.
  std::vector<uint64_t> RefHash;
  for (const SuiteArch &S : Suites) {
    ArchPass P = learnArch(S);
    R.check(P.Error.empty() && P.Identical == P.Insts,
            std::string("learn reference pass ") + archName(S.A));
    RefHash.push_back(P.GeneratedHash);
    SuiteInsts += P.Insts;
  }

  Tracer &T = Tracer::get();
  std::vector<double> PassMs;
  std::vector<bool> Traced;
  uint64_t Variants = 0, Accepted = 0, Crashes = 0, CacheHits = 0;
  uint64_t PassVariants = 0;
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(Cfg.Seconds * 1e9);
  for (uint64_t Pass = 1;; ++Pass) {
    Traced.push_back(tracedUnit(Cfg, Pass));
    setTracing(Traced.back());
    uint64_t P0 = nowNs();
    uint64_t ThisVariants = 0;
    bool Ok = true;
    std::string Why;
    {
      Span Root("bench.pass", Pass);
      for (size_t I = 0; I < Suites.size(); ++I) {
        ArchPass P = learnArch(Suites[I]);
        if (!P.Error.empty() || P.Identical != P.Insts ||
            P.GeneratedHash != RefHash[I]) {
          Ok = false;
          Why = std::string(archName(Suites[I].A)) + ": " +
                (P.Error.empty() ? std::to_string(P.Identical) + "/" +
                                       std::to_string(P.Insts) +
                                       " identical, generator hash " +
                                       (P.GeneratedHash == RefHash[I]
                                            ? "stable"
                                            : "changed")
                                 : P.Error);
        }
        ThisVariants += P.Variants;
        Accepted += P.Accepted;
        Crashes += P.Crashes;
        CacheHits += P.CacheHits;
      }
    }
    PassMs.push_back(static_cast<double>(nowNs() - P0) / 1e6);
    R.check(Ok, "learn pass " + std::to_string(Pass) + ": " + Why);
    if (PassVariants && ThisVariants != PassVariants)
      R.check(false, "flip variant count changed between passes");
    PassVariants = ThisVariants;
    Variants += ThisVariants;
    if (Cfg.Probe || nowNs() >= Deadline)
      break;
  }
  setTracing(false);
  uint64_t End = nowNs();

  std::vector<double> Plain = splitTraced(PassMs, Traced, R);
  double P50 = median(Plain), Fast = quantile(Plain, FastQuantile);
  Tail Tl = tail(Plain);
  R.e2e("p5_ms", Fast, "ms");
  R.e2e("rate_per_s", static_cast<double>(SuiteWords) / (Fast / 1e3), "1/s");
  R.named("pass_ms", P50, "ms");
  R.named("p99_ms", Tl.Value, "ms");
  R.property("suite: " + std::to_string(Suites.size()) + " archs, " +
             std::to_string(SuiteWords) + " words, " +
             std::to_string(SuiteInsts) + " instructions reassembled per pass");
  R.property("passes: " + std::to_string(Plain.size()) + "; tail = p" +
             std::to_string(Tl.Percentile) + " with " +
             std::to_string(Tl.Beyond) + " samples beyond; p5 with " +
             std::to_string(samplesBelow(Plain.size(), FastQuantile)) +
             " below");

  if (!Cfg.Trace)
    return;
  double Passes = 0;
  for (size_t I = 0; I < PassMs.size(); ++I)
    if (Traced[I]) {
      Passes += 1;
      R.TimedWallMs += PassMs[I];
    }
  R.Modules = T.selfTimes(Start, End);
  for (const char *Name : {"vendor.listing", "analyzer.parse",
                           "analyzer.analyze", "analyzer.flip",
                           "asmgen.generate", "asmgen.reassemble"}) {
    R.layer(std::string(Name) + "_ms", T.totalMs(Name, Start, End) / Passes,
            "ms");
  }
  R.layer("analyzer.flip_variants", static_cast<double>(PassVariants),
          "count");
  double Tried = static_cast<double>(Variants);
  R.layer("analyzer.flip_accept_ratio", Accepted / Tried, "ratio");
  R.layer("analyzer.flip_crash_ratio", Crashes / Tried, "ratio");
  R.layer("analyzer.flip_cache_hit_ratio", CacheHits / Tried, "ratio");
}

} // namespace perfbench
} // namespace dcb

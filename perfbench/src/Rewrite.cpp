//===- perfbench/src/Rewrite.cpp - The binary-rewriting workload ----------===//
//
// rewrite: `dcb instrument --clear-regs` plus `dcb verify`, in-process,
// over a seeded corpus of cubins spread across the 8 architectures. Each
// cubin is loaded, disassembled by the oracle, parsed, lifted to IR,
// instrumented and verified, emitted with the learned database, and its
// original listing is reassembled and compared. Timed passes run one lane
// (see TimedLanes); an untimed reference pass on `nproc` lanes fixes the
// images they must reproduce. The VM check runs outside the timed passes.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gen.h"
#include "Measure.h"
#include "Trace.h"

#include "asmgen/TableAssembler.h"
#include "ir/Builder.h"
#include "ir/Layout.h"
#include "sass/Printer.h"
#include "serve/Ops.h"
#include "support/Hash.h"
#include "support/Telemetry.h"
#include "transform/Passes.h"
#include "vendor/CuobjdumpSim.h"
#include "vm/Differ.h"

#include <set>

namespace dcb {
namespace perfbench {

namespace {

/// The registers `dcb instrument --clear-regs 9,10` clears before exit.
const std::vector<unsigned> ClearRegs = {9, 10};

/// Lanes of the timed passes. On a shared 4-core virtual machine, 4-lane
/// passes of the same build read 377-937 ms across ten runs while one-lane
/// work stayed within a few percent; the untimed reference pass still runs
/// on `nproc` lanes, and every timed image must match it byte for byte.
constexpr unsigned TimedLanes = 1;

struct CubinOut {
  bool Ok = true;
  std::string Why;
  uint64_t ImageHash = 0;
  size_t Insts = 0;
  unsigned Sites = 0;
  std::vector<uint8_t> Image;
};

CubinOut rewriteCubin(const CorpusCubin &In,
                      const analyzer::EncodingDatabase &Db, unsigned Lanes,
                      bool KeepImage) {
  CubinOut Out;
  auto Fail = [&Out](const std::string &Why) {
    Out.Ok = false;
    Out.Why = Why;
    return Out;
  };
  Expected<elf::Cubin> Cubin = [&] {
    Span Sp("elf.load");
    return elf::Cubin::deserialize(In.Image);
  }();
  if (!Cubin)
    return Fail(Cubin.message());
  vendor::DisasmOptions DOpts;
  DOpts.NumThreads = Lanes;
  Expected<std::string> Text = [&] {
    Span Sp("vendor.disasm");
    return vendor::disassembleCubin(*Cubin, DOpts);
  }();
  if (!Text)
    return Fail(Text.message());
  Expected<analyzer::Listing> L = [&] {
    Span Sp("analyzer.parse");
    return analyzer::parseListing(*Text);
  }();
  if (!L)
    return Fail(L.message());
  Expected<ir::Program> P = [&] {
    Span Sp("ir.lift");
    return ir::buildProgram(*L);
  }();
  if (!P)
    return Fail(P.message());

  unsigned Sites = 0;
  std::vector<transform::Pass> Pipeline = {
      {"clear-regs", [&Sites](ir::Kernel &K) {
         Sites += transform::clearRegistersBeforeExit(K, ClearRegs);
       }}};
  for (ir::Kernel &K : P->Kernels) {
    Span Sp("transform.passes");
    if (!transform::runPasses(K, Pipeline).ok())
      return Fail("verification failed for kernel " + K.Name);
  }
  Out.Sites = Sites;
  Expected<std::vector<uint8_t>> Image = [&] {
    Span Sp("ir.emit");
    return ir::emitProgram(Db, *P, In.Image);
  }();
  if (!Image)
    return Fail(Image.message());
  Out.ImageHash = hash64(std::string_view(
      reinterpret_cast<const char *>(Image->data()), Image->size()));
  if (KeepImage)
    Out.Image = *Image;

  std::vector<asmgen::AsmJob> Jobs;
  for (const analyzer::ListingKernel &K : L->Kernels)
    for (const analyzer::ListingInst &Pair : K.Insts)
      Jobs.push_back({&Pair.Inst, Pair.Address});
  BatchOptions BOpts;
  BOpts.NumThreads = Lanes;
  std::vector<Expected<BitString>> Words = [&] {
    Span Sp("asmgen.assemble");
    return asmgen::assembleProgram(Db, Jobs, BOpts);
  }();
  size_t Idx = 0, Identical = 0;
  for (const analyzer::ListingKernel &K : L->Kernels)
    for (const analyzer::ListingInst &Pair : K.Insts) {
      Expected<BitString> &W = Words[Idx++];
      Identical += W && *W == Pair.Binary;
    }
  Out.Insts = Jobs.size();
  if (Identical != Jobs.size())
    return Fail(std::to_string(Identical) + "/" + std::to_string(Jobs.size()) +
                " reassembled byte-identically");
  return Out;
}

/// The suite kernel a corpus kernel was copied from ("bfs_3_17" -> "bfs").
std::string sourceKernel(const std::string &Name) {
  size_t Last = Name.rfind('_');
  size_t Prev = Name.rfind('_', Last - 1);
  return Name.substr(0, Prev);
}

/// The untimed VM check: the instrumented image must re-decode cleanly
/// with the oracle and behave like the original on the VM. Each distinct
/// suite kernel is checked once per architecture (the corpus repeats
/// them).
void checkOnVm(const CorpusCubin &In, const std::vector<uint8_t> &NewImage,
               std::set<std::pair<Arch, std::string>> &Seen, Result &R,
               unsigned &Mismatched, unsigned &Skipped) {
  std::string Name = std::string("rewrite cubin ") + archName(In.A);
  Expected<ir::Program> Orig = serve::loadProgramBytes(
      std::string(In.Image.begin(), In.Image.end()), Name);
  Expected<ir::Program> New = serve::loadProgramBytes(
      std::string(NewImage.begin(), NewImage.end()), Name);
  R.check(Orig.hasValue() && New.hasValue(),
          Name + ": instrumented image does not re-decode");
  if (!Orig || !New)
    return;
  ir::Program A, B;
  A.A = B.A = In.A;
  for (size_t K = 0; K < Orig->Kernels.size(); ++K)
    if (Seen.insert({In.A, sourceKernel(Orig->Kernels[K].Name)}).second) {
      A.Kernels.push_back(Orig->Kernels[K]);
      B.Kernels.push_back(New->Kernels[K]);
    }
  if (A.Kernels.empty())
    return;
  vm::ExecOptions Opts;
  Opts.Seeds = 2;
  vm::DiffResult D = vm::diffPrograms(A, B, Opts);
  R.check(D.clean(), Name + ": VM differential mismatch");
  Mismatched += D.Mismatched;
  Skipped += D.Skipped;
}

} // namespace

void runRewrite(const RunConfig &Cfg, Result &R) {
  writeSuiteFiles(Cfg);
  std::vector<CorpusCubin> Corpus = makeRewriteCorpus(Cfg.Seed);
  std::map<Arch, analyzer::EncodingDatabase> Dbs;
  for (const SuiteArch &S : suites()) {
    Expected<analyzer::EncodingDatabase> Db =
        analyzer::EncodingDatabase::deserialize(readFileOrDie(dbPath(Cfg, S.A)));
    if (!Db)
      fatal(Db.message());
    Dbs.emplace(S.A, Db.takeValue()).first->second.freeze();
  }
  size_t Words = 0, Kernels = 0;
  std::map<Arch, std::pair<size_t, size_t>> PerArch; // kernels, words
  for (const CorpusCubin &C : Corpus) {
    Words += C.Words;
    Kernels += C.Kernels;
    PerArch[C.A].first += C.Kernels;
    PerArch[C.A].second += C.Words;
  }

  // Reference pass on `nproc` lanes, untimed: the images every one-lane
  // timed pass must reproduce, and the input to the VM check.
  std::vector<uint64_t> RefHash;
  size_t Insts = 0;
  unsigned RefSites = 0, Mismatched = 0, Skipped = 0;
  std::set<std::pair<Arch, std::string>> Seen;
  for (const CorpusCubin &C : Corpus) {
    CubinOut O = rewriteCubin(C, Dbs.at(C.A), Cfg.Lanes, /*KeepImage=*/true);
    R.check(O.Ok, std::string("rewrite reference ") + archName(C.A) + ": " +
                      O.Why);
    RefHash.push_back(O.ImageHash);
    Insts += O.Insts;
    RefSites += O.Sites;
    if (O.Ok && !Cfg.Probe)
      checkOnVm(C, O.Image, Seen, R, Mismatched, Skipped);
  }

  Tracer &T = Tracer::get();
  telemetry::HistData Wait0 =
      telemetry::histogram("taskpool.queue_wait_ns").snapshot();
  uint64_t Batches0 = telemetry::counter("taskpool.batches").value();

  std::vector<double> PassMs;
  std::vector<bool> Traced;
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(Cfg.Seconds * 1e9);
  for (uint64_t Pass = 1;; ++Pass) {
    Traced.push_back(tracedUnit(Cfg, Pass));
    setTracing(Traced.back());
    uint64_t P0 = nowNs();
    unsigned Sites = 0;
    {
      Span Root("bench.pass", Pass);
      for (size_t I = 0; I < Corpus.size(); ++I) {
        CubinOut O = rewriteCubin(Corpus[I], Dbs.at(Corpus[I].A), TimedLanes,
                                  /*KeepImage=*/false);
        bool Ok = O.Ok && O.ImageHash == RefHash[I];
        // The message is built only on failure: it would otherwise be the
        // largest share of the benchmark's own time inside a pass.
        R.check(Ok, Ok ? std::string()
                       : "rewrite pass " + std::to_string(Pass) + " cubin " +
                             std::to_string(I) + ": " +
                             (O.Ok ? "image differs from the nproc-lane run"
                                   : O.Why));
        Sites += O.Sites;
      }
    }
    PassMs.push_back(static_cast<double>(nowNs() - P0) / 1e6);
    R.check(Sites == RefSites, "transform site count changed");
    if (Cfg.Probe || nowNs() >= Deadline)
      break;
  }
  setTracing(false);
  uint64_t End = nowNs();

  std::vector<double> Plain = splitTraced(PassMs, Traced, R);
  double P50 = median(Plain), Fast = quantile(Plain, FastQuantile);
  Tail Tl = tail(Plain);
  R.e2e("p5_ms", Fast, "ms");
  R.e2e("rate_per_s", static_cast<double>(Words) / (Fast / 1e3), "1/s");
  R.named("pass_ms", P50, "ms");
  R.named("words_per_s", static_cast<double>(Words) / (P50 / 1e3), "words/s");
  R.named("p99_ms", Tl.Value, "ms");
  R.property("corpus: " + std::to_string(Corpus.size()) + " cubins, " +
             std::to_string(Kernels) + " kernels, " + std::to_string(Words) +
             " words, " + std::to_string(Insts) + " instructions, " +
             std::to_string(RefSites) + " clear-regs sites per pass");
  std::string ByArch = "corpus by arch (kernels/words):";
  for (const auto &[A, KW] : PerArch)
    ByArch += std::string(" ") + archName(A) + "=" + std::to_string(KW.first) +
              "/" + std::to_string(KW.second);
  R.property(ByArch);
  std::string Sizes = "cubin sizes (kernels):";
  for (const CorpusCubin &C : Corpus)
    Sizes += tagged(" ", C.Kernels);
  R.property(Sizes);
  R.property("lanes: " + std::to_string(TimedLanes) + " timed, " +
             std::to_string(Cfg.Lanes) + " in the reference pass; passes: " +
             std::to_string(Plain.size()) + "; tail = p" +
             std::to_string(Tl.Percentile) + " with " +
             std::to_string(Tl.Beyond) + " samples beyond; p5 with " +
             std::to_string(samplesBelow(Plain.size(), FastQuantile)) +
             " below");
  if (!Cfg.Probe)
    R.property("vm check: " + std::to_string(Seen.size()) +
               " distinct kernels, " + std::to_string(Mismatched) +
               " mismatched, " + std::to_string(Skipped) + " skipped");

  if (!Cfg.Trace)
    return;
  double Passes = 0;
  for (size_t I = 0; I < PassMs.size(); ++I)
    if (Traced[I]) {
      Passes += 1;
      R.TimedWallMs += PassMs[I];
    }
  R.Modules = T.selfTimes(Start, End);
  double CubinsRun = Passes * static_cast<double>(Corpus.size());
  double WordsRun = Passes * static_cast<double>(Words);
  double InstsRun = Passes * static_cast<double>(Insts);
  double KernelsRun = Passes * static_cast<double>(Kernels);
  R.layer("elf.load_us", T.totalMs("elf.load", Start, End) * 1e3 / CubinsRun,
          "us");
  R.layer("vendor.disasm_ns_per_word",
          T.totalMs("vendor.disasm", Start, End) * 1e6 / WordsRun, "ns");
  R.layer("analyzer.parse_ns_per_inst",
          T.totalMs("analyzer.parse", Start, End) * 1e6 / InstsRun, "ns");
  R.layer("ir.lift_ns_per_inst",
          T.totalMs("ir.lift", Start, End) * 1e6 / InstsRun, "ns");
  R.layer("transform.passes_us_per_kernel",
          T.totalMs("transform.passes", Start, End) * 1e3 / KernelsRun, "us");
  R.layer("transform.sites", RefSites, "count");
  R.layer("ir.emit_ns_per_inst",
          T.totalMs("ir.emit", Start, End) * 1e6 / InstsRun, "ns");
  R.layer("asmgen.assemble_ns_per_inst",
          T.totalMs("asmgen.assemble", Start, End) * 1e6 / InstsRun, "ns");
  // Counters run during the traced passes only.
  telemetry::HistData Wait = histDelta(
      telemetry::histogram("taskpool.queue_wait_ns").snapshot(), Wait0);
  uint64_t Batches = telemetry::counter("taskpool.batches").value();
  R.layer("support.taskpool_batches",
          static_cast<double>(Batches - Batches0) / Passes, "count");
  R.layer("support.taskpool_queue_wait_p50_us",
          telemetry::histQuantile(Wait, 0.5) / 1e3, "us");

  // Decode and print apart, on the same kernels, after the timed window:
  // the disassembler's time split into its two halves.
  uint64_t DecodeNs = 0, PrintNs = 0;
  size_t Decoded = 0;
  for (const CorpusCubin &C : Corpus) {
    Expected<elf::Cubin> Cubin = elf::Cubin::deserialize(C.Image);
    if (!Cubin)
      continue;
    for (const elf::KernelSection &K : Cubin->kernels()) {
      uint64_t T0 = nowNs();
      Expected<std::vector<vendor::DecodedWord>> W =
          vendor::decodeKernelCode(C.A, K.Name, K.Code);
      uint64_t T1 = nowNs();
      if (!W)
        continue;
      for (const vendor::DecodedWord &D : *W)
        if (!D.IsSchi) {
          sass::printInstruction(D.Inst);
          ++Decoded;
        }
      PrintNs += nowNs() - T1;
      DecodeNs += T1 - T0;
    }
  }
  R.layer("vendor.decode_ns_per_word",
          static_cast<double>(DecodeNs) / static_cast<double>(Words), "ns");
  R.layer("sass.print_ns_per_inst",
          static_cast<double>(PrintNs) / static_cast<double>(Decoded), "ns");
}

} // namespace perfbench
} // namespace dcb

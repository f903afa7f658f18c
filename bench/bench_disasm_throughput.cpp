//===- bench/bench_disasm_throughput.cpp - Decode pipeline -----------------===//
//
// Measures binary -> SASS decode throughput over the whole synthetic suite,
// per architecture family:
//
//  * form dispatch alone: the pre-change linear scan over every InstrSpec
//    (ArchSpec::matchLinear) against the frozen DecodeIndex dispatch
//    (ArchSpec::match on a frozen spec),
//  * the full decodeInstruction path against an unindexed clone of the
//    spec — the complete pre-change decoder — and
//  * whole-cubin listings (vendor::disassembleCubin) with kernels fanned
//    across 1, 2 and 4 lanes.
//
// The report section prints both single-thread speedups and checks the
// cubin disassembler's determinism contract: listings are byte-identical
// for every lane count, diagnostics included.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "encoder/Encoder.h"
#include "isa/Spec.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

using namespace dcb;
using namespace dcb::bench;

namespace {

/// Every decodable (non-SCHI) instruction word of the suite, with address.
struct WordJob {
  const BitString *Word;
  uint64_t Pc;
};

std::vector<WordJob> suiteWords(const analyzer::Listing &L) {
  std::vector<WordJob> Jobs;
  for (const analyzer::ListingKernel &Kernel : L.Kernels)
    for (const analyzer::ListingInst &Pair : Kernel.Insts)
      Jobs.push_back({&Pair.Binary, Pair.Address});
  return Jobs;
}

/// A fresh never-frozen copy of the hidden spec: its match() takes the
/// linear-scan path, giving the pre-change decoder as a live baseline.
std::unique_ptr<isa::ArchSpec> unindexedClone(const isa::ArchSpec &Spec) {
  auto Clone = std::make_unique<isa::ArchSpec>();
  Clone->A = Spec.A;
  Clone->Family = Spec.Family;
  Clone->WordBits = Spec.WordBits;
  Clone->RegBits = Spec.RegBits;
  Clone->NumRegs = Spec.NumRegs;
  Clone->GuardField = Spec.GuardField;
  Clone->Instrs = Spec.Instrs;
  return Clone;
}

/// One family representative per supported encoding generation.
const Arch ReportArchs[] = {Arch::SM20, Arch::SM35, Arch::SM50, Arch::SM61};

template <typename MatchFn>
double secondsPerDispatchSweep(const std::vector<WordJob> &Jobs,
                               unsigned Repeats, MatchFn Match) {
  auto Start = std::chrono::steady_clock::now();
  for (unsigned R = 0; R < Repeats; ++R)
    for (const WordJob &Job : Jobs) {
      const isa::InstrSpec *Form = Match(*Job.Word);
      benchmark::DoNotOptimize(Form);
    }
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count() / Repeats;
}

double secondsPerDecodeSweep(const isa::ArchSpec &Spec,
                             const std::vector<WordJob> &Jobs,
                             unsigned Repeats) {
  auto Start = std::chrono::steady_clock::now();
  for (unsigned R = 0; R < Repeats; ++R)
    for (const WordJob &Job : Jobs) {
      Expected<sass::Instruction> Inst =
          encoder::decodeInstruction(Spec, *Job.Word, Job.Pc);
      benchmark::DoNotOptimize(Inst);
    }
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count() / Repeats;
}

void report() {
  std::printf("=== Decode throughput: linear scan vs frozen index ===\n");
  for (Arch A : ReportArchs) {
    const ArchData &Data = archData(A);
    std::vector<WordJob> Jobs = suiteWords(Data.Listing);
    const isa::ArchSpec &Spec = isa::getArchSpec(A); // Frozen at build.
    std::unique_ptr<isa::ArchSpec> Linear = unindexedClone(Spec);

    // Sanity: both dispatchers agree on every suite word before timing.
    for (const WordJob &Job : Jobs) {
      if (Spec.match(*Job.Word) != Spec.matchLinear(*Job.Word)) {
        std::printf("DISPATCH PARITY VIOLATION on %s at 0x%llx\n",
                    archName(A),
                    static_cast<unsigned long long>(Job.Pc));
        std::abort();
      }
    }

    const unsigned Repeats = 200;
    double ScanSec = secondsPerDispatchSweep(
        Jobs, Repeats,
        [&](const BitString &W) { return Spec.matchLinear(W); });
    double IdxSec = secondsPerDispatchSweep(
        Jobs, Repeats, [&](const BitString &W) { return Spec.match(W); });
    std::printf("%-6s %5zu words  dispatch: linear %9.0f words/s  "
                "indexed %9.0f words/s  speedup %.2fx\n",
                archName(A), Jobs.size(), Jobs.size() / ScanSec,
                Jobs.size() / IdxSec, IdxSec > 0 ? ScanSec / IdxSec : 0.0);

    const unsigned DecRepeats = 40;
    double LinDecSec = secondsPerDecodeSweep(*Linear, Jobs, DecRepeats);
    double IdxDecSec = secondsPerDecodeSweep(Spec, Jobs, DecRepeats);
    std::printf("%-6s %5zu words  decode:   linear %9.0f words/s  "
                "indexed %9.0f words/s  speedup %.2fx\n",
                archName(A), Jobs.size(), Jobs.size() / LinDecSec,
                Jobs.size() / IdxDecSec,
                IdxDecSec > 0 ? LinDecSec / IdxDecSec : 0.0);

    // Determinism: the listing must be byte-identical for every lane
    // count, and so must any diagnostics.
    Expected<std::string> Serial =
        vendor::disassembleCubin(Data.Cubin, {1});
    for (unsigned Lanes : {2u, 4u, 0u}) {
      Expected<std::string> Parallel =
          vendor::disassembleCubin(Data.Cubin, {Lanes});
      bool Identical =
          Serial.hasValue() == Parallel.hasValue() &&
          (Serial.hasValue() ? *Serial == *Parallel
                             : Serial.message() == Parallel.message());
      if (!Identical) {
        std::printf("DETERMINISM VIOLATION at %u lanes on %s\n", Lanes,
                    archName(A));
        std::abort();
      }
    }
  }
  std::printf("determinism: 1/2/4/hw lanes byte-identical on all report "
              "architectures\n\n");
}

/// Pre-change baseline: full decode against a never-frozen spec clone.
void BM_DecodeLinear(benchmark::State &State) {
  Arch A = static_cast<Arch>(State.range(0));
  const ArchData &Data = archData(A);
  std::vector<WordJob> Jobs = suiteWords(Data.Listing);
  std::unique_ptr<isa::ArchSpec> Linear =
      unindexedClone(isa::getArchSpec(A));
  for (auto _ : State)
    for (const WordJob &Job : Jobs) {
      Expected<sass::Instruction> Inst =
          encoder::decodeInstruction(*Linear, *Job.Word, Job.Pc);
      benchmark::DoNotOptimize(Inst);
    }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Jobs.size()));
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Jobs.size()) *
                          (Linear->WordBits / 8));
}

/// The indexed decoder (frozen built-in spec).
void BM_DecodeIndexed(benchmark::State &State) {
  Arch A = static_cast<Arch>(State.range(0));
  const ArchData &Data = archData(A);
  std::vector<WordJob> Jobs = suiteWords(Data.Listing);
  const isa::ArchSpec &Spec = isa::getArchSpec(A);
  for (auto _ : State)
    for (const WordJob &Job : Jobs) {
      Expected<sass::Instruction> Inst =
          encoder::decodeInstruction(Spec, *Job.Word, Job.Pc);
      benchmark::DoNotOptimize(Inst);
    }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Jobs.size()));
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Jobs.size()) *
                          (Spec.WordBits / 8));
}

/// Whole-cubin listing production at State.range(1) lanes.
void BM_DisassembleCubin(benchmark::State &State) {
  Arch A = static_cast<Arch>(State.range(0));
  const ArchData &Data = archData(A);
  vendor::DisasmOptions Options;
  Options.NumThreads = static_cast<unsigned>(State.range(1));
  for (auto _ : State) {
    Expected<std::string> Text =
        vendor::disassembleCubin(Data.Cubin, Options);
    benchmark::DoNotOptimize(Text);
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Data.ListingText.size()));
}

void forEachReportArch(benchmark::internal::Benchmark *B) {
  for (Arch A : ReportArchs)
    B->Arg(static_cast<int>(A));
}

void forEachArchAndLanes(benchmark::internal::Benchmark *B) {
  for (Arch A : ReportArchs)
    for (int Lanes : {1, 2, 4})
      B->Args({static_cast<int>(A), Lanes});
}

} // namespace

BENCHMARK(BM_DecodeLinear)
    ->Apply(forEachReportArch)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecodeIndexed)
    ->Apply(forEachReportArch)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DisassembleCubin)
    ->Apply(forEachArchAndLanes)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  report();
  dcb::bench::addTelemetryContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

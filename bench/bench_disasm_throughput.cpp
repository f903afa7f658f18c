//===- bench/bench_disasm_throughput.cpp - Decode pipeline -----------------===//
//
// Measures binary -> SASS decode throughput over the whole synthetic suite,
// per architecture family:
//
//  * form dispatch alone: a file-local linear scan over every InstrSpec,
//    the pre-index baseline, against the DecodeIndex dispatch
//    (ArchSpec::match),
//  * the full decodeInstruction path, and
//  * whole-cubin listings (vendor::disassembleCubin) with kernels fanned
//    across 1, 2 and 4 lanes.
//
// The report section prints the single-thread dispatch speedup and checks
// the cubin disassembler's determinism contract: listings are
// byte-identical for every lane count, diagnostics included.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "encoder/Encoder.h"
#include "isa/Spec.h"

#include <benchmark/benchmark.h>

#include <chrono>

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

/// The pre-index baseline: the first form in table order whose opcode
/// pattern matches the word's low 64 bits.
const isa::InstrSpec *linearMatch(const isa::ArchSpec &Spec,
                                  const BitString &Word) {
  uint64_t Low = Word.field(0, 64);
  for (const isa::InstrSpec &Form : Spec.Instrs)
    if ((Low & Form.OpcodeMask) == Form.OpcodeValue)
      return &Form;
  return nullptr;
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

void report() {
  std::printf("=== Decode throughput: linear scan vs decode index ===\n");
  for (Arch A : ReportArchs) {
    const ArchData &Data = archData(A);
    std::vector<WordJob> Jobs = suiteWords(Data.Listing);
    const isa::ArchSpec &Spec = isa::getArchSpec(A);

    // Sanity: both dispatchers agree on every suite word before timing.
    for (const WordJob &Job : Jobs) {
      if (Spec.match(*Job.Word) != linearMatch(Spec, *Job.Word)) {
        std::printf("DISPATCH PARITY VIOLATION on %s at 0x%llx\n",
                    archName(A),
                    static_cast<unsigned long long>(Job.Pc));
        std::abort();
      }
    }

    const unsigned Repeats = 200;
    double ScanSec = secondsPerDispatchSweep(
        Jobs, Repeats,
        [&](const BitString &W) { return linearMatch(Spec, W); });
    double IdxSec = secondsPerDispatchSweep(
        Jobs, Repeats, [&](const BitString &W) { return Spec.match(W); });
    std::printf("%-6s %5zu words  dispatch: linear %9.0f words/s  "
                "indexed %9.0f words/s  speedup %.2fx\n",
                archName(A), Jobs.size(), Jobs.size() / ScanSec,
                Jobs.size() / IdxSec, IdxSec > 0 ? ScanSec / IdxSec : 0.0);

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

/// The pre-index baseline's form dispatch alone: the linear scan.
void BM_DecodeLinear(benchmark::State &State) {
  Arch A = static_cast<Arch>(State.range(0));
  const ArchData &Data = archData(A);
  std::vector<WordJob> Jobs = suiteWords(Data.Listing);
  const isa::ArchSpec &Spec = isa::getArchSpec(A);
  for (auto _ : State)
    for (const WordJob &Job : Jobs) {
      const isa::InstrSpec *Form = linearMatch(Spec, *Job.Word);
      benchmark::DoNotOptimize(Form);
    }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Jobs.size()));
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Jobs.size()) *
                          (Spec.WordBits / 8));
}

/// The full decoder, dispatching through the decode index.
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

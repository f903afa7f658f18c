//===- bench/bench_baseline_crossarch.cpp - §I/§VI coverage claim ----------===//
//
// The paper's motivation: prior assemblers (asfermi for CC 2.x, the SGEMM
// work for CC 3.x, MaxAs for CC 5.x) each cover ONE generation, while this
// framework generates assemblers for every generation from the same
// machinery. The report reproduces that comparison as a coverage matrix:
// each single-architecture baseline is an assembler fixed to its home
// generation and applied everywhere (as its real counterpart would be),
// versus the framework selecting the learned database per target. Cells
// are the percentage of suite instructions assembled byte-identically.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "asmgen/TableAssembler.h"

#include "sass/CtrlInfo.h"
#include "sass/Parser.h"

#include <benchmark/benchmark.h>

using namespace dcb;
using namespace dcb::bench;

namespace {

/// Percentage of target-arch suite instructions that \p Db reproduces.
double coverage(const analyzer::EncodingDatabase &Db, Arch Target) {
  const ArchData &Data = archData(Target);
  if (Db.wordBits() != archWordBits(Target))
    return 0.0; // A 64-bit assembler cannot even size Volta words.
  size_t Total = 0, Identical = 0;
  for (const analyzer::ListingKernel &Kernel : Data.Listing.Kernels) {
    Total += Kernel.Insts.size();
    Identical += asmgen::reassembleKernel(Db, Kernel);
  }
  return Total ? 100.0 * Identical / Total : 0.0;
}

void report() {
  struct Tool {
    const char *Name;
    Arch Home;
  };
  // Stand-ins for the single-generation tools the paper cites (§VI).
  const Tool Baselines[] = {
      {"asfermi-style (CC 2.x)", Arch::SM20},
      {"sgemm-tuning (CC 3.x)", Arch::SM35},
      {"MaxAs-style (CC 5.x)", Arch::SM50},
  };
  const Arch Targets[] = {Arch::SM20, Arch::SM30, Arch::SM35,
                          Arch::SM50, Arch::SM61};

  std::printf("=== Cross-architecture coverage: single-arch assemblers vs "
              "this framework ===\n");
  std::printf("%-26s", "tool");
  for (Arch T : Targets)
    std::printf(" %7s", archName(T));
  std::printf("\n");

  for (const Tool &B : Baselines) {
    const analyzer::EncodingDatabase &Db = archData(B.Home).FlippedDb;
    std::printf("%-26s", B.Name);
    for (Arch T : Targets)
      std::printf(" %6.1f%%", coverage(Db, T));
    std::printf("\n");
  }
  std::printf("%-26s", "this framework (per-arch)");
  for (Arch T : Targets)
    std::printf(" %6.1f%%", coverage(archData(T).FlippedDb, T));
  std::printf("\n");
  std::printf("\nexpected shape: each baseline is ~100%% at home (plus the "
              "generation that shares its encoding, e.g. CC 2.x covers "
              "3.0) and ~0%% elsewhere; the framework is 100%% "
              "everywhere.\n\n");

  // Ablation: the bit flipper's contribution to assembling NOVEL code
  // (instructions with operand values the suite never exhibited).
  std::printf("=== Ablation: suite-only vs flip-enriched database "
              "(novel-code assembly) ===\n");
  const char *Novel[] = {
      "IMUL R9, R8, 0x3;",       "IADD.X R40, R41, R42;",
      "FADD.RP R7, R8, R9;",     "SHL R20, R21, 0x9;",
      "MOV R60, 0x1234;",        "LOP.OR R11, R12, 0x3f;",
      "ISETP.LE.XOR P2, P3, R5, 0x7, P1;",
  };
  std::printf("%-7s %12s %12s\n", "arch", "suite-only", "with-flips");
  for (Arch A : {Arch::SM35, Arch::SM52}) {
    const ArchData &Data = archData(A);
    unsigned OkSuite = 0, OkFlipped = 0, N = 0;
    for (const char *Text : Novel) {
      auto Inst = sass::parseInstruction(Text);
      if (!Inst)
        continue;
      ++N;
      auto check = [&](const analyzer::EncodingDatabase &Db) {
        auto Word = asmgen::assembleInstruction(Db, *Inst, 0x8);
        if (!Word)
          return false;
        // Correct iff the oracle disassembler decodes the word when it
        // fills a whole SCHI group (positional rules must hold).
        const SchiKind Kind = archSchiKind(A);
        std::vector<BitString> Group(sass::paddedInstCount(Kind, 1), *Word);
        const sass::CtrlInfo Ctrl;
        std::vector<uint8_t> Code = sass::layoutCode(
            Kind, std::move(Group),
            [&Ctrl](size_t) -> const sass::CtrlInfo & { return Ctrl; });
        return vendor::disassembleKernelCode(A, "probe", Code)
            .hasValue();
      };
      OkSuite += check(Data.SuiteDb);
      OkFlipped += check(Data.FlippedDb);
    }
    std::printf("%-7s %9u/%-2u %9u/%-2u\n", archName(A), OkSuite, N,
                OkFlipped, N);
  }
  std::printf("(the flipper makes previously single-instance operations "
              "safely assemblable, §III-B)\n\n");
}

void BM_CoverageMatrixCell(benchmark::State &State) {
  const analyzer::EncodingDatabase &Db = archData(Arch::SM35).FlippedDb;
  for (auto _ : State) {
    double Pct = coverage(Db, Arch::SM35);
    benchmark::DoNotOptimize(Pct);
  }
}

} // namespace

BENCHMARK(BM_CoverageMatrixCell)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  report();
  dcb::bench::addTelemetryContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

//===- bench/bench_fig10_schi_maxwell.cpp - Paper Fig. 10 ------------------===//
//
// Fig. 10 shows the Maxwell/Pascal control-word extraction: every fourth
// word is an opcode-less SCHI whose three 21-bit groups carry stall, yield,
// write/read barrier and wait-mask values for the following three
// instructions. The report reproduces the figure's worked example — a load
// sets write barrier #1, a consumer waits on barriers #0 and #1 — and the
// benchmark times control-word packing/unpacking.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ir/Builder.h"
#include "sass/Printer.h"

#include <benchmark/benchmark.h>

using namespace dcb;
using namespace dcb::bench;

namespace {

void report() {
  const Arch A = Arch::SM52;

  // A memory-dependence-heavy kernel so barriers actually appear.
  vendor::KernelBuilder K("fig10", A);
  K.ins("MOV R1, c[0x0][0x4];");
  K.ins("LDG.E R2, [R1];");
  K.ins("IADD R3, R2, 0x1;");
  K.ins("STG.E [R1], R3;");
  K.ins("MOV R3, 0x5;");
  K.ins("LDG.E R4, [R1+0x8];");
  K.ins("FFMA R5, R4, R4, R4;");
  K.ins("STG.E [R1+0xc], R5;");
  K.exit();
  vendor::NvccSim Nvcc(A);
  Expected<vendor::CompiledKernel> Compiled = Nvcc.compileKernel(K);
  Expected<std::string> Text =
      vendor::disassembleKernelCode(A, "fig10", Compiled->Section.Code);
  Expected<analyzer::Listing> L = analyzer::parseListing(
      "code for " + std::string(archName(A)) + "\n" + *Text);
  const analyzer::ListingKernel &Kernel = L->Kernels.front();
  std::vector<sass::CtrlInfo> Ctrl = ir::splitSchedulingInfo(A, Kernel);

  std::printf("=== Fig. 10: Maxwell/Pascal control-word extraction ===\n");
  if (!Kernel.Schis.empty())
    std::printf("first SCHI word as shown by the disassembler: 0x%s\n",
                Kernel.Schis.front().Word.toHex().c_str());
  std::printf("split into per-instruction control values:\n");
  for (size_t I = 0; I < Kernel.Insts.size(); ++I)
    std::printf("  %s %s\n", Ctrl[I].str().c_str(),
                sass::printInstruction(Kernel.Insts[I].Inst).c_str());

  // Shape validation: the load sets a write barrier, its consumer waits on
  // it; the store sets a read barrier, the overwrite of its source waits.
  bool LoadSets = false, ConsumerWaits = false, StoreSets = false,
       AntiDepWaits = false;
  for (size_t I = 0; I < Kernel.Insts.size(); ++I) {
    const std::string_view Op = Kernel.Insts[I].Inst.opcode();
    if (Op == "LDG" && Ctrl[I].WriteBarrier != 7) {
      LoadSets = true;
      for (size_t J = I + 1; J < Kernel.Insts.size(); ++J)
        if (Ctrl[J].WaitMask & (1u << Ctrl[I].WriteBarrier))
          ConsumerWaits = true;
    }
    if (Op == "STG" && Ctrl[I].ReadBarrier != 7) {
      StoreSets = true;
      for (size_t J = I + 1; J < Kernel.Insts.size(); ++J)
        if (Ctrl[J].WaitMask & (1u << Ctrl[I].ReadBarrier))
          AntiDepWaits = true;
    }
  }
  std::printf("\nloads set write barriers: %s; consumers wait: %s\n",
              LoadSets ? "yes" : "NO", ConsumerWaits ? "yes" : "NO");
  std::printf("stores set read barriers: %s; anti-dependences wait: %s\n",
              StoreSets ? "yes" : "NO", AntiDepWaits ? "yes" : "NO");

  // The figure's arithmetic: barrier-wait mask 0b11 waits on #0 and #1.
  sass::CtrlInfo Example;
  Example.Stall = 6;
  Example.WaitMask = 0x3;
  std::printf("wait mask 0b000011 decodes as barriers #0 and #1: %s\n\n",
              Example.str().c_str());
}

void BM_PackUnpackMaxwellSchi(benchmark::State &State) {
  std::array<sass::CtrlInfo, 3> Slots;
  Slots[0].Stall = 3;
  Slots[1].WriteBarrier = 1;
  Slots[1].Stall = 13;
  Slots[1].Yield = true;
  Slots[2].WaitMask = 0x3;
  Slots[2].Stall = 6;
  for (auto _ : State) {
    BitString Word = sass::packMaxwellSchi(Slots);
    std::array<sass::CtrlInfo, 3> Back;
    sass::unpackMaxwellSchi(Word, Back);
    benchmark::DoNotOptimize(Back);
  }
}

void BM_SplitSchiMaxwellSuite(benchmark::State &State) {
  const ArchData &Data = archData(Arch::SM61);
  for (auto _ : State) {
    size_t Total = 0;
    for (const analyzer::ListingKernel &Kernel : Data.Listing.Kernels)
      Total += ir::splitSchedulingInfo(Arch::SM61, Kernel).size();
    benchmark::DoNotOptimize(Total);
  }
}

} // namespace

BENCHMARK(BM_PackUnpackMaxwellSchi);
BENCHMARK(BM_SplitSchiMaxwellSuite)->Unit(benchmark::kMicrosecond);

int main(int argc, char **argv) {
  report();
  dcb::bench::addTelemetryContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

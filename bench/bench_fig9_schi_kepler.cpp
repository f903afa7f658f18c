//===- bench/bench_fig9_schi_kepler.cpp - Paper Fig. 9 ---------------------===//
//
// Fig. 9 shows how the framework extracts the scheduling information for
// each group of seven instructions on Kepler GPUs: the SCHI word's seven
// 8-bit dispatch values are split and in-lined (0x2f - 0x1f = 16 cycles,
// 0x04 = may dual-issue, ...). The report reproduces that extraction on a
// Kepler kernel; the benchmark times SCHI splitting over the whole suite.
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
  for (Arch A : {Arch::SM30, Arch::SM35}) {
    const ArchData &Data = archData(A);
    const analyzer::ListingKernel &Kernel = Data.Listing.Kernels.front();
    std::vector<sass::CtrlInfo> Ctrl =
        ir::splitSchedulingInfo(A, Kernel);

    std::printf("=== Fig. 9: Kepler SCHI extraction (%s, kernel %s) ===\n",
                archName(A), Kernel.Name.c_str());
    if (!Kernel.Schis.empty())
      std::printf("first SCHI word as the disassembler shows it: 0x%s\n",
                  Kernel.Schis.front().Word.toHex().c_str());
    std::printf("split into per-instruction dispatch values:\n");
    for (size_t I = 0; I < Kernel.Insts.size() && I < 7; ++I) {
      const sass::CtrlInfo &Info = Ctrl[I];
      std::printf("  0x%02x  %-34s -> %s\n",
                  sass::encodeKeplerDispatch(Info),
                  sass::printInstruction(Kernel.Insts[I].Inst)
                      .substr(0, 34)
                      .c_str(),
                  Info.DualIssue
                      ? "may dual-issue with the next instruction"
                      : ("stall " + std::to_string(Info.Stall) + " cycles")
                            .c_str());
    }

    // Shape checks: dispatch values are exactly the encodable set, and the
    // worked identity of the figure holds.
    bool AllValid = true;
    unsigned DualIssues = 0;
    for (const sass::CtrlInfo &Info : Ctrl) {
      uint8_t Slot = sass::encodeKeplerDispatch(Info);
      AllValid &= Slot == 0x04 || (Slot >= 0x20 && Slot <= 0x3f);
      DualIssues += Info.DualIssue;
    }
    std::printf("all dispatch values in {0x04, 0x20..0x3f}: %s; "
                "dual-issue slots: %u\n",
                AllValid ? "yes" : "NO", DualIssues);
    std::printf("0x2f decodes to a stall of %u cycles (paper: 16)\n\n",
                sass::decodeKeplerDispatch(0x2f).Stall);
  }
}

void BM_SplitSchiWholeSuite(benchmark::State &State) {
  Arch A = static_cast<Arch>(State.range(0));
  const ArchData &Data = archData(A);
  for (auto _ : State) {
    size_t Total = 0;
    for (const analyzer::ListingKernel &Kernel : Data.Listing.Kernels) {
      auto Ctrl = ir::splitSchedulingInfo(A, Kernel);
      Total += Ctrl.size();
    }
    benchmark::DoNotOptimize(Total);
  }
}

} // namespace

BENCHMARK(BM_SplitSchiWholeSuite)
    ->Arg(static_cast<int>(Arch::SM30))
    ->Arg(static_cast<int>(Arch::SM35))
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char **argv) {
  report();
  dcb::bench::addTelemetryContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

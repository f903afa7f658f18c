//===- bench/bench_ablation_occupancy.cpp - §V register allocation ---------===//
//
// Ablation for the occupancy-tuning application (§V / Orion): sweep kernels
// of increasing register sparseness, compact each at the binary level, and
// report the occupancy before/after — the quantized staircase that makes
// binary-level register allocation worthwhile. The benchmark times the
// compaction pass itself.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ir/Builder.h"
#include "ir/Layout.h"
#include "transform/Occupancy.h"
#include "transform/Passes.h"
#include "transform/Registers.h"

#include <benchmark/benchmark.h>

using namespace dcb;
using namespace dcb::bench;

namespace {

/// A chain kernel whose registers are spread with the given stride.
vendor::KernelBuilder sparseKernel(Arch A, unsigned Stride) {
  vendor::KernelBuilder K("sparse", A);
  unsigned Reg = 0;
  auto nextReg = [&]() {
    unsigned Current = Reg;
    Reg += Stride;
    return Current;
  };
  unsigned Tid = nextReg();
  K.ins("S2R R" + std::to_string(Tid) + ", SR_TID.X;");
  unsigned Addr = nextReg();
  K.ins("SHL R" + std::to_string(Addr) + ", R" + std::to_string(Tid) +
        ", 0x2;");
  unsigned Prev = Addr;
  for (int I = 0; I < 8; ++I) {
    unsigned Dst = nextReg();
    K.ins("IADD R" + std::to_string(Dst) + ", R" + std::to_string(Prev) +
          ", 0x3;");
    Prev = Dst;
  }
  K.ins("STG.E [R" + std::to_string(Addr) + "+0x100], R" +
        std::to_string(Prev) + ";");
  return K.exit();
}

ir::Kernel lift(Arch A, vendor::KernelBuilder K) {
  vendor::NvccSim Nvcc(A);
  auto Compiled = Nvcc.compileKernel(K);
  auto Text = vendor::disassembleKernelCode(A, K.name(),
                                            Compiled->Section.Code);
  auto L = analyzer::parseListing("code for " +
                                  std::string(archName(A)) + "\n" + *Text);
  auto Kern = ir::buildKernel(A, L->Kernels.front());
  return Kern.takeValue();
}

void report() {
  const Arch A = Arch::SM52;
  const unsigned ThreadsPerBlock = 256;
  const ArchData &Data = archData(A);

  std::printf("=== Ablation: binary-level register compaction vs "
              "occupancy (%s, %u-thread blocks) ===\n",
              archName(A), ThreadsPerBlock);
  std::printf("%-8s %12s %12s %14s %14s %9s\n", "stride", "regs-before",
              "regs-after", "warps-before", "warps-after", "re-ok");
  for (unsigned Stride : {1u, 2u, 4u, 8u, 16u}) {
    ir::Kernel K = lift(A, sparseKernel(A, Stride));
    auto Before = transform::analyzeRegisterUsage(K);
    unsigned RegsBefore = static_cast<unsigned>(Before.MaxRegister) + 1;
    unsigned RegsAfter = transform::compactRegisters(K);
    transform::recomputeControlInfo(K);
    auto WarpsBefore = transform::computeOccupancy(A, RegsBefore, 0,
                                                   ThreadsPerBlock);
    auto WarpsAfter =
        transform::computeOccupancy(A, RegsAfter, 0, ThreadsPerBlock);
    auto Code = ir::emitKernel(Data.FlippedDb, K);
    bool Ok = Code.hasValue() &&
              vendor::disassembleKernelCode(A, "sparse", *Code).hasValue();
    std::printf("%-8u %12u %12u %14u %14u %9s\n", Stride, RegsBefore,
                RegsAfter, WarpsBefore.ResidentWarps,
                WarpsAfter.ResidentWarps, Ok ? "yes" : "NO");
    if (!Ok)
      std::abort();
  }
  std::printf("\nexpected shape: compacted register counts are "
              "stride-independent, so occupancy recovers to the maximum "
              "while sparse variants staircase down.\n\n");
}

void BM_CompactRegisters(benchmark::State &State) {
  const Arch A = Arch::SM52;
  ir::Kernel K = lift(A, sparseKernel(A, 8));
  for (auto _ : State) {
    ir::Kernel Copy = K;
    unsigned Count = transform::compactRegisters(Copy);
    benchmark::DoNotOptimize(Count);
  }
}

void BM_AnalyzeRegisterUsage(benchmark::State &State) {
  const Arch A = Arch::SM52;
  ir::Kernel K = lift(A, sparseKernel(A, 8));
  for (auto _ : State) {
    auto Usage = transform::analyzeRegisterUsage(K);
    benchmark::DoNotOptimize(Usage);
  }
}

} // namespace

BENCHMARK(BM_CompactRegisters);
BENCHMARK(BM_AnalyzeRegisterUsage);

int main(int argc, char **argv) {
  report();
  dcb::bench::addTelemetryContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

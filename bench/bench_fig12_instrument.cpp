//===- bench/bench_fig12_instrument.cpp - Paper Fig. 12 --------------------===//
//
// Fig. 12: instrumenting the code to clear some registers before exit (the
// taint-tracking / memory-protection application). The report shows the
// before/after assembly and proves in the interpreter that outputs are
// unchanged while the registers are cleared on exit; the benchmarks time
// instrumentation + relayout as a function of payload size, and the
// post-transform verifier that guards every instrumented kernel.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ir/Builder.h"
#include "ir/Layout.h"
#include "transform/Passes.h"
#include "vm/Vm.h"

#include <benchmark/benchmark.h>

#include <cstring>

using namespace dcb;
using namespace dcb::bench;

namespace {

vendor::KernelBuilder subjectKernel(Arch A) {
  vendor::KernelBuilder K("subject", A);
  K.ins("S2R R0, SR_TID.X;");
  K.ins("SHL R4, R0, 0x2;");
  K.ins("MOV32I R9, 0x5ecc1e7;");
  K.ins("LDG.E R5, [R4+0x100];");
  K.ins("LOP.XOR R6, R5, R9;");
  K.ins("STG.E [R4+0x200], R6;");
  return K.exit();
}

ir::Kernel lift(Arch A, const std::vector<uint8_t> &Code,
                const std::string &Name) {
  Expected<std::string> Text = vendor::disassembleKernelCode(A, Name, Code);
  Expected<analyzer::Listing> L = analyzer::parseListing(
      "code for " + std::string(archName(A)) + "\n" + *Text);
  Expected<ir::Kernel> K = ir::buildKernel(A, L->Kernels.front());
  if (!K) {
    std::fprintf(stderr, "%s\n", K.message().c_str());
    std::abort();
  }
  return K.takeValue();
}

void report() {
  const Arch A = Arch::SM52;
  const ArchData &Data = archData(A);
  vendor::NvccSim Nvcc(A);
  Expected<vendor::CompiledKernel> Compiled =
      Nvcc.compileKernel(subjectKernel(A));

  ir::Kernel Original = lift(A, Compiled->Section.Code, "subject");
  ir::Kernel Instrumented = Original;
  unsigned Sites = transform::clearRegistersBeforeExit(Instrumented, {9});
  Expected<std::vector<uint8_t>> NewCode =
      ir::emitKernel(Data.FlippedDb, Instrumented);
  if (!NewCode) {
    std::fprintf(stderr, "%s\n", NewCode.message().c_str());
    std::abort();
  }
  ir::Kernel Reloaded = lift(A, *NewCode, "subject");

  std::printf("=== Fig. 12: clear registers before exit ===\n");
  std::printf("(b) human-readable assembly from the framework:\n%s\n",
              ir::printKernel(Original).c_str());
  std::printf("(c) instrumented at %u exit site(s):\n%s\n", Sites,
              ir::printKernel(Instrumented).c_str());

  vm::LaunchConfig Config;
  Config.NumThreads = 4;
  vm::Memory MemA, MemB;
  for (unsigned I = 0; I < 4; ++I) {
    uint32_t V = 0x40 + I;
    std::memcpy(MemA.Global.data() + 0x100 + 4 * I, &V, 4);
    std::memcpy(MemB.Global.data() + 0x100 + 4 * I, &V, 4);
  }
  auto RA = vm::RefVm().run(Original, MemA, Config);
  auto RB = vm::RefVm().run(Reloaded, MemB, Config);
  const bool Unchanged =
      RA.hasValue() && RB.hasValue() && MemA.Global == MemB.Global;
  bool Cleared = RA.hasValue() && RB.hasValue();
  for (unsigned T = 0; Cleared && T < Config.NumThreads; ++T)
    Cleared = RB->Threads[T].Regs[9] == 0 && RA->Threads[T].Regs[9] != 0;
  std::printf("outputs unchanged: %s; register cleared on exit: %s\n\n",
              Unchanged ? "yes" : "NO", Cleared ? "yes" : "NO");
  if (!Unchanged || !Cleared)
    std::abort();
}

void BM_InstrumentAndRelayout(benchmark::State &State) {
  const Arch A = Arch::SM52;
  const ArchData &Data = archData(A);
  vendor::NvccSim Nvcc(A);
  Expected<vendor::CompiledKernel> Compiled =
      Nvcc.compileKernel(subjectKernel(A));
  const std::vector<uint8_t> Code = Compiled->Section.Code;
  const unsigned NumRegs = static_cast<unsigned>(State.range(0));

  std::vector<unsigned> Regs;
  for (unsigned R = 9; R < 9 + NumRegs; ++R)
    Regs.push_back(R);

  for (auto _ : State) {
    ir::Kernel K = lift(A, Code, "subject");
    transform::clearRegistersBeforeExit(K, Regs);
    auto NewCode = ir::emitKernel(Data.FlippedDb, K);
    benchmark::DoNotOptimize(NewCode);
  }
  State.counters["cleared_regs"] = NumRegs;
}

/// The verified path of `dcb instrument --clear-regs 9,10`: runPasses with
/// the default verifier (CFG, hazards, VER001 clobbers) over every suite
/// kernel of one arch; a kernel that fails verification aborts the run.
/// Copying the lifted kernels back is untimed.
void BM_VerifyKernel(benchmark::State &State) {
  const ArchData &Data = archData(Arch::SM52);
  Expected<ir::Program> Lifted = ir::buildProgram(Data.Listing);
  if (!Lifted) {
    std::fprintf(stderr, "%s\n", Lifted.message().c_str());
    std::abort();
  }
  const std::vector<transform::Pass> Pipeline = {
      {"clear-regs", [](ir::Kernel &K) {
         transform::clearRegistersBeforeExit(K, {9, 10});
       }}};
  std::vector<ir::Kernel> Kernels;
  for (auto _ : State) {
    State.PauseTiming();
    Kernels = Lifted->Kernels;
    State.ResumeTiming();
    for (ir::Kernel &K : Kernels) {
      transform::PipelineResult R = transform::runPasses(K, Pipeline);
      if (!R.ok()) {
        std::fprintf(stderr, "%s failed verification:\n%s", K.Name.c_str(),
                     R.Verification.toText().c_str());
        std::abort();
      }
    }
  }
  State.counters["kernels"] = static_cast<double>(Kernels.size());
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Kernels.size()));
}

} // namespace

BENCHMARK(BM_VerifyKernel)->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_InstrumentAndRelayout)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char **argv) {
  report();
  dcb::bench::addTelemetryContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

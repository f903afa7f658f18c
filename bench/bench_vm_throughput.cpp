//===- bench/bench_vm_throughput.cpp - VM throughput ----------------------===//
//
// The VM's performance contract (docs/VM.md): one sweep of the whole sm_35
// synthetic suite at 8 blocks x 32 threads per kernel. The report prints
// the sweep's size; BM_RefVm times it.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ir/Builder.h"
#include "vm/Differ.h"
#include "vm/Vm.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

using namespace dcb;
using namespace dcb::bench;

namespace {

const Arch BenchArch = Arch::SM35;

/// The suite lifted to IR once; kernels the VM rejects (reduction's
/// deliberate indirect branch) are dropped up front.
const std::vector<ir::Kernel> &suiteIr() {
  static std::vector<ir::Kernel> *Kernels = [] {
    Expected<ir::Program> P = ir::buildProgram(archData(BenchArch).Listing);
    if (!P) {
      std::fprintf(stderr, "%s\n", P.message().c_str());
      std::abort();
    }
    auto *Out = new std::vector<ir::Kernel>;
    vm::ExecOptions Opts;
    for (ir::Kernel &K : P->Kernels)
      if (!vm::execKernel(K, 3, Opts).Failed)
        Out->push_back(std::move(K));
    return Out;
  }();
  return *Kernels;
}

/// Runs every kernel once, returning total per-lane executed
/// instructions. Drives the VM directly: the differential harness around
/// it (seeded-image RNG fill, state CRCs) would only dilute the timing.
uint64_t sweepSuite() {
  static const vm::Memory Image = vm::seededMemory(3, 32);
  vm::LaunchConfig Config;
  Config.NumThreads = 32;
  Config.NumBlocks = 8;
  uint64_t Steps = 0;
  for (const ir::Kernel &K : suiteIr()) {
    vm::Memory Mem = Image;
    Expected<vm::GridResult> R = vm::RefVm().run(K, Mem, Config);
    if (!R) {
      std::fprintf(stderr, "vm bench: %s failed: %s\n", K.Name.c_str(),
                   R.message().c_str());
      std::abort();
    }
    Steps += R->LaneSteps;
  }
  return Steps;
}

void report() {
  std::printf("=== VM throughput ===\n");
  std::printf("suite: %zu kernels, %llu lane-steps per sweep (sm_35, "
              "8 blocks x 32 threads)\n\n",
              suiteIr().size(),
              static_cast<unsigned long long>(sweepSuite()));
}

void BM_RefVm(benchmark::State &State) {
  uint64_t Steps = 0;
  for (auto _ : State)
    Steps = sweepSuite();
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations() * Steps));
}
BENCHMARK(BM_RefVm)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  report();
  addTelemetryContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

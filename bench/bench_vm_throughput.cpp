//===- bench/bench_vm_throughput.cpp - Two-tier VM throughput --------------===//
//
// The grid VM's performance contract: the predecoded fast tier must beat
// the re-deriving oracle by a wide margin on the same workload. The report
// sweeps the whole synthetic suite on RefVm and on GridVm, prints
// lane-steps/s plus the speedup, and first proves the two sweeps produce
// identical state checksums (the bit-identity contract — a fast tier that
// drifts is worthless, so the bench aborts on divergence).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ir/Builder.h"
#include "vm/Differ.h"
#include "vm/Vm.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <vector>

using namespace dcb;
using namespace dcb::bench;

namespace {

const Arch BenchArch = Arch::SM35;

/// The suite lifted to IR once; kernels the VM rejects (reduction's
/// deliberate indirect branch) are dropped up front so every engine
/// sweeps the same set.
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

/// Runs every kernel once through the chosen engine, returning total
/// per-lane executed instructions. Drives the engines directly — the
/// differential harness around them (seeded-image RNG fill, state CRCs)
/// costs the same on every tier and would only dilute the ratio this
/// bench exists to measure.
uint64_t sweepSuite(bool UseRef) {
  static const vm::Memory Image = vm::seededMemory(3, 32);
  vm::LaunchConfig Config;
  Config.NumThreads = 32;
  Config.NumBlocks = 8;
  uint64_t Steps = 0;
  for (const ir::Kernel &K : suiteIr()) {
    vm::Memory Mem = Image;
    Expected<vm::GridResult> R = UseRef ? vm::RefVm().run(K, Mem, Config)
                                        : vm::GridVm().run(K, Mem, Config);
    if (!R) {
      std::fprintf(stderr, "vm bench: %s failed: %s\n", K.Name.c_str(),
                   R.message().c_str());
      std::abort();
    }
    Steps += R->LaneSteps;
  }
  return Steps;
}

double secondsFor(bool UseRef, unsigned Repeats) {
  auto Start = std::chrono::steady_clock::now();
  for (unsigned R = 0; R < Repeats; ++R)
    benchmark::DoNotOptimize(sweepSuite(UseRef));
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count() / Repeats;
}

void report() {
  // Bit-identity first: oracle vs fast tier, per kernel, on the bench
  // launch shape.
  vm::ExecOptions Ref, Grid;
  Ref.UseRef = true;
  Ref.NumBlocks = Grid.NumBlocks = 8;
  for (const ir::Kernel &K : suiteIr()) {
    vm::ExecSummary A = vm::execKernel(K, 3, Ref);
    vm::ExecSummary B = vm::execKernel(K, 3, Grid);
    if (A.GlobalCrc != B.GlobalCrc || A.RegsCrc != B.RegsCrc ||
        A.LaneSteps != B.LaneSteps) {
      std::fprintf(stderr, "vm bench: engines diverged on %s\n",
                   K.Name.c_str());
      std::abort();
    }
  }

  const unsigned Repeats = 3;
  uint64_t Steps = sweepSuite(false);
  double RefSec = secondsFor(true, Repeats);
  double GridSec = secondsFor(false, Repeats);

  std::printf("=== Grid VM throughput: oracle vs predecoded tiers ===\n");
  std::printf("suite: %zu kernels, %llu lane-steps per sweep (sm_35, "
              "8 blocks x 32 threads)\n",
              suiteIr().size(), static_cast<unsigned long long>(Steps));
  std::printf("RefVm (oracle)      %12.0f steps/s\n", Steps / RefSec);
  std::printf("GridVm              %12.0f steps/s  speedup %.2fx\n",
              Steps / GridSec, RefSec / GridSec);
  std::printf("engines bit-identical across tiers: yes\n\n");
}

void BM_RefVm(benchmark::State &State) {
  uint64_t Steps = 0;
  for (auto _ : State)
    Steps = sweepSuite(true);
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations() * Steps));
}
BENCHMARK(BM_RefVm)->Unit(benchmark::kMillisecond);

void BM_GridVm1(benchmark::State &State) {
  uint64_t Steps = 0;
  for (auto _ : State)
    Steps = sweepSuite(false);
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations() * Steps));
}
BENCHMARK(BM_GridVm1)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  report();
  addTelemetryContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

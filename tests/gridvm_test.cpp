//===- tests/gridvm_test.cpp - RefVm/GridVm differential parity -----------===//
//
// The fast tier's correctness argument: for every suite kernel, every
// launch shape and a wide band of randomized inputs, GridVm must be
// bit-identical to the RefVm oracle — same registers, same predicates,
// same final memory, same telemetry counters, and on unsupported input
// the very same error string.

#include "vm/Differ.h"
#include "vm/Vm.h"

#include "analyzer/IsaAnalyzer.h"
#include "ir/Builder.h"
#include "sass/Parser.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

using namespace dcb;
using namespace dcb::vm;

namespace {

/// One compiled suite kernel: its IR plus the disassembled listing text
/// (the text drives the warp-size exclusion filter below).
struct CompiledSuiteKernel {
  std::string Name;
  ir::Kernel K;
  std::string Text;
};

std::vector<CompiledSuiteKernel> compileSuite(Arch A) {
  std::vector<CompiledSuiteKernel> Out;
  vendor::NvccSim Nvcc(A);
  for (vendor::KernelBuilder &B : workloads::buildSuite(A)) {
    Expected<vendor::CompiledKernel> Compiled = Nvcc.compileKernel(B);
    EXPECT_TRUE(Compiled.hasValue()) << B.name() << ": " << Compiled.message();
    Expected<std::string> Text =
        vendor::disassembleKernelCode(A, B.name(), Compiled->Section.Code);
    EXPECT_TRUE(Text.hasValue()) << B.name() << ": " << Text.message();
    Expected<analyzer::Listing> L = analyzer::parseListing(
        "code for " + std::string(archName(A)) + "\n" + *Text);
    EXPECT_TRUE(L.hasValue()) << B.name() << ": " << L.message();
    Expected<ir::Kernel> K = ir::buildKernel(A, L->Kernels.front());
    EXPECT_TRUE(K.hasValue()) << B.name() << ": " << K.message();
    Out.push_back({B.name(), K.takeValue(), *Text});
  }
  return Out;
}

/// Asserts two runs produced bit-identical grids: thread state, counters
/// and both memory images.
void expectSameRun(const GridResult &A, const Memory &MemA,
                   const GridResult &B, const Memory &MemB,
                   const std::string &What) {
  ASSERT_EQ(A.Threads.size(), B.Threads.size()) << What;
  for (size_t T = 0; T < A.Threads.size(); ++T) {
    EXPECT_EQ(A.Threads[T].Regs, B.Threads[T].Regs) << What << " thread " << T;
    EXPECT_EQ(A.Threads[T].Preds, B.Threads[T].Preds)
        << What << " thread " << T;
    EXPECT_EQ(A.Threads[T].Steps, B.Threads[T].Steps)
        << What << " thread " << T;
  }
  EXPECT_EQ(A.Issues, B.Issues) << What;
  EXPECT_EQ(A.LaneSteps, B.LaneSteps) << What;
  EXPECT_EQ(A.MemWraps, B.MemWraps) << What;
  EXPECT_EQ(A.Barriers, B.Barriers) << What;
  EXPECT_EQ(MemA.Global, MemB.Global) << What;
  EXPECT_EQ(MemA.Shared, MemB.Shared) << What;
}

/// A one-block kernel straight from assembly lines (no oracle round trip,
/// so malformed operand lists reach the engines as written).
ir::Kernel kernelOf(std::initializer_list<const char *> Lines) {
  ir::Kernel K;
  K.Name = "k";
  K.Blocks.resize(1);
  for (const char *Line : Lines) {
    Expected<sass::Instruction> Asm = sass::parseInstruction(Line);
    EXPECT_TRUE(Asm.hasValue()) << Line << ": " << Asm.message();
    ir::Inst I;
    I.Asm = Asm.takeValue();
    K.Blocks[0].Insts.push_back(std::move(I));
  }
  return K;
}

} // namespace

// Every suite kernel, on both fully exercised generations, must behave
// identically on the oracle and the fast tier — including kernels the VM
// rejects (reduction's deliberate indirect branch), which must fail with
// the same message on both.
TEST(GridParity, SuiteMatchesOracleBitForBit) {
  for (Arch A : {Arch::SM35, Arch::SM50}) {
    for (const CompiledSuiteKernel &S : compileSuite(A)) {
      LaunchConfig Config;
      Config.NumThreads = 32;
      Config.NumBlocks = 2;

      Memory MemRef = seededMemory(7, Config.NumThreads);
      Memory MemGrid = seededMemory(7, Config.NumThreads);
      Expected<GridResult> R = RefVm().run(S.K, MemRef, Config);
      Expected<GridResult> G = GridVm().run(S.K, MemGrid, Config);

      ASSERT_EQ(R.hasValue(), G.hasValue())
          << archName(A) << "/" << S.Name << ": "
          << (R ? G.message() : R.message());
      if (!R) {
        EXPECT_EQ(R.message(), G.message()) << archName(A) << "/" << S.Name;
        continue;
      }
      expectSameRun(*R, MemRef, *G, MemGrid,
                    std::string(archName(A)) + "/" + S.Name);
    }
  }
}

// Launch shapes beyond the caps are refused up front, before any block
// state is allocated, with the same `vm:` error on both engines.
TEST(GridParity, LaunchCapsFailAlikeOnBothEngines) {
  std::vector<CompiledSuiteKernel> Suite = compileSuite(Arch::SM35);
  ASSERT_FALSE(Suite.empty());
  struct Shape {
    unsigned Threads, Blocks;
    const char *Error;
  } Shapes[] = {
      {1025, 1, "vm: at most 1024 threads per block, got 1025"},
      {32, 1025, "vm: at most 1024 blocks per grid, got 1025"},
      {32, 4294967295u, "vm: at most 1024 blocks per grid, got 4294967295"},
      {4294967295u, 2, "vm: at most 1024 threads per block, got 4294967295"},
      {1024, 65, "vm: at most 65536 threads per grid, got 65 blocks of 1024"},
  };
  for (const Shape &Sh : Shapes) {
    LaunchConfig Config;
    Config.NumThreads = Sh.Threads;
    Config.NumBlocks = Sh.Blocks;
    Memory MemRef, MemGrid;
    Expected<GridResult> Ref = RefVm().run(Suite[0].K, MemRef, Config);
    Expected<GridResult> Grid = GridVm().run(Suite[0].K, MemGrid, Config);
    ASSERT_FALSE(Ref.hasValue()) << Sh.Error;
    ASSERT_FALSE(Grid.hasValue()) << Sh.Error;
    EXPECT_EQ(Ref.message(), Sh.Error);
    EXPECT_EQ(Grid.message(), Sh.Error);
  }
}

// Kernels that never observe the warp shape must compute the same
// per-thread state and memory whether the block is split into warps of 4,
// 8 or 32. Two ways a kernel can observe it: directly (SHFL/VOTE/
// SR_LANEID, filtered on the listing text) or indirectly, by reading
// memory another thread writes with no BAR.SYNC in between — warps run to
// the next barrier in index order, so un-synchronized cross-thread reads
// see more completed writers when warps are smaller. The suite's
// neighbor-stencil kernels are of that second kind and are skipped by
// name; the barrier kernels (matrixMul, lud, scan, ...) stay invariant
// precisely because their communication is barrier-ordered.
TEST(GridParity, WarpSizeInvariantForWarpAgnosticKernels) {
  static const char *const CrossThreadNoBarrier[] = {
      "bfs",       "binomialOptions", "cfd",           "deviceQuery",
      "FDTD3d",    "histogram",       "interval",      "leukocyte",
      "mergeSort", "nbody",           "nn",            "nw",
      "pathfinder", "sortingNetworks", "srad",         "streamcluster",
  };
  for (const CompiledSuiteKernel &S : compileSuite(Arch::SM35)) {
    if (S.Text.find("SHFL") != std::string::npos ||
        S.Text.find("VOTE") != std::string::npos ||
        S.Text.find("SR_LANEID") != std::string::npos)
      continue;
    bool Skip = false;
    for (const char *Name : CrossThreadNoBarrier)
      Skip = Skip || S.Name == Name;
    if (Skip)
      continue;

    LaunchConfig Config;
    Config.NumThreads = 32;
    Config.NumBlocks = 2;

    Config.WarpSize = 32;
    Memory MemBase = seededMemory(13, Config.NumThreads);
    Expected<GridResult> Base = GridVm().run(S.K, MemBase, Config);

    for (unsigned W : {4u, 8u}) {
      Config.WarpSize = W;
      Memory MemW = seededMemory(13, Config.NumThreads);
      Expected<GridResult> RW = GridVm().run(S.K, MemW, Config);
      ASSERT_EQ(Base.hasValue(), RW.hasValue()) << S.Name;
      if (!Base) {
        EXPECT_EQ(Base.message(), RW.message()) << S.Name;
        continue;
      }
      // Issue/barrier counters legitimately differ (more warps issue more
      // instructions); thread state and memory may not.
      const std::string What = S.Name + " warp=" + std::to_string(W);
      ASSERT_EQ(Base->Threads.size(), RW->Threads.size()) << What;
      for (size_t T = 0; T < Base->Threads.size(); ++T) {
        EXPECT_EQ(Base->Threads[T].Regs, RW->Threads[T].Regs)
            << What << " thread " << T;
        EXPECT_EQ(Base->Threads[T].Preds, RW->Threads[T].Preds)
            << What << " thread " << T;
      }
      EXPECT_EQ(MemBase.Global, MemW.Global) << What;
      EXPECT_EQ(MemBase.Shared, MemW.Shared) << What;
    }
  }
}

// The randomized harness itself: >= 100 seeds rotating across the suite,
// each run once on the oracle and once on the fast tier through the same
// execKernel() path diffexec uses. Summaries (state checksums included)
// must agree exactly.
TEST(GridParity, RandomizedDifferentialFuzz) {
  std::vector<CompiledSuiteKernel> Suite = compileSuite(Arch::SM50);
  ASSERT_FALSE(Suite.empty());

  ExecOptions Ref;
  Ref.UseRef = true;
  ExecOptions Grid;

  for (uint64_t Seed = 1; Seed <= 120; ++Seed) {
    const CompiledSuiteKernel &S = Suite[Seed % Suite.size()];
    ExecSummary A = execKernel(S.K, Seed, Ref);
    ExecSummary B = execKernel(S.K, Seed, Grid);
    const std::string What = S.Name + " seed " + std::to_string(Seed);
    ASSERT_EQ(A.Failed, B.Failed) << What << ": " << A.Error << B.Error;
    if (A.Failed) {
      EXPECT_EQ(A.Error, B.Error) << What;
      continue;
    }
    EXPECT_EQ(A.Issues, B.Issues) << What;
    EXPECT_EQ(A.LaneSteps, B.LaneSteps) << What;
    EXPECT_EQ(A.MemWraps, B.MemWraps) << What;
    EXPECT_EQ(A.Barriers, B.Barriers) << What;
    EXPECT_EQ(A.GlobalCrc, B.GlobalCrc) << What;
    EXPECT_EQ(A.SharedCrc, B.SharedCrc) << What;
    EXPECT_EQ(A.RegsCrc, B.RegsCrc) << What;
  }
}

// Differential smoke for the harness proper: a program diffed against
// itself is clean, and the seeded input image is a pure function of
// (seed, threads).
TEST(GridParity, SeededMemoryIsDeterministic) {
  Memory A = seededMemory(42, 32);
  Memory B = seededMemory(42, 32);
  EXPECT_EQ(A.Global, B.Global);
  EXPECT_EQ(A.Shared, B.Shared);
  EXPECT_EQ(A.ConstBanks, B.ConstBanks);

  Memory C = seededMemory(43, 32);
  EXPECT_NE(A.Global, C.Global); // Different seed, different image.
}

// Operands that do not fit the opcode's row — too few, the wrong kind, or a
// register group past R254 — are rejected by both engines with one error
// instead of being read or written out of bounds.
TEST(GridParity, MalformedOperandsFailAlikeOnBothEngines) {
  for (const char *Bad :
       {"ISETP.LT.AND P0, PT, R1, R2;", "LD.128 R254, [R0];",
        "ISETP.LT.AND R200, PT, R1, R2, PT;", "IADD R1;"}) {
    ir::Kernel K = kernelOf({"MOV R1, 0x10;", Bad});
    LaunchConfig Config;
    Config.NumThreads = 4;
    Memory MemA, MemB;
    Expected<GridResult> A = RefVm().run(K, MemA, Config);
    Expected<GridResult> B = GridVm().run(K, MemB, Config);
    ASSERT_FALSE(A.hasValue()) << Bad;
    ASSERT_FALSE(B.hasValue()) << Bad;
    EXPECT_EQ(A.message(), B.message()) << Bad;
    EXPECT_EQ(A.message().rfind("vm: malformed operand", 0), 0u)
        << A.message();
  }
}

// F2I of NaN or a value outside int32 gives 0x80000000 on both engines.
TEST(GridParity, F2IOutOfRangeGivesIntegerIndefinite) {
  for (const char *Load : {"MOV32I R1, 0x4f32d05e;",   // 3e9f
                           "MOV32I R1, 0xcf32d05e;",   // -3e9f
                           "MOV32I R1, 0x7fc00000;"}) { // NaN
    ir::Kernel K = kernelOf({Load, "F2I.S32.F32 R2, R1;"});
    LaunchConfig Config;
    Config.NumThreads = 1;
    Memory MemA, MemB;
    Expected<GridResult> A = RefVm().run(K, MemA, Config);
    Expected<GridResult> B = GridVm().run(K, MemB, Config);
    ASSERT_TRUE(A.hasValue()) << A.message();
    ASSERT_TRUE(B.hasValue()) << B.message();
    EXPECT_EQ(A->Threads[0].Regs[2], 0x80000000u) << Load;
    EXPECT_EQ(B->Threads[0].Regs[2], 0x80000000u) << Load;
  }
}

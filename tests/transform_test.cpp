//===- tests/transform_test.cpp - Binary transformation passes -------------===//
//
// End-to-end checks for the paper's §V applications: each transform edits
// the IR, is re-encoded with the *learned* assembler, re-decoded by the
// oracle disassembler, and executed in the VM to confirm functional
// equivalence — the full pipeline of Figs. 11 and 12.
//
//===----------------------------------------------------------------------===//

#include "transform/Passes.h"

#include "RewriteFacts.h"
#include "analyzer/BitFlipper.h"
#include "analyzer/IsaAnalyzer.h"
#include "ir/Builder.h"
#include "ir/Layout.h"
#include "sass/Parser.h"
#include "support/FileIo.h"
#include "support/Telemetry.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "vm/Vm.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

using namespace dcb;
using namespace dcb::transform;

namespace {

struct Pipeline {
  Arch A;
  analyzer::EncodingDatabase Db{Arch::SM35};

  explicit Pipeline(Arch A) : A(A) {
    // Learn the encodings from the synthetic suite, then enrich with bit
    // flipping — transformation rewrites operands to values the raw suite
    // never exhibited, which is exactly what the flip rounds make safe
    // (paper §III-B).
    vendor::NvccSim Nvcc(A);
    Expected<elf::Cubin> Cubin = Nvcc.compile(workloads::buildSuite(A));
    EXPECT_TRUE(Cubin.hasValue());
    Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
    EXPECT_TRUE(Text.hasValue());
    Expected<analyzer::Listing> L = analyzer::parseListing(*Text);
    EXPECT_TRUE(L.hasValue());
    analyzer::IsaAnalyzer Analyzer(A);
    EXPECT_FALSE(Analyzer.analyzeListing(*L));

    std::map<std::string, std::vector<uint8_t>> KernelCode;
    for (const elf::KernelSection &Kernel : Cubin->kernels())
      KernelCode[Kernel.Name] = Kernel.Code;
    analyzer::BitFlipper Flipper(
        Analyzer, [A](const std::string &Name,
                      const std::vector<uint8_t> &Code) {
          return vendor::disassembleKernelCode(A, Name, Code);
        });
    analyzer::BitFlipper::Options Opts;
    Opts.MaxRounds = 2;
    Flipper.run(KernelCode, Opts);
    Db = Analyzer.database();
  }

  /// Compiles a kernel with the vendor oracle and lifts it into the IR.
  ir::Kernel lift(vendor::KernelBuilder K) {
    vendor::NvccSim Nvcc(A);
    Expected<vendor::CompiledKernel> Compiled = Nvcc.compileKernel(K);
    EXPECT_TRUE(Compiled.hasValue()) << Compiled.message();
    return lower(Compiled->Section.Code, K.name());
  }

  /// Disassembles raw bytes and builds the IR.
  ir::Kernel lower(const std::vector<uint8_t> &Code,
                   const std::string &Name) {
    Expected<std::string> Text =
        vendor::disassembleKernelCode(A, Name, Code);
    EXPECT_TRUE(Text.hasValue()) << Text.message();
    Expected<analyzer::Listing> L = analyzer::parseListing(
        "code for " + std::string(archName(A)) + "\n" + *Text);
    EXPECT_TRUE(L.hasValue()) << L.message();
    Expected<ir::Kernel> K = ir::buildKernel(A, L->Kernels.front());
    EXPECT_TRUE(K.hasValue()) << K.message();
    return K.takeValue();
  }

  /// Emits the IR with the learned assembler, then round-trips it through
  /// the oracle disassembler so the VM runs exactly what the bits say.
  ir::Kernel reload(const ir::Kernel &K) {
    Expected<std::vector<uint8_t>> Code = ir::emitKernel(Db, K);
    EXPECT_TRUE(Code.hasValue()) << Code.message();
    return lower(*Code, K.Name);
  }
};

void setConst32(vm::Memory &Mem, unsigned Bank, size_t Offset,
                uint32_t Value) {
  auto &BankData = Mem.ConstBanks[Bank];
  if (BankData.size() < Offset + 4)
    BankData.resize(Offset + 4, 0);
  std::memcpy(BankData.data() + Offset, &Value, 4);
}

/// A kernel using thread-private local memory: out[i] = f(in[i]) staged
/// through LDL/STL — the Fig. 11 starting point.
vendor::KernelBuilder localKernel(Arch A) {
  vendor::KernelBuilder K("localuser", A);
  K.ins("S2R R0, SR_TID.X;");
  K.ins("SHL R4, R0, 0x2;");
  K.ins("MOV R5, c[0x0][0x4];");
  K.ins("IADD R5, R5, R4;");
  K.ins("LDG.E R6, [R5];");
  K.ins("IADD R7, R6, 0x9;");
  K.ins("STL [R4], R7;");  // stage in local
  K.ins("LDL R8, [R4];");
  K.ins("IMUL R9, R8, 0x3;");
  K.ins("STL [R4+0x40], R9;");
  K.ins("LDL R10, [R4+0x40];");
  K.ins("STG.E [R5+0x100], R10;");
  return K.exit();
}

vm::Memory makeLocalKernelMemory() {
  vm::Memory Mem;
  setConst32(Mem, 0, 0x4, 0x200);
  for (unsigned I = 0; I < 8; ++I) {
    uint32_t V = I * 11 + 5;
    std::memcpy(Mem.Global.data() + 0x200 + 4 * I, &V, 4);
  }
  return Mem;
}

} // namespace

TEST(LocalToShared, RewritesInstructionsFig11) {
  Pipeline P(Arch::SM35);
  ir::Kernel K = P.lift(localKernel(Arch::SM35));
  unsigned Converted = convertLocalToShared(K, /*SharedBase=*/0x400,
                                            /*LocalBytesPerThread=*/256);
  EXPECT_EQ(Converted, 4u);
  unsigned Lds = 0, Sts = 0, Ldl = 0, Stl = 0;
  for (const ir::Block &B : K.Blocks) {
    for (const ir::Inst &Entry : B.Insts) {
      if (Entry.Asm.opcode() == "LDS")
        ++Lds;
      if (Entry.Asm.opcode() == "STS")
        ++Sts;
      if (Entry.Asm.opcode() == "LDL")
        ++Ldl;
      if (Entry.Asm.opcode() == "STL")
        ++Stl;
    }
  }
  EXPECT_EQ(Lds, 2u);
  EXPECT_EQ(Sts, 2u);
  EXPECT_EQ(Ldl, 0u);
  EXPECT_EQ(Stl, 0u);
  EXPECT_EQ(K.SharedMemBytes, 256u);
}

TEST(LocalToShared, FrozenDatabaseEncodesTheRewrittenOpcodes) {
  // The frozen assembler keys operations by the opcode's interned symbol,
  // so a rewritten opcode must not keep the parser's LDL/STL symbol.
  Pipeline P(Arch::SM35);
  P.Db.freeze();
  ir::Kernel K = P.lift(localKernel(Arch::SM35));
  ASSERT_EQ(convertLocalToShared(K, 0x400, 256), 4u);
  recomputeControlInfo(K);
  std::map<std::string, unsigned> Counts;
  for (const ir::Block &B : P.reload(K).Blocks)
    for (const ir::Inst &Entry : B.Insts)
      ++Counts[std::string(Entry.Asm.opcode())];
  EXPECT_EQ(Counts["LDS"], 2u);
  EXPECT_EQ(Counts["STS"], 2u);
  EXPECT_EQ(Counts["LDL"], 0u);
  EXPECT_EQ(Counts["STL"], 0u);
}

class LocalToSharedPerArch : public ::testing::TestWithParam<Arch> {};

TEST_P(LocalToSharedPerArch, TransformedBinaryIsFunctionallyEquivalent) {
  Pipeline P(GetParam());
  ir::Kernel Original = P.lift(localKernel(GetParam()));

  ir::Kernel Transformed = Original;
  ASSERT_GT(convertLocalToShared(Transformed, 0x400, 256), 0u);
  recomputeControlInfo(Transformed);
  ir::Kernel Reloaded = P.reload(Transformed);

  vm::LaunchConfig Config;
  Config.NumThreads = 8;
  vm::Memory MemA = makeLocalKernelMemory();
  vm::Memory MemB = makeLocalKernelMemory();
  ASSERT_TRUE(vm::RefVm().run(Original, MemA, Config).hasValue());
  Expected<vm::GridResult> R =
      vm::RefVm().run(Reloaded, MemB, Config);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(MemA.Global, MemB.Global)
      << "local->shared conversion changed results on "
      << archName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    SomeArchs, LocalToSharedPerArch,
    ::testing::Values(Arch::SM30, Arch::SM35, Arch::SM52, Arch::SM61),
    [](const ::testing::TestParamInfo<Arch> &Info) {
      return std::string(archName(Info.param));
    });

TEST(ClearRegs, InstrumentsEveryExitFig12) {
  Pipeline P(Arch::SM52);
  vendor::KernelBuilder K("twoexits", Arch::SM52);
  K.ins("S2R R0, SR_TID.X;");
  K.ins("ISETP.LT.AND P0, PT, R0, 0x2, PT;");
  K.branch("@!P0 BRA", "late");
  K.ins("MOV R9, 0x111;");
  K.ins("EXIT;");
  K.label("late");
  K.ins("MOV R9, 0x222;");
  K.exit();
  ir::Kernel Kern = P.lift(K);

  unsigned Sites = clearRegistersBeforeExit(Kern, {9, 10});
  EXPECT_EQ(Sites, 2u);

  // Each EXIT must now be preceded by MOV R9, RZ and MOV R10, RZ.
  for (const ir::Block &B : Kern.Blocks) {
    for (size_t I = 0; I < B.Insts.size(); ++I) {
      if (B.Insts[I].Asm.opcode() != "EXIT")
        continue;
      ASSERT_GE(I, 2u);
      EXPECT_EQ(B.Insts[I - 2].Asm.opcode(), "MOV");
      EXPECT_EQ(B.Insts[I - 2].Asm.Operands[0].Value[0], 9);
      EXPECT_EQ(B.Insts[I - 1].Asm.Operands[0].Value[0], 10);
      EXPECT_EQ(B.Insts[I - 1].Asm.Operands[1].Value[0], -1); // RZ
    }
  }
}

TEST(ClearRegs, ClearsSecretsWithoutChangingOutputs) {
  // The memory-protection use case: after instrumentation the kernel's
  // observable outputs are unchanged but the "secret" register is zero on
  // exit (Fig. 12 / the GPU taint-tracking application).
  Pipeline P(Arch::SM61);
  vendor::KernelBuilder K("secret", Arch::SM61);
  K.ins("S2R R0, SR_TID.X;");
  K.ins("SHL R4, R0, 0x2;");
  K.ins("MOV32I R9, 0xdeadbeef;"); // the secret
  K.ins("LOP.AND R5, R9, 0xff;");
  K.ins("STG.E [R4+0x40], R5;");
  K.exit();
  ir::Kernel Original = P.lift(K);

  ir::Kernel Instrumented = Original;
  ASSERT_EQ(clearRegistersBeforeExit(Instrumented, {9}), 1u);
  ir::Kernel Reloaded = P.reload(Instrumented);

  vm::LaunchConfig Config;
  Config.NumThreads = 4;
  vm::Memory MemA, MemB;
  Expected<vm::GridResult> RA =
      vm::RefVm().run(Original, MemA, Config);
  Expected<vm::GridResult> RB =
      vm::RefVm().run(Reloaded, MemB, Config);
  ASSERT_TRUE(RA.hasValue());
  ASSERT_TRUE(RB.hasValue()) << RB.message();

  EXPECT_EQ(MemA.Global, MemB.Global);
  for (unsigned T = 0; T < Config.NumThreads; ++T) {
    EXPECT_EQ(RA->Threads[T].Regs[9], 0xdeadbeefu) << "original keeps the secret";
    EXPECT_EQ(RB->Threads[T].Regs[9], 0u) << "instrumented build must clear R9";
  }
}

TEST(Instrumenter, InsertBeforeAndAfterCountSites) {
  Pipeline P(Arch::SM35);
  ir::Kernel K = P.lift(localKernel(Arch::SM35));
  auto IsLoad = [](const ir::Inst &Entry) {
    return Entry.Asm.opcode() == "LDG";
  };
  std::vector<sass::Instruction> Payload = {
      *sass::parseInstruction("MOV R30, RZ;")};
  EXPECT_EQ(insertBefore(K, IsLoad, Payload), 1u);
  EXPECT_EQ(insertAfter(K, IsLoad, Payload), 1u);

  unsigned Movs = 0;
  for (const ir::Block &B : K.Blocks)
    for (const ir::Inst &Entry : B.Insts)
      if (Entry.Asm.opcode() == "MOV" && Entry.Asm.Operands[0].Value[0] == 30)
        ++Movs;
  EXPECT_EQ(Movs, 2u);
}

TEST(Instrumenter, InsertAfterNeverPassesATerminator) {
  // A payload matched on a terminator lands immediately before it: after
  // the branch it would run on the fall-through path only, and after an
  // EXIT never.
  Pipeline P(Arch::SM52);
  vendor::KernelBuilder K("exits", Arch::SM52);
  K.branch("@!P0 BRA", "late");
  K.ins("MOV R9, 0x111;");
  K.ins("EXIT;");
  K.label("late");
  K.ins("MOV R9, 0x222;");
  ir::Kernel Kern = P.lift(K.exit());
  auto IsBranchOrExit = [](const ir::Inst &Entry) {
    return Entry.Asm.opcode() == "BRA" || Entry.Asm.opcode() == "EXIT";
  };
  std::vector<sass::Instruction> Payload = {
      *sass::parseInstruction("MOV R30, RZ;")};
  EXPECT_EQ(insertAfter(Kern, IsBranchOrExit, Payload), 3u);

  unsigned Placed = 0;
  for (const ir::Block &B : Kern.Blocks) {
    for (size_t I = 0; I < B.Insts.size(); ++I) {
      const sass::Instruction &Asm = B.Insts[I].Asm;
      if (sass::isTerminator(Asm)) {
        EXPECT_EQ(I + 1, B.Insts.size()) << "code after " << Asm.opcode();
      }
      if (Asm.opcode() == "MOV" && Asm.Operands[0].Value[0] == 30) {
        ASSERT_LT(I + 1, B.Insts.size());
        EXPECT_TRUE(IsBranchOrExit(B.Insts[I + 1]));
        ++Placed;
      }
    }
  }
  EXPECT_EQ(Placed, 3u);
  EXPECT_TRUE(verifyKernel(Kern).clean()) << verifyKernel(Kern).toText();
}

TEST(Instrumenter, CountingInstrumentationPreservesResults) {
  // Count executed global loads into an atomic counter — a miniature of
  // the paper's binary-instrumentation application — and verify outputs.
  Pipeline P(Arch::SM52);
  ir::Kernel Original = P.lift(localKernel(Arch::SM52));

  ir::Kernel Instrumented = Original;
  std::vector<sass::Instruction> Payload = {
      *sass::parseInstruction("MOV R30, 0x1;"),
      *sass::parseInstruction("ATOM.ADD R31, [RZ+0x8], R30;"),
  };
  unsigned Sites = insertBefore(
      Instrumented,
      [](const ir::Inst &E) { return E.Asm.opcode() == "LDG"; }, Payload);
  ASSERT_EQ(Sites, 1u);
  recomputeControlInfo(Instrumented);
  ir::Kernel Reloaded = P.reload(Instrumented);

  vm::LaunchConfig Config;
  Config.NumThreads = 8;
  vm::Memory MemA = makeLocalKernelMemory();
  vm::Memory MemB = makeLocalKernelMemory();
  ASSERT_TRUE(vm::RefVm().run(Original, MemA, Config).hasValue());
  Expected<vm::GridResult> R =
      vm::RefVm().run(Reloaded, MemB, Config);
  ASSERT_TRUE(R.hasValue()) << R.message();

  // Outputs unchanged...
  for (size_t I = 0x100; I < MemA.Global.size(); ++I)
    EXPECT_EQ(MemA.Global[I], MemB.Global[I]) << "at " << I;
  // ...and the counter recorded one load per thread.
  uint32_t Counter;
  std::memcpy(&Counter, MemB.Global.data() + 0x8, 4);
  EXPECT_EQ(Counter, 8u);
}

TEST(Reschedule, ProducesValidConservativeCtrl) {
  Pipeline P(Arch::SM52);
  ir::Kernel K = P.lift(localKernel(Arch::SM52));
  recomputeControlInfo(K);
  for (const ir::Block &B : K.Blocks) {
    for (const ir::Inst &Entry : B.Insts) {
      EXPECT_LE(Entry.Ctrl.Stall, 15u);
      EXPECT_TRUE(Entry.Ctrl.WriteBarrier == 7 ||
                  Entry.Ctrl.WriteBarrier <= 5);
      EXPECT_TRUE(Entry.Ctrl.ReadBarrier == 7 ||
                  Entry.Ctrl.ReadBarrier <= 5);
    }
  }
  // A load must set a write barrier on Maxwell.
  bool LoadSetsBarrier = false;
  for (const ir::Block &B : K.Blocks)
    for (const ir::Inst &Entry : B.Insts)
      if (Entry.Asm.opcode() == "LDG")
        LoadSetsBarrier |= Entry.Ctrl.WriteBarrier != 7;
  EXPECT_TRUE(LoadSetsBarrier);
  // The emitted form still assembles and decodes.
  Expected<std::vector<uint8_t>> Code = ir::emitKernel(P.Db, K);
  ASSERT_TRUE(Code.hasValue()) << Code.message();
}

#include "transform/Registers.h"

TEST(Registers, UsageAnalysisFindsGroupsAndWidths) {
  Pipeline P(Arch::SM35);
  vendor::KernelBuilder K("widths", Arch::SM35);
  K.ins("MOV R10, RZ;");
  K.ins("MOV32I R11, 0x40080000;"); // R10:R11 as a double
  K.ins("DADD R20, R10, 0.5;");     // pairs R20:R21 and R10:R11
  K.ins("LDG.E.64 R30, [R10];");    // pair R30:R31, base R10
  K.ins("LDG.E.128 R40, [R10+0x8];");
  K.ins("STG.E [R20], R40;");
  K.exit();
  ir::Kernel Kern = P.lift(K);

  auto Usage = transform::analyzeRegisterUsage(Kern);
  // Run length rooted at \p Root, 0 when no run starts there.
  auto widthAt = [&Usage](unsigned Root) -> unsigned {
    for (analysis::RegTable::Group G : Usage.Groups)
      if (G.Slot == Root)
        return G.Width;
    return 0;
  };
  EXPECT_EQ(widthAt(10), 2u);
  EXPECT_EQ(widthAt(20), 2u);
  EXPECT_EQ(widthAt(30), 2u);
  EXPECT_EQ(widthAt(40), 4u);
  EXPECT_EQ(widthAt(11), 0u) << "R11 is inside the R10 pair";
  EXPECT_GE(Usage.MaxRegister, 43);
}

TEST(Registers, CompactionShrinksRegisterCountAndPreservesBehavior) {
  // The Orion use case: a sparse register assignment compacted to raise
  // occupancy, with identical results.
  Pipeline P(Arch::SM52);
  vendor::KernelBuilder K("sparse", Arch::SM52);
  K.ins("S2R R40, SR_TID.X;");
  K.ins("SHL R44, R40, 0x2;");
  K.ins("MOV R50, c[0x0][0x4];");
  K.ins("IADD R50, R50, R44;");
  K.ins("LDG.E R60, [R50];");
  K.ins("IMUL R70, R60, 0x5;");
  K.ins("IADD R74, R70, 0x7;");
  K.ins("STG.E [R50+0x100], R74;");
  K.exit();
  ir::Kernel Original = P.lift(K);

  ir::Kernel Compacted = Original;
  unsigned NewCount = transform::compactRegisters(Compacted);
  auto After = transform::analyzeRegisterUsage(Compacted);
  EXPECT_LE(After.MaxRegister, static_cast<int>(NewCount) - 1);
  EXPECT_LT(NewCount, 75u / 2) << "sparse kernel should compact well";

  transform::recomputeControlInfo(Compacted);
  ir::Kernel Reloaded = P.reload(Compacted);

  vm::LaunchConfig Config;
  Config.NumThreads = 8;
  vm::Memory MemA, MemB;
  setConst32(MemA, 0, 0x4, 0x200);
  setConst32(MemB, 0, 0x4, 0x200);
  for (unsigned I = 0; I < 8; ++I) {
    uint32_t V = 3 * I + 1;
    std::memcpy(MemA.Global.data() + 0x200 + 4 * I, &V, 4);
    std::memcpy(MemB.Global.data() + 0x200 + 4 * I, &V, 4);
  }
  ASSERT_TRUE(vm::RefVm().run(Original, MemA, Config).hasValue());
  Expected<vm::GridResult> R =
      vm::RefVm().run(Reloaded, MemB, Config);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(MemA.Global, MemB.Global);
}

TEST(Registers, PairsStayAlignedAfterCompaction) {
  Pipeline P(Arch::SM35);
  vendor::KernelBuilder K("pairs", Arch::SM35);
  K.ins("MOV R9, RZ;");            // scalar, forces odd slot pressure
  K.ins("MOV R30, RZ;");
  K.ins("MOV32I R31, 0x3ff00000;");
  K.ins("DADD R40, R30, 0.25;");   // pairs R30:R31 -> R40:R41
  K.ins("STG.E.64 [R9+0x40], R40;");
  K.exit();
  ir::Kernel Kern = P.lift(K);
  transform::compactRegisters(Kern);

  // Every double operand must sit on an even register after compaction.
  for (const ir::Block &B : Kern.Blocks) {
    for (const ir::Inst &Entry : B.Insts) {
      if (Entry.Asm.opcode() != "DADD")
        continue;
      for (const sass::Operand &Op : Entry.Asm.Operands) {
        if (Op.Kind == sass::OperandKind::Register && Op.Value[0] >= 0) {
          EXPECT_EQ(Op.Value[0] % 2, 0)
              << "unaligned pair after compaction";
        }
      }
    }
  }
}

TEST(Registers, UsageEndsAtR255LikeTheRegisterTable) {
  // A 128-bit destination at R254 names R254..R257 in the text, but the
  // register file ends at R255: usage and pressure keep R254:R255, as the
  // RegTable that liveness reads does.
  Expected<analyzer::Listing> L = analyzer::parseListing(
      "code for sm_35\n\tFunction : k\n"
      "        /*0008*/ LDG.E.128 R254, [R2]; /* 0x0000000000000000 */\n"
      "        /*0010*/ STG.E [R2], R254; /* 0x0000000000000000 */\n"
      "        /*0018*/ EXIT; /* 0x0000000000000000 */\n");
  ASSERT_TRUE(L.hasValue()) << L.message();
  Expected<ir::Kernel> Kern = ir::buildKernel(Arch::SM35, L->Kernels.front());
  ASSERT_TRUE(Kern.hasValue()) << Kern.message();

  auto Usage = transform::analyzeRegisterUsage(*Kern);
  EXPECT_EQ(Usage.liveCount(), 3u) << "R2 and R254:R255";
  EXPECT_EQ(Usage.MaxRegister, 255);
  auto Pressure =
      transform::pressureReport(*Kern, analysis::computeLiveness(*Kern));
  EXPECT_EQ(Pressure.UsageRegs, 3u);
  EXPECT_EQ(Pressure.AllocRegs, 256u);
  EXPECT_LE(Pressure.LiveRegs, Pressure.UsageRegs);
}

TEST(Registers, ExplicitRemapRewritesEveryReferenceKind) {
  Pipeline P(Arch::SM35);
  vendor::KernelBuilder K("refs", Arch::SM35);
  K.ins("LDC R2, c[0x3][R4+0x10];");
  K.ins("LDG.E R6, [R4+0x4];");
  K.ins("IADD R2, R2, R6;");
  K.exit();
  ir::Kernel Kern = P.lift(K);
  std::map<unsigned, unsigned> Mapping = {{2, 12}, {4, 14}, {6, 16}};
  unsigned Rewritten = transform::remapRegisters(Kern, Mapping);
  EXPECT_GE(Rewritten, 5u);
  std::string Dump = ir::printKernel(Kern);
  EXPECT_NE(Dump.find("c[0x3][R14+0x10]"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("[R14+0x4]"), std::string::npos) << Dump;
  EXPECT_EQ(Dump.find("R4,"), std::string::npos) << Dump;
}

#include "transform/Occupancy.h"

TEST(Occupancy, RegisterBoundKernelsGainFromCompaction) {
  using transform::computeOccupancy;
  // 73 regs/thread on Maxwell: register-file bound well below max warps.
  auto Before = computeOccupancy(Arch::SM52, 73, 0, 256);
  auto After = computeOccupancy(Arch::SM52, 9, 0, 256);
  EXPECT_LT(Before.ResidentWarps, After.ResidentWarps);
  EXPECT_EQ(After.Fraction, 1.0);
  EXPECT_GT(Before.ResidentWarps, 0u);
}

TEST(Occupancy, SharedMemoryBoundsWholeBlocks) {
  // 48 KB shared per block on Kepler: exactly one block fits.
  auto Occ = transform::computeOccupancy(Arch::SM35, 16, 49152, 256);
  EXPECT_EQ(Occ.ResidentWarps, 8u); // One 256-thread block = 8 warps.
  auto Half = transform::computeOccupancy(Arch::SM35, 16, 24576, 256);
  EXPECT_EQ(Half.ResidentWarps, 16u);
}

TEST(Occupancy, OverLimitKernelsAreUnlaunchable) {
  auto Occ = transform::computeOccupancy(Arch::SM20, 200, 0, 128);
  EXPECT_EQ(Occ.ResidentWarps, 0u); // Fermi caps at 63 regs/thread.
  auto Ok = transform::computeOccupancy(Arch::SM20, 63, 0, 128);
  EXPECT_GT(Ok.ResidentWarps, 0u);
}

TEST(Occupancy, PerGenerationLimitsDiffer) {
  // The same footprint occupies differently across generations.
  auto Fermi = transform::computeOccupancy(Arch::SM20, 32, 0, 256);
  auto Maxwell = transform::computeOccupancy(Arch::SM52, 32, 0, 256);
  EXPECT_LE(Fermi.ResidentWarps, Maxwell.ResidentWarps);
  EXPECT_EQ(transform::smLimits(Arch::SM20).MaxRegsPerThread, 63u);
  EXPECT_EQ(transform::smLimits(Arch::SM35).MaxRegsPerThread, 255u);
}

// --- Post-transform verifier ----------------------------------------------

namespace {

bool hasRule(const analysis::Report &R, const std::string &Rule) {
  for (const analysis::Finding &F : R.Findings)
    if (F.Rule == Rule)
      return true;
  return false;
}

/// \p A's workload suite, compiled, disassembled and lifted.
ir::Program liftSuite(Arch A) {
  vendor::NvccSim Nvcc(A);
  Expected<elf::Cubin> Cubin = Nvcc.compile(workloads::buildSuite(A));
  EXPECT_TRUE(Cubin.hasValue()) << Cubin.message();
  Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
  EXPECT_TRUE(Text.hasValue()) << Text.message();
  Expected<analyzer::Listing> L = analyzer::parseListing(*Text);
  EXPECT_TRUE(L.hasValue()) << L.message();
  Expected<ir::Program> Prog = ir::buildProgram(*L);
  EXPECT_TRUE(Prog.hasValue()) << Prog.message();
  return Prog.takeValue();
}

/// A small straight-line kernel where R2 is live between its def and a
/// later use — the probe target for the clobber checks below.
ir::Kernel liftProbeKernel(Pipeline &P) {
  vendor::KernelBuilder K("probe", P.A);
  K.ins("S2R R0, SR_TID.X;");
  K.ins("IADD R2, R0, 0x7;");
  K.ins("IADD R3, R2, 0x1;");
  return P.lift(K.exit());
}

} // namespace

TEST(Verifier, CleanPipelineVerifiesByDefault) {
  Pipeline P(Arch::SM52);
  ir::Kernel Kern = liftProbeKernel(P);
  std::vector<Pass> Passes = {
      {"clear-regs",
       [](ir::Kernel &K) { clearRegistersBeforeExit(K, {2, 3}); }}};
  PipelineResult R = runPasses(Kern, Passes);
  EXPECT_TRUE(R.Verified) << "verification must be on by default";
  EXPECT_TRUE(R.ok()) << R.Verification.toText();
}

TEST(Verifier, CatchesClobberOfLiveRegister) {
  // A buggy pass inserts MOV R2, RZ between R2's def and its original
  // use: the verifier must flag the inserted instruction as a clobber.
  Pipeline P(Arch::SM52);
  ir::Kernel Kern = liftProbeKernel(P);
  std::vector<Pass> Passes = {
      {"inject-clobber", [](ir::Kernel &K) {
         for (ir::Block &B : K.Blocks) {
           for (size_t I = 0; I < B.Insts.size(); ++I) {
             const sass::Instruction &Asm = B.Insts[I].Asm;
             if (Asm.opcode() != "IADD" || Asm.Operands.empty() ||
                 Asm.Operands[0].Value[0] != 3)
               continue;
             ir::Inst Clobber;
             Expected<sass::Instruction> Parsed =
                 sass::parseInstruction("MOV R2, RZ;");
             ASSERT_TRUE(Parsed.hasValue());
             Clobber.Asm = Parsed.takeValue();
             Clobber.Ctrl = ir::conservativeCtrl();
             // OrigAddress stays kNoAddress: this is inserted code.
             B.Insts.insert(B.Insts.begin() + static_cast<long>(I),
                            std::move(Clobber));
             return;
           }
         }
         FAIL() << "probe use not found";
       }}};
  PipelineResult R = runPasses(Kern, Passes);
  ASSERT_TRUE(R.Verified);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasRule(R.Verification, "VER001")) << R.Verification.toText();
}

TEST(Verifier, CatchesStallCountViolation) {
  // A pass that corrupts scheduling info must be caught by the SCHI
  // hazard rules (Maxwell stall counts saturate at 15).
  Pipeline P(Arch::SM52);
  ir::Kernel Kern = liftProbeKernel(P);
  std::vector<Pass> Passes = {{"break-schi", [](ir::Kernel &K) {
                                 ASSERT_FALSE(K.Blocks.empty());
                                 ASSERT_FALSE(K.Blocks[0].Insts.empty());
                                 K.Blocks[0].Insts[0].Ctrl.Stall = 20;
                               }}};
  PipelineResult R = runPasses(Kern, Passes);
  ASSERT_TRUE(R.Verified);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasRule(R.Verification, "HAZ001")) << R.Verification.toText();
}

TEST(Verifier, CanBeDisabled) {
  Pipeline P(Arch::SM52);
  ir::Kernel Kern = liftProbeKernel(P);
  PipelineOptions Opts;
  Opts.Verify = false;
  std::vector<Pass> Passes = {{"break-schi", [](ir::Kernel &K) {
                                 K.Blocks[0].Insts[0].Ctrl.Stall = 20;
                               }}};
  PipelineResult R = runPasses(Kern, Passes, Opts);
  EXPECT_FALSE(R.Verified);
  EXPECT_TRUE(R.ok()) << "skipped verification reports an empty (clean) "
                         "report";
}

TEST(Verifier, VendorSuiteVerifiesClean) {
  // Untransformed vendor output must sail through every verifier rule:
  // CFG, hazards and clobbers (no inserted code).
  for (const ir::Kernel &K : liftSuite(Arch::SM52).Kernels) {
    analysis::Report R = verifyKernel(K);
    EXPECT_TRUE(R.clean()) << K.Name << ":\n" << R.toText();
  }
}

TEST(Verifier, SolvesLivenessOnlyForInsertedCode) {
  // A kernel without inserted code has nothing to clobber: verifying it
  // solves no liveness. With inserted code it solves once.
  const bool WasOn = telemetry::countersEnabled();
  telemetry::setCountersEnabled(true);
  telemetry::Counter &Solves = telemetry::counter("analysis.liveness.kernels");
  for (const ir::Kernel &K : liftSuite(Arch::SM52).Kernels) {
    uint64_t Before = Solves.value();
    EXPECT_TRUE(verifyKernel(K).clean());
    EXPECT_EQ(Solves.value(), Before) << K.Name;

    ir::Kernel Cleared = K;
    ASSERT_GT(clearRegistersBeforeExit(Cleared, {9, 10}), 0u) << K.Name;
    Before = Solves.value();
    EXPECT_TRUE(verifyKernel(Cleared).clean());
    EXPECT_EQ(Solves.value(), Before + 1) << K.Name;
  }
  telemetry::setCountersEnabled(WasOn);
}

TEST(Verifier, LivePressureNeverExceedsTheRegisterFootprint) {
  // The invariant of the retired VER002, kept where it can still catch a
  // liveness or usage bug. Every live slot enters through a use group of
  // the RegTable that usage reads, so peak live <= referenced <= highest
  // + 1; occupancy never rises with the register count, so the live
  // peak's is no lower than the footprint's. Checked on every suite
  // kernel as lifted, after clear-regs and after the clobber payload.
  unsigned Count = 0, Checked = 0;
  const Arch *Archs = supportedArchs(Count);
  for (unsigned I = 0; I < Count; ++I) {
    for (const ir::Kernel &Lifted : liftSuite(Archs[I]).Kernels) {
      ir::Kernel Cleared = Lifted, Clobbered = Lifted;
      clearRegistersBeforeExit(Cleared, {9, 10});
      rewritefacts::insertClobbers(Clobbered);
      const ir::Kernel *Variants[] = {&Lifted, &Cleared, &Clobbered};
      for (const ir::Kernel *K : Variants) {
        const PressureReport P =
            pressureReport(*K, analysis::computeLiveness(*K));
        const std::string Where =
            std::string(archName(K->A)) + " " + K->Name;
        EXPECT_LE(P.LiveRegs, P.UsageRegs) << Where;
        EXPECT_LE(P.UsageRegs, P.AllocRegs) << Where;
        EXPECT_GE(P.LiveOcc.ResidentWarps, P.UsageOcc.ResidentWarps) << Where;
        ++Checked;
      }
    }
  }
  EXPECT_EQ(Checked, 960u) << "8 suites x 40 kernels x 3 variants";
}

TEST(RewriteFacts, MatchTheGoldenHashes) {
  // Liveness, pressure, verifier reports and the emitted image of the
  // rewrite path are pinned across commits (see RewriteFacts.h).
  Expected<std::string> Golden = readFileBytes(
      std::string(DCB_SOURCE_DIR) + "/tests/rewrite_facts.golden");
  ASSERT_TRUE(Golden.hasValue()) << Golden.message();
  std::istringstream In(*Golden);
  unsigned Count = 0;
  const Arch *Archs = supportedArchs(Count);
  for (unsigned I = 0; I < Count; ++I) {
    std::string Line;
    ASSERT_TRUE(std::getline(In, Line)) << "no golden line for "
                                        << archName(Archs[I]);
    EXPECT_EQ(rewritefacts::renderRewriteFacts(Archs[I]), Line);
  }
  std::string Extra;
  EXPECT_FALSE(std::getline(In, Extra)) << "unexpected line: " << Extra;
}

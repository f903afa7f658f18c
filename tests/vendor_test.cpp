//===- tests/vendor_test.cpp - nvcc-sim / cuobjdump-sim --------------------===//

#include "vendor/CuobjdumpSim.h"
#include "vendor/KernelBuilder.h"
#include "vendor/NvccSim.h"

#include "sass/Parser.h"
#include "sass/Printer.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace dcb;
using namespace dcb::vendor;

namespace {

std::vector<Arch> fullArchs() {
  unsigned Count = 0;
  const Arch *Archs = supportedArchs(Count);
  return std::vector<Arch>(Archs, Archs + Count);
}

KernelBuilder saxpy(Arch A) {
  KernelBuilder K("saxpy", A);
  K.ins("S2R R0, SR_TID.X;");
  K.ins("S2R R1, SR_CTAID.X;");
  K.ins("MOV R2, c[0x0][0x28];");
  K.ins("IMAD R3, R1, R2, R0;");
  K.ins("ISETP.GE.AND P0, PT, R3, c[0x0][0x20], PT;");
  K.branch("@P0 BRA", "end");
  K.ins("SHL R4, R3, 0x2;");
  K.ins("MOV R5, c[0x0][0x4];");
  K.ins("IADD R5, R5, R4;");
  K.ins("LDG.E R6, [R5];");
  K.ins("MOV R7, c[0x0][0x8];");
  K.ins("IADD R7, R7, R4;");
  K.ins("LDG.E R8, [R7];");
  K.ins("FFMA R9, R6, c[0x0][0x10], R8;");
  K.ins("STG.E [R7], R9;");
  K.label("end");
  return K.exit();
}

KernelBuilder loopKernel(Arch A) {
  KernelBuilder K("looper", A);
  K.ins("MOV R0, RZ;");
  K.label("top");
  K.ins("IADD R0, R0, 0x1;");
  K.ins("ISETP.LT.AND P0, PT, R0, 0x10, PT;");
  K.branch("@P0 BRA", "top");
  return K.exit();
}

} // namespace

class VendorPerArch : public ::testing::TestWithParam<Arch> {};

TEST_P(VendorPerArch, CompilesSaxpy) {
  NvccSim Nvcc(GetParam());
  Expected<CompiledKernel> Compiled = Nvcc.compileKernel(saxpy(GetParam()));
  ASSERT_TRUE(Compiled.hasValue()) << Compiled.message();
  const unsigned WordBytes = archWordBits(GetParam()) / 8;
  EXPECT_EQ(Compiled->Section.Code.size() % WordBytes, 0u);
  EXPECT_GE(Compiled->Section.NumRegisters, 10u);
}

TEST_P(VendorPerArch, SchiCadenceIsRespected) {
  NvccSim Nvcc(GetParam());
  Expected<CompiledKernel> Compiled = Nvcc.compileKernel(saxpy(GetParam()));
  ASSERT_TRUE(Compiled.hasValue()) << Compiled.message();

  const unsigned WordBytes = archWordBits(GetParam()) / 8;
  const unsigned Group = schiGroupSize(archSchiKind(GetParam()));
  size_t NumWords = Compiled->Section.Code.size() / WordBytes;
  size_t NumInsts = Compiled->Insts.size();
  if (Group == 1) {
    EXPECT_EQ(NumWords, NumInsts);
  } else {
    EXPECT_EQ(NumInsts % (Group - 1), 0u) << "tail must be NOP-padded";
    EXPECT_EQ(NumWords, NumInsts / (Group - 1) * Group);
  }
  // Instruction addresses must skip the SCHI slots.
  for (size_t I = 0; I < NumInsts; ++I) {
    uint64_t WordIdx = Compiled->InstAddresses[I] / WordBytes;
    if (Group > 1)
      EXPECT_NE(WordIdx % Group, 0u) << "instruction in a SCHI slot";
  }
}

TEST_P(VendorPerArch, DisassemblyListsEveryInstruction) {
  NvccSim Nvcc(GetParam());
  Expected<std::vector<uint8_t>> Image =
      Nvcc.compileToImage({saxpy(GetParam())});
  ASSERT_TRUE(Image.hasValue()) << Image.message();

  Expected<std::string> Listing = disassembleImage(*Image);
  ASSERT_TRUE(Listing.hasValue()) << Listing.message();
  EXPECT_NE(Listing->find("code for " + std::string(archName(GetParam()))),
            std::string::npos);
  EXPECT_NE(Listing->find("Function : saxpy"), std::string::npos);
  EXPECT_NE(Listing->find("FFMA"), std::string::npos);
  EXPECT_NE(Listing->find("LDG"), std::string::npos);
}

TEST_P(VendorPerArch, BranchTargetsResolveToRealInstructionAddresses) {
  NvccSim Nvcc(GetParam());
  Expected<CompiledKernel> Compiled =
      Nvcc.compileKernel(loopKernel(GetParam()));
  ASSERT_TRUE(Compiled.hasValue()) << Compiled.message();

  // The backward branch must target the address of the IADD (instruction
  // index 1).
  bool FoundBranch = false;
  for (const sass::Instruction &Inst : Compiled->Insts) {
    if (Inst.opcode() != "BRA")
      continue;
    FoundBranch = true;
    EXPECT_EQ(Inst.Operands[0].Value[0],
              static_cast<int64_t>(Compiled->InstAddresses[1]));
  }
  EXPECT_TRUE(FoundBranch);
}

TEST_P(VendorPerArch, StallsCoverFixedLatencyDependences) {
  NvccSim Nvcc(GetParam());
  KernelBuilder K("dep", GetParam());
  K.ins("MOV R1, 0x1;");
  K.ins("IADD R2, R1, 0x1;"); // Depends on the MOV.
  K.ins("IADD R3, R2, R2;");  // Depends on the IADD.
  K.exit();
  Expected<CompiledKernel> Compiled = Nvcc.compileKernel(K);
  ASSERT_TRUE(Compiled.hasValue()) << Compiled.message();
  // Dependent ALU chains need the producer's fixed latency between issues.
  EXPECT_GE(Compiled->Ctrl[0].Stall, 6u);
  EXPECT_GE(Compiled->Ctrl[1].Stall, 6u);
}

INSTANTIATE_TEST_SUITE_P(AllArchs, VendorPerArch,
                         ::testing::ValuesIn(fullArchs()),
                         [](const ::testing::TestParamInfo<Arch> &Info) {
                           return std::string(archName(Info.param));
                         });

TEST(VendorMaxwell, LoadsSetWriteBarriersAndConsumersWait) {
  NvccSim Nvcc(Arch::SM52);
  KernelBuilder K("mem", Arch::SM52);
  K.ins("MOV R1, c[0x0][0x4];");
  K.ins("LDG.E R2, [R1];");    // Variable latency: sets a write barrier.
  K.ins("IADD R3, R2, 0x1;");  // Must wait on that barrier.
  K.ins("STG.E [R1], R3;");    // Sets a read barrier on its sources.
  K.ins("MOV R3, 0x5;");       // WAR with the store: waits on read barrier.
  K.exit();
  Expected<CompiledKernel> Compiled = Nvcc.compileKernel(K);
  ASSERT_TRUE(Compiled.hasValue()) << Compiled.message();

  const auto &Ctrl = Compiled->Ctrl;
  unsigned LoadBar = Ctrl[1].WriteBarrier;
  ASSERT_NE(LoadBar, 7u) << "load must set a write barrier";
  EXPECT_TRUE(Ctrl[2].WaitMask & (1u << LoadBar))
      << "consumer must wait for the load's barrier";
  unsigned StoreBar = Ctrl[3].ReadBarrier;
  ASSERT_NE(StoreBar, 7u) << "store must set a read barrier";
  EXPECT_TRUE(Ctrl[4].WaitMask & (1u << StoreBar))
      << "overwriting a store source must wait on the read barrier";
}

TEST(VendorKepler, NoBarriersOnlyDispatchValues) {
  NvccSim Nvcc(Arch::SM35);
  KernelBuilder K("mem", Arch::SM35);
  K.ins("MOV R1, c[0x0][0x4];");
  K.ins("LDG.E R2, [R1];");
  K.ins("IADD R3, R2, 0x1;");
  K.exit();
  Expected<CompiledKernel> Compiled = Nvcc.compileKernel(K);
  ASSERT_TRUE(Compiled.hasValue()) << Compiled.message();
  for (const sass::CtrlInfo &Info : Compiled->Ctrl) {
    EXPECT_EQ(Info.WriteBarrier, 7u);
    EXPECT_EQ(Info.ReadBarrier, 7u);
    EXPECT_EQ(Info.WaitMask, 0u);
  }
}

TEST(Vendor, UndefinedLabelIsAnError) {
  NvccSim Nvcc(Arch::SM35);
  KernelBuilder K("bad", Arch::SM35);
  K.branch("BRA", "nowhere");
  K.exit();
  Expected<CompiledKernel> Compiled = Nvcc.compileKernel(K);
  ASSERT_FALSE(Compiled.hasValue());
  EXPECT_NE(Compiled.message().find("nowhere"), std::string::npos);
}

TEST(Vendor, DisassemblerCrashesOnGarbageWords) {
  // Reproduce the paper's §III-B observation: the disassembler fails
  // outright on unexpected instructions.
  NvccSim Nvcc(Arch::SM35);
  Expected<std::vector<uint8_t>> Image =
      Nvcc.compileToImage({saxpy(Arch::SM35)});
  ASSERT_TRUE(Image.hasValue());

  std::vector<uint8_t> Corrupt = *Image;
  size_t Offset = 0, Size = 0;
  ASSERT_TRUE(elf::findTextSection(Corrupt, "saxpy", Offset, Size));
  // Write garbage over the second instruction word (first is a SCHI).
  for (size_t I = 0; I < 8; ++I)
    Corrupt[Offset + 8 + I] = 0xff;
  EXPECT_FALSE(disassembleImage(Corrupt).hasValue());
}

TEST(Vendor, ListingHexColumnMatchesBinary) {
  NvccSim Nvcc(Arch::SM50);
  Expected<CompiledKernel> Compiled = Nvcc.compileKernel(saxpy(Arch::SM50));
  ASSERT_TRUE(Compiled.hasValue());
  Expected<std::string> Listing = disassembleKernelCode(
      Arch::SM50, "saxpy", Compiled->Section.Code);
  ASSERT_TRUE(Listing.hasValue()) << Listing.message();

  // Every line carries a hex rendering of exactly the bytes at its address.
  for (std::string_view Line : splitLines(*Listing)) {
    size_t AddrPos = Line.find("/*");
    size_t HexPos = Line.find("/* 0x");
    if (AddrPos == std::string_view::npos || HexPos == std::string_view::npos)
      continue;
    std::string Addr(Line.substr(AddrPos + 2, Line.find("*/") - AddrPos - 2));
    std::string Hex(Line.substr(HexPos + 5, 16));
    uint64_t Address = *parseUInt("0x" + Addr);
    uint64_t Word = 0;
    for (unsigned Byte = 0; Byte < 8; ++Byte)
      Word |= static_cast<uint64_t>(
                  Compiled->Section.Code[Address + Byte])
              << (8 * Byte);
    EXPECT_EQ(Hex, toPaddedHex(Word, 16)) << "at address " << Addr;
  }
}

TEST(Vendor, ReconvergenceSpellingFollowsArchitecture) {
  // Kepler spells reconvergence ".S"; Maxwell uses a SYNC instruction.
  for (Arch A : {Arch::SM30, Arch::SM35}) {
    KernelBuilder K("r", A);
    K.reconverge();
    EXPECT_EQ(K.instructions()[0].Inst.opcode(), "NOP");
    ASSERT_EQ(K.instructions()[0].Inst.Modifiers.size(), 1u);
    EXPECT_EQ(K.instructions()[0].Inst.modifier(0), "S");
  }
  for (Arch A : {Arch::SM50, Arch::SM61}) {
    KernelBuilder K("r", A);
    K.reconverge();
    EXPECT_EQ(K.instructions()[0].Inst.opcode(), "SYNC");
  }
}

TEST(Vendor, VoltaEmbedsControlInfoInsideInstructions) {
  NvccSim Nvcc(Arch::SM70);
  KernelBuilder K("volta", Arch::SM70);
  K.ins("MOV R1, 0x1;");
  K.ins("IADD R2, R1, R1;");
  K.exit();
  Expected<CompiledKernel> Compiled = Nvcc.compileKernel(K);
  ASSERT_TRUE(Compiled.hasValue()) << Compiled.message();
  // 128-bit words, no separate SCHI words.
  EXPECT_EQ(Compiled->Section.Code.size(), Compiled->Insts.size() * 16);
  // The first instruction's embedded stall must cover the dependence.
  BitString Word(128);
  for (unsigned Byte = 0; Byte < 16; ++Byte)
    Word.setField(Byte * 8, 8, Compiled->Section.Code[Byte]);
  EXPECT_GE(sass::extractVoltaCtrl(Word).Stall, 6u);
}

#include "isa/Spec.h"
#include "workloads/Suite.h"

namespace {

/// Replays a compiled kernel's dispatch timeline and checks that every
/// fixed-latency dependence is satisfied by stalls (and, on Maxwell, that
/// variable-latency dependences are protected by barriers). This is the
/// soundness property the compile-time scheduling of §II-B must provide.
void checkScheduleSoundness(Arch A, const vendor::CompiledKernel &Compiled,
                            const std::string &Name) {
  const isa::ArchSpec &Spec = isa::getArchSpec(A);
  const bool UseBarriers = archFamily(A) == EncodingFamily::Maxwell ||
                           archFamily(A) == EncodingFamily::Volta;

  struct Producer {
    uint64_t ReadyAt = 0; ///< Dispatch + fixed latency.
    int Barrier = -1;     ///< Write barrier protecting it, if any.
  };
  std::map<int, Producer> RegState; // register id -> last producer
  uint64_t Dispatch = 0;
  unsigned Waited = 0; // Bit mask of barriers waited so far (sticky).

  for (size_t I = 0; I < Compiled.Insts.size(); ++I) {
    const sass::Instruction &Inst = Compiled.Insts[I];
    const isa::InstrSpec *IS = Spec.findSpec(Inst);
    ASSERT_NE(IS, nullptr);
    const sass::CtrlInfo &Ctrl = Compiled.Ctrl[I];
    Waited |= Ctrl.WaitMask;

    // Straight-line check only: stop at control flow.
    if (IS->Latency == isa::InstrSpec::LatencyClass::Control)
      break;

    // Check sources.
    for (size_t OpIdx = IS->NumDefs; OpIdx < Inst.Operands.size();
         ++OpIdx) {
      const sass::Operand &Op = Inst.Operands[OpIdx];
      if (Op.Kind != sass::OperandKind::Register || Op.Value[0] < 0)
        continue;
      auto It = RegState.find(static_cast<int>(Op.Value[0]));
      if (It == RegState.end())
        continue;
      if (It->second.Barrier >= 0) {
        EXPECT_TRUE(Waited & (1u << It->second.Barrier))
            << Name << " inst " << I
            << ": consumes a variable-latency result without waiting";
      } else {
        EXPECT_GE(Dispatch, It->second.ReadyAt)
            << Name << " inst " << I << ": stall too small for "
            << sass::printInstruction(Inst);
      }
    }

    // Record defs.
    for (size_t OpIdx = 0;
         OpIdx < IS->NumDefs && OpIdx < Inst.Operands.size(); ++OpIdx) {
      const sass::Operand &Op = Inst.Operands[OpIdx];
      if (Op.Kind != sass::OperandKind::Register || Op.Value[0] < 0)
        continue;
      Producer P;
      if (IS->Latency == isa::InstrSpec::LatencyClass::Fixed) {
        P.ReadyAt = Dispatch + IS->FixedLatency;
      } else if (UseBarriers && Ctrl.WriteBarrier != 7) {
        P.Barrier = static_cast<int>(Ctrl.WriteBarrier);
      } else {
        P.ReadyAt = Dispatch + 2; // Kepler hardware scoreboard.
      }
      RegState[static_cast<int>(Op.Value[0])] = P;
    }
    Dispatch += Ctrl.Stall;
  }
}

} // namespace

TEST_P(VendorPerArch, SchedulesAreSoundForTheWholeSuite) {
  vendor::NvccSim Nvcc(GetParam());
  for (const workloads::Workload &W : workloads::suite()) {
    Expected<vendor::CompiledKernel> Compiled =
        Nvcc.compileKernel(W.Build(GetParam()));
    ASSERT_TRUE(Compiled.hasValue()) << W.Name << Compiled.message();
    checkScheduleSoundness(GetParam(), *Compiled, W.Name);
  }
}

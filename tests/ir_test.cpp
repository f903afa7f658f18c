//===- tests/ir_test.cpp - IR construction and relayout --------------------===//

#include "ir/Builder.h"
#include "ir/Ir.h"
#include "ir/Layout.h"

#include "sass/CtrlInfo.h"
#include "sass/Parser.h"

#include "analyzer/IsaAnalyzer.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/KernelBuilder.h"
#include "vendor/NvccSim.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

using namespace dcb;
using namespace dcb::ir;
using analyzer::Listing;
using analyzer::parseListing;

namespace {

std::vector<Arch> fullArchs() {
  unsigned Count = 0;
  const Arch *Archs = supportedArchs(Count);
  return std::vector<Arch>(Archs, Archs + Count);
}

struct Env {
  elf::Cubin Cubin{Arch::SM35};
  Listing L;
  analyzer::EncodingDatabase Db{Arch::SM35};
};

Env makeEnv(Arch A) {
  vendor::NvccSim Nvcc(A);
  Expected<elf::Cubin> Cubin = Nvcc.compile(workloads::buildSuite(A));
  EXPECT_TRUE(Cubin.hasValue()) << Cubin.message();
  Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
  EXPECT_TRUE(Text.hasValue()) << Text.message();
  Expected<Listing> L = parseListing(*Text);
  EXPECT_TRUE(L.hasValue()) << L.message();

  analyzer::IsaAnalyzer Analyzer(A);
  EXPECT_FALSE(Analyzer.analyzeListing(*L));

  Env E;
  E.Cubin = Cubin.takeValue();
  E.L = L.takeValue();
  E.Db = Analyzer.database();
  return E;
}

const analyzer::ListingKernel &kernelListing(const Listing &L,
                                             const std::string &Name) {
  for (const analyzer::ListingKernel &Kernel : L.Kernels)
    if (Kernel.Name == Name)
      return Kernel;
  ADD_FAILURE() << "kernel " << Name << " not in listing";
  static analyzer::ListingKernel Empty;
  return Empty;
}

} // namespace

class IrPerArch : public ::testing::TestWithParam<Arch> {};

TEST_P(IrPerArch, RoundTripIsByteIdenticalForWholeSuite) {
  // Listing -> IR -> relayout must reproduce the original bytes exactly
  // when nothing is transformed (SCHI words, branch offsets and all).
  Env E = makeEnv(GetParam());
  for (const analyzer::ListingKernel &KL : E.L.Kernels) {
    Expected<Kernel> K = buildKernel(GetParam(), KL);
    ASSERT_TRUE(K.hasValue()) << KL.Name << ": " << K.message();
    Expected<std::vector<uint8_t>> Code = emitKernel(E.Db, *K);
    ASSERT_TRUE(Code.hasValue()) << KL.Name << ": " << Code.message();
    const elf::KernelSection *Section = E.Cubin.findKernel(KL.Name);
    ASSERT_NE(Section, nullptr);
    EXPECT_EQ(*Code, Section->Code)
        << archName(GetParam()) << "/" << KL.Name;
  }
}

TEST_P(IrPerArch, SchedulingInfoMatchesCompilerDecisions) {
  // Splitting the SCHI words must recover exactly what the vendor
  // scheduler embedded (Figs. 9/10).
  Arch A = GetParam();
  vendor::NvccSim Nvcc(A);
  Expected<vendor::CompiledKernel> Compiled =
      Nvcc.compileKernel(workloads::suite()[0].Build(A));
  ASSERT_TRUE(Compiled.hasValue());
  Expected<std::string> Text = vendor::disassembleKernelCode(
      A, "k", Compiled->Section.Code);
  ASSERT_TRUE(Text.hasValue());
  Expected<Listing> L =
      parseListing("code for " + std::string(archName(A)) + "\n" + *Text);
  ASSERT_TRUE(L.hasValue()) << L.message();

  std::vector<sass::CtrlInfo> Ctrl =
      splitSchedulingInfo(A, L->Kernels.front());
  ASSERT_EQ(Ctrl.size(), Compiled->Ctrl.size());
  if (archSchiKind(A) == SchiKind::None)
    return; // Fermi: scheduling is in hardware; nothing to compare.
  for (size_t I = 0; I < Ctrl.size(); ++I) {
    if (archSchiKind(A) == SchiKind::Kepler30 ||
        archSchiKind(A) == SchiKind::Kepler35) {
      // Kepler SCHI carries only dispatch behaviour.
      EXPECT_EQ(Ctrl[I].Stall, Compiled->Ctrl[I].Stall) << "inst " << I;
      EXPECT_EQ(Ctrl[I].DualIssue, Compiled->Ctrl[I].DualIssue);
    } else {
      EXPECT_EQ(Ctrl[I], Compiled->Ctrl[I]) << "inst " << I;
    }
  }
}

TEST_P(IrPerArch, EmittedCodeStillDisassembles) {
  Env E = makeEnv(GetParam());
  const analyzer::ListingKernel &KL = kernelListing(E.L, "bfs");
  Expected<Kernel> K = buildKernel(GetParam(), KL);
  ASSERT_TRUE(K.hasValue());
  Expected<std::vector<uint8_t>> Code = emitKernel(E.Db, *K);
  ASSERT_TRUE(Code.hasValue());
  Expected<std::string> Text =
      vendor::disassembleKernelCode(GetParam(), "bfs", *Code);
  EXPECT_TRUE(Text.hasValue()) << Text.message();
}

INSTANTIATE_TEST_SUITE_P(AllArchs, IrPerArch, ::testing::ValuesIn(fullArchs()),
                         [](const ::testing::TestParamInfo<Arch> &Info) {
                           return std::string(archName(Info.param));
                         });

TEST(IrCfg, DivergentKernelHasFig4Structure) {
  // bfs uses SSY + guarded branch + reconvergence; its CFG must show a
  // divergent split that re-joins at the SSY target (Fig. 4).
  Env E = makeEnv(Arch::SM52);
  const analyzer::ListingKernel &KL = kernelListing(E.L, "bfs");
  Expected<Kernel> K = buildKernel(Arch::SM52, KL);
  ASSERT_TRUE(K.hasValue()) << K.message();

  EXPECT_GT(K->Blocks.size(), 3u);

  // Find the block holding the SSY; its recorded reconvergence target must
  // be a later block, and some block must end with SYNC targeting it.
  int SsyTarget = -1;
  for (const Block &B : K->Blocks)
    for (const Inst &Entry : B.Insts)
      if (Entry.Asm.opcode() == "SSY")
        SsyTarget = Entry.TargetBlock;
  ASSERT_GE(SsyTarget, 0);

  bool SyncEdgeFound = false;
  for (const Block &B : K->Blocks) {
    if (B.empty() || B.Insts.back().Asm.opcode() != "SYNC")
      continue;
    for (int Succ : B.Succs)
      SyncEdgeFound |= (Succ == SsyTarget);
  }
  EXPECT_TRUE(SyncEdgeFound) << printKernel(*K);

  // A guarded branch must produce two successors.
  bool TwoWay = false;
  for (const Block &B : K->Blocks) {
    if (B.empty())
      continue;
    const Inst &Last = B.Insts.back();
    if (Last.Asm.opcode() == "BRA" && Last.Asm.hasGuard())
      TwoWay |= B.Succs.size() == 2;
  }
  EXPECT_TRUE(TwoWay) << printKernel(*K);
}

TEST(IrCfg, LoopProducesBackEdge) {
  Env E = makeEnv(Arch::SM35);
  const analyzer::ListingKernel &KL = kernelListing(E.L, "lud");
  Expected<Kernel> K = buildKernel(Arch::SM35, KL);
  ASSERT_TRUE(K.hasValue());
  bool BackEdge = false;
  for (size_t BlockIdx = 0; BlockIdx < K->Blocks.size(); ++BlockIdx)
    for (int Succ : K->Blocks[BlockIdx].Succs)
      BackEdge |= Succ <= static_cast<int>(BlockIdx);
  EXPECT_TRUE(BackEdge);
}

TEST(IrCfg, ExitBlocksHaveNoSuccessors) {
  Env E = makeEnv(Arch::SM50);
  for (const analyzer::ListingKernel &KL : E.L.Kernels) {
    Expected<Kernel> K = buildKernel(Arch::SM50, KL);
    ASSERT_TRUE(K.hasValue());
    for (const Block &B : K->Blocks) {
      if (B.empty())
        continue;
      const Inst &Last = B.Insts.back();
      if (Last.Asm.opcode() == "EXIT" && !Last.Asm.hasGuard())
        EXPECT_TRUE(B.Succs.empty()) << KL.Name;
    }
  }
}

TEST(IrPrint, HumanReadableDump) {
  Env E = makeEnv(Arch::SM52);
  const analyzer::ListingKernel &KL = kernelListing(E.L, "bfs");
  Expected<Kernel> K = buildKernel(Arch::SM52, KL);
  ASSERT_TRUE(K.hasValue());
  std::string Dump = printKernel(*K);
  EXPECT_NE(Dump.find("BB0:"), std::string::npos);
  EXPECT_NE(Dump.find("succs:"), std::string::npos);
  EXPECT_NE(Dump.find("[B"), std::string::npos) << "inline control info";
  EXPECT_NE(Dump.find("SSY BB"), std::string::npos)
      << "symbolic branch targets";
}

TEST(IrInsert, InsertedCodeRelayoutsAndDecodes) {
  // Insert instructions mid-kernel; the relayout must renumber addresses,
  // fix branch offsets and keep the result decodable by the oracle tool.
  Env E = makeEnv(Arch::SM61);
  const analyzer::ListingKernel &KL = kernelListing(E.L, "lud");
  Expected<Kernel> K = buildKernel(Arch::SM61, KL);
  ASSERT_TRUE(K.hasValue());
  size_t OriginalCount = K->instructionCount();

  Inst Extra;
  Extra.Asm = *sass::parseInstruction("MOV R20, RZ;");
  Extra.Ctrl = conservativeCtrl();
  K->Blocks[0].Insts.insert(K->Blocks[0].Insts.begin(), Extra);

  Expected<std::vector<uint8_t>> Code = emitKernel(E.Db, *K);
  ASSERT_TRUE(Code.hasValue()) << Code.message();
  Expected<std::string> Text =
      vendor::disassembleKernelCode(Arch::SM61, "lud", *Code);
  ASSERT_TRUE(Text.hasValue()) << Text.message();
  EXPECT_NE(Text->find("MOV R20, RZ;"), std::string::npos);

  // Re-parse and re-build: the loop back-edge must still be intact.
  Expected<Listing> L2 = parseListing("code for sm_61\n" + *Text);
  ASSERT_TRUE(L2.hasValue()) << L2.message();
  Expected<Kernel> K2 = buildKernel(Arch::SM61, L2->Kernels.front());
  ASSERT_TRUE(K2.hasValue()) << K2.message();
  EXPECT_GE(K2->instructionCount(), OriginalCount + 1);
  bool BackEdge = false;
  for (size_t BlockIdx = 0; BlockIdx < K2->Blocks.size(); ++BlockIdx)
    for (int Succ : K2->Blocks[BlockIdx].Succs)
      BackEdge |= Succ <= static_cast<int>(BlockIdx);
  EXPECT_TRUE(BackEdge);
}

TEST(IrProgram, WholeProgramEmitUpdatesCubin) {
  Env E = makeEnv(Arch::SM35);
  Expected<Program> P = buildProgram(E.L);
  ASSERT_TRUE(P.hasValue()) << P.message();
  std::vector<uint8_t> Original = E.Cubin.serialize();
  Expected<std::vector<uint8_t>> Image = emitProgram(E.Db, *P, Original);
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  // Untransformed emission reproduces an equivalent cubin.
  Expected<elf::Cubin> Back = elf::Cubin::deserialize(*Image);
  ASSERT_TRUE(Back.hasValue());
  for (const elf::KernelSection &Kernel : E.Cubin.kernels()) {
    const elf::KernelSection *New = Back->findKernel(Kernel.Name);
    ASSERT_NE(New, nullptr);
    EXPECT_EQ(New->Code, Kernel.Code) << Kernel.Name;
  }
}

TEST(IrCfg, PbkBrkEdgesTargetTheArmedBreakBlock) {
  Env E = makeEnv(Arch::SM35);
  const analyzer::ListingKernel &KL = kernelListing(E.L, "mergeSort");
  Expected<Kernel> K = buildKernel(Arch::SM35, KL);
  ASSERT_TRUE(K.hasValue()) << K.message();

  int BreakTarget = -1;
  for (const Block &B : K->Blocks)
    for (const Inst &Entry : B.Insts)
      if (Entry.Asm.opcode() == "PBK")
        BreakTarget = Entry.TargetBlock;
  ASSERT_GE(BreakTarget, 0);

  unsigned BrkEdges = 0;
  for (const Block &B : K->Blocks) {
    if (B.empty() || B.Insts.back().Asm.opcode() != "BRK")
      continue;
    for (int Succ : B.Succs)
      BrkEdges += Succ == BreakTarget;
  }
  EXPECT_GE(BrkEdges, 2u) << printKernel(*K); // Early @P0 BRK + final BRK.
}

TEST(IrBincode, RawWordsBypassTheAssembler) {
  // The artifact's phony BINCODE opcode (§A.H): "the instruction contains
  // only binary code". Replace an instruction with its raw word and emit;
  // the bytes must be identical to the original kernel.
  Env E = makeEnv(Arch::SM35);
  const analyzer::ListingKernel &KL = kernelListing(E.L, "backprop");
  Expected<Kernel> K = buildKernel(Arch::SM35, KL);
  ASSERT_TRUE(K.hasValue());

  // Swap the first instruction for a BINCODE of its own encoding.
  Inst &First = K->Blocks[0].Insts[0];
  uint64_t RawWord = KL.Insts[0].Binary.field(0, 64);
  sass::Instruction Raw;
  Raw.setOpcode("BINCODE");
  Raw.Operands.push_back(
      sass::Operand::makeIntImm(static_cast<int64_t>(RawWord)));
  First.Asm = Raw;
  First.TargetBlock = -1;

  Expected<std::vector<uint8_t>> Code = emitKernel(E.Db, *K);
  ASSERT_TRUE(Code.hasValue()) << Code.message();
  const elf::KernelSection *Section = E.Cubin.findKernel("backprop");
  ASSERT_NE(Section, nullptr);
  EXPECT_EQ(*Code, Section->Code);
}

TEST(IrBincode, MalformedBincodeIsRejected) {
  Env E = makeEnv(Arch::SM35);
  Kernel K;
  K.Name = "b";
  K.A = Arch::SM35;
  K.Blocks.emplace_back();
  sass::Instruction Raw;
  Raw.setOpcode("BINCODE");
  Raw.Operands.push_back(sass::Operand::makeIntImm(1));
  Raw.Operands.push_back(sass::Operand::makeIntImm(2)); // High word on 64-bit.
  Inst Entry;
  Entry.Asm = Raw;
  K.Blocks[0].Insts.push_back(Entry);
  Expected<std::vector<uint8_t>> Code = emitKernel(E.Db, K);
  EXPECT_FALSE(Code.hasValue());
}

TEST(IrBuilder, InstructionWhereASchiWordBelongsIsAnError) {
  for (const char *Name : {"sm_35", "sm_50"}) {
    // Word 0 opens a SCHI group on both, so the MOV sits in its place.
    Expected<Listing> L = parseListing(
        "code for " + std::string(Name) + "\n" +
        "\tFunction : k\n"
        "        /*0000*/ MOV R1, R2; /* 0x0000000000000000 */\n"
        "        /*0008*/ /* 0x0800000000000000 */\n"
        "        /*0010*/ EXIT; /* 0x0000000000000000 */\n");
    ASSERT_TRUE(L.hasValue()) << L.message();
    // Splitting alone keeps the defaults instead of reading a slot that
    // does not exist.
    std::vector<sass::CtrlInfo> Ctrl =
        splitSchedulingInfo(L->A, L->Kernels.front());
    ASSERT_EQ(Ctrl.size(), 2u);
    EXPECT_EQ(Ctrl[0], sass::CtrlInfo());

    Expected<Kernel> K = buildKernel(L->A, L->Kernels.front());
    ASSERT_FALSE(K.hasValue()) << Name;
    EXPECT_NE(K.message().find("instruction at 0x0 in kernel k"),
              std::string::npos)
        << K.message();
  }
}

TEST(IrBuilder, AddressesThatDoNotAscendAreAnError) {
  // On sm_35, 0x8 and 0x10 are instruction slots of the first SCHI group.
  const struct {
    const char *Body;
    const char *Message;
  } Cases[] = {
      {"        /*0008*/ MOV R1, R2; /* 0x0000000000000000 */\n"
       "        /*0008*/ EXIT; /* 0x0000000000000000 */\n",
       "ir: instruction at 0x8 in kernel k does not follow 0x8"},
      {"        /*0010*/ EXIT; /* 0x0000000000000000 */\n"
       "        /*0008*/ MOV R1, R2; /* 0x0000000000000000 */\n",
       "ir: instruction at 0x8 in kernel k does not follow 0x10"},
  };
  for (const auto &C : Cases) {
    Expected<Listing> L =
        parseListing(std::string("code for sm_35\n\tFunction : k\n") + C.Body);
    ASSERT_TRUE(L.hasValue()) << L.message();
    Expected<Kernel> K = buildKernel(L->A, L->Kernels.front());
    ASSERT_FALSE(K.hasValue()) << C.Body;
    EXPECT_EQ(K.message(), C.Message);
  }
}

// The listing spells a code address in as many hex digits as it needs:
// with four, a kernel past 64 KiB wrapped back to /*0000*/, which the lift
// now refuses as an address that does not ascend.
TEST(IrBuilder, KernelsPast64KiBKeepTheirAddresses) {
  for (Arch A : {Arch::SM20, Arch::SM50}) {
    vendor::KernelBuilder Big("big", A);
    for (unsigned I = 0; I < 8200; ++I)
      Big.ins("MOV R1, R2;");
    Big.exit();
    Expected<elf::Cubin> Cubin = vendor::NvccSim(A).compile({Big});
    ASSERT_TRUE(Cubin.hasValue()) << Cubin.message();
    Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
    ASSERT_TRUE(Text.hasValue()) << Text.message();
    Expected<Listing> L = parseListing(*Text);
    ASSERT_TRUE(L.hasValue()) << L.message();
    const std::vector<analyzer::ListingInst> &Insts = L->Kernels[0].Insts;
    const SchiKind Schi = archSchiKind(A);
    const size_t N = sass::paddedInstCount(Schi, 8201); // NOP-padded tail.
    ASSERT_EQ(Insts.size(), N) << archName(A);
    EXPECT_EQ(Insts.back().Address, sass::instAddress(Schi, 8, N - 1));
    Expected<Kernel> K = buildKernel(A, L->Kernels[0]);
    ASSERT_TRUE(K.hasValue()) << K.message();
    EXPECT_EQ(K->instructionCount(), N);
  }
}

// --- Successor-edge shape regressions (hand-built listings) --------------
//
// Each test hand-assembles a ListingKernel with the SCHI address cadence of
// the target architecture, so the builder sees exactly the layout the
// disassembler would produce, without involving the compiler oracle.

namespace {

analyzer::ListingKernel makeShapeKernel(Arch A,
                                        const std::vector<std::string> &Lines) {
  const unsigned WordBytes = archWordBits(A) / 8;
  analyzer::ListingKernel KL;
  KL.Name = "shape";
  for (size_t I = 0; I < Lines.size(); ++I) {
    analyzer::ListingInst Pair;
    Pair.Address = sass::instAddress(archSchiKind(A), WordBytes, I);
    Expected<sass::Instruction> P = sass::parseInstruction(Lines[I]);
    EXPECT_TRUE(P.hasValue()) << Lines[I] << ": " << P.message();
    Pair.Inst = P.takeValue();
    KL.Insts.push_back(std::move(Pair));
  }
  return KL;
}

Kernel buildShape(Arch A, const std::vector<std::string> &Lines) {
  Expected<Kernel> K = buildKernel(A, makeShapeKernel(A, Lines));
  EXPECT_TRUE(K.hasValue()) << K.message();
  return K.takeValue();
}

} // namespace

TEST(IrSuccs, GuardedBranchKeepsFallThrough) {
  Kernel K = buildShape(Arch::SM52, {
                                        "@P0 BRA 0x18;", // BB0 -> BB2 + fall
                                        "MOV R0, R1;",   // BB1
                                        "EXIT;",         // BB2
                                    });
  ASSERT_EQ(K.Blocks.size(), 3u);
  EXPECT_EQ(K.Blocks[0].Succs, (std::vector<int>{1, 2}));
  EXPECT_EQ(K.Blocks[1].Succs, (std::vector<int>{2}));
  EXPECT_TRUE(K.Blocks[2].Succs.empty());
}

TEST(IrSuccs, UnguardedBranchToNextBlockHasOneEdge) {
  Kernel K = buildShape(Arch::SM52, {
                                        "BRA 0x10;", // BB0 -> BB1, no fall
                                        "EXIT;",     // BB1
                                    });
  ASSERT_EQ(K.Blocks.size(), 2u);
  EXPECT_EQ(K.Blocks[0].Succs, (std::vector<int>{1}));
}

TEST(IrSuccs, SelfLoopBranch) {
  Kernel K = buildShape(Arch::SM52, {"BRA 0x8;"});
  ASSERT_EQ(K.Blocks.size(), 1u);
  EXPECT_EQ(K.Blocks[0].Succs, (std::vector<int>{0}));
}

TEST(IrSuccs, GuardedExitFallsThrough) {
  Kernel K = buildShape(Arch::SM52, {
                                        "@P0 EXIT;",   // BB0
                                        "MOV R0, R1;", // BB1
                                        "EXIT;",       // BB1 (no leader)
                                    });
  ASSERT_EQ(K.Blocks.size(), 2u);
  EXPECT_EQ(K.Blocks[0].Succs, (std::vector<int>{1}));
  EXPECT_TRUE(K.Blocks[1].Succs.empty());
}

TEST(IrSuccs, UnguardedSyncJumpHasNoFallThroughEdge) {
  // Regression: an unconditional SYNC whose reconvergence target is *not*
  // the next block used to grow a spurious fall-through edge.
  Kernel K = buildShape(Arch::SM52, {
                                        "SSY 0x38;",     // BB0
                                        "@P0 BRA 0x28;", // BB0 -> BB2 + fall
                                        "MOV R0, R1;",   // BB1
                                        "SYNC;",         // BB2 -> BB4 only
                                        "MOV R2, R3;",   // BB3
                                        "MOV R4, R5;",   // BB4 (SSY target)
                                        "EXIT;",         // BB4
                                    });
  ASSERT_EQ(K.Blocks.size(), 5u);
  EXPECT_EQ(K.Blocks[0].Succs, (std::vector<int>{1, 2}));
  EXPECT_EQ(K.Blocks[1].Succs, (std::vector<int>{2}));
  EXPECT_EQ(K.Blocks[2].Succs, (std::vector<int>{4}));
  EXPECT_EQ(K.Blocks[2].ReconvergeBlock, 4);
  EXPECT_EQ(K.Blocks[3].Succs, (std::vector<int>{4}));
  EXPECT_EQ(K.Blocks[4].ReconvergeBlock, -1);
}

TEST(IrSuccs, GuardedSyncKeepsBothEdges) {
  Kernel K = buildShape(Arch::SM52, {
                                        "SSY 0x30;",   // BB0
                                        "@P0 SYNC;",   // BB0 -> BB2 + fall
                                        "MOV R0, R1;", // BB1
                                        "SYNC;",       // BB1 -> BB2
                                        "MOV R2, R3;", // BB2 (SSY target)
                                        "EXIT;",       // BB2
                                    });
  ASSERT_EQ(K.Blocks.size(), 3u);
  EXPECT_EQ(K.Blocks[0].Succs, (std::vector<int>{1, 2}));
  EXPECT_EQ(K.Blocks[1].Succs, (std::vector<int>{2}));
}

TEST(IrSuccs, MarkerSModifierExecutesAndFallsThrough) {
  // Regression: a Kepler-style ".S" reconvergence *marker* on an ordinary
  // instruction is not a jump — the instruction executes and control
  // continues into the next block. It used to receive a bogus edge to the
  // armed SSY target.
  Kernel K = buildShape(Arch::SM35, {
                                        "SSY 0x30;",          // BB0
                                        "@P0 BRA 0x28;",      // BB0
                                        "MOV R0, R1;",        // BB1
                                        "IADD.S R2, R3, R4;", // BB1 (marker)
                                        "MOV R4, R5;",        // BB2
                                        "EXIT;",              // BB3 (target)
                                    });
  ASSERT_EQ(K.Blocks.size(), 4u);
  EXPECT_EQ(K.Blocks[0].Succs, (std::vector<int>{1, 2}));
  EXPECT_EQ(K.Blocks[1].Succs, (std::vector<int>{2}));
  EXPECT_EQ(K.Blocks[1].ReconvergeBlock, 3);
  EXPECT_EQ(K.Blocks[2].Succs, (std::vector<int>{3}));
}

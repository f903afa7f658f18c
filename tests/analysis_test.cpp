//===- tests/analysis_test.cpp - Dataflow framework + checker tests -------===//
//
// Covers the src/analysis layer: CFG utilities, the BitSet/worklist solver,
// liveness with the public register model, the SCHI hazard checker, the
// encoding-database linter, and the vendor-side ISA table linter — including
// deliberately corrupted fixtures that must trip specific rule ids.
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "analysis/Dataflow.h"
#include "analysis/DbLint.h"
#include "analysis/Findings.h"
#include "analysis/Hazards.h"
#include "analysis/Liveness.h"
#include "analysis/RegModel.h"

#include "ir/Builder.h"
#include "sass/Parser.h"

// Tests are exempt from the analyzer firewall: the ISA-lint fixtures below
// hand-build ground-truth specs.
#include "OpcodeFacts.h"
#include "isa/Spec.h"
#include "support/FileIo.h"
#include "support/Rng.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/IsaLint.h"
#include "vendor/NvccSim.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <sstream>

#ifndef DCB_SOURCE_DIR
#define DCB_SOURCE_DIR "."
#endif

using namespace dcb;
using namespace dcb::analysis;

namespace {

bool hasRule(const Report &R, const std::string &Rule) {
  for (const Finding &F : R.Findings)
    if (F.Rule == Rule)
      return true;
  return false;
}

std::string rulesOf(const Report &R) {
  std::string Out;
  for (const Finding &F : R.Findings)
    Out += F.Rule + " ";
  return Out;
}

/// Hand-assembles a ListingKernel with the SCHI address cadence of \p A and
/// lifts it to IR (same helper shape as ir_test's shape kernels).
ir::Kernel buildShape(Arch A, const std::vector<std::string> &Lines) {
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
  Expected<ir::Kernel> K = ir::buildKernel(A, KL);
  EXPECT_TRUE(K.hasValue()) << K.message();
  return K.takeValue();
}

ir::Program suiteProgram(Arch A) {
  vendor::NvccSim Nvcc(A);
  Expected<elf::Cubin> Cubin = Nvcc.compile(workloads::buildSuite(A));
  EXPECT_TRUE(Cubin.hasValue()) << Cubin.message();
  Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
  EXPECT_TRUE(Text.hasValue()) << Text.message();
  Expected<analyzer::Listing> L = analyzer::parseListing(*Text);
  EXPECT_TRUE(L.hasValue()) << L.message();
  Expected<ir::Program> P = ir::buildProgram(*L);
  EXPECT_TRUE(P.hasValue()) << P.message();
  return P.takeValue();
}

std::vector<Arch> fullArchs() {
  unsigned Count = 0;
  const Arch *Archs = supportedArchs(Count);
  return std::vector<Arch>(Archs, Archs + Count);
}

} // namespace

// --- BitSet / solver ------------------------------------------------------

TEST(BitSet, BasicOperations) {
  BitSet A(263), B(263);
  A.set(0);
  A.set(64);
  A.set(262);
  EXPECT_TRUE(A.test(64));
  EXPECT_FALSE(A.test(63));
  EXPECT_EQ(A.count(), 3u);
  EXPECT_EQ(A.countRange(0, 256), 2u);

  B.set(64);
  EXPECT_TRUE(A.intersects(B));
  EXPECT_FALSE(B.unionWith(A) == false); // Changed.
  EXPECT_EQ(B.count(), 3u);
  B.subtract(A);
  EXPECT_EQ(B.count(), 0u);

  std::vector<size_t> Seen;
  A.forEach([&Seen](size_t I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<size_t>{0, 64, 262}));
}

TEST(BitSet, CountRangeMatchesBitByBitCount) {
  // Every range 0 <= Lo <= Hi <= kNumSlots of empty, full and seeded
  // sets (sparse to dense): the masked end words plus the whole words
  // between them must equal a bit-by-bit count.
  std::vector<BitSet> Sets(2, BitSet(kNumSlots));
  for (unsigned S = 0; S < kNumSlots; ++S)
    Sets[1].set(S);
  Rng R(15);
  for (unsigned OneIn : {2u, 3u, 16u, 64u}) {
    for (unsigned Rep = 0; Rep < 3; ++Rep) {
      BitSet Seeded(kNumSlots);
      for (unsigned S = 0; S < kNumSlots; ++S)
        if (R.next() % OneIn == 0)
          Seeded.set(S);
      Sets.push_back(Seeded);
    }
  }
  for (size_t SetIdx = 0; SetIdx < Sets.size(); ++SetIdx) {
    const BitSet &Set = Sets[SetIdx];
    std::vector<size_t> Prefix(kNumSlots + 1, 0);
    for (unsigned S = 0; S < kNumSlots; ++S)
      Prefix[S + 1] = Prefix[S] + Set.test(S);
    EXPECT_EQ(Set.count(), Prefix[kNumSlots]) << "set " << SetIdx;
    for (size_t Lo = 0; Lo <= kNumSlots; ++Lo)
      for (size_t Hi = Lo; Hi <= kNumSlots; ++Hi)
        ASSERT_EQ(Set.countRange(Lo, Hi), Prefix[Hi] - Prefix[Lo])
            << "set " << SetIdx << " [" << Lo << ", " << Hi << ")";
  }
}

TEST(Cfg, RpoAndPredsOnDiamond) {
  // BB0 -> {1,2}; 1 -> 3; 2 -> 3.
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "@P0 BRA 0x28;", // BB0
                                            "MOV R0, R1;",   // BB1
                                            "BRA 0x30;",     // BB1 -> BB3
                                            "MOV R2, R3;",   // BB2
                                            "EXIT;",         // BB3
                                        });
  ASSERT_EQ(K.Blocks.size(), 4u);
  Cfg C = Cfg::build(K);
  ASSERT_EQ(C.Rpo.size(), 4u);
  EXPECT_EQ(C.Rpo.front(), 0);
  EXPECT_LT(C.RpoNumber[0], C.RpoNumber[1]);
  EXPECT_LT(C.RpoNumber[1], C.RpoNumber[3]);
  EXPECT_LT(C.RpoNumber[2], C.RpoNumber[3]);
  EXPECT_EQ(C.Preds[3], (std::vector<int>{1, 2}));
  EXPECT_TRUE(C.Reachable[3]);
  EXPECT_TRUE(validateCfg(K).clean());
}

TEST(Cfg, ValidateFlagsOutOfRangeEdges) {
  ir::Kernel K = buildShape(Arch::SM52, {"EXIT;"});
  K.Blocks[0].Succs.push_back(7); // No such block.
  Report R = validateCfg(K);
  EXPECT_TRUE(hasRule(R, "CFG001")) << rulesOf(R);

  ir::Kernel K2 = buildShape(Arch::SM52, {"EXIT;"});
  K2.Blocks[0].ReconvergeBlock = 9;
  EXPECT_TRUE(hasRule(validateCfg(K2), "CFG001"));
}

// --- Liveness -------------------------------------------------------------

TEST(Liveness, StraightLineDefUse) {
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "MOV R2, R3;",
                                            "IADD R4, R2, R5;",
                                            "ST.E [R6], R4;",
                                            "EXIT;",
                                        });
  Liveness L = computeLiveness(K);
  ASSERT_EQ(L.LiveIn.size(), K.Blocks.size());
  const BitSet &In = L.LiveIn[0];
  EXPECT_TRUE(In.test(3));
  EXPECT_TRUE(In.test(5));
  EXPECT_TRUE(In.test(6));
  EXPECT_FALSE(In.test(2)) << "R2 is defined before its use";
  EXPECT_FALSE(In.test(4));
}

TEST(Liveness, GuardedDefDoesNotKill) {
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "@P0 MOV R2, RZ;",
                                            "ST.E [R6], R2;",
                                            "EXIT;",
                                        });
  Liveness L = computeLiveness(K);
  const BitSet &In = L.LiveIn[0];
  EXPECT_TRUE(In.test(2)) << "predicated write may not happen";
  EXPECT_TRUE(In.test(kNumRegSlots + 0)) << "guard P0 is a use";
  EXPECT_TRUE(In.test(6));
}

TEST(Liveness, WideDefsCoverTheWholeGroup) {
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "LDG.E.64 R2, [R8];",
                                            "ST.E [R4], R3;",
                                            "EXIT;",
                                        });
  Liveness L = computeLiveness(K);
  const BitSet &In = L.LiveIn[0];
  EXPECT_FALSE(In.test(3)) << "R3 is the high half of the 64-bit load";
  EXPECT_TRUE(In.test(8));
  EXPECT_TRUE(In.test(4));
}

TEST(Liveness, PressurePeakAndDeterminism) {
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "MOV R0, R10;",
                                            "MOV R1, R11;",
                                            "IADD R2, R0, R1;",
                                            "ST.E [R4], R2;",
                                            "EXIT;",
                                        });
  Liveness A = computeLiveness(K);
  Liveness B = computeLiveness(K);
  EXPECT_EQ(A.Iterations, B.Iterations);
  EXPECT_EQ(A.MaxLiveRegs, B.MaxLiveRegs);
  EXPECT_EQ(A.PeakBlock, 0);
  // Before the IADD: R0, R1 and R4 are live.
  EXPECT_EQ(A.MaxLiveRegs, 3u);
}

TEST(Liveness, LoopCarriesValuesAround) {
  // BB0 feeds a self-decrementing loop in BB1; R5 stays live around the
  // back edge.
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "MOV R5, R9;",          // BB0
                                            "IADD R5, R5, 0x1;",    // BB1
                                            "ISETP.NE P0, R5, RZ;", // BB1
                                            "@P0 BRA 0x10;",        // BB1
                                            "EXIT;",                // BB2
                                        });
  ASSERT_EQ(K.Blocks.size(), 3u);
  Liveness L = computeLiveness(K);
  EXPECT_TRUE(L.LiveIn[1].test(5));
  EXPECT_TRUE(L.LiveOut[1].test(5));
  EXPECT_FALSE(L.LiveIn[0].test(5));
}

TEST(Liveness, SuiteKernelsStayWithinTheRegisterFile) {
  ir::Program P = suiteProgram(Arch::SM52);
  for (const ir::Kernel &K : P.Kernels) {
    Liveness L = computeLiveness(K);
    EXPECT_LE(L.MaxLiveRegs, kNumRegSlots) << K.Name;
    // The suite loads its inputs from constant memory, so almost nothing
    // is live into BB0. A guarded first write (which cannot kill) can
    // leave a stray register or two apparently live; anything more would
    // mean the transfer functions are broken.
    if (!K.Blocks.empty() && !hasRule(validateCfg(K), "CFG001")) {
      EXPECT_LE(L.LiveIn[0].countRange(0, kNumRegSlots), 2u) << K.Name;
    }
  }
}

// --- Hazard checker -------------------------------------------------------

TEST(Hazards, CleanSuiteHasNoFindings) {
  for (Arch A : {Arch::SM35, Arch::SM52}) {
    ir::Program P = suiteProgram(A);
    Report R = checkHazards(P);
    EXPECT_TRUE(R.Findings.empty()) << archName(A) << ": " << R.toText();
  }
}

TEST(Hazards, MaxwellStallRangeViolation) {
  ir::Kernel K = buildShape(Arch::SM52, {"MOV R0, R1;", "EXIT;"});
  K.Blocks[0].Insts[0].Ctrl.Stall = 20; // > 15.
  Report R = checkHazards(K);
  EXPECT_TRUE(hasRule(R, "HAZ001")) << rulesOf(R);
}

TEST(Hazards, MaxwellBarrierFieldViolation) {
  ir::Kernel K = buildShape(Arch::SM52, {"MOV R0, R1;", "EXIT;"});
  K.Blocks[0].Insts[0].Ctrl.WriteBarrier = 6; // Must be 0..5 or 7.
  EXPECT_TRUE(hasRule(checkHazards(K), "HAZ002"));
}

TEST(Hazards, MaxwellDualIssueIsIllegal) {
  ir::Kernel K = buildShape(Arch::SM52, {"MOV R0, R1;", "EXIT;"});
  K.Blocks[0].Insts[0].Ctrl.DualIssue = true;
  EXPECT_TRUE(hasRule(checkHazards(K), "HAZ003"));
}

TEST(Hazards, WaitOnNeverSetBarrier) {
  ir::Kernel K = buildShape(Arch::SM52, {"MOV R0, R1;", "EXIT;"});
  K.Blocks[0].Insts[0].Ctrl.WaitMask = 1u << 3; // Barrier 3 was never set.
  EXPECT_TRUE(hasRule(checkHazards(K), "HAZ004"));
}

TEST(Hazards, HighStallNeedsYield) {
  ir::Kernel K = buildShape(Arch::SM52, {"MOV R0, R1;", "EXIT;"});
  K.Blocks[0].Insts[0].Ctrl.Stall = 13;
  K.Blocks[0].Insts[0].Ctrl.Yield = false;
  EXPECT_TRUE(hasRule(checkHazards(K), "HAZ007"));
  K.Blocks[0].Insts[0].Ctrl.Yield = true;
  EXPECT_FALSE(hasRule(checkHazards(K), "HAZ007"));
}

TEST(Hazards, KeplerDualIssueRules) {
  ir::Kernel K = buildShape(Arch::SM35, {
                                            "MOV R0, R1;",
                                            "MOV R2, R3;",
                                            "EXIT;",
                                        });
  // Legal pair: leader dual-issues at stall 0, partner covers the cycle.
  K.Blocks[0].Insts[0].Ctrl.DualIssue = true;
  K.Blocks[0].Insts[0].Ctrl.Stall = 0;
  EXPECT_FALSE(hasRule(checkHazards(K), "HAZ001"));
  EXPECT_FALSE(hasRule(checkHazards(K), "HAZ005"));

  // Dual-issue with a nonzero stall contradicts the pairing.
  K.Blocks[0].Insts[0].Ctrl.Stall = 3;
  EXPECT_TRUE(hasRule(checkHazards(K), "HAZ001"));
}

TEST(Hazards, KeplerDualIssuedLoadIsFlagged) {
  ir::Kernel K = buildShape(Arch::SM35, {
                                            "LD R0, [R2];",
                                            "MOV R4, R5;",
                                            "EXIT;",
                                        });
  K.Blocks[0].Insts[0].Ctrl.DualIssue = true;
  K.Blocks[0].Insts[0].Ctrl.Stall = 0;
  EXPECT_TRUE(hasRule(checkHazards(K), "HAZ005"));
}

TEST(Hazards, KeplerRejectsMaxwellOnlyFields) {
  ir::Kernel K = buildShape(Arch::SM35, {"MOV R0, R1;", "EXIT;"});
  K.Blocks[0].Insts[0].Ctrl.WriteBarrier = 2;
  EXPECT_TRUE(hasRule(checkHazards(K), "HAZ003"));
}

TEST(Hazards, FermiHasNoSchiToCheck) {
  ir::Kernel K = buildShape(Arch::SM20, {"MOV R0, R1;", "EXIT;"});
  K.Blocks[0].Insts[0].Ctrl.Stall = 77; // Nonsense, but SM20 has no SCHI.
  EXPECT_TRUE(checkHazards(K).Findings.empty());
}

// --- Encoding-database linter ---------------------------------------------

namespace {

LintOperation makeOp(const std::string &Name, uint64_t Value, uint64_t Mask) {
  LintOperation Op;
  Op.Name = Name;
  Op.WordBits = 64;
  Op.Opcode.Value[0] = Value;
  Op.Opcode.Mask[0] = Mask;
  return Op;
}

} // namespace

TEST(DbLint, AmbiguousPatternsAreEnc001) {
  // Shared constrained bit agrees; each pattern has a private bit, so
  // neither subsumes the other but some words match both.
  std::vector<LintOperation> Ops = {makeOp("A", 0x1, 0x3),
                                    makeOp("B", 0x1, 0x5)};
  Report R = lintOperations(Ops, "fixture");
  EXPECT_TRUE(hasRule(R, "ENC001")) << rulesOf(R);
  EXPECT_FALSE(hasRule(R, "ENC002"));
}

TEST(DbLint, SubsumedPatternIsEnc002) {
  std::vector<LintOperation> Ops = {makeOp("general", 0x1, 0x1),
                                    makeOp("specific", 0x3, 0x7)};
  Report R = lintOperations(Ops, "fixture");
  EXPECT_TRUE(hasRule(R, "ENC002")) << rulesOf(R);
  EXPECT_FALSE(hasRule(R, "ENC001"));
}

TEST(DbLint, EmptyOpcodeMaskIsEnc003) {
  std::vector<LintOperation> Ops = {makeOp("vacuous", 0, 0)};
  EXPECT_TRUE(hasRule(lintOperations(Ops, "fixture"), "ENC003"));
}

TEST(DbLint, ModifierOpcodeConflictIsEnc004) {
  LintOperation Op = makeOp("A", 0x1, 0x1);
  LintModifier M;
  M.Name = "bad";
  M.Pattern.Value[0] = 0x0; // Disagrees with the opcode on bit 0.
  M.Pattern.Mask[0] = 0x1;
  Op.Mods.push_back(M);
  EXPECT_TRUE(hasRule(lintOperations({Op}, "fixture"), "ENC004"));
}

TEST(DbLint, DisjointPatternsAreClean) {
  std::vector<LintOperation> Ops = {makeOp("A", 0x1, 0x3),
                                    makeOp("B", 0x2, 0x3)};
  EXPECT_TRUE(lintOperations(Ops, "fixture").Findings.empty());
}

TEST(DbLint, LearnedSuiteDatabaseIsClean) {
  Arch A = Arch::SM52;
  vendor::NvccSim Nvcc(A);
  Expected<elf::Cubin> Cubin = Nvcc.compile(workloads::buildSuite(A));
  ASSERT_TRUE(Cubin.hasValue());
  Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
  ASSERT_TRUE(Text.hasValue());
  Expected<analyzer::Listing> L = analyzer::parseListing(*Text);
  ASSERT_TRUE(L.hasValue());
  analyzer::IsaAnalyzer Analyzer(A);
  ASSERT_FALSE(Analyzer.analyzeListing(*L));
  Report R = lintDatabase(Analyzer.database());
  EXPECT_TRUE(R.Findings.empty()) << R.toText();
}

// --- Ground-truth ISA table linter ----------------------------------------

class IsaLintPerArch : public ::testing::TestWithParam<Arch> {};

TEST_P(IsaLintPerArch, GroundTruthTablesAreClean) {
  Report R = vendor::lintIsaTables(GetParam());
  EXPECT_TRUE(R.Findings.empty())
      << archName(GetParam()) << ":\n" << R.toText();
}

INSTANTIATE_TEST_SUITE_P(AllArchs, IsaLintPerArch,
                         ::testing::ValuesIn(fullArchs()),
                         [](const auto &Info) {
                           return std::string(archName(Info.param));
                         });

TEST(IsaLint, VoltaTablesAreClean) {
  Report R = vendor::lintIsaTables(Arch::SM70);
  EXPECT_TRUE(R.Findings.empty()) << R.toText();
}

TEST(IsaLint, DuplicateChoiceValueIsEnc005) {
  isa::ArchSpec Spec;
  Spec.A = Arch::SM52;
  isa::InstrSpec Form;
  Form.Mnemonic = "FAKE";
  Form.FormTag = "r";
  Form.OpcodeValue = 0x1;
  Form.OpcodeMask = 0x1;
  isa::ModifierGroup Group;
  Group.TypeName = "Mode";
  Group.Field = {8, 2};
  Group.Choices = {{"A", 0}, {"B", 1}, {"B2", 1}}; // Duplicate value 1.
  Form.ModGroups.push_back(Group);
  Spec.Instrs.push_back(Form);
  Spec.buildDecodeIndex();
  Report R = vendor::lintIsaSpec(Spec);
  EXPECT_TRUE(hasRule(R, "ENC005")) << rulesOf(R);
}

TEST(IsaLint, OverflowingChoiceValueIsEnc006) {
  isa::ArchSpec Spec;
  Spec.A = Arch::SM52;
  isa::InstrSpec Form;
  Form.Mnemonic = "FAKE";
  Form.FormTag = "r";
  Form.OpcodeValue = 0x1;
  Form.OpcodeMask = 0x1;
  isa::ModifierGroup Group;
  Group.TypeName = "Mode";
  Group.Field = {8, 2};
  Group.Choices = {{"WIDE", 5}}; // 5 needs 3 bits; the field has 2.
  Form.ModGroups.push_back(Group);
  Spec.Instrs.push_back(Form);
  Spec.buildDecodeIndex();
  EXPECT_TRUE(hasRule(vendor::lintIsaSpec(Spec), "ENC006"));
}

TEST(IsaLint, ModifierGroupOnOpcodeBitsIsEnc004) {
  isa::ArchSpec Spec;
  Spec.A = Arch::SM52;
  isa::InstrSpec Form;
  Form.Mnemonic = "FAKE";
  Form.FormTag = "r";
  Form.OpcodeValue = 0x100;
  Form.OpcodeMask = 0x300; // Bits 8..9 are fixed opcode bits.
  isa::ModifierGroup Group;
  Group.TypeName = "Mode";
  Group.Field = {9, 2}; // Overlaps bit 9.
  Group.Choices = {{"A", 0}};
  Form.ModGroups.push_back(Group);
  Spec.Instrs.push_back(Form);
  Spec.buildDecodeIndex();
  EXPECT_TRUE(hasRule(vendor::lintIsaSpec(Spec), "ENC004"));
}

TEST(IsaLint, OverlappingClaimsAreEnc007) {
  isa::ArchSpec Spec;
  Spec.A = Arch::SM52;
  isa::InstrSpec Form;
  Form.Mnemonic = "FAKE";
  Form.FormTag = "rr";
  Form.OpcodeValue = 0x1;
  Form.OpcodeMask = 0x1;
  isa::OperandSlot A, B;
  A.Fields[0] = {8, 8};
  B.Fields[0] = {12, 8}; // Overlaps operand 0 at bits 12..15.
  Form.Operands = {A, B};
  Spec.Instrs.push_back(Form);
  Spec.buildDecodeIndex();
  Report R = vendor::lintIsaSpec(Spec);
  EXPECT_TRUE(hasRule(R, "ENC007")) << rulesOf(R);
}

TEST(IsaLint, ShadowedDecodeEntryIsIdx001) {
  isa::ArchSpec Spec;
  Spec.A = Arch::SM52;
  isa::InstrSpec General, Specific;
  General.Mnemonic = "GEN";
  General.FormTag = "r";
  General.OpcodeValue = 0x1;
  General.OpcodeMask = 0x1;
  Specific.Mnemonic = "SPEC";
  Specific.FormTag = "r";
  Specific.OpcodeValue = 0x3;
  Specific.OpcodeMask = 0x3;
  // Table order: the general pattern first shadows the specific one.
  Spec.Instrs.push_back(General);
  Spec.Instrs.push_back(Specific);
  Spec.buildDecodeIndex();
  Report R = vendor::lintIsaSpec(Spec);
  EXPECT_TRUE(hasRule(R, "IDX001")) << rulesOf(R);
}

// --- Opcode table -----------------------------------------------------------

TEST(OpcodeTable, PublicFactsMatchTheGoldenTable) {
  Expected<std::string> Golden = readFileBytes(
      std::string(DCB_SOURCE_DIR) + "/tests/opcode_facts.golden");
  ASSERT_TRUE(Golden.hasValue()) << Golden.message();
  std::vector<std::string> Want;
  std::istringstream In(*Golden);
  for (std::string Line; std::getline(In, Line);)
    Want.push_back(Line);
  const std::vector<std::string> Got = opfacts::renderOpcodeFacts();
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I)
    ASSERT_EQ(Got[I], Want[I]) << "line " << I + 1;
}

//===- tests/sass_test.cpp - SASS parser / printer / control info ---------===//

#include "sass/Ast.h"
#include "sass/CtrlInfo.h"
#include "sass/Parser.h"
#include "sass/Printer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <type_traits>

using namespace dcb;
using namespace dcb::sass;

namespace {

Instruction parseOk(const std::string &Text) {
  Expected<Instruction> Inst = parseInstruction(Text);
  EXPECT_TRUE(Inst.hasValue()) << (Inst ? "" : Inst.message());
  return Inst.hasValue() ? *Inst : Instruction();
}

} // namespace

TEST(SassParser, SimpleThreeOperand) {
  Instruction I = parseOk("IADD R1, R2, R3;");
  EXPECT_EQ(I.opcode(), "IADD");
  ASSERT_EQ(I.Operands.size(), 3u);
  EXPECT_EQ(I.Operands[0].Kind, OperandKind::Register);
  EXPECT_EQ(I.Operands[0].Value[0], 1);
  EXPECT_EQ(I.Operands[2].Value[0], 3);
  EXPECT_FALSE(I.hasGuard());
}

TEST(SassParser, GuardPositiveAndNegative) {
  Instruction I = parseOk("@P3 MOV R0, R1;");
  EXPECT_EQ(I.GuardPredicate, 3u);
  EXPECT_FALSE(I.GuardNegated);
  Instruction J = parseOk("@!P0 EXIT;");
  EXPECT_EQ(J.GuardPredicate, 0u);
  EXPECT_TRUE(J.GuardNegated);
  EXPECT_TRUE(J.Operands.empty());
}

TEST(SassParser, ModifiersInOrder) {
  Instruction I = parseOk("PSETP.AND.OR P0, P1, P2, P3, PT;");
  ASSERT_EQ(I.Modifiers.size(), 2u);
  EXPECT_EQ(I.modifier(0), "AND");
  EXPECT_EQ(I.modifier(1), "OR");
  ASSERT_EQ(I.Operands.size(), 5u);
  EXPECT_EQ(I.Operands[4].Value[0], 7);
}

TEST(SassParser, RegistersAndAliases) {
  Instruction I = parseOk("MOV R254, RZ;");
  EXPECT_EQ(I.Operands[0].Value[0], 254);
  EXPECT_EQ(I.Operands[1].Value[0], -1); // RZ marker.
}

TEST(SassParser, IntImmediates) {
  Instruction I = parseOk("IADD R1, R2, 0x10;");
  EXPECT_EQ(I.Operands[2].Kind, OperandKind::IntImm);
  EXPECT_EQ(I.Operands[2].Value[0], 16);
  Instruction J = parseOk("IADD R1, R2, -0x8;");
  EXPECT_EQ(J.Operands[2].Value[0], -8);
  EXPECT_FALSE(J.Operands[2].Negated);
}

TEST(SassParser, MostNegativeLiteralIsInt64Min) {
  // A magnitude of 2^63 negates in unsigned arithmetic: the literal is
  // INT64_MIN, not a signed overflow. The served assembler parses this
  // text straight from the network.
  const int64_t Min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(parseOk("MOV R1, -0x8000000000000000;").Operands[1].Value[0], Min);
  EXPECT_EQ(
      parseOk("IADD R1, R2, -9223372036854775808;").Operands[2].Value[0],
      Min);
  EXPECT_EQ(
      parseOk("LD R1, [R2+-0x8000000000000000];").Operands[1].Value[1], Min);
}

TEST(SassParser, FloatImmediates) {
  Instruction I = parseOk("FADD R1, R2, 0.5;");
  EXPECT_EQ(I.Operands[2].Kind, OperandKind::FloatImm);
  EXPECT_DOUBLE_EQ(I.Operands[2].FValue, 0.5);
  Instruction J = parseOk("FADD R1, R2, -1.25e2;");
  EXPECT_DOUBLE_EQ(J.Operands[2].FValue, -125.0);
}

TEST(SassParser, UnaryOperators) {
  Instruction I = parseOk("FADD R1, -R2, |R3|;");
  EXPECT_TRUE(I.Operands[1].Negated);
  EXPECT_TRUE(I.Operands[2].Absolute);
  Instruction J = parseOk("LOP.XOR R1, R2, ~R3;");
  EXPECT_TRUE(J.Operands[2].Complemented);
  Instruction K = parseOk("FADD R1, R2, -|R3|;");
  EXPECT_TRUE(K.Operands[2].Negated);
  EXPECT_TRUE(K.Operands[2].Absolute);
  Instruction L = parseOk("PSETP.AND.AND P0, P1, !P2, P3, PT;");
  EXPECT_TRUE(L.Operands[2].LogicalNot);
}

TEST(SassParser, MemoryOperands) {
  Instruction I = parseOk("LDG.E R2, [R4+0x10];");
  ASSERT_EQ(I.Operands.size(), 2u);
  EXPECT_EQ(I.Operands[1].Kind, OperandKind::Memory);
  EXPECT_EQ(I.Operands[1].Value[0], 4);
  EXPECT_EQ(I.Operands[1].Value[1], 16);
  ASSERT_EQ(I.Modifiers.size(), 1u);
  EXPECT_EQ(I.modifier(0), "E");

  Instruction J = parseOk("STS [R5], R6;");
  EXPECT_EQ(J.Operands[0].Value[1], 0);

  Instruction K = parseOk("LDL R1, [R2-0x8];");
  EXPECT_EQ(K.Operands[1].Value[1], -8);

  Instruction L = parseOk("LDG R0, [RZ+0x20];");
  EXPECT_EQ(L.Operands[1].Value[0], -1);
}

TEST(SassParser, ConstMemoryOperands) {
  Instruction I = parseOk("MOV R1, c[0x0][0x44];");
  EXPECT_EQ(I.Operands[1].Kind, OperandKind::ConstMem);
  EXPECT_EQ(I.Operands[1].Value[0], 0);
  EXPECT_EQ(I.Operands[1].Value[1], 0x44);
  EXPECT_FALSE(I.Operands[1].HasRegister);

  Instruction J = parseOk("LDC R1, c[0x3][R2+0x10];");
  EXPECT_TRUE(J.Operands[1].HasRegister);
  EXPECT_EQ(J.Operands[1].Value[0], 3);
  EXPECT_EQ(J.Operands[1].Value[1], 0x10);
  EXPECT_EQ(J.Operands[1].Value[2], 2);
}

TEST(SassParser, SpecialRegisters) {
  Instruction I = parseOk("S2R R0, SR_TID.X;");
  EXPECT_EQ(I.Operands[1].Kind, OperandKind::SpecialReg);
  EXPECT_EQ(I.Operands[1].text(), "SR_TID.X");
  Instruction J = parseOk("S2R R1, SR_CLOCK_LO;");
  EXPECT_EQ(J.Operands[1].text(), "SR_CLOCK_LO");
}

TEST(SassParser, TextureOperands) {
  Instruction I = parseOk("TEX R0, R4, 0x12, 2D, RGBA;");
  ASSERT_EQ(I.Operands.size(), 5u);
  EXPECT_EQ(I.Operands[3].Kind, OperandKind::TexShape);
  EXPECT_EQ(I.Operands[3].Value[0],
            static_cast<int64_t>(TexShapeKind::Dim2D));
  EXPECT_EQ(I.Operands[4].Kind, OperandKind::TexChannel);
  EXPECT_EQ(I.Operands[4].Value[0], 0xf);

  Instruction J = parseOk("TEX R0, R4, 0x0, ARRAY_2D, RG;");
  EXPECT_EQ(J.Operands[3].Value[0],
            static_cast<int64_t>(TexShapeKind::Array2D));
  EXPECT_EQ(J.Operands[4].Value[0], 0x3);
}

TEST(SassParser, BarrierAndBitSetOperands) {
  Instruction I = parseOk("DEPBAR.LE SB0, {3,4};");
  EXPECT_EQ(I.Operands[0].Kind, OperandKind::Barrier);
  EXPECT_EQ(I.Operands[0].Value[0], 0);
  EXPECT_EQ(I.Operands[1].Kind, OperandKind::BitSet);
  EXPECT_EQ(I.Operands[1].Value[0], 0x18);
}

// The record's lists have fixed capacities; text past one is a parse
// error, never an overrun.
TEST(SassParser, CapacitiesAreErrorsNotCrashes) {
  EXPECT_EQ(MaxOperands, 6u);
  EXPECT_EQ(MaxModifiers, 6u);
  EXPECT_EQ(MaxOperandMods, 2u);
  parseOk("IADD.A.B.C.D.E.F R1, R2, R3, R4, R5.X.Y, R6;");

  Expected<Instruction> Ops =
      parseInstruction("IADD R1, R2, R3, R4, R5, R6, R7;");
  ASSERT_FALSE(Ops.hasValue());
  EXPECT_EQ(Ops.message(), "sass parse error at column 29: more than 6 "
                           "operands in 'IADD R1, R2, R3, R4, R5, R6, R7;'");

  Expected<Instruction> Mods = parseInstruction("IADD.A.B.C.D.E.F.G R1;");
  ASSERT_FALSE(Mods.hasValue());
  EXPECT_EQ(Mods.message(), "sass parse error at column 17: more than 6 "
                            "modifiers in 'IADD.A.B.C.D.E.F.G R1;'");

  Expected<Instruction> OpMods = parseInstruction("IADD R1, R2.X.Y.Z;");
  ASSERT_FALSE(OpMods.hasValue());
  EXPECT_EQ(OpMods.message(),
            "sass parse error at column 17: more than 2 operand modifiers "
            "in 'IADD R1, R2.X.Y.Z;'");
}

TEST(SassParser, RecordIsFlatAndComparesById) {
  static_assert(std::is_trivially_copyable_v<Instruction>);
  Instruction A = parseOk("@!P1 PSETP.AND.OR P0, P1, P2, !P3, PT;");
  Instruction B;
  std::memcpy(static_cast<void *>(&B), &A, sizeof(A));
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.opcodeSym(), SymbolTable::global().find("PSETP"));
  EXPECT_EQ(A.Modifiers[1], SymbolTable::global().find("OR"));
  EXPECT_EQ(printInstruction(B), "@!P1 PSETP.AND.OR P0, P1, P2, !P3, PT;");
}

TEST(SassParser, OperandSuffixModifiers) {
  Instruction I = parseOk("IADD R1, R2.reuse, R3;");
  ASSERT_EQ(I.Operands[1].Mods.size(), 1u);
  EXPECT_EQ(SymbolTable::global().spelling(I.Operands[1].Mods[0]), "reuse");
}

TEST(SassParser, RejectsGarbage) {
  EXPECT_FALSE(parseInstruction("").hasValue());
  EXPECT_FALSE(parseInstruction("IADD R1, ,").hasValue());
  EXPECT_FALSE(parseInstruction("@Q1 MOV R0, R1;").hasValue());
  EXPECT_FALSE(parseInstruction("MOV R0, R1; junk").hasValue());
  EXPECT_FALSE(parseInstruction("MOV R0, [R1").hasValue());
  EXPECT_FALSE(parseInstruction("MOV R0, |R1;").hasValue());
  EXPECT_FALSE(parseInstruction("MOV R999, R1;").hasValue());
  EXPECT_FALSE(parseInstruction("MOV P9, R1;").hasValue());
}

TEST(SassParser, ProgramSkipsCommentsAndHexColumns) {
  auto Prog = parseProgram("// header\n"
                           "  MOV R1, R2; /* 0x1234 */\n"
                           "\n"
                           "# note\n"
                           "EXIT;\n");
  ASSERT_TRUE(Prog.hasValue());
  ASSERT_EQ(Prog->size(), 2u);
  EXPECT_EQ((*Prog)[0].opcode(), "MOV");
  EXPECT_EQ((*Prog)[1].opcode(), "EXIT");
}

// Print -> parse must be the identity on the AST (the one-to-one property
// the analyzer depends on).
class PrintParseRoundTrip : public ::testing::TestWithParam<const char *> {};

TEST_P(PrintParseRoundTrip, Identity) {
  Instruction First = parseOk(GetParam());
  std::string Printed = printInstruction(First);
  Instruction Second = parseOk(Printed);
  EXPECT_EQ(First, Second) << "printed as: " << Printed;
  EXPECT_EQ(Printed, printInstruction(Second));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, PrintParseRoundTrip,
    ::testing::Values(
        "IADD R1, R2, R3;", "@!P2 FFMA R9, R2, R3, R4;",
        "MOV R1, c[0x0][0x44];", "LDG.E.64 R2, [R4+0x10];",
        "STS [R5+0x8], R6;", "S2R R0, SR_TID.X;", "SSY 0x238;",
        "@P0 SYNC;", "ISETP.GE.AND P0, PT, R0, c[0x0][0x28], PT;",
        "BRA 0x58;", "TEX R0, R4, 0x1, CUBE, RA;",
        "SHFL.IDX P1, R4, R0, R1;", "F2F.F32.F64 R0, R2;",
        "IADD R1, R2, -R3;", "LOP.XOR R2, R2, ~R3;", "FADD R0, |R1|, R2;",
        "PSETP.AND.OR P0, P1, P2, P3, P4;", "NOP;", "EXIT;",
        "BAR.SYNC 0x0;", "MOV32I R0, 0x3f800000;", "FADD R0, R1, 0.5;",
        "DADD R0, R2, 1.5;", "IADD R1, R2, -0x8;",
        "LDC R1, c[0x3][R2+0x10];", "DEPBAR.LE SB2, {0,5};",
        "@!P1 BRA 0x1a0;", "IADD R1, R2.reuse, R3;",
        "MOV R0, RZ;", "LD R0, [RZ];", "MUFU.RCP R0, |R1|;",
        "FADD.FTZ.RM R0, -|R1|, -R2;", "MOV R1, -0x8000000000000000;",
        "LD R1, [R2-0x8000000000000000];"));

TEST(SassPrinter, NegativeLiteralWithUnaryFlagPrintsAsNegative) {
  Operand Imm = Operand::makeIntImm(8);
  Imm.Negated = true;
  EXPECT_EQ(printOperand(Imm), "-0x8");
}

TEST(SassPrinter, FloatAlwaysReparsesAsFloat) {
  Operand F = Operand::makeFloatImm(2.0);
  std::string Text = printOperand(F);
  EXPECT_NE(Text.find('.'), std::string::npos);
}

// --- Control info ----------------------------------------------------------

TEST(CtrlInfo, KeplerDispatchEncoding) {
  CtrlInfo Info;
  Info.Stall = 16;
  EXPECT_EQ(encodeKeplerDispatch(Info), 0x2f); // Fig. 9: 0x2f - 0x1f = 16.
  Info.Stall = 1;
  EXPECT_EQ(encodeKeplerDispatch(Info), 0x20);
  Info.DualIssue = true;
  EXPECT_EQ(encodeKeplerDispatch(Info), 0x04);

  CtrlInfo Back = decodeKeplerDispatch(0x2f);
  EXPECT_EQ(Back.Stall, 16u);
  EXPECT_TRUE(decodeKeplerDispatch(0x04).DualIssue);
}

TEST(CtrlInfo, KeplerSchiRoundTripBothLayouts) {
  std::array<CtrlInfo, 7> Slots;
  for (unsigned I = 0; I < 7; ++I)
    Slots[I].Stall = I + 1;
  Slots[3].DualIssue = true;
  Slots[3].Stall = 0;

  for (SchiKind Kind : {SchiKind::Kepler30, SchiKind::Kepler35}) {
    BitString Word = packKeplerSchi(Kind, Slots);
    std::array<CtrlInfo, 7> Back;
    ASSERT_TRUE(unpackKeplerSchi(Kind, Word, Back));
    for (unsigned I = 0; I < 7; ++I)
      EXPECT_EQ(Slots[I], Back[I]) << "slot " << I;
  }
}

TEST(CtrlInfo, KeplerSchiMarkers) {
  std::array<CtrlInfo, 7> Slots{};
  BitString W30 = packKeplerSchi(SchiKind::Kepler30, Slots);
  EXPECT_EQ(W30.field(0, 4), 7u);
  EXPECT_EQ(W30.field(60, 4), 2u);
  BitString W35 = packKeplerSchi(SchiKind::Kepler35, Slots);
  EXPECT_EQ(W35.field(0, 2), 0u);
  EXPECT_EQ(W35.field(58, 6), 2u);
  // Layouts are mutually exclusive.
  std::array<CtrlInfo, 7> Dummy;
  EXPECT_FALSE(unpackKeplerSchi(SchiKind::Kepler35, W30, Dummy));
}

TEST(CtrlInfo, MaxwellGroupRoundTrip) {
  CtrlInfo Info;
  Info.Stall = 13;
  Info.Yield = true;
  Info.WriteBarrier = 1;
  Info.ReadBarrier = 4;
  Info.WaitMask = 0x3;
  Info.Reuse = 0x9;
  CtrlInfo Back = unpackMaxwellGroup(packMaxwellGroup(Info));
  EXPECT_EQ(Info, Back);
}

TEST(CtrlInfo, MaxwellSchiMatchesPaperFig10Shape) {
  // Fig. 10's worked example: first instruction stalls 3; second sets write
  // barrier #1 then stalls 13; third waits for barriers #0 and #1 and
  // stalls 6 after dispatch.
  std::array<CtrlInfo, 3> Slots;
  Slots[0].Stall = 3;
  Slots[1].Stall = 13;
  Slots[1].WriteBarrier = 1;
  Slots[2].Stall = 6;
  Slots[2].WaitMask = 0x3;
  BitString Word = packMaxwellSchi(Slots);
  std::array<CtrlInfo, 3> Back;
  unpackMaxwellSchi(Word, Back);
  EXPECT_EQ(Back[0].Stall, 3u);
  EXPECT_EQ(Back[1].WriteBarrier, 1u);
  EXPECT_EQ(Back[2].WaitMask, 0x3u);
  EXPECT_FALSE(Word.get(63));
}

TEST(CtrlInfo, VoltaEmbedding) {
  BitString Inst(128);
  CtrlInfo Info;
  Info.Stall = 4;
  Info.WriteBarrier = 2;
  embedVoltaCtrl(Inst, Info);
  CtrlInfo Back = extractVoltaCtrl(Inst);
  EXPECT_EQ(Info, Back);
  EXPECT_EQ(Inst.field(0, 64), 0u); // Never touches the instruction body.
}

// The cadence pinned to literal addresses from the published layouts, so a
// shared mistake in sass/CtrlInfo cannot pass unnoticed.
TEST(CtrlInfo, CadenceMatchesPublishedAddresses) {
  const SchiKind Fermi = archSchiKind(Arch::SM20);
  EXPECT_EQ(instAddress(Fermi, 8, 3), 0x18u);
  EXPECT_FALSE(isSchiWord(Fermi, 0));

  const SchiKind Kepler = archSchiKind(Arch::SM35);
  EXPECT_TRUE(isSchiWord(Kepler, 0x0 / 8));
  EXPECT_TRUE(isSchiWord(Kepler, 0x40 / 8));
  EXPECT_FALSE(isSchiWord(Kepler, 0x8 / 8));
  EXPECT_FALSE(isSchiWord(Kepler, 0x38 / 8));
  EXPECT_EQ(instAddress(Kepler, 8, 0), 0x8u);
  EXPECT_EQ(instAddress(Kepler, 8, 6), 0x38u);
  EXPECT_EQ(instAddress(Kepler, 8, 7), 0x48u);

  const SchiKind Maxwell = archSchiKind(Arch::SM50);
  EXPECT_TRUE(isSchiWord(Maxwell, 0x20 / 8));
  EXPECT_EQ(instAddress(Maxwell, 8, 3), 0x28u);

  const SchiKind Volta = archSchiKind(Arch::SM70);
  EXPECT_FALSE(isSchiWord(Volta, 0));
  EXPECT_EQ(instAddress(Volta, 16, 1), 0x10u);

  EXPECT_EQ(paddedInstCount(Fermi, 5), 5u);
  EXPECT_EQ(paddedInstCount(Kepler, 5), 7u);
  EXPECT_EQ(paddedInstCount(Kepler, 14), 14u);
  EXPECT_EQ(paddedInstCount(Maxwell, 4), 6u);
  EXPECT_EQ(paddedInstCount(Volta, 5), 5u);
}

TEST(CtrlInfo, LayoutCodeRoundTripsThroughUnpackForEveryKind) {
  for (SchiKind Kind : {SchiKind::None, SchiKind::Kepler30, SchiKind::Kepler35,
                        SchiKind::Maxwell, SchiKind::Embedded}) {
    const bool Kepler =
        Kind == SchiKind::Kepler30 || Kind == SchiKind::Kepler35;
    const unsigned WordBits = Kind == SchiKind::Embedded ? 128 : 64;
    const unsigned WordBytes = WordBits / 8;
    // Five instructions, so Kepler and Maxwell pad a NOP tail that keeps the
    // default control info.
    const size_t Count = paddedInstCount(Kind, 5);
    std::vector<BitString> Words;
    std::vector<CtrlInfo> Ctrl(Count);
    for (size_t I = 0; I < Count; ++I) {
      Words.emplace_back(WordBits);
      Words.back().setField(0, 64, 0x1111111111111111u * (I + 1));
      if (I >= 5 || Kind == SchiKind::None)
        continue; // Padding, or no control info to carry.
      CtrlInfo &C = Ctrl[I];
      C.Stall = static_cast<unsigned>(I) + 2;
      if (Kepler) {
        C.DualIssue = I == 1;
        C.Stall = C.DualIssue ? 0 : C.Stall;
      } else {
        C.Yield = I % 2 == 0;
        C.WriteBarrier = static_cast<unsigned>(I);
        C.ReadBarrier = 5 - static_cast<unsigned>(I);
        C.WaitMask = 0x21u << I & 0x3f;
        C.Reuse = static_cast<unsigned>(I) + 8;
      }
    }
    std::vector<uint8_t> Code = layoutCode(
        Kind, Words, [&Ctrl](size_t I) -> const CtrlInfo & { return Ctrl[I]; });

    // Literal group sizes (a SCHI word and its instructions), independent
    // of the cadence under test.
    const unsigned Group = Kepler ? 8 : Kind == SchiKind::Maxwell ? 4 : 1;
    const size_t SchiWords = Group > 1 ? Count / (Group - 1) : 0;
    ASSERT_EQ(Code.size(), (Count + SchiWords) * WordBytes);
    for (size_t I = 0; I < Count; ++I) {
      const uint64_t Addr = instAddress(Kind, WordBytes, I);
      const uint64_t WordIdx = Addr / WordBytes;
      BitString Inst = BitString::fromBytes(Code.data() + Addr, WordBytes);
      EXPECT_EQ(Inst.field(0, 64), Words[I].field(0, 64));
      // The decoder side reads the SCHI word that opens the group, or the
      // instruction word itself where there is none.
      const uint64_t SchiAddr = WordIdx / Group * Group * WordBytes;
      EXPECT_EQ(Group > 1, SchiAddr != Addr);
      BitString Word = BitString::fromBytes(Code.data() + SchiAddr, WordBytes);
      EXPECT_EQ(unpackCtrl(Kind, Word, WordIdx), Ctrl[I])
          << "kind " << static_cast<int>(Kind) << " instruction " << I;
    }
  }
}

TEST(CtrlInfo, StringRendering) {
  CtrlInfo Info;
  Info.Stall = 6;
  Info.WaitMask = 0x3;
  std::string S = Info.str();
  EXPECT_NE(S.find("S06"), std::string::npos);
  EXPECT_NE(S.find("01"), std::string::npos);
}

//===- tests/isa_test.cpp - Hidden ISA table invariants --------------------===//

#include "isa/Spec.h"

#include <gtest/gtest.h>

#include <set>

using namespace dcb;
using namespace dcb::isa;

namespace {

std::vector<Arch> allArchs() {
  unsigned Count = 0;
  const Arch *Archs = supportedArchs(Count);
  std::vector<Arch> Result(Archs, Archs + Count);
  Result.push_back(Arch::SM70);
  return Result;
}

} // namespace

class ArchSpecTest : public ::testing::TestWithParam<Arch> {};

TEST_P(ArchSpecTest, ConstructsAndHasInstructions) {
  const ArchSpec &Spec = getArchSpec(GetParam());
  EXPECT_EQ(Spec.A, GetParam());
  EXPECT_GT(Spec.Instrs.size(), 5u);
}

TEST_P(ArchSpecTest, NoAmbiguousOpcodePatterns) {
  const ArchSpec &Spec = getArchSpec(GetParam());
  auto Conflict = Spec.checkNoAmbiguity();
  EXPECT_FALSE(Conflict.has_value()) << *Conflict;
}

TEST_P(ArchSpecTest, OpcodeValuesRespectMask) {
  const ArchSpec &Spec = getArchSpec(GetParam());
  for (const InstrSpec &IS : Spec.Instrs)
    EXPECT_EQ(IS.OpcodeValue & ~IS.OpcodeMask, 0u)
        << IS.Mnemonic << "." << IS.FormTag;
}

TEST_P(ArchSpecTest, GuardFieldNeverInOpcodeMask) {
  const ArchSpec &Spec = getArchSpec(GetParam());
  uint64_t GuardMask = BitString::lowMask(Spec.GuardField.Width)
                       << Spec.GuardField.Lo;
  for (const InstrSpec &IS : Spec.Instrs)
    EXPECT_EQ(IS.OpcodeMask & GuardMask, 0u)
        << IS.Mnemonic << "." << IS.FormTag;
}

TEST_P(ArchSpecTest, OperandFieldsDisjointFromOpcodeMask) {
  const ArchSpec &Spec = getArchSpec(GetParam());
  for (const InstrSpec &IS : Spec.Instrs) {
    for (const OperandSlot &Slot : IS.Operands) {
      for (const FieldRef &F : Slot.Fields) {
        if (!F.valid() || F.Lo >= 64)
          continue;
        unsigned Hi = std::min<unsigned>(64, F.Lo + F.Width);
        uint64_t FieldMask = BitString::lowMask(Hi - F.Lo) << F.Lo;
        EXPECT_EQ(IS.OpcodeMask & FieldMask, 0u)
            << IS.Mnemonic << "." << IS.FormTag;
      }
    }
  }
}

TEST_P(ArchSpecTest, MnemonicFormPairsAreUnique) {
  const ArchSpec &Spec = getArchSpec(GetParam());
  std::set<std::pair<std::string, std::string>> Seen;
  for (const InstrSpec &IS : Spec.Instrs)
    EXPECT_TRUE(Seen.insert({IS.Mnemonic, IS.FormTag}).second)
        << "duplicate " << IS.Mnemonic << "." << IS.FormTag;
}

INSTANTIATE_TEST_SUITE_P(AllArchs, ArchSpecTest, ::testing::ValuesIn(allArchs()),
                         [](const ::testing::TestParamInfo<Arch> &Info) {
                           return std::string(archName(Info.param));
                         });

TEST(ArchSpecFacts, PaperDocumentedLayoutFacts) {
  // "reg1 bits are 2 to 9 in computing capability 3.x" (Fig. 8).
  const ArchSpec &Sm35 = getArchSpec(Arch::SM35);
  const InstrSpec *Iadd = nullptr;
  for (const InstrSpec &IS : Sm35.Instrs)
    if (IS.Mnemonic == "IADD" && IS.FormTag == "rr")
      Iadd = &IS;
  ASSERT_NE(Iadd, nullptr);
  EXPECT_EQ(Iadd->Operands[0].Fields[0].Lo, 2);
  EXPECT_EQ(Iadd->Operands[0].Fields[0].Width, 8);

  // Fermi-generation registers are 6 bits wide, RZ = 63 (paper §IV-A).
  EXPECT_EQ(getArchSpec(Arch::SM20).RegBits, 6u);
  EXPECT_EQ(getArchSpec(Arch::SM20).zeroReg(), 63u);
  EXPECT_EQ(getArchSpec(Arch::SM35).zeroReg(), 255u);

  // "the opcode contained in bits 52-63" on Maxwell/Pascal (paper §IV-B).
  const ArchSpec &Sm50 = getArchSpec(Arch::SM50);
  for (const InstrSpec &IS : Sm50.Instrs)
    EXPECT_EQ(IS.OpcodeMask & (0xfffull << 52), 0xfffull << 52)
        << IS.Mnemonic;
}

TEST(ArchSpecFacts, FermiAndSm30ShareEncodings) {
  // "every pre-existing instruction having exactly the same binary encoding
  // as before, though some additional instructions have been added".
  const ArchSpec &Sm20 = getArchSpec(Arch::SM20);
  const ArchSpec &Sm30 = getArchSpec(Arch::SM30);
  ASSERT_GE(Sm30.Instrs.size(), Sm20.Instrs.size());
  for (size_t I = 0; I < Sm20.Instrs.size(); ++I) {
    EXPECT_EQ(Sm20.Instrs[I].Mnemonic, Sm30.Instrs[I].Mnemonic);
    EXPECT_EQ(Sm20.Instrs[I].OpcodeValue, Sm30.Instrs[I].OpcodeValue);
    EXPECT_EQ(Sm20.Instrs[I].OpcodeMask, Sm30.Instrs[I].OpcodeMask);
  }
  // SM30 gains SHFL (paper §II-B: introduced in Compute Capability 3.0).
  sass::Instruction Shfl;
  Shfl.setOpcode("SHFL");
  Shfl.addModifier("IDX");
  Shfl.Operands.push_back(sass::Operand::makePredicate(0));
  for (unsigned R = 1; R <= 3; ++R)
    Shfl.Operands.push_back(sass::Operand::makeRegister(R));
  EXPECT_EQ(Sm20.findSpec(Shfl), nullptr);
  EXPECT_NE(Sm30.findSpec(Shfl), nullptr);
}

TEST(ArchSpecFacts, Sm35EncodingDiffersFromFermi) {
  // "although the assembly code looks much like that of the previous
  // generation, every instruction has a new encoding".
  const ArchSpec &Sm30 = getArchSpec(Arch::SM30);
  const ArchSpec &Sm35 = getArchSpec(Arch::SM35);
  sass::Instruction Mov;
  Mov.setOpcode("MOV");
  Mov.Operands.push_back(sass::Operand::makeRegister(1));
  Mov.Operands.push_back(sass::Operand::makeRegister(2));
  const InstrSpec *A = Sm30.findSpec(Mov);
  const InstrSpec *B = Sm35.findSpec(Mov);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_NE(A->OpcodeValue, B->OpcodeValue);
  EXPECT_NE(A->Operands[0].Fields[0].Lo, B->Operands[0].Fields[0].Lo);
}

namespace {
std::optional<unsigned> encodingOf(std::string_view Name) {
  return specialRegEncoding(SymbolTable::global().intern(Name));
}
} // namespace

TEST(SpecialRegs, TableIIIEncodings) {
  EXPECT_EQ(encodingOf("SR_TID.X").value(), 33u);
  EXPECT_EQ(encodingOf("SR_TID.Y").value(), 34u);
  EXPECT_EQ(encodingOf("SR_TID.Z").value(), 35u);
  EXPECT_EQ(encodingOf("SR_CTAID.X").value(), 37u);
  EXPECT_EQ(encodingOf("SR_CTAID.Y").value(), 38u);
  EXPECT_EQ(encodingOf("SR_CTAID.Z").value(), 39u);
  EXPECT_EQ(encodingOf("SR_CLOCK_LO").value(), 80u);
  EXPECT_FALSE(encodingOf("SR_BOGUS").has_value());
}

TEST(SpecialRegs, NamesRoundTrip) {
  for (const std::string &Name : allSpecialRegNames()) {
    auto Code = encodingOf(Name);
    ASSERT_TRUE(Code.has_value());
    EXPECT_EQ(SymbolTable::global().spelling(specialRegSym(*Code)), Name);
  }
  EXPECT_EQ(specialRegSym(255), InvalidSymbolId);
}

TEST(ConstPack, AllPackingsRoundTrip) {
  struct Case {
    ConstPacking P;
    uint64_t Bank, Offset;
  } Cases[] = {
      {ConstPacking::Bank5Off14, 31, 0x3fff},
      {ConstPacking::Bank5Off14, 0, 0},
      {ConstPacking::Bank4Off16, 15, 0xffff},
      {ConstPacking::Bank5Off16, 17, 0x1234},
  };
  for (const Case &C : Cases) {
    auto Packed = packConst(C.P, C.Bank, C.Offset);
    ASSERT_TRUE(Packed.has_value());
    uint64_t Bank, Offset;
    unpackConst(C.P, *Packed, Bank, Offset);
    EXPECT_EQ(Bank, C.Bank);
    EXPECT_EQ(Offset, C.Offset);
  }
}

TEST(ConstPack, RejectsOutOfRange) {
  EXPECT_FALSE(packConst(ConstPacking::Bank5Off14, 32, 0).has_value());
  EXPECT_FALSE(packConst(ConstPacking::Bank5Off14, 0, 1 << 14).has_value());
  EXPECT_FALSE(packConst(ConstPacking::Bank4Off16, 16, 0).has_value());
  EXPECT_FALSE(packConst(ConstPacking::None, 0, 0).has_value());
}

//===- tests/decode_test.cpp - Frozen decode index & batch decoding --------===//
//
// The decode-side twin of the assembler's frozen-index tests:
//  1. Index/scan parity: ArchSpec::match (DecodeIndex dispatch) returns the
//     same form as matchLinear for every encodable instruction of EVERY
//     form on EVERY architecture, and for uniformly random words.
//  2. Diagnostic parity: structured decode through a frozen spec produces
//     the same values AND error messages as through a never-frozen clone.
//  3. Freeze/thaw semantics, including first-match order preservation on a
//     deliberately ambiguous hand-built spec.
//  4. Cubin determinism: the vendor disassembler's listing is
//     byte-identical for every kernel lane count, including which kernel
//     reports the first error, and the structured decoder agrees with it.
//
//===----------------------------------------------------------------------===//

#include "encoder/Encoder.h"
#include "isa/DecodeIndex.h"
#include "isa/Spec.h"
#include "sass/Printer.h"
#include "support/Rng.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/KernelBuilder.h"
#include "vendor/NvccSim.h"
#include "vendor/SampleGen.h"

#include <gtest/gtest.h>

#include <memory>

using namespace dcb;

namespace {

/// Every architecture with a spec, including the partially decoded Volta.
std::vector<Arch> allArchs() {
  return {Arch::SM20, Arch::SM21, Arch::SM30, Arch::SM35, Arch::SM50,
          Arch::SM52, Arch::SM60, Arch::SM61, Arch::SM70};
}

/// A field-by-field copy of \p Spec that has never been frozen, so its
/// match() takes the pre-index linear-scan path — the live baseline the
/// parity tests compare against.
std::unique_ptr<isa::ArchSpec> unindexedClone(const isa::ArchSpec &Spec) {
  auto Clone = std::make_unique<isa::ArchSpec>();
  Clone->A = Spec.A;
  Clone->Family = Spec.Family;
  Clone->WordBits = Spec.WordBits;
  Clone->RegBits = Spec.RegBits;
  Clone->NumRegs = Spec.NumRegs;
  Clone->GuardField = Spec.GuardField;
  Clone->Instrs = Spec.Instrs;
  return Clone;
}

BitString randomWord(Rng &R, unsigned Bits) {
  BitString Word(Bits);
  for (unsigned Lo = 0; Lo < Bits; Lo += 64)
    Word.setField(Lo, std::min(64u, Bits - Lo), R.next());
  return Word;
}

/// Same outcome, same value (modulo printing), same diagnostic.
void expectSameDecode(const Expected<sass::Instruction> &A,
                      const Expected<sass::Instruction> &B,
                      const std::string &Context) {
  ASSERT_EQ(A.hasValue(), B.hasValue()) << Context;
  if (A.hasValue())
    EXPECT_EQ(sass::printInstruction(*A), sass::printInstruction(*B))
        << Context;
  else
    EXPECT_EQ(A.message(), B.message()) << Context;
}

} // namespace

class DecodePerArch : public ::testing::TestWithParam<Arch> {};

TEST_P(DecodePerArch, BuiltinSpecIsFrozenWithABoundedIndex) {
  const isa::ArchSpec &Spec = isa::getArchSpec(GetParam());
  const isa::DecodeIndex *Index = Spec.decodeIndex();
  ASSERT_NE(Index, nullptr) << "getArchSpec must freeze decode";
  EXPECT_LE(Index->numSelectorBits(), isa::DecodeIndex::MaxSelectorBits);
  EXPECT_EQ(Index->numBuckets(), size_t(1) << Index->numSelectorBits());
  // The index must actually sharpen dispatch: the worst bucket is strictly
  // shorter than the full linear scan.
  EXPECT_LT(Index->maxBucketLen(), Spec.Instrs.size());
}

TEST_P(DecodePerArch, IndexedDispatchMatchesLinearScanOnEveryForm) {
  const isa::ArchSpec &Spec = isa::getArchSpec(GetParam());
  Rng R(0xdec0de00 + static_cast<uint64_t>(GetParam()));
  const uint64_t Pc = 0x200;

  for (const isa::InstrSpec &Form : Spec.Instrs) {
    for (int Trial = 0; Trial < 8; ++Trial) {
      sass::Instruction Inst = vendor::randomInstruction(Spec, Form, R, Pc);
      Expected<BitString> Word = encoder::encodeInstruction(Spec, Inst, Pc);
      ASSERT_TRUE(Word.hasValue())
          << Form.Mnemonic << "." << Form.FormTag << ": " << Word.message();
      const isa::InstrSpec *Indexed = Spec.match(*Word);
      EXPECT_EQ(Indexed, Spec.matchLinear(*Word))
          << Form.Mnemonic << "." << Form.FormTag;
      ASSERT_NE(Indexed, nullptr) << Form.Mnemonic << "." << Form.FormTag;
    }
  }
}

TEST_P(DecodePerArch, RandomWordFuzzKeepsMatchAndDiagnosticsIdentical) {
  const isa::ArchSpec &Spec = isa::getArchSpec(GetParam());
  std::unique_ptr<isa::ArchSpec> Linear = unindexedClone(Spec);
  ASSERT_EQ(Linear->decodeIndex(), nullptr);

  Rng R(0xf022 + static_cast<uint64_t>(GetParam()));
  for (int Trial = 0; Trial < 2000; ++Trial) {
    BitString Word = randomWord(R, Spec.WordBits);
    const isa::InstrSpec *Hit = Spec.match(Word);
    const isa::InstrSpec *LinearHit = Linear->matchLinear(Word);
    // The clone's Instrs vector is a copy, so compare by position.
    if (Hit == nullptr) {
      EXPECT_EQ(LinearHit, nullptr) << Word.toHex();
    } else {
      ASSERT_NE(LinearHit, nullptr) << Word.toHex();
      EXPECT_EQ(Hit - Spec.Instrs.data(), LinearHit - Linear->Instrs.data())
          << Word.toHex();
    }
    expectSameDecode(encoder::decodeInstruction(Spec, Word, 0x80),
                     encoder::decodeInstruction(*Linear, Word, 0x80),
                     Word.toHex());
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchs, DecodePerArch,
                         ::testing::ValuesIn(allArchs()),
                         [](const auto &Info) {
                           return std::string(archName(Info.param));
                         });

namespace {

isa::InstrSpec opcodeOnlyForm(const char *Mnemonic, uint64_t Value,
                              uint64_t Mask) {
  isa::InstrSpec Form;
  Form.Mnemonic = Mnemonic;
  Form.OpcodeValue = Value;
  Form.OpcodeMask = Mask;
  return Form;
}

} // namespace

TEST(DecodeIndexTest, FreezeAndThawToggleTheDispatchPath) {
  isa::ArchSpec Spec;
  Spec.Instrs.push_back(opcodeOnlyForm("AAA", 0x1, 0x7));
  Spec.Instrs.push_back(opcodeOnlyForm("BBB", 0x2, 0x7));

  EXPECT_EQ(Spec.decodeIndex(), nullptr);
  BitString Word(64, 0x1);
  EXPECT_EQ(Spec.match(Word), &Spec.Instrs[0]); // Linear fallback.

  const isa::DecodeIndex &Index = Spec.freezeDecode();
  EXPECT_EQ(Spec.decodeIndex(), &Index);
  EXPECT_EQ(&Spec.freezeDecode(), &Index) << "freeze must be idempotent";
  EXPECT_EQ(Spec.match(Word), &Spec.Instrs[0]);

  // Thaw, mutate, re-freeze: the new index sees the new form.
  Spec.thawDecode();
  EXPECT_EQ(Spec.decodeIndex(), nullptr);
  Spec.Instrs.push_back(opcodeOnlyForm("CCC", 0x4, 0x7));
  Spec.freezeDecode();
  BitString NewWord(64, 0x4);
  EXPECT_EQ(Spec.match(NewWord), &Spec.Instrs[2]);
  EXPECT_EQ(Spec.match(NewWord), Spec.matchLinear(NewWord));
}

TEST(DecodeIndexTest, AmbiguousSpecKeepsFirstMatchOrder) {
  // Form 0 is a superset pattern of form 1: every word form 1 matches,
  // form 0 matches too. The linear scan always answers form 0; the index
  // must reproduce that, not prefer the more specific pattern.
  isa::ArchSpec Spec;
  Spec.Instrs.push_back(opcodeOnlyForm("WIDE", 0x1, 0x3));
  Spec.Instrs.push_back(opcodeOnlyForm("NARROW", 0x5, 0xf));
  Spec.freezeDecode();

  for (uint64_t Low = 0; Low < 64; ++Low) {
    BitString Word(64, Low);
    EXPECT_EQ(Spec.match(Word), Spec.matchLinear(Word)) << Low;
  }
  BitString Word(64, 0x5);
  EXPECT_EQ(Spec.match(Word), &Spec.Instrs[0]);
}

TEST(DecodeIndexTest, UnconstrainedSelectorBitsReplicateForms) {
  // One form constrains bits the other leaves free: whatever selector bits
  // the builder picks, the unconstrained form must stay reachable from
  // every bucket value of those bits.
  isa::ArchSpec Spec;
  Spec.Instrs.push_back(opcodeOnlyForm("PICKY", 0xf0, 0xff));
  Spec.Instrs.push_back(opcodeOnlyForm("LOOSE", 0x1, 0x1));
  Spec.freezeDecode();

  Rng R(7);
  for (int Trial = 0; Trial < 512; ++Trial) {
    BitString Word(64, R.next() | 1); // LOOSE always matches...
    Word.setField(4, 4, R.below(16)); // ...PICKY only sometimes.
    EXPECT_EQ(Spec.match(Word), Spec.matchLinear(Word)) << Word.toHex();
    EXPECT_NE(Spec.match(Word), nullptr) << Word.toHex();
  }
}

namespace {

vendor::KernelBuilder saxpy(Arch A) {
  vendor::KernelBuilder K("saxpy", A);
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
  K.ins("FFMA R9, R6, c[0x0][0x10], R6;");
  K.ins("STG.E [R5], R9;");
  K.label("end");
  return K.exit();
}

std::vector<uint8_t> saxpyCode(Arch A) {
  vendor::NvccSim Nvcc(A);
  // Volta's spec is only partially decoded; stick to forms it has.
  vendor::KernelBuilder K = [&] {
    if (A != Arch::SM70)
      return saxpy(A);
    vendor::KernelBuilder V("saxpy", A);
    V.ins("MOV R1, 0x1;");
    V.ins("IADD R2, R1, R1;");
    return V.exit();
  }();
  Expected<vendor::CompiledKernel> Compiled = Nvcc.compileKernel(K);
  EXPECT_TRUE(Compiled.hasValue()) << Compiled.message();
  return Compiled.hasValue() ? Compiled->Section.Code
                             : std::vector<uint8_t>();
}

/// A cubin of \p NumKernels saxpy kernels, named saxpy0, saxpy1, ...
elf::Cubin saxpyCubin(Arch A, unsigned NumKernels) {
  elf::Cubin Cubin(A);
  std::vector<uint8_t> Code = saxpyCode(A);
  for (unsigned I = 0; I < NumKernels; ++I) {
    elf::KernelSection K;
    K.Name = "saxpy" + std::to_string(I);
    K.Code = Code;
    Cubin.addKernel(std::move(K));
  }
  return Cubin;
}

} // namespace

TEST(DecodeBatchTest, DisassembleKernelCodeIsByteIdenticalAcrossOptions) {
  // However the cubin's kernels are spread over lanes, each kernel's text
  // is what disassembleKernelCode prints for it, joined in kernel order.
  for (Arch A : {Arch::SM20, Arch::SM35, Arch::SM50, Arch::SM61, Arch::SM70}) {
    elf::Cubin Cubin = saxpyCubin(A, 6);
    std::string Serial = "code for " + std::string(archName(A)) + "\n";
    for (const elf::KernelSection &K : Cubin.kernels()) {
      Expected<std::string> Text =
          vendor::disassembleKernelCode(A, K.Name, K.Code);
      ASSERT_TRUE(Text.hasValue()) << Text.message();
      Serial += *Text + "\n";
    }

    for (unsigned Lanes : {1u, 2u, 4u, 0u}) {
      vendor::DisasmOptions Options;
      Options.NumThreads = Lanes;
      Expected<std::string> Listing = vendor::disassembleCubin(Cubin, Options);
      ASSERT_TRUE(Listing.hasValue()) << Listing.message();
      EXPECT_EQ(Serial, *Listing) << archName(A) << " lanes " << Lanes;
    }
  }
}

TEST(DecodeBatchTest, CorruptWordFailsIdenticallyAtEveryLaneCount) {
  elf::Cubin Cubin = saxpyCubin(Arch::SM50, 6);
  // Garbage over the second word of kernel 2 (the first is a SCHI slot on
  // Maxwell), and a torn last word in kernel 4: kernel 2 fails first in
  // kernel order, so its diagnostic wins at every lane count.
  std::vector<elf::KernelSection> &Kernels = Cubin.kernels();
  for (size_t I = 0; I < 8; ++I)
    Kernels[2].Code[8 + I] = 0xff;
  Kernels[4].Code.pop_back();

  Expected<std::string> First = vendor::disassembleKernelCode(
      Arch::SM50, Kernels[2].Name, Kernels[2].Code);
  ASSERT_FALSE(First.hasValue());
  EXPECT_NE(First.message().find("cuobjdump-sim: "), std::string::npos);

  for (unsigned Lanes : {1u, 2u, 4u, 0u}) {
    vendor::DisasmOptions Options;
    Options.NumThreads = Lanes;
    Expected<std::string> Listing = vendor::disassembleCubin(Cubin, Options);
    ASSERT_FALSE(Listing.hasValue());
    EXPECT_EQ(First.message(), Listing.message()) << "lanes " << Lanes;
  }
}

TEST(DecodeBatchTest, StructuredDecodeAgreesWithThePrintedListing) {
  for (Arch A : {Arch::SM35, Arch::SM50, Arch::SM70}) {
    std::vector<uint8_t> Code = saxpyCode(A);
    ASSERT_FALSE(Code.empty());

    Expected<std::vector<vendor::DecodedWord>> Words =
        vendor::decodeKernelCode(A, "saxpy", Code);
    ASSERT_TRUE(Words.hasValue()) << Words.message();
    Expected<std::string> Listing =
        vendor::disassembleKernelCode(A, "saxpy", Code);
    ASSERT_TRUE(Listing.hasValue()) << Listing.message();

    const unsigned WordBytes = archWordBits(A) / 8;
    const unsigned Group = schiGroupSize(archSchiKind(A));
    ASSERT_EQ(Words->size(), Code.size() / WordBytes);
    for (const vendor::DecodedWord &W : *Words) {
      // Addresses, SCHI cadence and raw bits line up with the bytes.
      EXPECT_EQ(W.Word,
                BitString::fromBytes(Code.data() + W.Address, WordBytes));
      EXPECT_EQ(W.IsSchi,
                Group > 1 && (W.Address / WordBytes) % Group == 0);
      if (W.IsSchi)
        continue;
      // Each structured instruction is exactly what its listing line
      // prints — the print-free path adds no divergence.
      std::string Line =
          sass::printInstruction(W.Inst) + " /* 0x" + W.Word.toHex();
      EXPECT_NE(Listing->find(Line), std::string::npos)
          << archName(A) << ": missing \"" << Line << "\"";
    }
  }
}

TEST(DecodeBatchTest, DecodeInstructionAtChecksAddressAndMatchesSerial) {
  std::vector<uint8_t> Code = saxpyCode(Arch::SM35);
  ASSERT_FALSE(Code.empty());

  // Misaligned and out-of-range addresses are rejected up front.
  EXPECT_FALSE(
      vendor::decodeInstructionAt(Arch::SM35, "saxpy", Code, 3).hasValue());
  EXPECT_FALSE(vendor::decodeInstructionAt(Arch::SM35, "saxpy", Code,
                                           Code.size())
                   .hasValue());

  // A good address returns the same instruction the full decode does.
  Expected<std::vector<vendor::DecodedWord>> Words =
      vendor::decodeKernelCode(Arch::SM35, "saxpy", Code);
  ASSERT_TRUE(Words.hasValue()) << Words.message();
  for (const vendor::DecodedWord &W : *Words) {
    Expected<vendor::DecodedWord> One =
        vendor::decodeInstructionAt(Arch::SM35, "saxpy", Code, W.Address);
    ASSERT_TRUE(One.hasValue()) << One.message();
    EXPECT_EQ(One->IsSchi, W.IsSchi);
    EXPECT_EQ(One->Word, W.Word);
    if (!W.IsSchi) {
      EXPECT_EQ(sass::printInstruction(One->Inst),
                sass::printInstruction(W.Inst));
    }
  }
}

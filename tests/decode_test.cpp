//===- tests/decode_test.cpp - Decode index & batch decoding ---------------===//
//
// The decode-side twin of the assembler's frozen-index tests:
//  1. Index/scan parity: ArchSpec::match (DecodeIndex dispatch) returns the
//     same form as a file-local linear scan for every encodable instruction
//     of EVERY form on EVERY architecture, and for uniformly random words.
//  2. The one table: every built-in index holds each form exactly once,
//     under selector bits that every form fixes.
//  3. Hand-built specs: first-match order on a deliberately ambiguous
//     spec, forms that share no fixed bit, and the selector bit cap.
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

using namespace dcb;

namespace {

/// Every architecture with a spec, including the partially decoded Volta.
std::vector<Arch> allArchs() {
  return {Arch::SM20, Arch::SM21, Arch::SM30, Arch::SM35, Arch::SM50,
          Arch::SM52, Arch::SM60, Arch::SM61, Arch::SM70};
}

/// The reference dispatch the index must reproduce: the first form in
/// table order whose opcode pattern matches the word's low 64 bits.
const isa::InstrSpec *linearMatch(const isa::ArchSpec &Spec,
                                  const BitString &Word) {
  uint64_t Low = Word.field(0, 64);
  for (const isa::InstrSpec &Form : Spec.Instrs)
    if ((Low & Form.OpcodeMask) == Form.OpcodeValue)
      return &Form;
  return nullptr;
}

BitString randomWord(Rng &R, unsigned Bits) {
  BitString Word(Bits);
  for (unsigned Lo = 0; Lo < Bits; Lo += 64)
    Word.setField(Lo, std::min(64u, Bits - Lo), R.next());
  return Word;
}

} // namespace

class DecodePerArch : public ::testing::TestWithParam<Arch> {};

TEST_P(DecodePerArch, BuiltinSpecIsFrozenWithABoundedIndex) {
  const isa::ArchSpec &Spec = isa::getArchSpec(GetParam());
  const isa::DecodeIndex &Index = Spec.decodeIndex();
  ASSERT_TRUE(Index.built()) << "getArchSpec must build the decode index";
  EXPECT_LE(Index.numSelectorBits(), isa::DecodeIndex::MaxSelectorBits);
  EXPECT_EQ(Index.numBuckets(), size_t(1) << Index.numSelectorBits());
  // The index must actually sharpen dispatch: the worst bucket is strictly
  // shorter than the full linear scan.
  EXPECT_LT(Index.maxBucketLen(), Spec.Instrs.size());
}

TEST_P(DecodePerArch, EveryFormSitsInOneBucketUnderBitsEveryFormFixes) {
  const isa::ArchSpec &Spec = isa::getArchSpec(GetParam());
  const isa::DecodeIndex &Index = Spec.decodeIndex();
  ASSERT_GT(Index.numSelectorBits(), 0u);
  for (uint8_t Bit : Index.selectorBits())
    for (const isa::InstrSpec &Form : Spec.Instrs)
      EXPECT_TRUE((Form.OpcodeMask >> Bit) & 1)
          << Form.Mnemonic << "." << Form.FormTag << " leaves selector bit "
          << unsigned(Bit) << " free";

  std::vector<size_t> Seen(Spec.Instrs.size(), 0);
  size_t Entries = 0;
  for (size_t B = 0; B < Index.numBuckets(); ++B)
    for (const isa::DecodeIndex::EntryView &E : Index.bucketEntries(B)) {
      ++Entries;
      ++Seen[E.Spec - Spec.Instrs.data()];
      EXPECT_EQ(Index.bucketIndexOf(E.Spec->OpcodeValue), B);
    }
  EXPECT_EQ(Entries, Spec.Instrs.size());
  for (size_t I = 0; I < Seen.size(); ++I)
    EXPECT_EQ(Seen[I], 1u) << Spec.Instrs[I].Mnemonic << "."
                           << Spec.Instrs[I].FormTag;
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
      EXPECT_EQ(Indexed, linearMatch(Spec, *Word))
          << Form.Mnemonic << "." << Form.FormTag;
      ASSERT_NE(Indexed, nullptr) << Form.Mnemonic << "." << Form.FormTag;
    }
  }
}

// Decoding goes through match() alone, so with the same form chosen the
// decoded value and any diagnostic cannot differ from the scan's.
TEST_P(DecodePerArch, RandomWordFuzzKeepsMatchAndDiagnosticsIdentical) {
  const isa::ArchSpec &Spec = isa::getArchSpec(GetParam());
  Rng R(0xf022 + static_cast<uint64_t>(GetParam()));
  for (int Trial = 0; Trial < 2000; ++Trial) {
    BitString Word = randomWord(R, Spec.WordBits);
    EXPECT_EQ(Spec.match(Word), linearMatch(Spec, Word)) << Word.toHex();
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

TEST(DecodeIndexTest, AmbiguousSpecKeepsFirstMatchOrder) {
  // Form 0 is a superset pattern of form 1: every word form 1 matches,
  // form 0 matches too. The linear scan always answers form 0; the index
  // must reproduce that, not prefer the more specific pattern.
  isa::ArchSpec Spec;
  Spec.Instrs.push_back(opcodeOnlyForm("WIDE", 0x1, 0x3));
  Spec.Instrs.push_back(opcodeOnlyForm("NARROW", 0x5, 0xf));
  Spec.buildDecodeIndex();

  for (uint64_t Low = 0; Low < 64; ++Low) {
    BitString Word(64, Low);
    EXPECT_EQ(Spec.match(Word), linearMatch(Spec, Word)) << Low;
  }
  BitString Word(64, 0x5);
  EXPECT_EQ(Spec.match(Word), &Spec.Instrs[0]);
}

TEST(DecodeIndexTest, FormsSharingNoFixedBitDecodeThroughOneBucket) {
  // ZERO and ONE fix bit 0, HIGH fixes bit 1 only: no bit is fixed by all
  // three, so there is no selector and one bucket holds the forms in table
  // order, which is the linear scan. Nothing is replicated.
  isa::ArchSpec Spec;
  Spec.Instrs.push_back(opcodeOnlyForm("ZERO", 0x0, 0x1));
  Spec.Instrs.push_back(opcodeOnlyForm("ONE", 0x1, 0x1));
  Spec.Instrs.push_back(opcodeOnlyForm("HIGH", 0x2, 0x2));
  Spec.buildDecodeIndex();
  const isa::DecodeIndex &Index = Spec.decodeIndex();
  EXPECT_EQ(Index.numSelectorBits(), 0u);
  ASSERT_EQ(Index.numBuckets(), 1u);
  std::vector<isa::DecodeIndex::EntryView> Entries = Index.bucketEntries(0);
  ASSERT_EQ(Entries.size(), 3u);
  for (size_t I = 0; I < Entries.size(); ++I)
    EXPECT_EQ(Entries[I].Spec, &Spec.Instrs[I]);

  for (uint64_t Low = 0; Low < 8; ++Low) {
    BitString Word(64, Low);
    EXPECT_EQ(Spec.match(Word), linearMatch(Spec, Word)) << Low;
  }
  EXPECT_EQ(Spec.match(BitString(64, 0x2)), &Spec.Instrs[0]);
  EXPECT_EQ(Spec.match(BitString(64, 0x3)), &Spec.Instrs[1]);
}

TEST(DecodeIndexTest, SixteenFixedBitsKeepTheHighestTwelve) {
  // Every form fixes bits 40..55; the selector keeps the highest twelve,
  // 44..55, and dispatch still agrees with the scan.
  isa::ArchSpec Spec;
  const uint64_t Mask = uint64_t(0xffff) << 40;
  for (uint64_t Op = 0; Op < 64; ++Op)
    Spec.Instrs.push_back(
        opcodeOnlyForm("OP", (Op * 0x9e37 & 0xffff) << 40, Mask));
  Spec.buildDecodeIndex();
  const isa::DecodeIndex &Index = Spec.decodeIndex();
  ASSERT_EQ(Index.numSelectorBits(), isa::DecodeIndex::MaxSelectorBits);
  EXPECT_EQ(Index.selectorBits().front(), 44);
  EXPECT_EQ(Index.selectorBits().back(), 55);
  EXPECT_EQ(Index.numBuckets(), size_t(1) << 12);

  Rng R(11);
  for (const isa::InstrSpec &Form : Spec.Instrs) {
    BitString Hit(64, Form.OpcodeValue | (R.next() & ~Form.OpcodeMask));
    EXPECT_EQ(Spec.match(Hit), &Form);
  }
  for (int Trial = 0; Trial < 2000; ++Trial) {
    uint64_t Low = R.next();
    if (Trial % 2)
      Low = (Low & ~Mask) | Spec.Instrs[R.below(64)].OpcodeValue;
    BitString Word(64, Low);
    EXPECT_EQ(Spec.match(Word), linearMatch(Spec, Word)) << Word.toHex();
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

//===- tests/analyzer_test.cpp - ISA analyzer end-to-end -------------------===//

#include "LearnedDb.h"

#include "analyzer/BitFlipper.h"
#include "analyzer/IsaAnalyzer.h"
#include "analyzer/Listing.h"
#include "analyzer/ModifierTypes.h"
#include "analyzer/Signature.h"
#include "asmgen/TableAssembler.h"

#include "sass/Parser.h"
#include "support/FileIo.h"
#include "support/Rng.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

using namespace dcb;
using namespace dcb::analyzer;

namespace {

std::vector<Arch> fullArchs() {
  unsigned Count = 0;
  const Arch *Archs = supportedArchs(Count);
  return std::vector<Arch>(Archs, Archs + Count);
}

/// Compiles the whole synthetic suite and returns its disassembly listing
/// plus the per-kernel code bytes (the analyzer's and flipper's inputs).
struct SuiteData {
  Listing L;
  std::map<std::string, std::vector<uint8_t>> KernelCode;
};

SuiteData makeSuiteData(Arch A) {
  vendor::NvccSim Nvcc(A);
  Expected<elf::Cubin> Cubin = Nvcc.compile(workloads::buildSuite(A));
  EXPECT_TRUE(Cubin.hasValue()) << Cubin.message();
  Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
  EXPECT_TRUE(Text.hasValue()) << Text.message();
  Expected<Listing> L = parseListing(*Text);
  EXPECT_TRUE(L.hasValue()) << L.message();

  SuiteData Data;
  Data.L = L.takeValue();
  for (const elf::KernelSection &Kernel : Cubin->kernels())
    Data.KernelCode[Kernel.Name] = Kernel.Code;
  return Data;
}

using learneddb::makeDisassembler;
using learneddb::makeWindowDecoder;
using learneddb::makeWindowDisassembler;

} // namespace

TEST(Signature, OperandChars) {
  auto Inst = sass::parseInstruction(
      "TEX R0, R4, 0x12, 2D, RGBA;");
  ASSERT_TRUE(Inst.hasValue());
  EXPECT_EQ(operandSignature(*Inst), "rrith");
  EXPECT_EQ(operationKey(*Inst), "TEX/rrith");

  auto Ldc = sass::parseInstruction("LDC R1, c[0x3][R2+0x10];");
  ASSERT_TRUE(Ldc.hasValue());
  EXPECT_EQ(operandSignature(*Ldc), "rC");

  auto Mov = sass::parseInstruction("MOV R1, c[0x0][0x44];");
  ASSERT_TRUE(Mov.hasValue());
  EXPECT_EQ(operandSignature(*Mov), "rc");
}

TEST(ModifierTypes, GroupsAndSingletons) {
  EXPECT_EQ(modifierType("AND"), "LOGIC");
  EXPECT_EQ(modifierType("XOR"), "LOGIC");
  EXPECT_EQ(modifierType("GE"), "CMP");
  EXPECT_EQ(modifierType("F64"), "FMT");
  EXPECT_EQ(modifierType("RM"), "RND");
  EXPECT_EQ(modifierType("FTZ"), "FTZ"); // Singleton type.
}

TEST(ListingParser, ParsesVendorOutput) {
  SuiteData Data = makeSuiteData(Arch::SM35);
  EXPECT_EQ(Data.L.A, Arch::SM35);
  EXPECT_GE(Data.L.Kernels.size(), 30u);
  const ListingKernel &First = Data.L.Kernels.front();
  EXPECT_FALSE(First.Insts.empty());
  EXPECT_FALSE(First.Schis.empty()); // Kepler has SCHI words.
  // Addresses are strictly increasing within a kernel.
  for (size_t I = 1; I < First.Insts.size(); ++I)
    EXPECT_GT(First.Insts[I].Address, First.Insts[I - 1].Address);
}

TEST(ListingParser, RejectsMalformedInput) {
  EXPECT_FALSE(parseListing("").hasValue());
  EXPECT_FALSE(parseListing("code for sm_99\n").hasValue());
  EXPECT_FALSE(parseListing("Function : orphan\n").hasValue());
  EXPECT_FALSE(
      parseListing("code for sm_35\nFunction : k\n garbage line\n")
          .hasValue());
  EXPECT_FALSE(parseListing("code for sm_35\n/*0000*/ MOV R1, R2;\n")
                   .hasValue()); // Instruction before any Function.
}

TEST(ComponentSearch, Fig5Narrowing) {
  // Reproduce the paper's Fig. 5 walk-through: two FFMA instances whose
  // first operand is R9 then R5; the search must converge on the real
  // destination field.
  ComponentRec Comp;
  CompValue V;
  V.IsReg = true;

  BitString First(64);
  First.setField(2, 8, 9); // True field at bits 2..9.
  First.setField(19, 5, 9);
  First.setField(59, 4, 9);
  V.Int = 9;
  Comp.narrow(First, V, {InterpKind::Plain});

  BitString Second(64);
  Second.setField(2, 8, 5);
  Second.setField(19, 5, 16); // No longer the operand's value (no suffix
                              // of 16 equals 5 either).
  Second.setField(59, 4, 3);
  V.Int = 5;
  Comp.narrow(Second, V, {InterpKind::Plain});

  auto Windows = Comp.windows(InterpKind::Plain);
  // The true field survives...
  bool FoundTrue = false;
  for (auto [B, S] : Windows)
    if (B == 2)
      FoundTrue = S >= 4; // At least the value bits.
  EXPECT_TRUE(FoundTrue);
  // ...and the decoys at 19 and 59 are gone.
  for (auto [B, S] : Windows) {
    EXPECT_NE(B, 19u);
    EXPECT_NE(B, 59u);
  }
}

TEST(ComponentSearch, RelativeAddressInterpretation) {
  // A branch at 0x100 targeting 0x58 encodes target - next-pc.
  ComponentRec Comp;
  CompValue V;
  V.Int = 0x58;
  V.InstAddr = 0x100;
  V.WordBytes = 8;
  int64_t Offset = 0x58 - 0x108;
  BitString Word(64);
  Word.setField(20, 24, static_cast<uint64_t>(Offset) &
                            BitString::lowMask(24));
  Comp.narrow(Word, V, {InterpKind::RelNext});
  auto Windows = Comp.windows(InterpKind::RelNext);
  bool Found = false;
  for (auto [B, S] : Windows)
    Found |= (B == 20 && S == 24);
  EXPECT_TRUE(Found);
}

namespace {

using WidthMasks = std::array<std::vector<uint64_t>, NumInterpKinds>;

/// The window search as Algorithm 2 states it: every live (start bit,
/// width) pair asks interpEncode for the window content and compares.
/// The differential oracle for ComponentRec::narrow's closed form.
void narrowPerWidth(WidthMasks &WidthMask, bool First, const BitString &Word,
                    const CompValue &Value,
                    const std::vector<InterpKind> &Kinds) {
  unsigned WordBits = Word.size();
  if (First)
    for (InterpKind Kind : Kinds)
      WidthMask[static_cast<unsigned>(Kind)].assign(WordBits, 0);
  for (InterpKind Kind : Kinds) {
    auto &Masks = WidthMask[static_cast<unsigned>(Kind)];
    for (unsigned B = 0; B < WordBits; ++B) {
      uint64_t Previous = First ? ~uint64_t(0) : Masks[B];
      if (Previous == 0)
        continue;
      uint64_t Matched = 0;
      unsigned MaxWidth = std::min<unsigned>(64, WordBits - B);
      for (unsigned W = 1; W <= MaxWidth; ++W) {
        if (!(Previous & (uint64_t(1) << (W - 1))))
          continue;
        uint64_t Wanted;
        if (interpEncode(Kind, Value, W, Wanted) &&
            Word.field(B, W) == Wanted)
          Matched |= uint64_t(1) << (W - 1);
      }
      Masks[B] = Matched;
    }
  }
}

/// An integer drawn from the edges (0, +-1, INT64_MIN/MAX) or at a random
/// bit width, either sign.
int64_t randomInt(Rng &R) {
  switch (R.below(6)) {
  case 0:
    return static_cast<int64_t>(R.below(3)) - 1;
  case 1:
    return R.chance(50) ? std::numeric_limits<int64_t>::min()
                        : std::numeric_limits<int64_t>::max();
  case 2:
    return static_cast<int64_t>(R.below(300));
  default: {
    uint64_t Bits = R.next() >> R.below(64);
    return static_cast<int64_t>(R.chance(30) ? uint64_t(0) - Bits : Bits);
  }
  }
}

/// A double drawn from NaN, the infinities, the zeros, values a float
/// holds exactly, values outside float range, and random bit patterns.
double randomFloat(Rng &R) {
  switch (R.below(8)) {
  case 0:
    return R.chance(50) ? std::nan("") : -std::nan("");
  case 1:
    return R.chance(50) ? HUGE_VAL : -HUGE_VAL;
  case 2:
    return R.chance(50) ? 0.0 : -0.0;
  case 3:
    return std::bit_cast<float>(static_cast<uint32_t>(R.next()));
  case 4:
    return R.chance(50) ? 1e300 : -1e-300;
  case 5:
    return static_cast<double>(static_cast<int64_t>(R.below(2001)) - 1000) /
           8;
  default:
    return std::bit_cast<double>(R.next());
  }
}

/// A component value: a register (RZ included), an integer from
/// randomInt, a branch target near the instruction, or, half the time, a
/// value whose encoding under \p Planted fits the \p Size-bit true field.
CompValue randomValue(Rng &R, InterpKind Planted, unsigned Size,
                      unsigned WordBytes) {
  CompValue V;
  V.WordBytes = WordBytes;
  V.InstAddr = R.chance(80) ? R.below(1 << 16) * WordBytes : R.next();
  V.Int = randomInt(R);
  V.IsReg = R.chance(25);
  if (V.IsReg && R.chance(40))
    V.Int = -1; // RZ.
  if (Planted == InterpKind::RelNext && R.chance(30)) {
    int64_t Delta = static_cast<int64_t>(R.below(1 << 12)) - (1 << 11);
    V.Int = static_cast<int64_t>(V.InstAddr + WordBytes +
                                 static_cast<uint64_t>(Delta * 8));
  } else if (R.chance(50)) {
    const uint64_t Bits = R.next() >> (64 - Size);
    const int64_t Fit =
        Planted == InterpKind::Plain
            ? static_cast<int64_t>(Bits)
            : static_cast<int64_t>(Bits << (64 - Size)) >> (64 - Size);
    V.Int = Planted == InterpKind::RelNext
                ? static_cast<int64_t>(V.InstAddr + WordBytes +
                                       static_cast<uint64_t>(Fit))
                : Fit;
  }
  V.Float = randomFloat(R);
  return V;
}

/// Writes \p V's encoding under \p K at bits [Lo, Lo+Size) when it has
/// one at that width.
void plant(BitString &Word, InterpKind K, const CompValue &V, unsigned Lo,
           unsigned Size) {
  uint64_t Content;
  if (interpEncode(K, V, Size, Content))
    Word.setField(Lo, Size, Content);
}

} // namespace

TEST(ComponentSearch, ClosedFormMatchesPerWidthSearch) {
  // Random 1-4 instance sequences narrowed twice: by ComponentRec::narrow
  // and by the per-width oracle. Each instance plants the value at a true
  // field (and sometimes a decoy) over a zero, all-ones, sparse or random
  // background, so masks stay live across instances.
  const std::vector<std::vector<InterpKind>> Lists = {
      interpKindsFor('r', 0, "MOV"), interpKindsFor('i', 0, "BRA"),
      interpKindsFor('i', 0, "IADD"), interpKindsFor('f', 0, "FADD"),
      interpKindsFor('s', 0, "S2R")};
  Rng R(0x5eed0c10);
  unsigned Compared = 0;
  for (unsigned Seq = 0; Seq < 6000; ++Seq) {
    const std::vector<InterpKind> &Kinds = Lists[Seq % Lists.size()];
    const unsigned WordBits = R.chance(50) ? 64 : 128;
    const InterpKind Planted =
        Kinds.empty() ? InterpKind::Plain : Kinds[R.below(Kinds.size())];
    const unsigned Lo = static_cast<unsigned>(R.below(WordBits));
    const unsigned Size = static_cast<unsigned>(
        R.range(1, std::min<unsigned>(64, WordBits - Lo)));
    ComponentRec Rec;
    WidthMasks Oracle;
    const unsigned Instances = static_cast<unsigned>(R.range(1, 4));
    for (unsigned I = 0; I < Instances; ++I) {
      CompValue V = randomValue(R, Planted, Size, WordBits / 8);
      BitString Word(WordBits);
      const unsigned Background = static_cast<unsigned>(R.below(4));
      for (unsigned Half = 0; Half < WordBits / 64; ++Half)
        Word.setField(Half * 64, 64,
                      Background == 0   ? 0
                      : Background == 1 ? ~uint64_t(0)
                      : Background == 2 ? R.next() & R.next() & R.next()
                                        : R.next());
      plant(Word, Planted, V, Lo, Size);
      if (R.chance(30)) {
        // A decoy under any interpretation, including ones outside Kinds.
        unsigned DecoyLo = static_cast<unsigned>(R.below(WordBits));
        plant(Word, static_cast<InterpKind>(R.below(NumInterpKinds)), V,
              DecoyLo,
              static_cast<unsigned>(
                  R.range(1, std::min<unsigned>(64, WordBits - DecoyLo))));
      }
      Rec.narrow(Word, V, Kinds);
      narrowPerWidth(Oracle, I == 0, Word, V, Kinds);
      ASSERT_EQ(Rec.WidthMask, Oracle)
          << "sequence " << Seq << " instance " << I << " word "
          << Word.toHex() << " int " << V.Int << " float " << V.Float
          << " addr " << V.InstAddr << " reg " << V.IsReg;
      ++Compared;
    }
  }
  EXPECT_GT(Compared, 10000u);
}

TEST(ComponentSearch, BranchTargetAtTheTopOfTheAddressSpace) {
  // BRA 0x8000000000000000: the offset from the next instruction wraps in
  // 64-bit arithmetic on both paths that compute it, narrowing a learned
  // pair and assembling, instead of overflowing a signed subtraction.
  auto Bra = sass::parseInstruction("BRA 0x8000000000000000;");
  ASSERT_TRUE(Bra.hasValue());
  const uint64_t Addr = 0x100;
  const uint64_t Offset = 0x8000000000000000ull - (Addr + 8);

  CompValue V;
  V.Int = Bra->Operands[0].Value[0];
  V.InstAddr = Addr;
  ComponentRec Comp;
  Comp.narrow(BitString(64, Offset), V, {InterpKind::RelNext});
  // Only the full-word window holds the wrapped offset.
  std::vector<std::pair<unsigned, unsigned>> Want = {{0, 64}};
  EXPECT_EQ(Comp.windows(InterpKind::RelNext), Want);

  IsaAnalyzer Analyzer(Arch::SM35);
  ListingInst Pair;
  Pair.Address = Addr;
  Pair.Inst = *Bra;
  Pair.Binary = BitString(64, Offset);
  Analyzer.analyzeInst(Pair, "k");
  const OperationRec *Op = Analyzer.database().lookup(operationKey(*Bra));
  ASSERT_NE(Op, nullptr);
  EXPECT_EQ(Op->Operands[0].Comps[0].windows(InterpKind::RelNext), Want);

  // A database learned from the suite has no window that holds it.
  SuiteData Data = makeSuiteData(Arch::SM35);
  IsaAnalyzer Learned(Arch::SM35);
  ASSERT_FALSE(Learned.analyzeListing(Data.L));
  Expected<BitString> Word =
      asmgen::assembleInstruction(Learned.database(), *Bra, 0x8);
  ASSERT_FALSE(Word.hasValue());
  EXPECT_EQ(Word.message(), "assemble (sm_35): operand 0 component 0 fits "
                            "no learned field in "
                            "'BRA -0x8000000000000000;'");
}

TEST(LearnedDatabases, MatchTheGoldenHashes) {
  // The learned bytes are pinned across commits: the database after
  // Algorithms 1-2, after flipping, and the generated assembler source.
  Expected<std::string> Golden = readFileBytes(
      std::string(DCB_SOURCE_DIR) + "/tests/learned_db.golden");
  ASSERT_TRUE(Golden.hasValue()) << Golden.message();
  std::istringstream In(*Golden);
  std::vector<Arch> Archs = fullArchs();
  for (Arch A : Archs) {
    std::string Line;
    ASSERT_TRUE(std::getline(In, Line)) << "no golden line for "
                                        << archName(A);
    EXPECT_EQ(learneddb::renderLearnedDb(A), Line);
  }
  std::string Extra;
  EXPECT_FALSE(std::getline(In, Extra)) << "unexpected line: " << Extra;
}

class AnalyzerPerArch : public ::testing::TestWithParam<Arch> {};

TEST_P(AnalyzerPerArch, LearnsOperationsFromSuite) {
  SuiteData Data = makeSuiteData(GetParam());
  IsaAnalyzer Analyzer(GetParam());
  ASSERT_FALSE(Analyzer.analyzeListing(Data.L));
  auto Stats = Analyzer.database().stats();
  EXPECT_GE(Stats.NumOperations, 60u);
  EXPECT_GE(Stats.NumModifiers, 10u);
  EXPECT_GE(Stats.NumTokens, 5u);
}

TEST_P(AnalyzerPerArch, ReassemblesEverySuiteProgramByteIdentically) {
  // The paper's artifact acceptance test: the learned assembler must
  // "reproduce every program we have tried" (§III-B, §A.F).
  SuiteData Data = makeSuiteData(GetParam());
  IsaAnalyzer Analyzer(GetParam());
  ASSERT_FALSE(Analyzer.analyzeListing(Data.L));

  for (const ListingKernel &Kernel : Data.L.Kernels) {
    std::vector<std::string> Mismatches;
    unsigned Identical =
        asmgen::reassembleKernel(Analyzer.database(), Kernel, &Mismatches);
    EXPECT_EQ(Identical, Kernel.Insts.size())
        << archName(GetParam()) << "/" << Kernel.Name << " first mismatch: "
        << (Mismatches.empty() ? "?" : Mismatches.front());
  }
}

TEST_P(AnalyzerPerArch, BitFlippingConvergesAndEnriches) {
  SuiteData Data = makeSuiteData(GetParam());
  IsaAnalyzer Analyzer(GetParam());
  ASSERT_FALSE(Analyzer.analyzeListing(Data.L));
  auto Before = Analyzer.database().stats();

  // Parallel lanes plus the single-word fast path: the common production
  // configuration, exercised here on every architecture.
  BitFlipper Flipper(Analyzer, makeDisassembler(GetParam()),
                     makeWindowDisassembler(GetParam()));
  BitFlipper::Options Opts;
  Opts.MaxRounds = 3;
  Opts.NumThreads = 4;
  auto Rounds = Flipper.run(Data.KernelCode, Opts);
  ASSERT_FALSE(Rounds.empty());
  auto After = Analyzer.database().stats();

  // Flipping must strictly enrich the data set: more modifiers, unary
  // operators and named tokens become known (paper §III-B).
  EXPECT_GT(After.NumModifiers + After.NumUnaries + After.NumTokens,
            Before.NumModifiers + Before.NumUnaries + Before.NumTokens);
  // Some variants crash the disassembler; that is expected and tolerated.
  EXPECT_GT(Rounds.front().Crashes, 0u);
  EXPECT_GT(Rounds.front().Accepted, 0u);
}

TEST_P(AnalyzerPerArch, RoundStatsAccountForEveryVariant) {
  SuiteData Data = makeSuiteData(GetParam());
  IsaAnalyzer Analyzer(GetParam());
  ASSERT_FALSE(Analyzer.analyzeListing(Data.L));

  BitFlipper Flipper(Analyzer, makeDisassembler(GetParam()),
                     makeWindowDisassembler(GetParam()));
  BitFlipper::Options Opts;
  Opts.MaxRounds = 3;
  auto Rounds = Flipper.run(Data.KernelCode, Opts);
  ASSERT_FALSE(Rounds.empty());
  for (const auto &R : Rounds)
    EXPECT_EQ(R.VariantsTried,
              R.Crashes + R.Accepted + R.Rejected + R.CacheHits);
  // Round 1 sees only fresh variants; later rounds re-enumerate the same
  // exemplars and the dedup cache absorbs the repeats.
  EXPECT_EQ(Rounds.front().CacheHits, 0u);
  if (Rounds.size() > 1) {
    EXPECT_GT(Rounds[1].CacheHits, 0u);
  }
}

TEST_P(AnalyzerPerArch, ReassemblyStillExactAfterFlipping) {
  SuiteData Data = makeSuiteData(GetParam());
  IsaAnalyzer Analyzer(GetParam());
  ASSERT_FALSE(Analyzer.analyzeListing(Data.L));
  BitFlipper Flipper(Analyzer, makeDisassembler(GetParam()));
  BitFlipper::Options Opts;
  Opts.MaxRounds = 2;
  Flipper.run(Data.KernelCode, Opts);

  for (const ListingKernel &Kernel : Data.L.Kernels) {
    std::vector<std::string> Mismatches;
    unsigned Identical =
        asmgen::reassembleKernel(Analyzer.database(), Kernel, &Mismatches);
    EXPECT_EQ(Identical, Kernel.Insts.size())
        << archName(GetParam()) << "/" << Kernel.Name << " first mismatch: "
        << (Mismatches.empty() ? "?" : Mismatches.front());
  }
}

TEST_P(AnalyzerPerArch, DatabaseSerializationRoundTrips) {
  SuiteData Data = makeSuiteData(GetParam());
  IsaAnalyzer Analyzer(GetParam());
  ASSERT_FALSE(Analyzer.analyzeListing(Data.L));

  std::string Text = Analyzer.database().serialize();
  Expected<EncodingDatabase> Back = EncodingDatabase::deserialize(Text);
  ASSERT_TRUE(Back.hasValue()) << Back.message();
  EXPECT_EQ(Back->serialize(), Text);

  // The reloaded database assembles identically.
  for (const ListingKernel &Kernel : Data.L.Kernels) {
    unsigned Identical = asmgen::reassembleKernel(*Back, Kernel, nullptr);
    EXPECT_EQ(Identical, Kernel.Insts.size()) << Kernel.Name;
  }
}

TEST(BitFlipperDeterminism, ParallelRunMatchesSerialByteForByte) {
  // The engine's core guarantee: however many lanes run the trials, the
  // merge into the analyzer is serial in (exemplar, bit) order, so the
  // learned database is identical — across the whole serialized artifact.
  for (Arch A : {Arch::SM35, Arch::SM52}) {
    SuiteData Data = makeSuiteData(A);
    auto runWith = [&](unsigned Jobs, bool UseWindow) {
      IsaAnalyzer Analyzer(A);
      EXPECT_FALSE(Analyzer.analyzeListing(Data.L));
      BitFlipper Flipper(Analyzer, makeDisassembler(A),
                         UseWindow ? makeWindowDisassembler(A)
                                   : WindowDisassembler());
      BitFlipper::Options Opts;
      Opts.MaxRounds = 3;
      Opts.NumThreads = Jobs;
      Flipper.run(Data.KernelCode, Opts);
      return Analyzer.database().serialize();
    };
    std::string Serial = runWith(1, true);
    EXPECT_EQ(Serial, runWith(2, true)) << archName(A);
    EXPECT_EQ(Serial, runWith(4, true)) << archName(A);
    // The single-word fast path learns exactly what full-kernel
    // disassembly learns (only the patched word ever differs).
    EXPECT_EQ(Serial, runWith(4, false)) << archName(A);
  }
}

TEST(BitFlipperDeterminism, StructuredDecoderMatchesPrintedPathByteForByte) {
  // The print-free tier: trials go through vendor::decodeInstructionAt
  // (structured sass::Instructions, no print -> parse round trip). The
  // decoder rejects exactly the words whose printed line would not
  // re-parse, so the learned database must equal the text path's, byte
  // for byte, at any lane count.
  for (Arch A : {Arch::SM35, Arch::SM52}) {
    SuiteData Data = makeSuiteData(A);
    auto runWith = [&](unsigned Jobs, bool UseDecoder) {
      IsaAnalyzer Analyzer(A);
      EXPECT_FALSE(Analyzer.analyzeListing(Data.L));
      BitFlipper Flipper(Analyzer, makeDisassembler(A),
                         makeWindowDisassembler(A),
                         UseDecoder ? makeWindowDecoder(A)
                                    : WindowDecoder());
      BitFlipper::Options Opts;
      Opts.MaxRounds = 3;
      Opts.NumThreads = Jobs;
      Flipper.run(Data.KernelCode, Opts);
      return Analyzer.database().serialize();
    };
    std::string Printed = runWith(1, false);
    EXPECT_EQ(Printed, runWith(1, true)) << archName(A);
    EXPECT_EQ(Printed, runWith(4, true)) << archName(A);
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchs, AnalyzerPerArch,
                         ::testing::ValuesIn(fullArchs()),
                         [](const ::testing::TestParamInfo<Arch> &Info) {
                           return std::string(archName(Info.param));
                         });

TEST(Analyzer, GuardFieldIsLearnedOnceGuardsVary) {
  // Feed two MOVs differing only in guard; the learned guard windows must
  // pin the true guard field (bits 18..21 on SM35).
  vendor::NvccSim Nvcc(Arch::SM35);
  vendor::KernelBuilder K("g", Arch::SM35);
  K.ins("MOV R1, R2;");
  K.ins("@P3 MOV R1, R2;");
  K.ins("@!P1 MOV R1, R2;");
  K.exit();
  Expected<vendor::CompiledKernel> Compiled = Nvcc.compileKernel(K);
  ASSERT_TRUE(Compiled.hasValue());
  Expected<std::string> Text = vendor::disassembleKernelCode(
      Arch::SM35, "g", Compiled->Section.Code);
  ASSERT_TRUE(Text.hasValue()) << Text.message();
  Expected<Listing> L =
      parseListing("code for sm_35\n" + *Text);
  ASSERT_TRUE(L.hasValue()) << L.message();

  IsaAnalyzer Analyzer(Arch::SM35);
  ASSERT_FALSE(Analyzer.analyzeListing(*L));
  const OperationRec *Mov = Analyzer.database().lookup("MOV/rr");
  ASSERT_NE(Mov, nullptr);
  auto Windows = Mov->Guard.windows(InterpKind::Plain);
  bool Found = false;
  for (auto [B, S] : Windows)
    Found |= (B == 18 && S >= 4);
  EXPECT_TRUE(Found) << "guard field not located";
}

TEST(Analyzer, UnknownModifierIsAnAssemblyError) {
  SuiteData Data = makeSuiteData(Arch::SM35);
  IsaAnalyzer Analyzer(Arch::SM35);
  ASSERT_FALSE(Analyzer.analyzeListing(Data.L));

  auto Inst = sass::parseInstruction("IADD.BOGUS R1, R2, R3;");
  ASSERT_TRUE(Inst.hasValue());
  Expected<BitString> Word =
      asmgen::assembleInstruction(Analyzer.database(), *Inst, 0x8);
  ASSERT_FALSE(Word.hasValue());
  EXPECT_NE(Word.message().find("BOGUS"), std::string::npos);
}

TEST(Analyzer, UnknownOperationIsAnAssemblyError) {
  IsaAnalyzer Analyzer(Arch::SM35);
  auto Inst = sass::parseInstruction("FROB R1, R2;");
  ASSERT_TRUE(Inst.hasValue());
  EXPECT_FALSE(
      asmgen::assembleInstruction(Analyzer.database(), *Inst, 0).hasValue());
}

TEST(Analyzer, DeserializeRejectsGarbage) {
  EXPECT_FALSE(EncodingDatabase::deserialize("").hasValue());
  EXPECT_FALSE(EncodingDatabase::deserialize("bogus header\n").hasValue());
  EXPECT_FALSE(
      EncodingDatabase::deserialize("dcb-encodings 1 sm_99 64\n").hasValue());
  EXPECT_FALSE(EncodingDatabase::deserialize(
                   "dcb-encodings 1 sm_35 64\nopcode - 00 00 1\n")
                   .hasValue());
}

TEST(Analyzer, OrderedSameTypeModifiersLearnDistinctEncodings) {
  // §III-A: "PSETP.AND.OR will apply and and then or, whereas
  // PSETP.OR.AND will do the opposite and has a different encoding" —
  // likewise the two format modifiers of cast instructions. The learned
  // assembler must reproduce both orders distinctly.
  vendor::NvccSim Nvcc(Arch::SM35);
  vendor::KernelBuilder K("ord", Arch::SM35);
  K.ins("PSETP.AND.OR P0, P1, P2, P3, P4;");
  K.ins("PSETP.OR.AND P0, P1, P2, P3, P4;");
  K.ins("PSETP.XOR.AND P0, P1, P2, P3, P4;");
  K.ins("F2F.F32.F64 R0, R2;");
  K.ins("F2F.F64.F32 R0, R2;");
  K.ins("F2F.F16.F32 R0, R2;");
  K.exit();
  Expected<vendor::CompiledKernel> Compiled = Nvcc.compileKernel(K);
  ASSERT_TRUE(Compiled.hasValue()) << Compiled.message();
  Expected<std::string> Text = vendor::disassembleKernelCode(
      Arch::SM35, "ord", Compiled->Section.Code);
  ASSERT_TRUE(Text.hasValue()) << Text.message();
  Expected<Listing> L = parseListing("code for sm_35\n" + *Text);
  ASSERT_TRUE(L.hasValue());

  IsaAnalyzer Analyzer(Arch::SM35);
  ASSERT_FALSE(Analyzer.analyzeListing(*L));

  // The PSETP record holds separate entries for each (name, occurrence).
  const OperationRec *Psetp = Analyzer.database().lookup("PSETP/ppppp");
  ASSERT_NE(Psetp, nullptr);
  EXPECT_TRUE(Psetp->Mods.count({"AND", 0}));
  EXPECT_TRUE(Psetp->Mods.count({"AND", 1}));
  EXPECT_TRUE(Psetp->Mods.count({"OR", 0}));
  EXPECT_TRUE(Psetp->Mods.count({"OR", 1}));

  // Assembling both orders produces the exact original words.
  for (const ListingInst &Pair : L->Kernels.front().Insts) {
    Expected<BitString> Word = asmgen::assembleInstruction(
        Analyzer.database(), Pair.Inst, Pair.Address);
    ASSERT_TRUE(Word.hasValue()) << Pair.AsmText << ": " << Word.message();
    EXPECT_EQ(*Word, Pair.Binary) << Pair.AsmText;
  }

  // And the two orders differ from each other.
  auto assemble = [&](const char *TextIn) {
    auto Inst = sass::parseInstruction(TextIn);
    EXPECT_TRUE(Inst.hasValue());
    auto Word = asmgen::assembleInstruction(Analyzer.database(), *Inst, 8);
    EXPECT_TRUE(Word.hasValue()) << (Word ? "" : Word.message());
    return Word.hasValue() ? *Word : BitString(64);
  };
  EXPECT_NE(assemble("PSETP.AND.OR P0, P1, P2, P3, P4;"),
            assemble("PSETP.OR.AND P0, P1, P2, P3, P4;"));
  EXPECT_NE(assemble("F2F.F32.F64 R0, R2;"),
            assemble("F2F.F64.F32 R0, R2;"));
}

TEST(Analyzer, NewOperationsDiscoveredDuringFlippingAreAnalyzed) {
  // §III-B: "Depending on which bits are changed, a new operation might be
  // generated instead; in this case, we resume bit flipping." Feed the
  // flipper a kernel with one IADD form; flips of its form-selector bits
  // occasionally decode as sibling operations which must enter the
  // database and be flipped in the next round.
  const Arch A = Arch::SM35;
  vendor::NvccSim Nvcc(A);
  vendor::KernelBuilder K("seed", A);
  K.ins("IADD R1, R2, R3;");
  K.ins("FADD R4, R5, R6;");
  K.ins("MOV R7, R8;");
  K.exit();
  Expected<vendor::CompiledKernel> Compiled = Nvcc.compileKernel(K);
  ASSERT_TRUE(Compiled.hasValue());
  Expected<std::string> Text = vendor::disassembleKernelCode(
      A, "seed", Compiled->Section.Code);
  Expected<Listing> L = parseListing("code for sm_35\n" + *Text);
  ASSERT_TRUE(L.hasValue());

  IsaAnalyzer Analyzer(A);
  ASSERT_FALSE(Analyzer.analyzeListing(*L));
  size_t Before = Analyzer.database().operations().size();

  BitFlipper Flipper(Analyzer, makeDisassembler(A));
  BitFlipper::Options Opts;
  Opts.MaxRounds = 4;
  auto Rounds = Flipper.run(
      {{"seed", Compiled->Section.Code}}, Opts);
  size_t After = Analyzer.database().operations().size();
  // Whether siblings are single-bit-reachable depends on the hidden
  // opcode numbering; when they are, they must be recorded.
  unsigned NewOps = 0;
  for (const auto &R : Rounds)
    NewOps += R.NewOperations;
  EXPECT_EQ(After, Before + NewOps);
}

//===- tests/asmgen_test.cpp - Assembler generation --------------------====//
//
// Covers Algorithm 3: the generated C++ assembler source, its equivalence
// with the in-process TableAssembler, and (as an integration test) an
// actual g++ compile-and-run of the generated code — the paper's asm2bin
// workflow.
//
//===----------------------------------------------------------------------===//

#include "analyzer/BitFlipper.h"
#include "analyzer/FrozenIndex.h"
#include "analyzer/IsaAnalyzer.h"
#include "asmgen/AssemblerGenerator.h"
#include "asmgen/TableAssembler.h"
#include "isa/Spec.h"
#include "sass/Parser.h"
#include "sass/Printer.h"
#include "support/Rng.h"

#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "vendor/SampleGen.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace dcb;
using namespace dcb::analyzer;

#ifndef DCB_SOURCE_DIR
#define DCB_SOURCE_DIR "."
#endif
#ifndef DCB_BINARY_DIR
#define DCB_BINARY_DIR "."
#endif
#ifndef DCB_CXX_FLAGS
#define DCB_CXX_FLAGS ""
#endif

namespace {

EncodingDatabase learnSuite(Arch A) {
  vendor::NvccSim Nvcc(A);
  Expected<elf::Cubin> Cubin = Nvcc.compile(workloads::buildSuite(A));
  EXPECT_TRUE(Cubin.hasValue()) << Cubin.message();
  Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
  EXPECT_TRUE(Text.hasValue()) << Text.message();
  Expected<Listing> L = parseListing(*Text);
  EXPECT_TRUE(L.hasValue()) << L.message();

  IsaAnalyzer Analyzer(A);
  EXPECT_FALSE(Analyzer.analyzeListing(*L));
  return Analyzer.database();
}

Expected<Listing> suiteListing(Arch A) {
  vendor::NvccSim Nvcc(A);
  Expected<elf::Cubin> Cubin = Nvcc.compile(workloads::buildSuite(A));
  if (!Cubin)
    return Cubin.takeError();
  Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
  if (!Text)
    return Text.takeError();
  return parseListing(*Text);
}

} // namespace

TEST(AssemblerGenerator, EmitsOneBlockPerOperation) {
  EncodingDatabase Db = learnSuite(Arch::SM35);
  std::string Source = asmgen::generateAssemblerSource(Db);

  // One dispatch comparison per decoded operation (Fig. 7's if-chains).
  for (const auto &[Key, Op] : Db.operations())
    EXPECT_NE(Source.find("if (Key == \"" + Key + "\")"), std::string::npos)
        << "missing block for " << Key;
  EXPECT_NE(Source.find("unknown operation"), std::string::npos)
      << "generated assemblers must report unexpected input (paper §III-C)";
  EXPECT_NE(Source.find("int main()"), std::string::npos);
}

TEST(AssemblerGenerator, GeneratedSourceScalesWithDatabase) {
  EncodingDatabase Small(Arch::SM35);
  std::string Empty = asmgen::generateAssemblerSource(Small);
  EncodingDatabase Db = learnSuite(Arch::SM35);
  std::string Full = asmgen::generateAssemblerSource(Db);
  EXPECT_GT(Full.size(), Empty.size() * 10);
}

// The flagship integration test: generate the assembler, compile it with
// the system compiler against the framework libraries, feed it the whole
// suite's assembly, and require byte-identical output — the paper's
// "tested on each benchmark to confirm its correctness" (§A.F).
TEST(AssemblerGenerator, GeneratedAssemblerCompilesAndReproducesSuite) {
  const Arch A = Arch::SM35;
  EncodingDatabase Db = learnSuite(A);
  std::string Source = asmgen::generateAssemblerSource(Db);

  std::string Dir = std::string(DCB_BINARY_DIR) + "/generated_asm_test";
  std::string Cmd = "mkdir -p " + Dir;
  ASSERT_EQ(std::system(Cmd.c_str()), 0);
  {
    std::ofstream Out(Dir + "/asm2bin.cpp");
    Out << Source;
  }

  // The build's own flags, so a sanitized build links its sanitized
  // libraries with the matching runtime.
  std::string Compile =
      "g++ " + std::string(DCB_CXX_FLAGS) + " -std=c++20 -O1 -I " +
      std::string(DCB_SOURCE_DIR) + "/src " +
      Dir + "/asm2bin.cpp -o " + Dir + "/asm2bin " +
      std::string(DCB_BINARY_DIR) + "/src/asmgen/libdcb_asmgen.a " +
      std::string(DCB_BINARY_DIR) + "/src/analyzer/libdcb_analyzer.a " +
      std::string(DCB_BINARY_DIR) + "/src/elf/libdcb_elf.a " +
      std::string(DCB_BINARY_DIR) + "/src/sass/libdcb_sass.a " +
      std::string(DCB_BINARY_DIR) + "/src/support/libdcb_support.a " +
      " 2> " + Dir + "/compile.log";
  ASSERT_EQ(std::system(Compile.c_str()), 0)
      << "generated assembler failed to compile; see " << Dir
      << "/compile.log";

  // Runs the compiled assembler over \p Input; returns its exit status and
  // fills its stdout and stderr lines.
  auto runGenerated = [&](const std::string &Name, const std::string &Input,
                          std::vector<std::string> &OutLines,
                          std::vector<std::string> &ErrLines) {
    {
      std::ofstream In(Dir + "/" + Name + ".sass");
      In << Input;
    }
    std::string Run = Dir + "/asm2bin < " + Dir + "/" + Name + ".sass > " +
                      Dir + "/" + Name + ".hex 2> " + Dir + "/" + Name +
                      ".log";
    int Rc = std::system(Run.c_str());
    for (auto [File, Lines] : {std::pair{".hex", &OutLines},
                               std::pair{".log", &ErrLines}}) {
      std::ifstream Stream(Dir + "/" + Name + File);
      std::string Line;
      while (std::getline(Stream, Line))
        Lines->push_back(Line);
    }
    return Rc;
  };

  // Prepare input ("<hex-address> <sass>") and the expected hex words.
  Expected<Listing> L = suiteListing(A);
  ASSERT_TRUE(L.hasValue()) << L.message();
  std::ostringstream Input;
  std::vector<std::string> ExpectedWords;
  for (const ListingKernel &Kernel : L->Kernels) {
    for (const ListingInst &Pair : Kernel.Insts) {
      Input << "0x" << std::hex << Pair.Address << std::dec << " "
            << sass::printInstruction(Pair.Inst) << "\n";
      ExpectedWords.push_back("0x" + Pair.Binary.toHex());
    }
  }

  std::vector<std::string> GotWords, Errors;
  ASSERT_EQ(runGenerated("input", Input.str(), GotWords, Errors), 0)
      << "generated assembler reported errors; see " << Dir << "/input.log";
  ASSERT_EQ(GotWords.size(), ExpectedWords.size());
  unsigned Mismatches = 0;
  for (size_t I = 0; I < GotWords.size(); ++I)
    if (GotWords[I] != ExpectedWords[I])
      ++Mismatches;
  EXPECT_EQ(Mismatches, 0u);

  // Held out: fixed-seed random instructions of every hidden form, most
  // of which the suite never showed the learner. Line by line, the
  // generated assembler must emit the in-process assembler's word, or
  // refuse where it refuses. A refused line writes nothing to stdout, so
  // a known-good suite line after each sample keeps the outputs aligned.
  const isa::ArchSpec &Spec = isa::getArchSpec(A);
  const ListingInst &Anchor = L->Kernels.front().Insts.front();
  std::ostringstream AnchorLine;
  AnchorLine << "0x" << std::hex << Anchor.Address << std::dec << " "
             << sass::printInstruction(Anchor.Inst) << "\n";
  const std::string AnchorWord = "0x" + Anchor.Binary.toHex();
  const uint64_t Pc = 0x400;
  Rng R(0x5eed);
  std::ostringstream HeldOut;
  std::vector<std::string> Samples, InProcess; // "" = refused.
  for (const isa::InstrSpec &Form : Spec.Instrs) {
    for (int Trial = 0; Trial < 3; ++Trial) {
      std::string Text = sass::printInstruction(
          vendor::randomInstruction(Spec, Form, R, Pc));
      Expected<sass::Instruction> Inst = sass::parseInstruction(Text);
      ASSERT_TRUE(Inst.hasValue()) << Text << ": " << Inst.message();
      Expected<BitString> Word = asmgen::assembleInstruction(Db, *Inst, Pc);
      Samples.push_back(Text);
      InProcess.push_back(Word ? "0x" + Word->toHex() : "");
      HeldOut << "0x" << std::hex << Pc << std::dec << " " << Text << "\n"
              << AnchorLine.str();
    }
  }

  GotWords.clear();
  Errors.clear();
  runGenerated("heldout", HeldOut.str(), GotWords, Errors);
  size_t Pos = 0;
  unsigned Emitted = 0, Refused = 0;
  auto next = [&]() { return Pos < GotWords.size() ? GotWords[Pos++] : ""; };
  for (size_t I = 0; I < Samples.size(); ++I) {
    if (InProcess[I].empty())
      ++Refused;
    else
      ++Emitted;
    std::string Got = InProcess[I].empty() ? "" : next();
    ASSERT_EQ(Got, InProcess[I]) << "sample " << I << ": " << Samples[I];
    ASSERT_EQ(next(), AnchorWord) << "after sample " << I << ": "
                                  << Samples[I];
  }
  EXPECT_EQ(Pos, GotWords.size());
  EXPECT_EQ(Errors.size(), Refused) << "see " << Dir << "/heldout.log";
  // Both outcomes occur, so both halves of the parity are exercised.
  EXPECT_GT(Emitted, 0u);
  EXPECT_GT(Refused, 0u);
}

// The generated code and the TableAssembler are two views of one database;
// they must agree bit for bit. Verified indirectly by assembling through
// both paths in-process.
TEST(AssemblerGenerator, TableAssemblerMatchesListings) {
  for (Arch A : {Arch::SM30, Arch::SM61}) {
    EncodingDatabase Db = learnSuite(A);
    Expected<Listing> L = suiteListing(A);
    ASSERT_TRUE(L.hasValue());
    for (const ListingKernel &Kernel : L->Kernels) {
      unsigned Identical = asmgen::reassembleKernel(Db, Kernel, nullptr);
      EXPECT_EQ(Identical, Kernel.Insts.size())
          << archName(A) << "/" << Kernel.Name;
    }
  }
}

namespace {

/// All instructions of a listing as batch jobs, with a few known-bad
/// instructions appended so error slots are exercised too.
std::vector<asmgen::AsmJob>
listingJobs(const Listing &L, const std::vector<sass::Instruction> &Extra) {
  std::vector<asmgen::AsmJob> Jobs;
  for (const ListingKernel &Kernel : L.Kernels)
    for (const ListingInst &Pair : Kernel.Insts)
      Jobs.push_back({&Pair.Inst, Pair.Address});
  for (const sass::Instruction &Inst : Extra)
    Jobs.push_back({&Inst, 0x40});
  return Jobs;
}

/// Instructions the database cannot assemble: unknown operation, unknown
/// modifier — their error messages must also be deterministic.
std::vector<sass::Instruction> badInstructions() {
  std::vector<sass::Instruction> Bad;
  sass::Instruction UnknownOp;
  UnknownOp.setOpcode("FROBNICATE");
  UnknownOp.Operands.push_back(sass::Operand::makeRegister(1));
  Bad.push_back(UnknownOp);
  sass::Instruction BadMod;
  BadMod.setOpcode("IADD");
  BadMod.addModifier("BOGUS");
  for (unsigned R = 1; R <= 3; ++R)
    BadMod.Operands.push_back(sass::Operand::makeRegister(R));
  Bad.push_back(BadMod);
  return Bad;
}

void expectSameResults(const std::vector<Expected<BitString>> &A,
                       const std::vector<Expected<BitString>> &B,
                       const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I < A.size(); ++I) {
    ASSERT_EQ(A[I].hasValue(), B[I].hasValue()) << What << " slot " << I;
    if (A[I].hasValue())
      EXPECT_EQ(*A[I], *B[I]) << What << " slot " << I;
    else
      EXPECT_EQ(A[I].message(), B[I].message()) << What << " slot " << I;
  }
}

} // namespace

// The tentpole determinism contract: assembleProgram output — successes and
// failure messages alike — is byte-identical for every thread count.
TEST(BatchAssembly, CrossThreadDeterminism) {
  EncodingDatabase Db = learnSuite(Arch::SM35);
  Expected<Listing> L = suiteListing(Arch::SM35);
  ASSERT_TRUE(L.hasValue());
  std::vector<sass::Instruction> Bad = badInstructions();
  std::vector<asmgen::AsmJob> Jobs = listingJobs(*L, Bad);

  BatchOptions Serial;
  Serial.NumThreads = 1;
  std::vector<Expected<BitString>> Reference =
      asmgen::assembleProgram(Db, Jobs, Serial);

  size_t Failures = 0;
  for (const Expected<BitString> &R : Reference)
    Failures += !R.hasValue();
  EXPECT_EQ(Failures, Bad.size()) << "only the injected bad jobs may fail";

  for (unsigned Lanes : {2u, 4u, 0u}) {
    BatchOptions Options;
    Options.NumThreads = Lanes;
    std::vector<Expected<BitString>> Parallel =
        asmgen::assembleProgram(Db, Jobs, Options);
    expectSameResults(Reference, Parallel, "lanes sweep");
  }
}

// assembleInstruction freezes an unfrozen database on demand, so copies
// (which never share the index) assemble like the original.
TEST(BatchAssembly, UnfrozenDatabaseFreezesOnDemand) {
  EncodingDatabase Frozen = learnSuite(Arch::SM50);
  Frozen.freeze();
  EncodingDatabase Unfrozen = Frozen; // Copies never share the index.
  ASSERT_EQ(Unfrozen.frozen(), nullptr);
  Expected<Listing> L = suiteListing(Arch::SM50);
  ASSERT_TRUE(L.hasValue());
  const std::vector<sass::Instruction> Bad = badInstructions();
  for (const asmgen::AsmJob &Job : listingJobs(*L, Bad)) {
    Expected<BitString> A =
        asmgen::assembleInstruction(Frozen, *Job.Inst, Job.Pc);
    Expected<BitString> B =
        asmgen::assembleInstruction(Unfrozen, *Job.Inst, Job.Pc);
    ASSERT_EQ(A.hasValue(), B.hasValue());
    if (A.hasValue())
      EXPECT_EQ(*A, *B);
    else
      EXPECT_EQ(A.message(), B.message());
  }
  EXPECT_NE(Unfrozen.frozen(), nullptr);
}

// An instruction holds at most sass::MaxModifiers modifiers, so text with
// 33 of them never reaches the assembler: the parser refuses it, and so
// does the listing path `dcb asm` and `dcb serve` read.
TEST(BatchAssembly, ThirtyThreeModifiersAreRefusedWhenParsed) {
  std::string Text = "IADD";
  for (unsigned I = 0; I < 33; ++I)
    Text += ".X";
  Text += " R1, R2, R3;";
  Expected<sass::Instruction> Inst = sass::parseInstruction(Text);
  ASSERT_FALSE(Inst.hasValue());
  EXPECT_EQ(Inst.message(), "sass parse error at column 17: more than 6 "
                            "modifiers in '" +
                                Text + "'");
  Expected<Listing> L = analyzer::parseListing(
      "code for sm_35\n\t\tFunction : k\n        /*0008*/ " + Text +
      " /* 0x0000000000000000 */\n");
  ASSERT_FALSE(L.hasValue());
  EXPECT_EQ(L.message(), "listing: " + Inst.message());
}

// Mutable access to the operation records must invalidate the index, and
// refreezing must pick up newly learned operations.
TEST(BatchAssembly, MutationThawsTheIndex) {
  EncodingDatabase Db = learnSuite(Arch::SM35);
  size_t NumOps =
      static_cast<const EncodingDatabase &>(Db).operations().size();
  const FrozenIndex &Idx = Db.freeze();
  EXPECT_EQ(Idx.size(), NumOps);
  Db.operations(); // Mutable access discards the index.
  EXPECT_EQ(Db.frozen(), nullptr);
  Db.freeze();
  EXPECT_NE(Db.frozen(), nullptr);
  EncodingDatabase Moved = std::move(Db);
  EXPECT_EQ(Moved.frozen(), nullptr) << "the index is not transferable";
}

#include "asmgen/GenRuntime.h"

namespace {

// A trivial generated-style entry point for driver tests.
Expected<BitString> fakeAssemble(const sass::Instruction &Inst,
                                 uint64_t Pc) {
  if (Inst.opcode() == "BAD")
    return Failure("generated assembler: unknown operation BAD/");
  BitString Word(64, Pc ^ Inst.Operands.size());
  return Word;
}

} // namespace

TEST(GenRuntime, MainDriverReadsAddressedLinesAndWritesHex) {
  std::istringstream In("# comment\n"
                        "0x8 MOV R1, R2;\n"
                        "\n"
                        "0x10 IADD R1, R2, R3;\n");
  std::ostringstream Out, Err;
  int Rc = gen::runAssemblerMain(&fakeAssemble, In, Out, Err);
  EXPECT_EQ(Rc, 0);
  EXPECT_EQ(Out.str(), "0x000000000000000a\n0x0000000000000013\n");
  EXPECT_TRUE(Err.str().empty());
}

TEST(GenRuntime, MainDriverReportsErrorsAndFails) {
  std::istringstream In("0x8 BAD R1;\n"
                        "not-an-address MOV R1, R2;\n"
                        "0x10 %%%garbage\n"
                        "justoneword\n");
  std::ostringstream Out, Err;
  int Rc = gen::runAssemblerMain(&fakeAssemble, In, Out, Err);
  EXPECT_NE(Rc, 0);
  EXPECT_TRUE(Out.str().empty());
  // One diagnostic per bad line.
  size_t Count = 0;
  std::string Text = Err.str();
  for (size_t Pos = Text.find("error:"); Pos != std::string::npos;
       Pos = Text.find("error:", Pos + 1))
    ++Count;
  EXPECT_EQ(Count, 4u);
}

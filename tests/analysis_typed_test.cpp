//===- tests/analysis_typed_test.cpp - Typed-IR checker tests -------------===//
//
// Covers the type-inference pass and the TYP/MEM/RAC checker families:
// one golden kernel per rule id, lattice/solver properties, the
// VM-validation contract — on the workload suite, a seeded fuzz batch and
// one kernel per hand-written transfer case, every VM-observed OOB fault
// and every VM-observed unordered shared access must be covered by a
// MEM/RAC finding (no false negatives) — and the cross-commit pin of
// tests/analysis_facts.golden.
//
//===----------------------------------------------------------------------===//

#include "AnalysisFacts.h"

#include "analysis/Findings.h"
#include "analysis/RegModel.h"
#include "analysis/TypeInference.h"
#include "analysis/TypedCheckers.h"

#include "ir/Builder.h"
#include "sass/Parser.h"
#include "sass/Printer.h"
#include "support/FileIo.h"
#include "support/Rng.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "vendor/SampleGen.h"
#include "vm/Differ.h"

#include <gtest/gtest.h>

#include <sstream>

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

/// Hand-assembles a kernel with the SCHI address cadence of \p A and lifts
/// it to IR (same helper shape as analysis_test).
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
  Expected<ir::Program> P = vmfacts::suiteProgram(A);
  EXPECT_TRUE(P.hasValue()) << P.message();
  return P.takeValue();
}

} // namespace

// --- Type lattice ---------------------------------------------------------

TEST(TypeLattice, JoinAndConflict) {
  EXPECT_FALSE(typeConflict(kTypeI32));
  EXPECT_FALSE(typeConflict(kTypeF32));
  EXPECT_FALSE(typeConflict(kTypeI32 | kTypePtrGlobal));
  EXPECT_TRUE(typeConflict(kTypeF32 | kTypeI32));
  EXPECT_TRUE(typeConflict(kTypeF32 | kTypeF64));
  EXPECT_TRUE(typeConflict(kTypeF32 | kTypePtrGlobal));
  EXPECT_TRUE(typeConflict(kTypePtrGlobal | kTypePtrShared));
  EXPECT_EQ(typeMaskName(kTypeI32 | kTypePtrGlobal), "i32|ptr(global)");
  EXPECT_EQ(typeMaskName(0), "unknown");
}

TEST(TypeInfer, SeedsAndPropagatesOpcodeTypes) {
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "FADD R4, R1, R2;",
                                            "MOV R6, R4;",
                                            "IADD R8, R3, R3;",
                                            "EXIT;",
                                        });
  TypeInference T = inferTypes(K);
  ASSERT_EQ(T.Out.size(), K.Blocks.size());
  EXPECT_EQ(T.Out[0][4], kTypeF32);
  EXPECT_EQ(T.Out[0][6], kTypeF32) << "MOV passes the source type through";
  EXPECT_EQ(T.Out[0][8], kTypeI32);
}

TEST(TypeInfer, FixpointIsDeterministic) {
  ir::Program P = suiteProgram(Arch::SM52);
  for (const ir::Kernel &K : P.Kernels) {
    TypeInference A = inferTypes(K);
    TypeInference B = inferTypes(K);
    EXPECT_EQ(A.Iterations, B.Iterations) << K.Name;
    EXPECT_TRUE(A.In == B.In && A.Out == B.Out) << K.Name;
  }
}

// --- TYP golden kernels ---------------------------------------------------

TEST(TypedCheckers, FloatAddressIsTyp001) {
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "FADD R4, R1, R2;",
                                            "LDG.E R0, [R4];",
                                            "EXIT;",
                                        });
  Report R = checkTypes(K);
  EXPECT_TRUE(hasRule(R, "TYP001")) << rulesOf(R);
}

TEST(TypedCheckers, WidthMismatchIsTyp002) {
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "DADD R4, R6, R8;",
                                            "FADD R2, R4, R1;",
                                            "EXIT;",
                                        });
  Report R = checkTypes(K);
  EXPECT_TRUE(hasRule(R, "TYP002")) << rulesOf(R);
}

TEST(TypedCheckers, JoinConflictDereferencedIsTyp003) {
  // Diamond: one side defines R4 as f32, the other as i32; the join
  // block dereferences the merged (conflicting) register.
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "@P0 BRA 0x28;",    // BB0
                                            "FADD R4, R1, R2;", // BB1
                                            "BRA 0x30;",        // BB1
                                            "IADD R4, R3, R3;", // BB2
                                            "LDG.E R0, [R4];",  // BB3
                                            "EXIT;",            // BB3
                                        });
  ASSERT_EQ(K.Blocks.size(), 4u);
  Report R = checkTypes(K);
  EXPECT_TRUE(hasRule(R, "TYP003")) << rulesOf(R);
  EXPECT_FALSE(hasRule(R, "TYP001")) << "conflict outranks pure-float";
}

TEST(TypedCheckers, IntOpOnFloatIsTyp004) {
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "FADD R4, R1, R2;",
                                            "IADD R0, R4, R3;",
                                            "EXIT;",
                                        });
  Report R = checkTypes(K);
  EXPECT_TRUE(hasRule(R, "TYP004")) << rulesOf(R);
}

TEST(TypedCheckers, CleanIntKernelHasNoTypFindings) {
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "S2R R0, SR_TID.X;",
                                            "SHL R2, R0, 0x2;",
                                            "IADD R4, R2, 0x10;",
                                            "EXIT;",
                                        });
  Report R = checkTypes(K);
  EXPECT_TRUE(R.Findings.empty()) << R.toText();
}

// --- MEM golden kernels ---------------------------------------------------

TEST(TypedCheckers, ConstantOobIsMem001) {
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "MOV R2, RZ;",
                                            "STG.E [R2+0x20000], R3;",
                                            "EXIT;",
                                        });
  Report R = checkBounds(K);
  EXPECT_TRUE(hasRule(R, "MEM001")) << rulesOf(R);
}

TEST(TypedCheckers, ThreadDependentOobIsMem002Error) {
  // addr = tid << 12: in bounds for tid < 16, out of the 64 KiB global
  // region for the rest of the declared 32-thread launch.
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "S2R R0, SR_TID.X;",
                                            "SHL R2, R0, 0xc;",
                                            "STG.E [R2], R3;",
                                            "EXIT;",
                                        });
  Report R = checkBounds(K);
  EXPECT_TRUE(hasRule(R, "MEM002")) << rulesOf(R);
  EXPECT_EQ(R.errorCount(), 1u) << R.toText();
}

TEST(TypedCheckers, UnanalyzableAddressIsMem002Warning) {
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "LDG.E R2, [R1];",
                                            "STG.E [R2], R3;",
                                            "EXIT;",
                                        });
  Report R = checkBounds(K);
  EXPECT_TRUE(hasRule(R, "MEM002")) << rulesOf(R);
  EXPECT_EQ(R.errorCount(), 0u) << "cannot prove a fault, only warn";
  EXPECT_GE(R.warningCount(), 1u);
}

TEST(TypedCheckers, MisalignedWideAccessIsMem003) {
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "LDG.64.E R4, [R1+0x4];",
                                            "EXIT;",
                                        });
  Report R = checkBounds(K);
  EXPECT_TRUE(hasRule(R, "MEM003")) << rulesOf(R);
}

TEST(TypedCheckers, SpaceConfusionIsMem004) {
  // R2 is first dereferenced as a shared address (typing it
  // ptr(shared)), then as a global one.
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "LDS R0, [R2];",
                                            "LDG.E R1, [R2];",
                                            "EXIT;",
                                        });
  Report R = checkBounds(K);
  EXPECT_TRUE(hasRule(R, "MEM004")) << rulesOf(R);
}

TEST(TypedCheckers, InBoundsTidIndexedStoreIsCleanOfErrors) {
  // addr = tid << 2: tops out at 124, comfortably inside every region.
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "S2R R0, SR_TID.X;",
                                            "SHL R2, R0, 0x2;",
                                            "STG.E [R2], R0;",
                                            "EXIT;",
                                        });
  Report R = checkBounds(K);
  EXPECT_TRUE(R.Findings.empty()) << R.toText();
}

// --- RAC golden kernels ---------------------------------------------------

TEST(TypedCheckers, SharedWriteWriteIsRac001) {
  // Every thread stores to shared[0] with no barrier in between.
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "STS [R1], R0;",
                                            "EXIT;",
                                        });
  Report R = checkRaces(K);
  EXPECT_TRUE(hasRule(R, "RAC001")) << rulesOf(R);
}

TEST(TypedCheckers, SharedWriteReadIsRac002) {
  // Thread 0 stores shared[0]; every other thread loads it, unordered.
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "S2R R0, SR_TID.X;",
                                            "ISETP.NE.AND P0, PT, R0, RZ, PT;",
                                            "@!P0 STS [R1], R2;",
                                            "@P0 LDS R3, [R1];",
                                            "EXIT;",
                                        });
  Report R = checkRaces(K);
  EXPECT_TRUE(hasRule(R, "RAC002")) << rulesOf(R);
  EXPECT_FALSE(hasRule(R, "RAC001")) << "only one thread ever stores";
}

TEST(TypedCheckers, UnanalyzableSharedStoreIsRac003) {
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "LDG.E R2, [R1];",
                                            "STS [R2], R3;",
                                            "EXIT;",
                                        });
  Report R = checkRaces(K);
  EXPECT_TRUE(hasRule(R, "RAC003")) << rulesOf(R);
}

TEST(TypedCheckers, BarrierOrdersWriteBeforeRead) {
  // Same write/read pair as the RAC002 kernel, but separated by
  // BAR.SYNC: the store is entry-reachable only, the load post-barrier
  // only, so they can never share a barrier interval.
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "S2R R0, SR_TID.X;",
                                            "ISETP.NE.AND P0, PT, R0, RZ, PT;",
                                            "@!P0 STS [R1], R2;",
                                            "BAR.SYNC 0x0;",
                                            "LDS R3, [R1];",
                                            "EXIT;",
                                        });
  Report R = checkRaces(K);
  EXPECT_TRUE(R.Findings.empty()) << R.toText();
}

TEST(TypedCheckers, DisjointPerThreadSlotsAreClean) {
  ir::Kernel K = buildShape(Arch::SM52, {
                                            "S2R R0, SR_TID.X;",
                                            "SHL R1, R0, 0x2;",
                                            "STS [R1], R0;",
                                            "LDS R3, [R1];",
                                            "EXIT;",
                                        });
  Report R = checkRaces(K);
  EXPECT_TRUE(R.Findings.empty()) << R.toText();
}

// --- VM validation --------------------------------------------------------
//
// The soundness contract the checkers are built around: the bounds/race
// evaluator reuses the VM's own scalar semantics, so anything the VM
// observes dynamically (an OOB fault under OobPolicy::Fault, an unordered
// shared access under the shared watch) must be covered by a MEM/RAC
// finding under the matching LaunchShape. False positives are allowed
// (and reported); false negatives are a hard failure.

namespace {

struct ValidationTally {
  unsigned Executed = 0;      ///< Kernels the VM ran (or OOB-faulted).
  unsigned VmOob = 0;         ///< Kernels with a VM-observed OOB fault.
  unsigned VmRaces = 0;       ///< Kernels with VM-observed shared conflicts.
  unsigned FalsePositives = 0; ///< MEM/RAC *errors* the VM never observed.
};

void validateKernel(const ir::Kernel &K, const vm::ExecOptions &Opts,
                    const LaunchShape &Shape, ValidationTally &Tally) {
  vm::ExecSummary S = vm::execKernel(K, /*Seed=*/1, Opts);
  const bool Oob =
      S.Failed && S.Error.find("out-of-bounds") != std::string::npos;
  if (S.Failed && !Oob)
    return; // Unsupported by the VM: nothing was observed.
  ++Tally.Executed;

  Report Bounds = checkBounds(K, Shape);
  Report Races = checkRaces(K, Shape);
  if (Oob) {
    ++Tally.VmOob;
    // The VM names the faulting instruction as "... in '<text>'"; a MEM001
    // or MEM002 elsewhere in the kernel does not cover it.
    const size_t In = S.Error.rfind(" in '");
    ASSERT_NE(In, std::string::npos) << S.Error;
    const std::string Faulting =
        S.Error.substr(In + 5, S.Error.size() - In - 6);
    bool Covered = false;
    for (const Finding &F : Bounds.Findings)
      Covered |= (F.Rule == "MEM001" || F.Rule == "MEM002") &&
                 sass::printInstruction(K.Blocks[F.Block].Insts[F.Inst].Asm) ==
                     Faulting;
    EXPECT_TRUE(Covered) << K.Name << ": VM faulted (" << S.Error
                         << ") but the bounds checker is silent there: "
                         << Bounds.toText();
  }
  if (!S.Failed && S.SharedConflicts > 0) {
    ++Tally.VmRaces;
    EXPECT_FALSE(Races.Findings.empty())
        << K.Name << ": VM observed " << S.SharedConflicts
        << " unordered shared accesses but the race checker is silent";
  }
  if (!Oob && Bounds.errorCount() > 0)
    ++Tally.FalsePositives;
  if ((S.Failed || S.SharedConflicts == 0) &&
      (hasRule(Races, "RAC001") || hasRule(Races, "RAC002")))
    ++Tally.FalsePositives;
}

} // namespace

TEST(VmValidation, SuiteFaultsAndRacesAreCovered) {
  ir::Program P = suiteProgram(Arch::SM52);
  vm::ExecOptions Opts;
  Opts.Oob = vm::OobPolicy::Fault;
  Opts.WatchShared = true;
  LaunchShape Shape; // Defaults mirror ExecOptions / vm::Memory.

  ValidationTally Tally;
  for (const ir::Kernel &K : P.Kernels)
    validateKernel(K, Opts, Shape, Tally);

  EXPECT_GT(Tally.Executed, 20u) << "suite coverage collapsed";
  EXPECT_GT(Tally.VmRaces, 0u)
      << "the suite is expected to contain at least one racy kernel";
  ::testing::Test::RecordProperty("suite_kernels_executed", Tally.Executed);
  ::testing::Test::RecordProperty("suite_vm_oob", Tally.VmOob);
  ::testing::Test::RecordProperty("suite_vm_races", Tally.VmRaces);
  ::testing::Test::RecordProperty("suite_false_positive_kernels",
                                  Tally.FalsePositives);
}

TEST(VmValidation, SeededFuzzBatchFaultsAreCovered) {
  const Arch A = Arch::SM52;
  const isa::ArchSpec &Spec = isa::getArchSpec(A);
  vendor::NvccSim Nvcc(A);
  vm::ExecOptions Opts;
  Opts.Oob = vm::OobPolicy::Fault;
  Opts.WatchShared = true;
  LaunchShape Shape;

  ValidationTally Tally;
  const unsigned NumKernels = 100;
  for (unsigned SeedIdx = 0; SeedIdx < NumKernels; ++SeedIdx) {
    Rng R(0xf00df00d + SeedIdx);
    std::vector<sass::Instruction> Program =
        vendor::randomStraightLineProgram(Spec, R, 40);
    vendor::KernelBuilder KB("fuzz" + std::to_string(SeedIdx), A);
    for (sass::Instruction &Inst : Program)
      KB.ins(Inst);
    KB.exit();

    Expected<vendor::CompiledKernel> Compiled = Nvcc.compileKernel(KB);
    ASSERT_TRUE(Compiled.hasValue()) << Compiled.message();
    Expected<std::string> Text = vendor::disassembleKernelCode(
        A, KB.name(), Compiled->Section.Code);
    ASSERT_TRUE(Text.hasValue()) << Text.message();
    Expected<analyzer::Listing> L = analyzer::parseListing(
        "code for " + std::string(archName(A)) + "\n" + *Text);
    ASSERT_TRUE(L.hasValue()) << L.message();
    Expected<ir::Program> P = ir::buildProgram(*L);
    ASSERT_TRUE(P.hasValue()) << P.message();
    for (const ir::Kernel &K : P->Kernels)
      validateKernel(K, Opts, Shape, Tally);
  }

  // Random 40-instruction programs with arbitrary memory offsets fault
  // often; if none did, the batch stopped exercising the contract.
  EXPECT_GT(Tally.VmOob, 0u) << "fuzz batch produced no OOB faults";
  ::testing::Test::RecordProperty("fuzz_kernels_executed", Tally.Executed);
  ::testing::Test::RecordProperty("fuzz_vm_oob", Tally.VmOob);
  ::testing::Test::RecordProperty("fuzz_vm_races", Tally.VmRaces);
  ::testing::Test::RecordProperty("fuzz_false_positive_kernels",
                                  Tally.FalsePositives);
}

// The transfer cases the abstract replay writes by hand rather than through
// one vm::scalar expression, each feeding a global store that faults in
// some launch contexts. Every case runs twice: R5 holds the thread id, or
// a word loaded from global memory (0..15 under vm::seededMemory), which
// the checkers see as Unknown. R0 holds the thread id in both, so the
// memory cases' own addresses stay known. 0x100 is in bounds, 0x20000 and
// the bits of any non-zero float are not.
TEST(VmValidation, HandWrittenTransferCasesAreCovered) {
  const std::vector<std::string> Inputs[] = {
      {"S2R R0, SR_TID.X;", "MOV R5, R0;"},
      {"S2R R0, SR_TID.X;", "SHL R1, R0, 0x2;", "LDG.E R5, [R1];"},
  };
  const std::vector<std::string> LaneBase = {
      "S2R R6, SR_LANEID;", "IADD R7, R5, -R6;", "SHL R2, R7, 0xc;",
      "STG.E [R2], R3;"};
  const struct {
    const char *Name;
    unsigned WarpSize;
    std::vector<std::string> Body;
  } Cases[] = {
      {"SEL", 32,
       {"MOV32I R6, 0x100;", "MOV32I R7, 0x20000;",
        "ISETP.LT.AND P0, PT, R5, 0x8, PT;", "SEL R2, R6, R7, P0;",
        "STG.E [R2], R3;"}},
      {"ISETP pair", 32,
       {"MOV32I R2, 0x100;", "ISETP.LT.AND P0, P1, R5, 0x8, PT;",
        "@P1 MOV32I R2, 0x20000;", "STG.E [R2], R3;"}},
      {"FSETP/PSETP pair", 32,
       {"MOV32I R2, 0x100;", "I2F.S32.F32 R6, R5;",
        "FSETP.LT.AND P0, PT, R6, 8.0, PT;",
        "PSETP.AND.AND P2, P3, P0, PT, PT;", "@P3 MOV32I R2, 0x20000;",
        "STG.E [R2], R3;"}},
      {"IMNMX", 32,
       {"MOV R6, RZ;", "MOV32I R7, 0x20000;",
        "ISETP.LT.AND P0, PT, R5, 0x8, PT;", "IMNMX R2, R6, R7, P0;",
        "STG.E [R2], R3;"}},
      {"FMNMX", 32,
       {"MOV R6, RZ;", "MOV32I R7, 0x3f800000;",
        "ISETP.LT.AND P0, PT, R5, 0x8, PT;", "FMNMX R2, R6, R7, P0;",
        "STG.E [R2], R3;"}},
      {"F2F and DADD pairs", 32,
       {"I2F.S32.F32 R6, R5;", "F2F.F64.F32 R8, R6;", "DADD R10, R8, R8;",
        "F2F.F32.F64 R2, R10;", "STG.E [R2], R3;"}},
      {"DFMA pair", 32,
       {"MOV32I R11, 0x100;", "I2F.S32.F32 R6, R5;", "F2F.F64.F32 R8, R6;",
        "DFMA R10, R8, R8, R8;", "STG.E [R11], R3;"}},
      {"LD.64", 32,
       {"SHL R6, R0, 0x4;", "MOV32I R9, 0x100;",
        "LDG.64.E R8, [R6+0x8000];", "STG.E [R9], R5;"}},
      {"LD.128", 32,
       {"SHL R6, R0, 0x4;", "MOV32I R11, 0x100;",
        "LDG.128.E R8, [R6+0x8000];", "STG.E [R11], R5;"}},
      {"LDC.64", 32,
       {"SHL R6, R5, 0x3;", "MOV32I R9, 0x100;",
        "LDC.64 R8, c[0x0][R6+0x48];", "STG.E [R9], R3;"}},
      {"ATOM", 32,
       {"SHL R6, R0, 0x2;", "MOV32I R2, 0x100;",
        "ATOM.ADD R2, [R6+0x8000], R5;", "STG.E [R2], R3;"}},
      {"SR_LANEID, warp 5", 5, LaneBase},
      {"SR_LANEID, warp 8", 8, LaneBase},
      {"TEX", 32,
       {"MOV32I R2, 0x100;", "TEX R2, R5, 0x0, 2D, R;", "STG.E [R2], R3;"}},
  };
  for (const auto &C : Cases)
    for (const std::vector<std::string> &In : Inputs) {
      SCOPED_TRACE(std::string(C.Name) + " after " + In.back());
      std::vector<std::string> Lines = In;
      Lines.insert(Lines.end(), C.Body.begin(), C.Body.end());
      Lines.push_back("EXIT;");
      vm::ExecOptions Opts;
      Opts.Oob = vm::OobPolicy::Fault;
      Opts.WarpSize = C.WarpSize;
      LaunchShape Shape;
      Shape.WarpSize = C.WarpSize;
      ValidationTally Tally;
      validateKernel(buildShape(Arch::SM52, Lines), Opts, Shape, Tally);
      EXPECT_EQ(Tally.VmOob, 1u) << "the VM never faulted";
    }
}

// --- Malformed operands and F2I in the abstract replay ---------------------

// A malformed instruction, which the VM rejects, defines Unknown: the
// store through its def is unanalyzable (MEM002), not a read past the
// operand list or a write to a register the instruction cannot name.
TEST(MemChecker, MalformedInstructionsDefineUnknown) {
  const struct {
    const char *Bad;
    const char *Store;
  } Cases[] = {
      {"ISETP.LT.AND P0, PT, R1, R2;", "@P0 STG.E [R1], R3;"},
      {"LD.128 R254, [R0];", "STG.E [R254], R3;"},
      {"ISETP.LT.AND R200, PT, R1, R2, PT;", "STG.E [R200], R3;"},
      {"IADD R1;", "STG.E [R1], R3;"},
  };
  for (const auto &C : Cases) {
    ir::Kernel K =
        buildShape(Arch::SM52, {"MOV R1, 0x10;", C.Bad, C.Store, "EXIT;"});
    Report R = checkBounds(K);
    ASSERT_TRUE(hasRule(R, "MEM002")) << C.Bad << ": " << rulesOf(R);
    EXPECT_EQ(R.Findings[0].Sev, Severity::Warning) << C.Bad;
  }
}

// F2I's out-of-range result is a defined value both engines compute, so the
// replay knows it exactly: a store through F2I(NaN) is a constant
// out-of-bounds access at 0x80000000.
TEST(MemChecker, NegatedInt32MinIsAKnownAddress) {
  // -R of 0x80000000 wraps to itself, in the VM and here.
  ir::Kernel K = buildShape(Arch::SM52, {"MOV32I R1, 0x80000000;",
                                         "IADD R2, -R1, RZ;",
                                         "STG.E [R2], R3;", "EXIT;"});
  Report R = checkBounds(K);
  ASSERT_TRUE(hasRule(R, "MEM001")) << rulesOf(R);
  EXPECT_NE(R.Findings[0].Message.find("0x80000000"), std::string::npos)
      << R.Findings[0].Message;
}

TEST(MemChecker, F2IOfNaNIsAKnownAddress) {
  ir::Kernel K = buildShape(Arch::SM52, {"MOV32I R1, 0x7fc00000;",
                                         "F2I.S32.F32 R2, R1;",
                                         "STG.E [R2], R3;", "EXIT;"});
  Report R = checkBounds(K);
  ASSERT_TRUE(hasRule(R, "MEM001")) << rulesOf(R);
  EXPECT_NE(R.Findings[0].Message.find("0x80000000"), std::string::npos)
      << R.Findings[0].Message;
}

// --- Pinned across commits (see AnalysisFacts.h) ---------------------------

TEST(AnalysisFacts, MatchTheGoldenHashes) {
  Expected<std::string> Golden = readFileBytes(
      std::string(DCB_SOURCE_DIR) + "/tests/analysis_facts.golden");
  ASSERT_TRUE(Golden.hasValue()) << Golden.message();
  std::istringstream In(*Golden);
  unsigned Count = 0;
  const Arch *Archs = supportedArchs(Count);
  for (unsigned I = 0; I < Count; ++I) {
    std::string Line;
    std::getline(In, Line);
    EXPECT_EQ(analysisfacts::renderAnalysisFacts(Archs[I]), Line);
  }
}

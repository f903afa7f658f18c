//===- tests/RewriteFacts.h - Rewrite-path fingerprints ----------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fingerprints what the rewrite path (lift, transform, verify, emit)
/// computes on each arch's suite, as hash64 values of text renderings:
///
///   live     every kernel's liveness with default options: live-in and
///            live-out per block, peak registers and predicates, the
///            peak's block:inst and the solver iteration count;
///   pressure every kernel's PressureReport fields;
///   orig     liveness with OriginalUsesOnly after clear-regs {9,10};
///   verify   verifyKernel's report text after clear-regs {9,10};
///   clobber  liveness with both options and verifyKernel's report text
///            after an insertBefore payload that reads registers and
///            overwrites registers and a predicate that original
///            instructions still read (so VER001 findings are pinned);
///   emit     the ir::emitProgram image of the clear-regs program with
///            the flipped database of LearnedDb.h.
///
/// One line per arch. tests/rewrite_facts.golden pins the rendering, so a
/// change to liveness, the verifier or emission that moves one fact or
/// byte fails transform_test. The header depends only on public library
/// APIs and LearnedDb.h, so the golden file can be regenerated in another
/// checkout.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_TESTS_REWRITEFACTS_H
#define DCB_TESTS_REWRITEFACTS_H

#include "LearnedDb.h"

#include "analysis/Liveness.h"
#include "ir/Builder.h"
#include "ir/Layout.h"
#include "sass/Parser.h"
#include "transform/Passes.h"
#include "transform/Registers.h"

#include <string>
#include <vector>

namespace dcb {
namespace rewritefacts {

inline std::string renderSlots(const analysis::BitSet &S) {
  std::string Out;
  S.forEach([&Out](size_t Slot) { Out += std::to_string(Slot) + ","; });
  return Out;
}

inline std::string renderLiveness(const ir::Kernel &K,
                                  const analysis::Liveness &L) {
  std::string Out = K.Name + " iter=" + std::to_string(L.Iterations) +
                    " regs=" + std::to_string(L.MaxLiveRegs) +
                    " preds=" + std::to_string(L.MaxLivePreds) +
                    " peak=" + std::to_string(L.PeakBlock) + ":" +
                    std::to_string(L.PeakInst) + "\n";
  for (size_t B = 0; B < L.LiveIn.size(); ++B)
    Out += " in=" + renderSlots(L.LiveIn[B]) +
           " out=" + renderSlots(L.LiveOut[B]) + "\n";
  return Out;
}

inline std::string renderOccupancy(const transform::Occupancy &O) {
  return std::to_string(O.ResidentWarps) + "/" +
         std::to_string(O.LimitedByRegisters) + "/" +
         std::to_string(O.LimitedByShared) + "/" +
         std::to_string(O.Fraction);
}

inline std::string renderPressure(const ir::Kernel &K,
                                  const transform::PressureReport &P) {
  return K.Name + " live=" + std::to_string(P.LiveRegs) + "+" +
         std::to_string(P.LivePreds) + " usage=" +
         std::to_string(P.UsageRegs) + " alloc=" +
         std::to_string(P.AllocRegs) + " occ=" + renderOccupancy(P.LiveOcc) +
         " " + renderOccupancy(P.UsageOcc) + "\n";
}

/// Every third original instruction gets a payload that reads R0, then
/// overwrites R0 (guarded), the R4:R5 pair and P0: clobbers wherever an
/// original instruction still reads them, and the payload's own read of
/// R0 must not vouch for it.
inline unsigned insertClobbers(ir::Kernel &K) {
  std::vector<sass::Instruction> Payload;
  for (const char *Text : {"MOV R2, R0;", "@P0 MOV R0, RZ;",
                           "LDG.E.64 R4, [R2];",
                           "ISETP.NE.AND P0, PT, R4, RZ, PT;"}) {
    Expected<sass::Instruction> Asm = sass::parseInstruction(Text);
    if (!Asm)
      return 0;
    Payload.push_back(Asm.takeValue());
  }
  unsigned Seen = 0;
  return transform::insertBefore(
      K,
      [&Seen](const ir::Inst &I) {
        return !I.isInserted() && Seen++ % 3 == 0;
      },
      Payload);
}

/// "sm_35 live=... pressure=... orig=... verify=... clobber=... emit=...",
/// or "sm_35 error: ..." when a pipeline step fails.
inline std::string renderRewriteFacts(Arch A) {
  const std::string Name = archName(A);
  vendor::NvccSim Nvcc(A);
  Expected<elf::Cubin> Cubin = Nvcc.compile(workloads::buildSuite(A));
  if (!Cubin)
    return Name + " error: " + Cubin.message();
  Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
  if (!Text)
    return Name + " error: " + Text.message();
  Expected<analyzer::Listing> L = analyzer::parseListing(*Text);
  if (!L)
    return Name + " error: " + L.message();
  Expected<ir::Program> Lifted = ir::buildProgram(*L);
  if (!Lifted)
    return Name + " error: " + Lifted.message();

  std::string Live, Pressure;
  for (const ir::Kernel &K : Lifted->Kernels) {
    analysis::Liveness Facts = analysis::computeLiveness(K);
    Live += renderLiveness(K, Facts);
    Pressure += renderPressure(K, transform::pressureReport(K, Facts));
  }

  analysis::LivenessOptions OriginalOnly;
  OriginalOnly.OriginalUsesOnly = true;
  ir::Program Cleared = *Lifted;
  ir::Program Clobbered = *Lifted;
  std::string Orig, Verify, Clobber;
  for (ir::Kernel &K : Cleared.Kernels) {
    transform::clearRegistersBeforeExit(K, {9, 10});
    Orig += renderLiveness(K, analysis::computeLiveness(K, OriginalOnly));
    Verify += K.Name + "\n" + transform::verifyKernel(K).toText();
  }
  for (ir::Kernel &K : Clobbered.Kernels) {
    const unsigned Sites = insertClobbers(K);
    Clobber += std::to_string(Sites) + "\n" +
               renderLiveness(K, analysis::computeLiveness(K)) +
               renderLiveness(K, analysis::computeLiveness(K, OriginalOnly)) +
               transform::verifyKernel(K).toText();
  }

  analyzer::IsaAnalyzer Analyzer(A);
  if (Error E = Analyzer.analyzeListing(*L))
    return Name + " error: " + E.message();
  std::map<std::string, std::vector<uint8_t>> KernelCode;
  for (const elf::KernelSection &Kernel : Cubin->kernels())
    KernelCode[Kernel.Name] = Kernel.Code;
  analyzer::BitFlipper Flipper(Analyzer, learneddb::makeDisassembler(A),
                               learneddb::makeWindowDisassembler(A),
                               learneddb::makeWindowDecoder(A));
  Flipper.run(KernelCode);
  Expected<std::vector<uint8_t>> Image =
      ir::emitProgram(Analyzer.database(), Cleared, Cubin->serialize());
  using learneddb::hex64;
  const std::string Emit =
      Image ? hex64(hash64(std::string_view(
                  reinterpret_cast<const char *>(Image->data()),
                  Image->size())))
            : "error: " + Image.message();
  return Name + " live=" + hex64(hash64(Live)) +
         " pressure=" + hex64(hash64(Pressure)) +
         " orig=" + hex64(hash64(Orig)) + " verify=" + hex64(hash64(Verify)) +
         " clobber=" + hex64(hash64(Clobber)) + " emit=" + Emit;
}

} // namespace rewritefacts
} // namespace dcb

#endif // DCB_TESTS_REWRITEFACTS_H

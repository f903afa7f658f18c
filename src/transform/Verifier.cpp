//===- transform/Verifier.cpp - Post-transform binary verifier ------------===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The safety net under every transformation pipeline. Passes edit decoded
/// binaries without the compiler's knowledge, so each pipeline run ends in
/// a verification sweep built on src/analysis:
///
///   CFG001  broken successor / reconvergence edges   (analysis::validateCfg)
///   HAZ*    SCHI control-word violations             (analysis::checkHazards)
///   VER001  inserted instruction clobbers a register an original
///           instruction still reads (liveness restricted to original uses)
///   VER002  liveness pressure disagrees with the register-usage footprint
///           or the occupancy model (peak live > referenced count, or
///           occupancy at the live peak worse than at the full footprint)
///
//===----------------------------------------------------------------------===//

#include "transform/Passes.h"

#include "analysis/Cfg.h"
#include "analysis/Hazards.h"
#include "analysis/Liveness.h"
#include "analysis/RegModel.h"
#include "transform/Occupancy.h"
#include "transform/Registers.h"
#include "support/Telemetry.h"

#include <string>
#include <vector>

using namespace dcb;
using namespace dcb::transform;
using analysis::Finding;
using analysis::Report;

namespace {

struct Metrics {
  telemetry::Counter &Runs = telemetry::counter("analysis.verify.runs");
  telemetry::Counter &Found = telemetry::counter("analysis.verify.findings");
};
Metrics &metrics() {
  static Metrics M;
  return M;
}

/// VER001: walks every block that holds inserted code backward with
/// liveness restricted to original uses and flags inserted instructions
/// whose definitions overwrite a slot that is still live-after. Defs count
/// regardless of guard — a predicated clobber is still a clobber on the
/// taken path.
void checkClobbers(const ir::Kernel &K, const analysis::RegTable &T,
                   const analysis::Cfg &C, Report &R) {
  analysis::LivenessOptions LO;
  LO.OriginalUsesOnly = true;
  analysis::Liveness L = analysis::computeLiveness(K, T, C, LO);

  for (size_t B = 0; B < T.numBlocks(); ++B) {
    const size_t Begin = T.blockBegin(B), End = T.blockBegin(B + 1);
    bool HasInserted = false;
    for (size_t I = Begin; I < End; ++I)
      HasInserted |= T.row(I).Inserted;
    if (!HasInserted)
      continue;
    analysis::BitSet Live = L.LiveOut[B];
    for (size_t I = End; I-- > Begin;) {
      const analysis::RegTable::Row &Row = T.row(I);
      if (Row.Inserted) {
        for (analysis::RegTable::Group G : T.defs(Row)) {
          for (unsigned S = G.Slot; S < G.Slot + G.Width; ++S) {
            if (!Live.test(S))
              continue;
            const int InstIdx = static_cast<int>(I - Begin);
            Finding F;
            F.Rule = "VER001";
            F.Kernel = K.Name;
            F.Block = static_cast<int>(B);
            F.Inst = InstIdx;
            F.Object = std::string(K.Blocks[B].Insts[InstIdx].Asm.opcode());
            F.Message = "inserted instruction overwrites " +
                        analysis::slotName(S) +
                        ", which an original instruction still reads";
            R.add(std::move(F));
            break; // One finding per def operand is enough.
          }
        }
      }
      T.stepBack(I, !Row.Inserted, Live);
    }
  }
}

/// VER002: the cross-check between two independent register models.
void checkPressure(const ir::Kernel &K, const analysis::Liveness &L,
                   Report &R) {
  PressureReport P = pressureReport(K, L);
  auto add = [&](std::string Msg) {
    Finding F;
    F.Rule = "VER002";
    F.Kernel = K.Name;
    F.Object = "pressure";
    F.Message = std::move(Msg);
    R.add(std::move(F));
  };
  if (P.LiveRegs > P.UsageRegs)
    add("peak live registers (" + std::to_string(P.LiveRegs) +
        ") exceed the number of referenced registers (" +
        std::to_string(P.UsageRegs) + ")");
  if (P.LiveOcc.ResidentWarps < P.UsageOcc.ResidentWarps)
    add("occupancy at the live peak (" +
        std::to_string(P.LiveOcc.ResidentWarps) +
        " warps) is worse than at the full footprint (" +
        std::to_string(P.UsageOcc.ResidentWarps) +
        " warps); the occupancy model is inconsistent");
}

} // namespace

PressureReport transform::pressureReport(const ir::Kernel &K,
                                         const analysis::Liveness &L) {
  constexpr unsigned ThreadsPerBlock = 256;
  PressureReport P;
  P.LiveRegs = L.MaxLiveRegs;
  P.LivePreds = L.MaxLivePreds;

  RegisterUsage Usage = analyzeRegisterUsage(K);
  P.UsageRegs = Usage.liveCount();
  P.AllocRegs = Usage.MaxRegister >= 0
                    ? static_cast<unsigned>(Usage.MaxRegister) + 1
                    : 0;

  P.LiveOcc = computeOccupancy(K.A, P.LiveRegs, K.SharedMemBytes,
                               ThreadsPerBlock);
  P.UsageOcc = computeOccupancy(K.A, P.AllocRegs, K.SharedMemBytes,
                                ThreadsPerBlock);
  return P;
}

Report transform::verifyKernel(const ir::Kernel &K) {
  DCB_SPAN("analysis.verify");
  metrics().Runs.add(1);

  Report R;
  R.append(analysis::validateCfg(K));
  R.append(analysis::checkHazards(K));
  // One register table and one Cfg serve both liveness solves: the
  // clobber check's (only when something was inserted) and the pressure
  // check's.
  const analysis::RegTable T(K);
  const analysis::Cfg C = analysis::Cfg::build(K);
  if (T.hasInserted())
    checkClobbers(K, T, C, R);
  checkPressure(K, analysis::computeLiveness(K, T, C), R);

  metrics().Found.add(R.Findings.size());
  return R;
}

PipelineResult transform::runPasses(ir::Kernel &K,
                                    const std::vector<Pass> &Passes,
                                    const PipelineOptions &Opts) {
  DCB_SPAN("transform.pipeline");
  for (const Pass &P : Passes)
    if (P.Fn)
      P.Fn(K);
  PipelineResult Result;
  if (Opts.Verify) {
    Result.Verified = true;
    Result.Verification = verifyKernel(K);
  }
  return Result;
}

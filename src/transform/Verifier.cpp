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
///
/// VER001 runs only on a kernel that holds inserted code: one RegTable, one
/// Cfg and one liveness solve. There is no pressure check (the retired
/// VER002): liveness and register usage read one RegTable, so peak live
/// cannot exceed the footprint; transform_test checks that invariant.
///
//===----------------------------------------------------------------------===//

#include "transform/Passes.h"

#include "analysis/Cfg.h"
#include "analysis/Hazards.h"
#include "analysis/Liveness.h"
#include "analysis/RegModel.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <string>

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
void checkClobbers(const ir::Kernel &K, Report &R) {
  const analysis::RegTable T(K);
  analysis::LivenessOptions LO;
  LO.OriginalUsesOnly = true;
  analysis::Liveness L =
      analysis::computeLiveness(K, T, analysis::Cfg::build(K), LO);

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

} // namespace

Report transform::verifyKernel(const ir::Kernel &K) {
  DCB_SPAN("analysis.verify");
  metrics().Runs.add(1);

  Report R;
  R.append(analysis::validateCfg(K));
  R.append(analysis::checkHazards(K));
  const bool HasInserted =
      std::any_of(K.Blocks.begin(), K.Blocks.end(), [](const ir::Block &B) {
        return std::any_of(B.Insts.begin(), B.Insts.end(),
                           [](const ir::Inst &I) { return I.isInserted(); });
      });
  if (HasInserted)
    checkClobbers(K, R);

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

//===- transform/Passes.h - Binary transformation passes --------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The applications of §V, implemented as IR passes:
///
///  - LocalToShared (Fig. 11): scan for local-memory instructions, change
///    each one's memory type and adjust addresses.
///  - ClearRegistersBeforeExit (Fig. 12): instrument the code to clear
///    registers before leaving the kernel (the memory-protection use case
///    of the GPU taint-tracking work the paper supported).
///  - A generic instrumenter (insert before/after matching instructions)
///    with automatic conservative re-scheduling, because inserted code
///    invalidates the compiler's original stall/barrier decisions.
///
/// ClearRegistersBeforeExit, insertBefore and insertAfter share one
/// insertion routine: it leaves a block without a site untouched and
/// builds every other block once, at its final size.
///
/// All passes are architecture-independent: they edit the IR and rely on
/// the learned assemblers to re-encode for whichever generation the kernel
/// came from.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_TRANSFORM_PASSES_H
#define DCB_TRANSFORM_PASSES_H

#include "analysis/Findings.h"
#include "ir/Ir.h"
#include "support/Errors.h"

#include <functional>
#include <string>
#include <vector>

namespace dcb {
namespace transform {

/// Fig. 11: converts local-memory accesses (LDL/STL) to shared-memory
/// accesses (LDS/STS), rebasing each address by \p SharedBase bytes and
/// growing the kernel's shared-memory requirement by \p LocalBytesPerThread.
/// Returns the number of converted instructions.
unsigned convertLocalToShared(ir::Kernel &K, int64_t SharedBase,
                              uint32_t LocalBytesPerThread);

/// Fig. 12: inserts "MOV Rx, RZ" for each register in \p Regs before every
/// EXIT (inheriting the EXIT's guard). Returns the number of instrumented
/// exits.
unsigned clearRegistersBeforeExit(ir::Kernel &K,
                                  const std::vector<unsigned> &Regs);

/// Matches instructions for the generic instrumenter.
using InstPredicate = std::function<bool(const ir::Inst &)>;

/// Inserts \p Payload before every instruction matching \p Pred. Returns
/// the number of insertion sites.
unsigned insertBefore(ir::Kernel &K, const InstPredicate &Pred,
                      const std::vector<sass::Instruction> &Payload);

/// Inserts \p Payload after every matching instruction, but never beyond a
/// block terminator: a matching terminator (BRA, EXIT, ...) gets the
/// payload immediately before it, where it runs on every path out of the
/// block. Returns the number of insertion sites.
unsigned insertAfter(ir::Kernel &K, const InstPredicate &Pred,
                     const std::vector<sass::Instruction> &Payload);

/// Recomputes every instruction's control info with a conservative public
/// latency model (framework knowledge, not the hidden vendor tables):
/// fixed-latency results are covered by stalls, variable-latency
/// instructions set scoreboard barriers that the next instruction drains.
/// Sound but slower than compiler scheduling — the price of editing code
/// without the vendor's latency tables.
void recomputeControlInfo(ir::Kernel &K);

// --- Post-transform verification -----------------------------------------
//
// Transforms used to be trusted blindly; these checks make a broken edit
// loud before it reaches the assembler. Built on src/analysis: CFG
// validation (CFG001), SCHI hazard checking (HAZ*) and an inserted-code
// clobber check against liveness (VER001). VER002, the pressure cross-check,
// is retired: it compared two readings of one register model.

/// Runs every check over \p K. VER001 runs only when \p K holds inserted
/// code, on one liveness solve restricted to original uses, so
/// instrumentation payloads may feed their own scratch registers freely. An
/// empty (clean) report means the kernel is structurally sound under the
/// framework's public model.
analysis::Report verifyKernel(const ir::Kernel &K);

/// One named transformation in a pipeline.
struct Pass {
  std::string Name;
  std::function<void(ir::Kernel &)> Fn;
};

struct PipelineOptions {
  /// Verify after the pipeline runs. On by default: every transform
  /// pipeline must produce hazard-clean IR that clobbers no live register.
  bool Verify = true;
};

struct PipelineResult {
  analysis::Report Verification;
  bool Verified = false; ///< False when PipelineOptions::Verify was off.

  /// True when verification ran clean (or was disabled).
  bool ok() const { return Verification.clean(); }
};

/// Runs \p Passes over \p K in order, then the post-transform verifier.
/// The kernel is mutated in place either way; callers must treat a
/// non-ok() result as a failed transformation.
PipelineResult runPasses(ir::Kernel &K, const std::vector<Pass> &Passes,
                         const PipelineOptions &Opts = {});

} // namespace transform
} // namespace dcb

#endif // DCB_TRANSFORM_PASSES_H

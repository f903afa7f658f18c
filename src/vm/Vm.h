//===- vm/Vm.h - SASS simulator ---------------------------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A SASS simulator used to check that transformed binaries are
/// functionally equivalent to their originals — the role a real GPU plays
/// in the paper's workflow ("tested on each benchmark to confirm its
/// correctness"). See docs/VM.md.
///
/// One engine, RefVm, runs every launch. It classifies each instruction
/// once per launch and evaluates operands in their generic sass::Operand
/// form, independently of the MEM/RAC checkers' abstract transfer
/// (analysis/TypedCheckers.cpp), so the checkers are tested against it.
///
/// Warps execute in lockstep with per-warp divergence stacks; BAR.SYNC is
/// a real intra-block barrier at warp granularity, and VOTE / SHFL operate
/// across the warp's issue mask. A grid's blocks run one after another on
/// one block state; each starts from the launch memory image, and the
/// bytes each block writes merge back by block index.
///
/// Remaining simplifications: warps inside a block run to the next
/// barrier in index order (no interleaving finer than a barrier), ATOM
/// touches global memory only, TEX returns a deterministic hash, and
/// kernels launch over the X dimension only (SR_TID.Y etc. read zero).
///
//===----------------------------------------------------------------------===//

#ifndef DCB_VM_VM_H
#define DCB_VM_VM_H

#include "ir/Ir.h"
#include "support/Errors.h"
#include "vm/MemModel.h"

#include <cstdint>
#include <vector>

namespace dcb {
namespace vm {

/// One launch. Block b sees CTAID.X == b, and every thread gets a 4 KiB
/// local arena.
struct LaunchConfig {
  unsigned NumThreads = 8; ///< Threads per block.
  unsigned MaxStepsPerThread = 200000;
  unsigned NumBlocks = 1;
  unsigned WarpSize = 32;            ///< 1..32 lanes per warp.
  OobPolicy Oob = OobPolicy::Wrap;   ///< Out-of-region access policy.
  bool WatchShared = false; ///< Track unordered shared-memory accesses
                            ///< (GridResult::SharedConflicts).
};

/// Final per-thread register state, exposed so instrumentation effects
/// (e.g. cleared registers, Fig. 12) can be asserted.
struct ThreadResult {
  std::vector<uint32_t> Regs; ///< 256 entries; RZ excluded semantics.
  std::vector<bool> Preds;    ///< 7 entries.
  uint64_t Steps = 0;
};

/// Everything one grid run produced. Threads are block-major: block b's
/// thread t lands at b * NumThreads + t.
struct GridResult {
  std::vector<ThreadResult> Threads;
  uint64_t Issues = 0;    ///< Warp-issued instructions.
  uint64_t LaneSteps = 0; ///< Per-lane executed instructions.
  uint64_t MemWraps = 0;  ///< Accesses that wrapped (OobPolicy::Wrap).
  uint64_t Barriers = 0;  ///< Warp arrivals at BAR.SYNC.
  uint64_t SharedConflicts = 0; ///< Unordered shared accesses (two
                                ///< threads, same byte, same barrier
                                ///< epoch, at least one store). Counted
                                ///< only when LaunchConfig::WatchShared.
};

/// The VM. Stateless between launches.
class RefVm {
public:
  /// Runs \p K over \p Mem. On success \p Mem holds the merged global
  /// image and the last block's shared arena; a failing launch (a shape
  /// beyond the caps, or the first block that fails) leaves it untouched.
  Expected<GridResult> run(const ir::Kernel &K, Memory &Mem,
                           const LaunchConfig &Config);
};

} // namespace vm
} // namespace dcb

#endif // DCB_VM_VM_H

//===- vm/Vm.h - Two-tier SASS simulator ------------------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A SASS simulator used to check that transformed binaries are
/// functionally equivalent to their originals — the role a real GPU plays
/// in the paper's workflow ("tested on each benchmark to confirm its
/// correctness"). Two tiers share one semantic contract (docs/VM.md):
///
///  - RefVm, the oracle: re-derives every instruction's classification
///    from its opcode/modifier strings on each issued step and walks the
///    generic operand representation. Slow on purpose; it is the
///    reference the fast tier is differentially tested against.
///
///  - GridVm, the fast tier: predecodes each kernel once into packed
///    records with resolved constant-bank pointers, executes them with the
///    transfer functions it shares with the abstract checkers
///    (vm/Semantics.h) — results are bit-identical to RefVm.
///
/// Both tiers run a grid's blocks one after another through the same loop
/// and merge them by block index (vm/Dispatch.h).
///
/// Both tiers execute warps in lockstep with per-warp divergence stacks;
/// BAR.SYNC is a real intra-block barrier at warp granularity, and VOTE /
/// SHFL operate across the warp's issue mask.
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

struct VmStats; // Dispatch.h

struct LaunchConfig {
  unsigned NumThreads = 8; ///< Threads per block.
  unsigned BlockId = 0;    ///< CTAID.X of the first block.
  unsigned MaxStepsPerThread = 200000;
  size_t LocalSizePerThread = 1 << 12;
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

/// The reference oracle. Stateless; run() re-derives everything from the
/// kernel text on every step.
class RefVm {
public:
  Expected<GridResult> run(const ir::Kernel &K, Memory &Mem,
                           const LaunchConfig &Config);
};

/// The predecoded tier. Bit-identical to RefVm for every kernel and
/// launch.
class GridVm {
public:
  Expected<GridResult> run(const ir::Kernel &K, Memory &Mem,
                           const LaunchConfig &Config);
};

} // namespace vm
} // namespace dcb

#endif // DCB_VM_VM_H

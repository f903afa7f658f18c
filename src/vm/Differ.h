//===- vm/Differ.h - Differential harness -----------------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The randomized differential harness behind `dcb exec` and
/// `dcb diffexec`: seeded memory images shaped for the synthetic suite,
/// single-kernel execution summaries with state checksums, and
/// program-vs-program comparison on final memory (the paper's "tested on
/// each benchmark to confirm its correctness" step, automated).
///
/// Kernels the VM cannot execute (e.g. the deliberate indirect branch in
/// `reduction`) are *skipped* only when both binaries fail with the
/// identical message — a transformed binary that starts failing, stops
/// failing, or fails differently is a mismatch.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_VM_DIFFER_H
#define DCB_VM_DIFFER_H

#include "ir/Ir.h"
#include "vm/Vm.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dcb {
namespace vm {

/// Launch shape and comparison policy for exec/diffexec.
struct ExecOptions {
  unsigned NumThreads = 32; ///< Threads per block.
  unsigned NumBlocks = 2;
  unsigned WarpSize = 32;
  unsigned Seeds = 5;      ///< Randomized inputs per kernel (diffexec).
  uint64_t FirstSeed = 1;
  bool CompareRegs = false; ///< diffexec: also compare final registers.
  OobPolicy Oob = OobPolicy::Wrap;
  bool WatchShared = false; ///< Track unordered shared accesses
                            ///< (ExecSummary::SharedConflicts).
};

/// Builds the deterministic input image for \p Seed: global memory holding
/// small integers in the low half and small floats in the high half,
/// float-valued shared memory, and constant bank 0 laid out the way the
/// suite's kernels expect (pointer slots, small loop bounds, NTID at 0x28).
/// Identical for identical (Seed, NumThreads) — the property diffexec
/// relies on.
Memory seededMemory(uint64_t Seed, unsigned NumThreads);

/// One kernel execution, reduced to comparable numbers.
struct ExecSummary {
  std::string Kernel;
  bool Failed = false;
  std::string Error;      ///< VM error message when Failed.
  uint64_t Issues = 0;
  uint64_t LaneSteps = 0;
  uint64_t MemWraps = 0;
  uint64_t Barriers = 0;
  uint64_t SharedConflicts = 0; ///< Only when ExecOptions::WatchShared.
  uint64_t GlobalCrc = 0; ///< FNV-1a of final global memory.
  uint64_t SharedCrc = 0; ///< FNV-1a of final shared memory.
  uint64_t RegsCrc = 0;   ///< FNV-1a of all final registers + predicates.
};

/// Runs \p K at the launch shape \p Opts gives over seededMemory(\p Seed).
ExecSummary execKernel(const ir::Kernel &K, uint64_t Seed,
                       const ExecOptions &Opts);

/// Outcome of one kernel-pair comparison.
enum class DiffVerdict { Match, Skipped, Mismatch };

struct KernelDiff {
  std::string Kernel;
  DiffVerdict Verdict = DiffVerdict::Match;
  std::string Detail; ///< Human-readable reason for Skipped/Mismatch.
};

struct DiffResult {
  std::vector<KernelDiff> Kernels;
  unsigned Matched = 0, Skipped = 0, Mismatched = 0;

  bool clean() const { return Mismatched == 0; }
};

/// Runs every kernel of \p Orig and its same-named counterpart in
/// \p Transformed over \p Opts.Seeds randomized inputs each and compares
/// final global/shared memory (and registers when Opts.CompareRegs).
/// Kernels present in only one program are mismatches.
DiffResult diffPrograms(const ir::Program &Orig,
                        const ir::Program &Transformed,
                        const ExecOptions &Opts);

} // namespace vm
} // namespace dcb

#endif // DCB_VM_DIFFER_H

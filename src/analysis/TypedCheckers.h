//===- analysis/TypedCheckers.h - Type/bounds/race checkers -----*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three checker families spending the typed facts of TypeInference.h and
/// a per-launch-context value analysis, GPUVerify-style but over our own
/// IR and validated by our own VM (docs/ANALYSIS.md has the catalog):
///
///   TYP001 float-typed register dereferenced as an address      (error)
///   TYP002 float width mismatch across def and use              (warning)
///   TYP003 conflicting types merged at a join, then dereferenced (error)
///   TYP004 integer op consuming a float-typed register          (warning)
///
///   MEM001 constant address out of region bounds                (error)
///   MEM002 launch-dependent address out of bounds for the
///          declared shape (error) / address not statically
///          analyzable, in-bounds unprovable (warning)
///   MEM003 misaligned wide (64/128-bit) access                  (warning)
///   MEM004 pointer-typed register dereferenced in a different
///          space than it points to                              (error)
///
///   RAC001 unordered shared-memory write/write                  (error)
///   RAC002 unordered shared-memory write/read                   (error)
///   RAC003 shared access in a racy interval that cannot be
///          statically analyzed (conservative cover)             (warning)
///
/// The bounds/race checkers evaluate each register's value per launch
/// context (thread id x block id over the declared shape) by abstract
/// interpretation of the *same* semantics the VM executes — every scalar
/// expression goes through `vm::scalar`, classification through
/// `vm::predecode` — so a value the analysis claims to know is exactly
/// the value the VM computes. Anything not exactly modeled degrades to
/// "unknown", which surfaces as the conservative MEM002/RAC003 warnings:
/// on any corpus, a VM-observed OOB fault or unordered shared access is
/// covered by a MEM/RAC finding (the validation test enforces this).
///
/// Race detection uses the two-thread abstraction over *barrier
/// intervals*: a second dataflow partitions each kernel's CFG into
/// segments separated by unguarded BAR.SYNC, and two shared accesses are
/// potentially concurrent iff both are barrier-free reachable from the
/// entry, or both from some (not necessarily the same) barrier release
/// point — the static over-approximation of "may execute in the same
/// barrier epoch".
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ANALYSIS_TYPEDCHECKERS_H
#define DCB_ANALYSIS_TYPEDCHECKERS_H

#include "analysis/Findings.h"
#include "ir/Ir.h"
#include "support/Errors.h"

#include <cstddef>

namespace dcb {
namespace analysis {

/// The declared launch and memory shape bounds and races are judged
/// against. Defaults mirror `dcb exec` (vm::ExecOptions) and the VM's
/// default arenas (vm::Memory / vm::LaunchConfig), so findings line up
/// with what a default differential run observes.
struct LaunchShape {
  unsigned NumThreads = 32; ///< Threads per block.
  unsigned NumBlocks = 2;   ///< Blocks in the grid.
  unsigned WarpSize = 32;   ///< Lanes per warp (SR_LANEID).
  unsigned FirstBlockId = 0;
  size_t GlobalSize = 1 << 16;
  size_t SharedSize = 1 << 14;
  size_t LocalSize = 1 << 12; ///< Per-thread local arena.

  /// Launch contexts above this are not enumerated; addresses degrade to
  /// "unknown" (conservative warnings) instead of exhaustive evaluation.
  size_t MaxContexts = 4096;
};

/// Refuses a warp size outside 1..32 and an empty block or grid, the VM's
/// own launch rules: the bounds/race replay computes SR_LANEID as
/// tid % warp size. Callers that take a shape from the outside check it
/// before checkBounds/checkRaces.
Error validateLaunchShape(const LaunchShape &Shape);

/// TYP001-004 over the TypeInference facts.
Report checkTypes(const ir::Kernel &K);
Report checkTypes(const ir::Program &P);

/// MEM001-004: static bounds/alignment/space checks on every LD/ST/ATOM.
Report checkBounds(const ir::Kernel &K, const LaunchShape &Shape = {});
Report checkBounds(const ir::Program &P, const LaunchShape &Shape = {});

/// RAC001-003: two-thread race detection over shared memory.
Report checkRaces(const ir::Kernel &K, const LaunchShape &Shape = {});
Report checkRaces(const ir::Program &P, const LaunchShape &Shape = {});

} // namespace analysis
} // namespace dcb

#endif // DCB_ANALYSIS_TYPEDCHECKERS_H

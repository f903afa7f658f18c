//===- analysis/Hazards.h - SCHI scheduling-hazard checker ------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the inlined per-instruction scheduling info (`sass::CtrlInfo`,
/// Figs. 9/10) against each generation's rules. The checks encode only the
/// *published* SCHI semantics (paper §II-B/§IV-B), so transformed kernels
/// rescheduled with the framework's conservative model must pass, and so
/// must everything the vendor scheduler emits.
///
/// Rules (docs/ANALYSIS.md has the catalog):
///   HAZ001 stall count out of range for the generation
///   HAZ002 barrier / wait-mask / reuse field out of range (Maxwell+)
///   HAZ003 field foreign to the generation (barriers on Kepler, ...)
///   HAZ004 wait on a barrier no earlier instruction set (Maxwell+)
///   HAZ005 illegal dual-issue pairing (Kepler)
///   HAZ007 high stall without the required yield flag (Maxwell+)
///
/// HAZ004 follows *linear* program order (blocks in layout order), not CFG
/// paths: the hardware scoreboard is set by whichever instruction issued
/// earlier in the stream, and compilers rely on that across block
/// boundaries (e.g. waits in a loop body on barriers set before entry).
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ANALYSIS_HAZARDS_H
#define DCB_ANALYSIS_HAZARDS_H

#include "analysis/Findings.h"
#include "ir/Ir.h"

namespace dcb {
namespace analysis {

/// Checks one kernel. Architectures without SCHI info (hardware-scheduled
/// Fermi) produce an empty report.
Report checkHazards(const ir::Kernel &K);

/// Checks every kernel of a program.
Report checkHazards(const ir::Program &P);

} // namespace analysis
} // namespace dcb

#endif // DCB_ANALYSIS_HAZARDS_H

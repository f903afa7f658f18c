//===- transform/Registers.h - Register remapping ---------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register-level transformations — the occupancy-tuning / register
/// allocation application of §V ("several works are able to achieve
/// performance beyond that of what nvcc can produce" by re-allocating
/// registers at the binary level; the paper's framework powered the Orion
/// occupancy tuner).
///
/// GPU occupancy is quantized by per-thread register count, so compacting a
/// kernel's register usage into a dense prefix directly raises the number
/// of resident warps. Wide operations constrain the mapping: 64/128-bit
/// values live in aligned runs of consecutive registers (paper §IV-A: "the
/// GPU will use a range of consecutive registers"), which the remapper
/// preserves.
///
/// Usage is read from the kernel's analysis::RegTable, the one model of
/// its registers that liveness and the verifier also read, so usage,
/// pressure and compaction agree with them on every width and on the cut
/// at R255.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_TRANSFORM_REGISTERS_H
#define DCB_TRANSFORM_REGISTERS_H

#include "analysis/Liveness.h"
#include "ir/Ir.h"
#include "transform/Occupancy.h"

#include <map>
#include <vector>

namespace dcb {
namespace transform {

/// The kernel's general registers as aligned runs: each root register
/// together with the number of consecutive registers its widest use
/// covers, with overlapping runs merged.
struct RegisterUsage {
  /// One run per root (Slot = root register, Width = run length), in
  /// ascending, non-overlapping order.
  std::vector<analysis::RegTable::Group> Groups;
  /// Highest register id referenced (255-style ids; RZ excluded).
  int MaxRegister = -1;

  unsigned liveCount() const {
    unsigned N = 0;
    for (analysis::RegTable::Group G : Groups)
      N += G.Width;
    return N;
  }
};

/// Reads the general-register groups of \p K's RegTable (every operand,
/// including memory base registers and const-memory index registers, with
/// groups cut at R255), keeps the widest group per root and merges
/// overlapping groups in one ascending sweep.
RegisterUsage analyzeRegisterUsage(const ir::Kernel &K);

/// Register pressure beside the occupancy model (`dcb analyze --liveness`),
/// from the caller's default-options liveness \p L of \p K and \p K's
/// register usage, at 256 threads per block. The live set is drawn from
/// the same RegTable groups as the usage, so LiveRegs <= UsageRegs <=
/// AllocRegs and LiveOcc is never below UsageOcc.
struct PressureReport {
  unsigned LiveRegs = 0;  ///< Peak simultaneously live general registers.
  unsigned LivePreds = 0; ///< Peak simultaneously live predicates.
  unsigned UsageRegs = 0; ///< Distinct general registers referenced.
  unsigned AllocRegs = 0; ///< Highest referenced register id + 1.
  Occupancy LiveOcc;      ///< Occupancy if compacted to the live peak.
  Occupancy UsageOcc;     ///< Occupancy at the current footprint.
};
PressureReport pressureReport(const ir::Kernel &K,
                              const analysis::Liveness &L);

/// Applies an explicit register mapping (old id -> new id). Every
/// referenced register must be present in \p Mapping. Returns the number
/// of rewritten operands.
unsigned remapRegisters(ir::Kernel &K,
                        const std::map<unsigned, unsigned> &Mapping);

/// Compacts the kernel's registers into a dense, alignment-respecting
/// prefix and returns the resulting register count (the occupancy input).
/// No-op on already-dense kernels.
unsigned compactRegisters(ir::Kernel &K);

} // namespace transform
} // namespace dcb

#endif // DCB_TRANSFORM_REGISTERS_H

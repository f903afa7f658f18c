//===- ir/Flatten.h - Flat execution view of a kernel -----------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flattened, execution-oriented view of an ir::Kernel: every instruction
/// of every block laid out in one contiguous vector, with a parallel table
/// mapping block indices to flat positions so control-flow targets resolve
/// to flat program counters in O(1). The VM executes over this shape,
/// classifying each instruction once per launch, so the flattening itself
/// lives here, next to the IR it is a view of.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_IR_FLATTEN_H
#define DCB_IR_FLATTEN_H

#include "ir/Ir.h"

#include <cstddef>
#include <vector>

namespace dcb {
namespace ir {

/// One kernel's instructions in block order. Pointers alias the source
/// kernel, which must outlive the view.
struct FlatKernel {
  std::vector<const Inst *> Insts;
  std::vector<size_t> BlockStart; ///< Blocks.size() + 1 entries; the last
                                  ///< one equals Insts.size().

  size_t size() const { return Insts.size(); }

  /// Flat program counter a branch at \p Pc resolves to, or -1 when the
  /// instruction has no static target (indirect branches stay errors in
  /// the VM, exactly as the text path reported them).
  int64_t targetPc(size_t Pc) const {
    int TargetBlock = Insts[Pc]->TargetBlock;
    if (TargetBlock < 0)
      return -1;
    return static_cast<int64_t>(BlockStart[TargetBlock]);
  }
};

/// Flattens \p K. Cheap (one pointer per instruction); callers needing the
/// view across many runs should still build it once.
FlatKernel flattenKernel(const Kernel &K);

} // namespace ir
} // namespace dcb

#endif // DCB_IR_FLATTEN_H

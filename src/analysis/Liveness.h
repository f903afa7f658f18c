//===- analysis/Liveness.h - Register liveness / def-use pass ---*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic backward may-liveness over the flat register/predicate slot
/// space of RegModel.h, solved with the Dataflow.h worklist engine:
/// per-block live-in/out sets and a per-point register-pressure sweep (the
/// peak number of simultaneously live general registers, which
/// transform::pressureReport sets beside the occupancy model).
///
/// Every per-instruction step reads a RegTable: one visitRegs call per
/// instruction, recorded once per kernel, serves GEN/KILL, the pressure
/// sweep and the verifier's clobber walk, for any number of solves.
/// transform's register usage reads the same groups.
///
/// Soundness conventions (the analysis over-approximates):
///  - guarded (predicated) definitions do not kill — the write may not
///    happen, so the incoming value may survive;
///  - multi-register groups (64/128-bit operands, double pairs) define and
///    use every covered slot.
///
/// `OriginalUsesOnly` restricts the GEN sets to uses by instructions that
/// came from the original binary (`!Inst::isInserted()`). The verifier
/// checks inserted code against *that* liveness: an inserted definition is
/// a clobber only if an original instruction still needs the value, not if
/// the instrumentation's own payload consumes it.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ANALYSIS_LIVENESS_H
#define DCB_ANALYSIS_LIVENESS_H

#include "analysis/Dataflow.h"
#include "ir/Ir.h"

#include <cstdint>
#include <span>
#include <vector>

namespace dcb {
namespace analysis {

struct LivenessOptions {
  /// GEN only from non-inserted instructions (see file comment).
  bool OriginalUsesOnly = false;
};

/// One kernel's register references in block order: per instruction, its
/// def and use slot groups (one per operand, in operand order) and whether
/// it is guarded or inserted. A value snapshot like Cfg: rebuild after any
/// mutation of the kernel's instructions.
class RegTable {
public:
  /// Slots [Slot, Slot + Width) named by one operand. Register groups
  /// that would run past R255 are cut at the end of the register file.
  struct Group {
    uint16_t Slot;
    uint16_t Width;
  };
  /// Groups [Begin, Mid) are the definitions, [Mid, End) the uses.
  struct Row {
    uint32_t Begin, Mid, End;
    bool Guarded, Inserted;
  };

  explicit RegTable(const ir::Kernel &K);

  size_t numBlocks() const { return BlockBegin.size() - 1; }
  /// Rows of block \p B are [blockBegin(B), blockBegin(B + 1)).
  size_t blockBegin(size_t B) const { return BlockBegin[B]; }
  const Row &row(size_t I) const { return Rows[I]; }
  std::span<const Group> defs(const Row &R) const {
    return {Groups.data() + R.Begin, Groups.data() + R.Mid};
  }
  std::span<const Group> uses(const Row &R) const {
    return {Groups.data() + R.Mid, Groups.data() + R.End};
  }
  /// Every row's groups, defs and uses alike.
  std::span<const Group> groups() const { return Groups; }

  /// Backward transfer of row \p I: turns the live-after set \p Live into
  /// the live-before set. Unguarded defs kill; uses gen when \p CountUses.
  void stepBack(size_t I, bool CountUses, BitSet &Live) const {
    const Row &R = Rows[I];
    if (!R.Guarded)
      for (Group G : defs(R))
        for (unsigned S = G.Slot; S < G.Slot + G.Width; ++S)
          Live.reset(S);
    if (CountUses)
      for (Group G : uses(R))
        for (unsigned S = G.Slot; S < G.Slot + G.Width; ++S)
          Live.set(S);
  }

private:
  std::vector<Group> Groups;
  std::vector<Row> Rows;
  std::vector<uint32_t> BlockBegin;
};

struct Liveness {
  std::vector<BitSet> LiveIn;  ///< Per block, kNumSlots wide.
  std::vector<BitSet> LiveOut; ///< Per block.
  unsigned Iterations = 0;     ///< Solver block visits (determinism tests).

  /// Peak number of simultaneously live general registers / predicates
  /// over every program point, and where the peak occurs.
  unsigned MaxLiveRegs = 0;
  unsigned MaxLivePreds = 0;
  int PeakBlock = -1;
  int PeakInst = -1; ///< Instruction index whose live-before is the peak.
};

/// Runs the pass. Block granularity facts are exact for the options given;
/// instruction granularity is a RegTable::stepBack walk from LiveOut.
Liveness computeLiveness(const ir::Kernel &K,
                         const LivenessOptions &Opts = {});

/// The same pass over a caller's table and Cfg of \p K, so that several
/// solves over one kernel share them.
Liveness computeLiveness(const ir::Kernel &K, const RegTable &T,
                         const Cfg &C, const LivenessOptions &Opts = {});

} // namespace analysis
} // namespace dcb

#endif // DCB_ANALYSIS_LIVENESS_H

//===- analysis/Liveness.cpp ----------------------------------------------===//

#include "analysis/Liveness.h"

#include "analysis/RegModel.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace dcb;
using namespace dcb::analysis;

namespace {

struct Metrics {
  telemetry::Counter &Kernels = telemetry::counter("analysis.liveness.kernels");
  telemetry::Counter &Visits =
      telemetry::counter("analysis.liveness.block_visits");
};
Metrics &metrics() {
  static Metrics M;
  return M;
}

} // namespace

RegTable::RegTable(const ir::Kernel &K) {
  Rows.reserve(K.instructionCount());
  BlockBegin.reserve(K.Blocks.size() + 1);
  std::vector<Group> Uses;
  for (const ir::Block &B : K.Blocks) {
    BlockBegin.push_back(static_cast<uint32_t>(Rows.size()));
    for (const ir::Inst &I : B.Insts) {
      Row R;
      R.Begin = static_cast<uint32_t>(Groups.size());
      R.Guarded = I.Asm.hasGuard();
      R.Inserted = I.isInserted();
      Uses.clear();
      visitRegs(I.Asm, [this, &Uses](int Slot, unsigned Width, bool IsDef) {
        const unsigned Limit = isRegSlot(static_cast<unsigned>(Slot))
                                   ? kNumRegSlots
                                   : kNumSlots;
        const Group G{static_cast<uint16_t>(Slot),
                      static_cast<uint16_t>(std::min<unsigned>(
                          Width, Limit - static_cast<unsigned>(Slot)))};
        (IsDef ? Groups : Uses).push_back(G);
      });
      R.Mid = static_cast<uint32_t>(Groups.size());
      Groups.insert(Groups.end(), Uses.begin(), Uses.end());
      R.End = static_cast<uint32_t>(Groups.size());
      Rows.push_back(R);
    }
  }
  BlockBegin.push_back(static_cast<uint32_t>(Rows.size()));
}

Liveness analysis::computeLiveness(const ir::Kernel &K,
                                   const LivenessOptions &Opts) {
  return computeLiveness(K, RegTable(K), Cfg::build(K), Opts);
}

Liveness analysis::computeLiveness(const ir::Kernel &K, const RegTable &T,
                                   const Cfg &C,
                                   const LivenessOptions &Opts) {
  DCB_SPAN("analysis.liveness");
  metrics().Kernels.add(1);

  const size_t N = T.numBlocks();
  Liveness L;
  L.LiveIn.assign(N, BitSet(kNumSlots));
  L.LiveOut.assign(N, BitSet(kNumSlots));
  auto countsUses = [&](const RegTable::Row &R) {
    return !Opts.OriginalUsesOnly || !R.Inserted;
  };

  // GEN is what the block's transfer leaves live with nothing live out of
  // it; KILL is every unguarded def.
  std::vector<BitSet> Gen(N, BitSet(kNumSlots));
  std::vector<BitSet> Kill(N, BitSet(kNumSlots));
  for (size_t B = 0; B < N; ++B) {
    for (size_t I = T.blockBegin(B + 1); I-- > T.blockBegin(B);) {
      const RegTable::Row &R = T.row(I);
      T.stepBack(I, countsUses(R), Gen[B]);
      if (!R.Guarded)
        for (RegTable::Group G : T.defs(R))
          for (unsigned S = G.Slot; S < G.Slot + G.Width; ++S)
            Kill[B].set(S);
    }
  }

  SolveStats Stats = solveBackwardMay(K, C, Gen, Kill, L.LiveIn, L.LiveOut);
  L.Iterations = Stats.Iterations;
  metrics().Visits.add(Stats.Iterations);

  // Pressure sweep: peak live set over every live-before point.
  for (size_t B = 0; B < N; ++B) {
    BitSet Live = L.LiveOut[B];
    for (size_t I = T.blockBegin(B + 1); I-- > T.blockBegin(B);) {
      T.stepBack(I, countsUses(T.row(I)), Live);
      unsigned Regs =
          static_cast<unsigned>(Live.countRange(0, kNumRegSlots));
      unsigned Preds = static_cast<unsigned>(
          Live.countRange(kNumRegSlots, kNumSlots));
      if (Regs > L.MaxLiveRegs) {
        L.MaxLiveRegs = Regs;
        L.PeakBlock = static_cast<int>(B);
        L.PeakInst = static_cast<int>(I - T.blockBegin(B));
      }
      L.MaxLivePreds = std::max(L.MaxLivePreds, Preds);
    }
  }
  return L;
}

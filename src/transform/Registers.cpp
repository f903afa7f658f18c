//===- transform/Registers.cpp --------------------------------------------===//

#include "transform/Registers.h"

#include "analysis/RegModel.h"

#include <algorithm>
#include <cassert>

using namespace dcb;
using namespace dcb::transform;
using ir::Block;
using ir::Inst;
using ir::Kernel;
using sass::Operand;
using sass::OperandKind;

RegisterUsage transform::analyzeRegisterUsage(const Kernel &K) {
  // The widest group rooted at each register; predicate slots are
  // skipped because usage tracks the general file only.
  const analysis::RegTable T(K);
  uint8_t Widest[analysis::kNumRegSlots] = {};
  for (analysis::RegTable::Group G : T.groups())
    if (analysis::isRegSlot(G.Slot) && Widest[G.Slot] < G.Width)
      Widest[G.Slot] = static_cast<uint8_t>(G.Width);

  // A root inside the current run is not independent: the run absorbs it
  // and reaches at least as far as its group.
  RegisterUsage Usage;
  unsigned End = 0;
  for (unsigned Reg = 0; Reg < analysis::kNumRegSlots; ++Reg) {
    if (!Widest[Reg])
      continue;
    if (Reg >= End)
      Usage.Groups.push_back({static_cast<uint16_t>(Reg), 0});
    End = std::max(End, Reg + Widest[Reg]);
    Usage.Groups.back().Width =
        static_cast<uint16_t>(End - Usage.Groups.back().Slot);
  }
  Usage.MaxRegister = static_cast<int>(End) - 1;
  return Usage;
}

PressureReport transform::pressureReport(const Kernel &K,
                                         const analysis::Liveness &L) {
  constexpr unsigned ThreadsPerBlock = 256;
  PressureReport P;
  P.LiveRegs = L.MaxLiveRegs;
  P.LivePreds = L.MaxLivePreds;
  RegisterUsage Usage = analyzeRegisterUsage(K);
  P.UsageRegs = Usage.liveCount();
  P.AllocRegs = static_cast<unsigned>(Usage.MaxRegister + 1);
  P.LiveOcc = computeOccupancy(K.A, P.LiveRegs, K.SharedMemBytes,
                               ThreadsPerBlock);
  P.UsageOcc = computeOccupancy(K.A, P.AllocRegs, K.SharedMemBytes,
                                ThreadsPerBlock);
  return P;
}

unsigned transform::remapRegisters(Kernel &K,
                                   const std::map<unsigned, unsigned> &Mapping) {
  unsigned Rewritten = 0;
  auto translate = [&Mapping](int64_t &Slot) {
    if (Slot < 0)
      return false; // RZ stays RZ.
    auto It = Mapping.find(static_cast<unsigned>(Slot));
    assert(It != Mapping.end() && "register missing from the mapping");
    if (It->second == Slot)
      return false;
    Slot = It->second;
    return true;
  };
  for (Block &B : K.Blocks) {
    for (Inst &Entry : B.Insts) {
      for (Operand &Op : Entry.Asm.Operands) {
        switch (Op.Kind) {
        case OperandKind::Register:
        case OperandKind::Memory:
          Rewritten += translate(Op.Value[0]);
          break;
        case OperandKind::ConstMem:
          if (Op.HasRegister)
            Rewritten += translate(Op.Value[2]);
          break;
        default:
          break;
        }
      }
    }
  }
  return Rewritten;
}

unsigned transform::compactRegisters(Kernel &K) {
  RegisterUsage Usage = analyzeRegisterUsage(K);

  // Greedy dense assignment: groups in ascending root order, each aligned
  // to its width (64-bit pairs on even registers, as the hardware
  // requires).
  std::map<unsigned, unsigned> Mapping;
  unsigned Next = 0;
  for (analysis::RegTable::Group G : Usage.Groups) {
    unsigned Align = G.Width >= 4 ? 4 : G.Width;
    unsigned Base = (Next + Align - 1) / Align * Align;
    for (unsigned I = 0; I < G.Width; ++I)
      Mapping[G.Slot + I] = Base + I;
    Next = Base + G.Width;
  }
  remapRegisters(K, Mapping);
  return Next;
}

//===- transform/Passes.cpp -----------------------------------------------===//

#include "transform/Passes.h"

#include "vm/OpTable.h"

#include <cassert>

using namespace dcb;
using namespace dcb::transform;
using ir::Block;
using ir::Inst;
using ir::Kernel;

unsigned transform::convertLocalToShared(Kernel &K, int64_t SharedBase,
                                         uint32_t LocalBytesPerThread) {
  static const SymbolId Ldl = sass::internKnown("LDL"),
                        Stl = sass::internKnown("STL"),
                        Lds = sass::internKnown("LDS"),
                        Sts = sass::internKnown("STS");
  unsigned Converted = 0;
  for (Block &B : K.Blocks) {
    for (Inst &Entry : B.Insts) {
      sass::Instruction &Asm = Entry.Asm;
      bool IsLoad = Asm.opcodeSym() == Ldl;
      bool IsStore = Asm.opcodeSym() == Stl;
      if (!IsLoad && !IsStore)
        continue;
      Asm.setOpcode(IsLoad ? Lds : Sts);
      // The memory operand is the load's source / the store's target.
      unsigned MemIdx = IsLoad ? 1 : 0;
      assert(Asm.Operands[MemIdx].Kind == sass::OperandKind::Memory &&
             "LDL/STL without a memory operand");
      Asm.Operands[MemIdx].Value[1] += SharedBase;
      ++Converted;
    }
  }
  if (Converted > 0)
    K.SharedMemBytes += LocalBytesPerThread;
  return Converted;
}

namespace {

/// Where a payload goes relative to the instruction it instruments.
enum class Place { Before, After };

/// The one insertion routine. \p Match is called once per original
/// instruction, in block order; for each match, \p Emit appends the
/// \p PayloadSize instructions of its payload to the block being built.
/// The payload goes before the match, or after it for Place::After, except
/// that a block terminator (always its block's last instruction) gets it
/// immediately before itself, so nothing lands past the block's end. A
/// block with no site is left untouched; every other block is built once,
/// at its final size.
template <typename MatchFn, typename EmitFn>
unsigned insertAtSites(Kernel &K, Place Where, size_t PayloadSize,
                       MatchFn &&Match, EmitFn &&Emit) {
  unsigned Total = 0;
  std::vector<uint8_t> IsSite;
  for (Block &B : K.Blocks) {
    size_t Sites = 0;
    IsSite.assign(B.Insts.size(), 0);
    for (size_t I = 0; I < B.Insts.size(); ++I) {
      IsSite[I] = Match(B.Insts[I]);
      Sites += IsSite[I];
    }
    if (!Sites)
      continue;
    std::vector<Inst> Built;
    Built.reserve(B.Insts.size() + Sites * PayloadSize);
    for (size_t I = 0; I < B.Insts.size(); ++I) {
      const Inst &Entry = B.Insts[I];
      const bool After = IsSite[I] && Where == Place::After &&
                         !sass::isTerminator(Entry.Asm);
      if (IsSite[I] && !After)
        Emit(Entry, Built);
      Built.push_back(Entry);
      if (After)
        Emit(Entry, Built);
    }
    B.Insts = std::move(Built);
    Total += static_cast<unsigned>(Sites);
  }
  return Total;
}

/// insertBefore/insertAfter: \p Payload at every \p Pred match, with
/// conservative control info.
unsigned insertPayload(Kernel &K, Place Where, const InstPredicate &Pred,
                       const std::vector<sass::Instruction> &Payload) {
  return insertAtSites(K, Where, Payload.size(), Pred,
                       [&Payload](const Inst &, std::vector<Inst> &Out) {
                         for (const sass::Instruction &Asm : Payload) {
                           Inst &Entry = Out.emplace_back();
                           Entry.Asm = Asm;
                           Entry.Ctrl = ir::conservativeCtrl();
                         }
                       });
}

} // namespace

unsigned transform::clearRegistersBeforeExit(
    Kernel &K, const std::vector<unsigned> &Regs) {
  static const SymbolId Exit = sass::internKnown("EXIT"),
                        Mov = sass::internKnown("MOV");
  return insertAtSites(
      K, Place::Before, Regs.size(),
      [](const Inst &I) { return I.Asm.opcodeSym() == Exit; },
      [&Regs](const Inst &Site, std::vector<Inst> &Out) {
        for (unsigned Reg : Regs) {
          Inst &Clear = Out.emplace_back();
          Clear.Asm.setOpcode(Mov);
          Clear.Asm.GuardPredicate = Site.Asm.GuardPredicate;
          Clear.Asm.GuardNegated = Site.Asm.GuardNegated;
          Clear.Asm.Operands.push_back(sass::Operand::makeRegister(Reg));
          sass::Operand Zero = sass::Operand::makeRegister(0);
          Zero.Value[0] = -1; // RZ
          Clear.Asm.Operands.push_back(Zero);
          Clear.Ctrl = ir::conservativeCtrl();
        }
      });
}

unsigned transform::insertBefore(Kernel &K, const InstPredicate &Pred,
                                 const std::vector<sass::Instruction> &Payload) {
  return insertPayload(K, Place::Before, Pred, Payload);
}

unsigned transform::insertAfter(Kernel &K, const InstPredicate &Pred,
                                const std::vector<sass::Instruction> &Payload) {
  return insertPayload(K, Place::After, Pred, Payload);
}

void transform::recomputeControlInfo(Kernel &K) {
  const bool UseBarriers = archFamily(K.A) == EncodingFamily::Maxwell ||
                           archFamily(K.A) == EncodingFamily::Volta;
  const unsigned MaxStall =
      archFamily(K.A) == EncodingFamily::Maxwell ||
              archFamily(K.A) == EncodingFamily::Volta
          ? 15
          : 32;

  unsigned NextBar = 0;
  unsigned Outstanding = 0; // Bit mask of barriers set but not yet drained.
  for (Block &B : K.Blocks) {
    for (Inst &Entry : B.Insts) {
      sass::CtrlInfo Info;
      // Drain everything outstanding before each instruction: maximally
      // conservative, requires no dependence analysis.
      Info.WaitMask = UseBarriers ? (Outstanding & 0x3f) : 0;
      Outstanding = 0;

      // The public (conservative) latency class from the opcode table —
      // deliberately independent of the hidden vendor tables.
      const vm::OpInfo &Row = vm::opInfo(Entry.Asm);
      switch (Row.Latency) {
      case vm::LatencyClass::Fixed:
        Info.Stall = std::min<unsigned>(Row.Cycles, MaxStall);
        break;
      case vm::LatencyClass::Load:
        if (UseBarriers) {
          Info.WriteBarrier = NextBar;
          Outstanding |= 1u << NextBar;
          NextBar = (NextBar + 1) % 6;
          Info.Stall = 2;
        } else {
          Info.Stall = 4;
        }
        break;
      case vm::LatencyClass::Store:
        if (UseBarriers) {
          Info.ReadBarrier = NextBar;
          Outstanding |= 1u << NextBar;
          NextBar = (NextBar + 1) % 6;
          Info.Stall = 2;
        } else {
          Info.Stall = 4;
        }
        break;
      case vm::LatencyClass::Control:
        Info.Stall = 5;
        break;
      }
      if (UseBarriers && Info.Stall >= 12)
        Info.Yield = true;
      Entry.Ctrl = Info;
    }
  }
}

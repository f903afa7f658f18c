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

unsigned transform::clearRegistersBeforeExit(
    Kernel &K, const std::vector<unsigned> &Regs) {
  static const SymbolId Exit = sass::internKnown("EXIT"),
                        Mov = sass::internKnown("MOV");
  unsigned Sites = 0;
  for (Block &B : K.Blocks) {
    for (size_t I = 0; I < B.Insts.size(); ++I) {
      if (B.Insts[I].Asm.opcodeSym() != Exit)
        continue;
      std::vector<Inst> Clears;
      for (unsigned Reg : Regs) {
        Inst Clear;
        Clear.Asm.setOpcode(Mov);
        Clear.Asm.GuardPredicate = B.Insts[I].Asm.GuardPredicate;
        Clear.Asm.GuardNegated = B.Insts[I].Asm.GuardNegated;
        Clear.Asm.Operands.push_back(sass::Operand::makeRegister(Reg));
        sass::Operand Zero = sass::Operand::makeRegister(0);
        Zero.Value[0] = -1; // RZ
        Clear.Asm.Operands.push_back(Zero);
        Clear.Ctrl = ir::conservativeCtrl();
        Clears.push_back(std::move(Clear));
      }
      B.Insts.insert(B.Insts.begin() + I, Clears.begin(), Clears.end());
      I += Clears.size();
      ++Sites;
    }
  }
  return Sites;
}

unsigned transform::insertBefore(Kernel &K, const InstPredicate &Pred,
                                 const std::vector<sass::Instruction> &Payload) {
  unsigned Sites = 0;
  for (Block &B : K.Blocks) {
    for (size_t I = 0; I < B.Insts.size(); ++I) {
      if (!Pred(B.Insts[I]))
        continue;
      std::vector<Inst> Extra;
      for (const sass::Instruction &Asm : Payload) {
        Inst Entry;
        Entry.Asm = Asm;
        Entry.Ctrl = ir::conservativeCtrl();
        Extra.push_back(std::move(Entry));
      }
      B.Insts.insert(B.Insts.begin() + I, Extra.begin(), Extra.end());
      I += Extra.size();
      ++Sites;
    }
  }
  return Sites;
}

unsigned transform::insertAfter(Kernel &K, const InstPredicate &Pred,
                                const std::vector<sass::Instruction> &Payload) {
  unsigned Sites = 0;
  for (Block &B : K.Blocks) {
    for (size_t I = 0; I < B.Insts.size(); ++I) {
      if (!Pred(B.Insts[I]))
        continue;
      // Never insert beyond the block's end: payload lands right after the
      // matched instruction, which for a terminator means before it would
      // escape the block; callers wanting post-terminator effects should
      // instrument the successor blocks instead.
      std::vector<Inst> Extra;
      for (const sass::Instruction &Asm : Payload) {
        Inst Entry;
        Entry.Asm = Asm;
        Entry.Ctrl = ir::conservativeCtrl();
        Extra.push_back(std::move(Entry));
      }
      B.Insts.insert(B.Insts.begin() + I + 1, Extra.begin(), Extra.end());
      I += Extra.size();
      ++Sites;
    }
  }
  return Sites;
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

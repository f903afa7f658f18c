//===- tests/OpcodeFacts.h - Per-mnemonic public facts, rendered -*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders what the public model answers for every instruction shape in
/// every arch's inventory: the def count and per-operand register widths
/// (analysis/RegModel), the latency class the transform scheduler assigns
/// (observed as the stall and barriers recomputeControlInfo writes on a
/// Maxwell kernel) and Kepler dual-issue legality (observed as the HAZ005
/// finding checkHazards reports). One line per distinct printed shape.
///
/// Shapes come from the hidden ISA forms: one operand per slot with fixed
/// values, and every combination of opcode-modifier choices (capped per
/// form), plus a handful of hand-written mnemonics the public model
/// classifies outside any inventory. tests/opcode_facts.golden pins the
/// rendering (generated from the per-consumer mnemonic lists the opcode
/// table replaced); analysis_test compares against it.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_TESTS_OPCODEFACTS_H
#define DCB_TESTS_OPCODEFACTS_H

#include "analysis/Hazards.h"
#include "analysis/RegModel.h"
#include "isa/Spec.h"
#include "sass/Parser.h"
#include "sass/Printer.h"
#include "transform/Passes.h"

#include <set>
#include <string>
#include <vector>

namespace dcb {
namespace opfacts {

inline sass::Operand sampleOperand(const isa::OperandSlot &Slot) {
  switch (Slot.Enc) {
  case isa::SlotEncoding::Reg:
    return sass::Operand::makeRegister(2);
  case isa::SlotEncoding::Pred:
    return sass::Operand::makePredicate(1);
  case isa::SlotEncoding::SpecialReg:
    return sass::Operand::makeSpecialReg("SR_TID.X");
  case isa::SlotEncoding::FImm32:
  case isa::SlotEncoding::FImm64:
    return sass::Operand::makeFloatImm(1.5);
  case isa::SlotEncoding::Mem:
    return sass::Operand::makeMemory(4, 8);
  case isa::SlotEncoding::ConstMem:
    return Slot.Fields[1].valid() ? sass::Operand::makeConstMemReg(0, 6, 0x20)
                                  : sass::Operand::makeConstMem(0, 0x20);
  case isa::SlotEncoding::TexShape:
    return sass::Operand::makeTexShape(sass::TexShapeKind::Dim2D);
  case isa::SlotEncoding::TexChannel:
    return sass::Operand::makeTexChannel(15);
  case isa::SlotEncoding::Barrier:
    return sass::Operand::makeBarrier(1);
  case isa::SlotEncoding::BitSet:
    return sass::Operand::makeBitSet(3);
  default:
    return sass::Operand::makeIntImm(8);
  }
}

/// "defs=N widths=a,b,c stall=S wb=W rb=R dual=ok|no" for one instruction.
inline std::string renderFacts(const sass::Instruction &Asm) {
  std::string Out = "defs=" + std::to_string(analysis::defCount(Asm)) +
                    " widths=";
  for (size_t I = 0; I < Asm.Operands.size(); ++I)
    Out += (I ? "," : "") +
           std::to_string(analysis::operandRegWidth(Asm, I));

  ir::Kernel Sched;
  Sched.A = Arch::SM50;
  Sched.Blocks.resize(1);
  ir::Inst Only;
  Only.Asm = Asm;
  Sched.Blocks[0].Insts.push_back(Only);
  transform::recomputeControlInfo(Sched);
  const sass::CtrlInfo &C = Sched.Blocks[0].Insts[0].Ctrl;
  Out += " stall=" + std::to_string(C.Stall) +
         " wb=" + std::to_string(C.WriteBarrier) +
         " rb=" + std::to_string(C.ReadBarrier);

  ir::Kernel Pair;
  Pair.A = Arch::SM35;
  Pair.Blocks.resize(1);
  ir::Inst First;
  First.Asm = Asm;
  First.Ctrl.Stall = 0;
  First.Ctrl.DualIssue = true;
  ir::Inst Partner;
  Partner.Asm = *sass::parseInstruction("FADD R0, R1, R2");
  Pair.Blocks[0].Insts = {First, Partner};
  bool Illegal = false;
  for (const analysis::Finding &F : analysis::checkHazards(Pair).Findings)
    Illegal |= F.Message.find("cannot dual-issue") != std::string::npos;
  Out += Illegal ? " dual=no" : " dual=ok";
  return Out;
}

/// Every distinct shape, in a deterministic order, rendered as
/// "<printed instruction> | <facts>".
inline std::vector<std::string> renderOpcodeFacts() {
  std::set<std::string> Seen;
  std::vector<std::string> Lines;
  auto add = [&](const sass::Instruction &Asm) {
    std::string Text = sass::printInstruction(Asm);
    if (Seen.insert(Text).second)
      Lines.push_back(Text + " | " + renderFacts(Asm));
  };

  for (Arch A : {Arch::SM20, Arch::SM21, Arch::SM30, Arch::SM35, Arch::SM50,
                 Arch::SM52, Arch::SM60, Arch::SM61, Arch::SM70}) {
    for (const isa::InstrSpec &Form : isa::getArchSpec(A).Instrs) {
      std::vector<sass::Operand> Ops;
      for (const isa::OperandSlot &Slot : Form.Operands)
        Ops.push_back(sampleOperand(Slot));
      // Every combination of named choices of the opcode-modifier groups
      // (optional groups may also be absent), capped per form.
      std::vector<std::vector<std::string>> Combos = {{}};
      for (unsigned G = 0; G < Form.NumOpcodeMods; ++G) {
        const isa::ModifierGroup &Group = Form.ModGroups[G];
        std::vector<std::vector<std::string>> Next;
        for (const std::vector<std::string> &Prefix : Combos) {
          if (Group.HasDefault)
            Next.push_back(Prefix);
          for (const isa::ModifierChoice &Choice : Group.Choices) {
            if (Choice.Name.empty())
              continue;
            std::vector<std::string> With = Prefix;
            With.push_back(Choice.Name);
            Next.push_back(std::move(With));
          }
        }
        if (Next.size() > 256)
          Next.resize(256);
        Combos = std::move(Next);
      }
      for (const std::vector<std::string> &Mods : Combos) {
        std::string Head = Form.Mnemonic;
        for (const std::string &M : Mods)
          Head += "." + M;
        Expected<sass::Instruction> Asm = sass::parseInstruction(Head);
        if (!Asm)
          continue;
        Asm->Operands.clear();
        for (const sass::Operand &Op : Ops)
          Asm->Operands.push_back(Op);
        add(*Asm);
      }
    }
  }

  // Mnemonics the public model names outside every inventory, degenerate
  // operand counts, and one unknown mnemonic for the defaults.
  for (const char *Text :
       {"RED.ADD [R4+0x8], R2", "RED.ADD.64 [R4+0x8], R2", "BRX R2",
        "JCAL 0x10", "JMP 0x10", "PCNT 0x10", "SETP P0, P1, R2, R3, PT",
        "ISETP.LT.AND P0", "PSETP.AND.AND P0", "SHFL.IDX P0", "IADD",
        "MOV", "FROB R2, R3", "FROB", "ST.128 [R4], R8",
        "LDC.64 R2, c[0x0][0x20]", "F2F.F64.F32 R2, R4", "I2F.F64.S64 R2, R4",
        "F2I.U64.F64 R2, R4", "DADD R2, 1.5, c[0x0][0x20]",
        "BAR.ARV 0x1", "NOP.S", "MEMBAR.CTA", "ATOM.ADD.64 R2, [R4], R6"}) {
    Expected<sass::Instruction> Asm = sass::parseInstruction(Text);
    if (Asm)
      add(*Asm);
  }
  return Lines;
}

} // namespace opfacts
} // namespace dcb

#endif // DCB_TESTS_OPCODEFACTS_H

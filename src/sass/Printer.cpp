//===- sass/Printer.cpp ---------------------------------------------------===//

#include "sass/Printer.h"

#include "support/StringUtils.h"

#include <cassert>
#include <cstdio>

using namespace dcb;
using namespace dcb::sass;

namespace {

std::string printIntValue(int64_t V) {
  // Negate in unsigned arithmetic: INT64_MIN prints as -0x8000000000000000.
  if (V < 0)
    return "-" + toHexString(uint64_t(0) - static_cast<uint64_t>(V));
  return toHexString(static_cast<uint64_t>(V));
}

std::string printRegName(int64_t Id) {
  if (Id < 0)
    return "RZ";
  return "R" + std::to_string(Id);
}

std::string printFloatValue(double V) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", V);
  std::string S(Buffer);
  // Guarantee the token re-parses as a float, not an integer.
  if (S.find('.') == std::string::npos && S.find('e') == std::string::npos &&
      S.find("inf") == std::string::npos && S.find("nan") == std::string::npos)
    S += ".0";
  return S;
}

} // namespace

std::string sass::printOperand(const Operand &Op) {
  std::string Out;
  if (Op.Negated && Op.Kind != OperandKind::IntImm)
    Out += '-';
  if (Op.Complemented)
    Out += '~';
  if (Op.LogicalNot)
    Out += '!';
  if (Op.Absolute)
    Out += '|';

  switch (Op.Kind) {
  case OperandKind::Register:
    Out += printRegName(Op.Value[0]);
    break;
  case OperandKind::Predicate:
    Out += Op.Value[0] == 7 ? "PT" : ("P" + std::to_string(Op.Value[0]));
    break;
  case OperandKind::SpecialReg:
    Out += Op.Text;
    break;
  case OperandKind::IntImm: {
    int64_t V = Op.Value[0];
    if (Op.Negated) {
      // A unary minus on a literal prints as part of the literal.
      Out += printIntValue(V < 0 ? V : -V);
    } else {
      Out += printIntValue(V);
    }
    break;
  }
  case OperandKind::FloatImm:
    Out += printFloatValue(Op.FValue);
    break;
  case OperandKind::Memory:
    Out += '[';
    Out += printRegName(Op.Value[0]);
    if (Op.Value[1] > 0) {
      Out += '+';
      Out += printIntValue(Op.Value[1]);
    } else if (Op.Value[1] < 0) {
      Out += printIntValue(Op.Value[1]);
    }
    Out += ']';
    break;
  case OperandKind::ConstMem:
    Out += "c[";
    Out += printIntValue(Op.Value[0]);
    Out += "][";
    if (Op.HasRegister) {
      Out += printRegName(Op.Value[2]);
      Out += '+';
    }
    Out += printIntValue(Op.Value[1]);
    Out += ']';
    break;
  case OperandKind::TexShape:
    Out += texShapeName(static_cast<TexShapeKind>(Op.Value[0]));
    break;
  case OperandKind::TexChannel: {
    static const char Names[4] = {'R', 'G', 'B', 'A'};
    for (unsigned I = 0; I < 4; ++I)
      if (Op.Value[0] & (1 << I))
        Out += Names[I];
    break;
  }
  case OperandKind::Barrier:
    Out += "SB" + std::to_string(Op.Value[0]);
    break;
  case OperandKind::BitSet: {
    Out += '{';
    bool First = true;
    for (unsigned I = 0; I < 64; ++I) {
      if (!(static_cast<uint64_t>(Op.Value[0]) & (uint64_t(1) << I)))
        continue;
      if (!First)
        Out += ',';
      Out += std::to_string(I);
      First = false;
    }
    Out += '}';
    break;
  }
  }

  if (Op.Absolute)
    Out += '|';
  for (const std::string &Mod : Op.Mods) {
    Out += '.';
    Out += Mod;
  }
  return Out;
}

std::string sass::printInstruction(const Instruction &Inst) {
  std::string Out;
  if (Inst.hasGuard()) {
    Out += '@';
    if (Inst.GuardNegated)
      Out += '!';
    Out += Inst.GuardPredicate == 7 ? "PT"
                                    : "P" + std::to_string(Inst.GuardPredicate);
    Out += ' ';
  }
  Out += Inst.opcode();
  for (const std::string &Mod : Inst.Modifiers) {
    Out += '.';
    Out += Mod;
  }
  for (size_t I = 0; I < Inst.Operands.size(); ++I) {
    Out += I == 0 ? " " : ", ";
    Out += printOperand(Inst.Operands[I]);
  }
  Out += ';';
  return Out;
}

std::string sass::printProgram(const std::vector<Instruction> &Program) {
  std::string Out;
  for (const Instruction &Inst : Program) {
    Out += printInstruction(Inst);
    Out += '\n';
  }
  return Out;
}

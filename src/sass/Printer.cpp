//===- sass/Printer.cpp ---------------------------------------------------===//

#include "sass/Printer.h"

#include "support/StringUtils.h"

#include <cstdio>

using namespace dcb;
using namespace dcb::sass;

namespace {

void appendIntValue(std::string &Out, int64_t V) {
  // Negate in unsigned arithmetic: INT64_MIN prints as -0x8000000000000000.
  if (V < 0) {
    Out += '-';
    appendHexString(Out, uint64_t(0) - static_cast<uint64_t>(V));
    return;
  }
  appendHexString(Out, static_cast<uint64_t>(V));
}

// Short decimal spellings stay in std::string's inline buffer.
void appendRegName(std::string &Out, int64_t Id) {
  Out += Id < 0 ? "RZ" : 'R' + std::to_string(Id);
}

void appendPredName(std::string &Out, int64_t Id) {
  Out += Id == 7 ? "PT" : 'P' + std::to_string(Id);
}

void appendFloatValue(std::string &Out, double V) {
  char Buffer[64];
  int Len = std::snprintf(Buffer, sizeof(Buffer), "%.17g", V);
  std::string_view S(Buffer, static_cast<size_t>(Len));
  Out += S;
  // Guarantee the token re-parses as a float, not an integer.
  if (S.find('.') == std::string_view::npos &&
      S.find('e') == std::string_view::npos &&
      S.find("inf") == std::string_view::npos &&
      S.find("nan") == std::string_view::npos)
    Out += ".0";
}

/// Renders one operand, appending to \p Out.
void appendOperand(const Operand &Op, std::string &Out) {
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
    appendRegName(Out, Op.Value[0]);
    break;
  case OperandKind::Predicate:
    appendPredName(Out, Op.Value[0]);
    break;
  case OperandKind::SpecialReg:
    Out += Op.text();
    break;
  case OperandKind::IntImm: {
    int64_t V = Op.Value[0];
    // A unary minus on a literal prints as part of the literal.
    appendIntValue(Out, Op.Negated && V >= 0 ? -V : V);
    break;
  }
  case OperandKind::FloatImm:
    appendFloatValue(Out, Op.FValue);
    break;
  case OperandKind::Memory:
    Out += '[';
    appendRegName(Out, Op.Value[0]);
    if (Op.Value[1] > 0)
      Out += '+';
    if (Op.Value[1] != 0)
      appendIntValue(Out, Op.Value[1]);
    Out += ']';
    break;
  case OperandKind::ConstMem:
    Out += "c[";
    appendIntValue(Out, Op.Value[0]);
    Out += "][";
    if (Op.HasRegister) {
      appendRegName(Out, Op.Value[2]);
      Out += '+';
    }
    appendIntValue(Out, Op.Value[1]);
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
  const SymbolTable &Syms = SymbolTable::global();
  for (SymbolId Mod : Op.Mods) {
    Out += '.';
    Out += Syms.spelling(Mod);
  }
}

} // namespace

std::string sass::printOperand(const Operand &Op) {
  std::string Out;
  appendOperand(Op, Out);
  return Out;
}

void sass::printInstruction(const Instruction &Inst, std::string &Out) {
  if (Inst.hasGuard()) {
    Out += '@';
    if (Inst.GuardNegated)
      Out += '!';
    appendPredName(Out, Inst.GuardPredicate);
    Out += ' ';
  }
  const SymbolTable &Syms = SymbolTable::global();
  Out += Syms.spelling(Inst.opcodeSym());
  for (SymbolId Mod : Inst.Modifiers) {
    Out += '.';
    Out += Syms.spelling(Mod);
  }
  for (size_t I = 0; I < Inst.Operands.size(); ++I) {
    Out += I == 0 ? " " : ", ";
    appendOperand(Inst.Operands[I], Out);
  }
  Out += ';';
}

std::string sass::printInstruction(const Instruction &Inst) {
  std::string Out;
  printInstruction(Inst, Out);
  return Out;
}

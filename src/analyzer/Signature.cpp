//===- analyzer/Signature.cpp ---------------------------------------------===//

#include "analyzer/Signature.h"

#include <cassert>

using namespace dcb;
using namespace dcb::analyzer;

char analyzer::operandSignatureChar(const sass::Operand &Op) {
  using sass::OperandKind;
  switch (Op.Kind) {
  case OperandKind::Register:
    return 'r';
  case OperandKind::Predicate:
    return 'p';
  case OperandKind::SpecialReg:
    return 's';
  case OperandKind::IntImm:
    return 'i';
  case OperandKind::FloatImm:
    return 'f';
  case OperandKind::Memory:
    return 'm';
  case OperandKind::ConstMem:
    return Op.HasRegister ? 'C' : 'c';
  case OperandKind::TexShape:
    return 't';
  case OperandKind::TexChannel:
    return 'h';
  case OperandKind::Barrier:
    return 'b';
  case OperandKind::BitSet:
    return 'z';
  }
  return '?';
}

std::string analyzer::operandSignature(const sass::Instruction &Inst) {
  std::string Sig;
  for (const sass::Operand &Op : Inst.Operands)
    Sig.push_back(operandSignatureChar(Op));
  return Sig;
}

std::string analyzer::operationKey(const sass::Instruction &Inst) {
  return std::string(Inst.opcode()) + "/" + operandSignature(Inst);
}

OperationKeyId analyzer::operationKeyId(const sass::Instruction &Inst) {
  OperationKeyId Key;
  Key.Mnemonic = Inst.opcodeSym();
  for (size_t I = 0; I < Inst.Operands.size(); ++I)
    Key.Sig |= uint64_t(static_cast<uint8_t>(
                   operandSignatureChar(Inst.Operands[I])))
               << (8 * I);
  return Key;
}

OperationKeyId analyzer::operationKeyId(const std::string &Mnemonic,
                                        const std::string &Signature) {
  assert(Signature.size() <= sass::MaxOperands &&
         "signature longer than any instruction");
  OperationKeyId Key;
  Key.Mnemonic = SymbolTable::global().intern(Mnemonic);
  for (size_t I = 0; I < Signature.size(); ++I)
    Key.Sig |= uint64_t(static_cast<uint8_t>(Signature[I])) << (8 * I);
  return Key;
}

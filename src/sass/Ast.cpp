//===- sass/Ast.cpp -------------------------------------------------------===//

#include "sass/Ast.h"

using namespace dcb;
using namespace dcb::sass;

namespace {

/// Spellings the classifiers and tokenSym compare against, interned while
/// the process starts, so no later table state can refuse them.
struct KnownSyms {
  SymbolId Bra = internKnown("BRA"), Cal = internKnown("CAL"),
           Ssy = internKnown("SSY"), Jmp = internKnown("JMP"),
           Jcal = internKnown("JCAL"), Pbk = internKnown("PBK"),
           Pcnt = internKnown("PCNT"), Brx = internKnown("BRX"),
           Exit = internKnown("EXIT"), Ret = internKnown("RET"),
           Brk = internKnown("BRK"), Sync = internKnown("SYNC"),
           Nop = internKnown("NOP"), S = internKnown("S");
  SymbolId Shapes[6];
  SymbolId Channels[16] = {InvalidSymbolId};

  KnownSyms() {
    for (unsigned I = 0; I < 6; ++I)
      Shapes[I] = internKnown(texShapeName(static_cast<TexShapeKind>(I)));
    for (unsigned Mask = 1; Mask < 16; ++Mask) {
      char Buf[4];
      size_t Len = 0;
      for (unsigned I = 0; I < 4; ++I)
        if (Mask & (1u << I))
          Buf[Len++] = "RGBA"[I];
      Channels[Mask] = internKnown(std::string_view(Buf, Len));
    }
  }
};

const KnownSyms &known() {
  static const KnownSyms Syms;
  return Syms;
}

[[maybe_unused]] const KnownSyms &StartupSyms = known();

} // namespace

SymbolId sass::internKnown(std::string_view Spelling) {
  SymbolId Id = SymbolTable::global().intern(Spelling);
  assert(Id != InvalidSymbolId && "symbol table full");
  return Id;
}

const char *sass::texShapeName(TexShapeKind Shape) {
  switch (Shape) {
  case TexShapeKind::Dim1D:
    return "1D";
  case TexShapeKind::Dim2D:
    return "2D";
  case TexShapeKind::Dim3D:
    return "3D";
  case TexShapeKind::Cube:
    return "CUBE";
  case TexShapeKind::Array1D:
    return "ARRAY_1D";
  case TexShapeKind::Array2D:
    return "ARRAY_2D";
  }
  assert(false && "unknown texture shape");
  return "?";
}

bool sass::parseTexShapeName(std::string_view Name, TexShapeKind &Shape) {
  for (unsigned I = 0; I < 6; ++I) {
    if (Name == texShapeName(static_cast<TexShapeKind>(I))) {
      Shape = static_cast<TexShapeKind>(I);
      return true;
    }
  }
  return false;
}

SymbolId sass::tokenSym(const Operand &Op) {
  switch (Op.Kind) {
  case OperandKind::SpecialReg:
    return Op.Sym;
  case OperandKind::TexShape:
    return static_cast<uint64_t>(Op.Value[0]) < 6 ? known().Shapes[Op.Value[0]]
                                                  : InvalidSymbolId;
  case OperandKind::TexChannel:
    return known().Channels[Op.Value[0] & 0xf];
  default:
    return InvalidSymbolId;
  }
}

Operand Operand::makeRegister(unsigned Id) {
  Operand Op;
  Op.Kind = OperandKind::Register;
  Op.Value[0] = Id;
  return Op;
}

Operand Operand::makePredicate(unsigned Id) {
  Operand Op;
  Op.Kind = OperandKind::Predicate;
  Op.Value[0] = Id;
  return Op;
}

Operand Operand::makeSpecialReg(SymbolId Name) {
  Operand Op;
  Op.Kind = OperandKind::SpecialReg;
  Op.Sym = Name;
  return Op;
}

Operand Operand::makeSpecialReg(std::string_view Name) {
  return makeSpecialReg(internKnown(Name));
}

Operand Operand::makeIntImm(int64_t V) {
  Operand Op;
  Op.Kind = OperandKind::IntImm;
  Op.Value[0] = V;
  return Op;
}

Operand Operand::makeFloatImm(double V) {
  Operand Op;
  Op.Kind = OperandKind::FloatImm;
  Op.FValue = V;
  return Op;
}

Operand Operand::makeMemory(unsigned BaseReg, int64_t Offset) {
  Operand Op;
  Op.Kind = OperandKind::Memory;
  Op.Value[0] = BaseReg;
  Op.Value[1] = Offset;
  return Op;
}

Operand Operand::makeConstMem(unsigned Bank, int64_t Offset) {
  Operand Op;
  Op.Kind = OperandKind::ConstMem;
  Op.Value[0] = Bank;
  Op.Value[1] = Offset;
  return Op;
}

Operand Operand::makeConstMemReg(unsigned Bank, unsigned Reg, int64_t Offset) {
  Operand Op = makeConstMem(Bank, Offset);
  Op.HasRegister = true;
  Op.Value[2] = Reg;
  return Op;
}

Operand Operand::makeTexShape(TexShapeKind Shape) {
  Operand Op;
  Op.Kind = OperandKind::TexShape;
  Op.Value[0] = static_cast<int64_t>(Shape);
  return Op;
}

Operand Operand::makeTexChannel(unsigned Mask) {
  assert(Mask <= 0xf && "channel mask wider than RGBA");
  Operand Op;
  Op.Kind = OperandKind::TexChannel;
  Op.Value[0] = Mask;
  return Op;
}

Operand Operand::makeBarrier(unsigned Index) {
  Operand Op;
  Op.Kind = OperandKind::Barrier;
  Op.Value[0] = Index;
  return Op;
}

Operand Operand::makeBitSet(uint64_t Mask) {
  Operand Op;
  Op.Kind = OperandKind::BitSet;
  Op.Value[0] = static_cast<int64_t>(Mask);
  return Op;
}

bool Operand::operator==(const Operand &O) const {
  if (Kind != O.Kind || Negated != O.Negated ||
      Complemented != O.Complemented || Absolute != O.Absolute ||
      LogicalNot != O.LogicalNot || HasRegister != O.HasRegister ||
      Sym != O.Sym || Mods != O.Mods)
    return false;
  if (Kind == OperandKind::FloatImm)
    return FValue == O.FValue;
  return Value[0] == O.Value[0] && Value[1] == O.Value[1] &&
         Value[2] == O.Value[2];
}

void Instruction::setOpcode(std::string_view Mnemonic) {
  OpcodeSym = Mnemonic.empty() ? InvalidSymbolId : internKnown(Mnemonic);
}

void Instruction::addModifier(std::string_view Spelling) {
  Modifiers.push_back(internKnown(Spelling));
}

bool Instruction::operator==(const Instruction &I) const {
  return GuardPredicate == I.GuardPredicate && GuardNegated == I.GuardNegated &&
         OpcodeSym == I.OpcodeSym && Modifiers == I.Modifiers &&
         Operands == I.Operands;
}

// --- Control-flow classification ------------------------------------------

bool sass::isControlFlowOpcode(SymbolId Opcode) {
  const KnownSyms &K = known();
  return Opcode == K.Bra || Opcode == K.Cal || Opcode == K.Ssy ||
         Opcode == K.Jmp || Opcode == K.Jcal || Opcode == K.Pbk ||
         Opcode == K.Pcnt || Opcode == K.Brx;
}

bool sass::hasLiteralTarget(const Instruction &Inst) {
  return isControlFlowOpcode(Inst.opcodeSym()) && Inst.Operands.size() == 1 &&
         Inst.Operands[0].Kind == OperandKind::IntImm;
}

namespace {

bool hasModifier(const Instruction &Inst, SymbolId Sym) {
  for (SymbolId Mod : Inst.Modifiers)
    if (Mod == Sym)
      return true;
  return false;
}

} // namespace

bool sass::isReconvergence(const Instruction &Inst) {
  const KnownSyms &K = known();
  return Inst.opcodeSym() == K.Sync || hasModifier(Inst, K.S);
}

bool sass::isReconvergenceJump(const Instruction &Inst) {
  const KnownSyms &K = known();
  return Inst.opcodeSym() == K.Sync ||
         (Inst.opcodeSym() == K.Nop && hasModifier(Inst, K.S));
}

bool sass::isTerminator(const Instruction &Inst) {
  const KnownSyms &K = known();
  const SymbolId Op = Inst.opcodeSym();
  return Op == K.Bra || Op == K.Exit || Op == K.Ret || Op == K.Brk ||
         isReconvergence(Inst);
}

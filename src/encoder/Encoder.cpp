//===- encoder/Encoder.cpp ------------------------------------------------===//

#include "encoder/Encoder.h"

#include "sass/Printer.h"

#include <cassert>
#include <cmath>
#include <cstring>

using namespace dcb;
using namespace dcb::encoder;
using isa::ArchSpec;
using isa::InstrSpec;
using isa::ModifierGroup;
using isa::OperandSlot;
using isa::SlotEncoding;
using sass::Instruction;
using sass::Operand;
using sass::OperandKind;

namespace {

uint32_t floatBits(float F) {
  uint32_t Bits;
  std::memcpy(&Bits, &F, sizeof(Bits));
  return Bits;
}

uint64_t doubleBits(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return Bits;
}

float floatFromBits(uint32_t Bits) {
  float F;
  std::memcpy(&F, &Bits, sizeof(F));
  return F;
}

double doubleFromBits(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

std::string_view spelling(SymbolId Sym) {
  return SymbolTable::global().spelling(Sym);
}

bool fitsUnsigned(int64_t Value, unsigned Width) {
  if (Value < 0)
    return false;
  return Width >= 64 ||
         static_cast<uint64_t>(Value) <= BitString::lowMask(Width);
}

bool fitsSigned(int64_t Value, unsigned Width) {
  if (Width >= 64)
    return true;
  int64_t Lo = -(int64_t(1) << (Width - 1));
  int64_t Hi = (int64_t(1) << (Width - 1)) - 1;
  return Value >= Lo && Value <= Hi;
}

/// Resolves a register id, mapping the parser's RZ marker (-1) to the
/// architecture's zero register.
Expected<uint64_t> resolveReg(const ArchSpec &Spec, int64_t Id) {
  if (Id < 0)
    return static_cast<uint64_t>(Spec.zeroReg());
  if (static_cast<uint64_t>(Id) >= Spec.NumRegs)
    return Failure("register id out of range for " +
                   std::string(Spec.name()));
  return static_cast<uint64_t>(Id);
}

class InstEncoder {
public:
  InstEncoder(const ArchSpec &Spec, const Instruction &Inst, uint64_t Pc)
      : Spec(Spec), Inst(Inst), Pc(Pc), Word(Spec.WordBits) {}

  Expected<BitString> run();

private:
  const ArchSpec &Spec;
  const Instruction &Inst;
  uint64_t Pc;
  BitString Word;

  Failure error(const std::string &Msg) const {
    return Failure("encode error (" + std::string(Spec.name()) + "): " + Msg +
                   " in '" + sass::printInstruction(Inst) + "'");
  }

  Error encodeOperand(const OperandSlot &Slot, const Operand &Op,
                      const InstrSpec &IS);
  Error encodeUnaries(const OperandSlot &Slot, const Operand &Op);
  Error encodeModifiers(const InstrSpec &IS);
};

Expected<BitString> InstEncoder::run() {
  const InstrSpec *IS = Spec.findSpec(Inst);
  if (!IS)
    return error("no encoding for this opcode/operand combination");

  // Opcode pattern (includes the implicitly zero unused bits).
  Word.setField(0, std::min(64u, Spec.WordBits), IS->OpcodeValue);

  // Conditional guard.
  uint64_t GuardValue =
      (Inst.GuardNegated ? 8u : 0u) | (Inst.GuardPredicate & 7u);
  Word.setField(Spec.GuardField.Lo, Spec.GuardField.Width, GuardValue);

  for (size_t I = 0; I < IS->Operands.size(); ++I) {
    if (Error E = encodeOperand(IS->Operands[I], Inst.Operands[I], *IS))
      return E;
  }

  if (Error E = encodeModifiers(*IS))
    return E;
  return Word;
}

Error InstEncoder::encodeUnaries(const OperandSlot &Slot, const Operand &Op) {
  struct UnaryBinding {
    bool Present;
    uint8_t Bit;
    const char *Name;
  } Bindings[] = {
      {Op.Negated && Op.Kind != OperandKind::IntImm, Slot.NegBit, "negation"},
      {Op.Absolute, Slot.AbsBit, "absolute value"},
      {Op.Complemented, Slot.InvBit, "bitwise complement"},
      {Op.LogicalNot, Slot.NotBit, "logical negation"},
  };
  for (const UnaryBinding &B : Bindings) {
    if (!B.Present)
      continue;
    if (B.Bit == 0xff)
      return Error::failure(
          error(std::string("operand does not support ") + B.Name).Msg);
    Word.set(B.Bit, true);
  }
  return Error::success();
}

Error InstEncoder::encodeOperand(const OperandSlot &Slot, const Operand &Op,
                                 const InstrSpec &IS) {
  (void)IS;
  const isa::FieldRef &F0 = Slot.Fields[0];
  const isa::FieldRef &F1 = Slot.Fields[1];

  if (Error E = encodeUnaries(Slot, Op))
    return E;

  switch (Slot.Enc) {
  case SlotEncoding::Reg: {
    Expected<uint64_t> Id = resolveReg(Spec, Op.Value[0]);
    if (!Id)
      return Id.takeError();
    Word.setField(F0.Lo, F0.Width, *Id);
    break;
  }
  case SlotEncoding::Pred:
    Word.setField(F0.Lo, F0.Width, static_cast<uint64_t>(Op.Value[0]) & 7);
    break;
  case SlotEncoding::SpecialReg: {
    std::optional<unsigned> Code = isa::specialRegEncoding(Op.Sym);
    if (!Code)
      return Error::failure(
          error("unknown special register '" + std::string(Op.text()) + "'")
              .Msg);
    Word.setField(F0.Lo, F0.Width, *Code);
    break;
  }
  case SlotEncoding::UImm:
    if (!fitsUnsigned(Op.Value[0], F0.Width))
      return Error::failure(error("literal does not fit unsigned field").Msg);
    Word.setField(F0.Lo, F0.Width, static_cast<uint64_t>(Op.Value[0]));
    break;
  case SlotEncoding::SImm: {
    int64_t Value = Op.Value[0];
    if (Op.Negated && Value > 0)
      Value = -Value; // A unary minus folded onto a literal.
    if (!fitsSigned(Value, F0.Width))
      return Error::failure(error("literal does not fit signed field").Msg);
    Word.setField(F0.Lo, F0.Width,
                  static_cast<uint64_t>(Value) & BitString::lowMask(F0.Width));
    break;
  }
  case SlotEncoding::FImm32: {
    float F = Op.Kind == OperandKind::FloatImm
                  ? static_cast<float>(Op.FValue)
                  : static_cast<float>(Op.Value[0]);
    assert(F0.Width <= 32 && "float32 field wider than the value");
    // Lossy truncation: keep the most significant Width bits (paper §IV-A).
    uint64_t Field = floatBits(F) >> (32 - F0.Width);
    Word.setField(F0.Lo, F0.Width, Field);
    break;
  }
  case SlotEncoding::FImm64: {
    double D = Op.Kind == OperandKind::FloatImm
                   ? Op.FValue
                   : static_cast<double>(Op.Value[0]);
    assert(F0.Width <= 64 && "float64 field wider than the value");
    uint64_t Field = doubleBits(D) >> (64 - F0.Width);
    Word.setField(F0.Lo, F0.Width, Field);
    break;
  }
  case SlotEncoding::RelAddr: {
    int64_t Target = Op.Value[0];
    int64_t Offset =
        Target - static_cast<int64_t>(Pc + Spec.WordBits / 8);
    if (!fitsSigned(Offset, F0.Width))
      return Error::failure(error("branch offset out of range").Msg);
    Word.setField(F0.Lo, F0.Width,
                  static_cast<uint64_t>(Offset) & BitString::lowMask(F0.Width));
    break;
  }
  case SlotEncoding::Mem: {
    Expected<uint64_t> Id = resolveReg(Spec, Op.Value[0]);
    if (!Id)
      return Id.takeError();
    Word.setField(F0.Lo, F0.Width, *Id);
    if (!fitsSigned(Op.Value[1], F1.Width))
      return Error::failure(error("memory offset out of range").Msg);
    Word.setField(F1.Lo, F1.Width,
                  static_cast<uint64_t>(Op.Value[1]) &
                      BitString::lowMask(F1.Width));
    break;
  }
  case SlotEncoding::ConstMem: {
    if (Op.Value[1] < 0)
      return Error::failure(error("negative constant-memory offset").Msg);
    std::optional<uint64_t> Packed =
        isa::packConst(Slot.Packing, static_cast<uint64_t>(Op.Value[0]),
                       static_cast<uint64_t>(Op.Value[1]));
    if (!Packed)
      return Error::failure(error("constant operand out of range").Msg);
    Word.setField(F0.Lo, F0.Width, *Packed);
    if (F1.valid()) {
      Expected<uint64_t> Id =
          resolveReg(Spec, Op.HasRegister ? Op.Value[2] : -1);
      if (!Id)
        return Id.takeError();
      Word.setField(F1.Lo, F1.Width, *Id);
    }
    break;
  }
  case SlotEncoding::TexShape:
  case SlotEncoding::TexChannel:
  case SlotEncoding::Barrier:
  case SlotEncoding::BitSet:
    if (!fitsUnsigned(Op.Value[0], F0.Width))
      return Error::failure(error("operand value does not fit field").Msg);
    Word.setField(F0.Lo, F0.Width, static_cast<uint64_t>(Op.Value[0]));
    break;
  }

  // Operand-attached modifiers (e.g. ".reuse"). Group counts are tiny, so
  // a word of consumed-bits avoids touching the heap per operand.
  assert(Slot.OperandMods.size() <= 64 && "operand modifier groups > 64");
  uint64_t Consumed = 0;
  for (SymbolId Mod : Op.Mods) {
    bool Matched = false;
    for (size_t G = 0; G < Slot.OperandMods.size(); ++G) {
      if (Consumed & (uint64_t(1) << G))
        continue;
      const ModifierGroup &Group = IS.ModGroups[Slot.OperandMods[G]];
      const isa::ModifierChoice *Choice = Group.findBySym(Mod);
      if (!Choice)
        continue;
      Word.setField(Group.Field.Lo, Group.Field.Width, Choice->Value);
      Consumed |= uint64_t(1) << G;
      Matched = true;
      break;
    }
    if (!Matched)
      return Error::failure(error("unknown operand modifier '." +
                                  std::string(spelling(Mod)) + "'")
                                .Msg);
  }
  return Error::success();
}

Error InstEncoder::encodeModifiers(const InstrSpec &IS) {
  assert(IS.NumOpcodeMods <= 64 && "opcode modifier groups > 64");
  uint64_t Consumed = 0;
  // Match written modifiers to groups in order, so repeated groups of the
  // same type (PSETP's two logic steps, F2F's two formats) bind positionally
  // (paper §III-A).
  for (SymbolId Mod : Inst.Modifiers) {
    bool Matched = false;
    for (unsigned G = 0; G < IS.NumOpcodeMods; ++G) {
      if (Consumed & (uint64_t(1) << G))
        continue;
      const ModifierGroup &Group = IS.ModGroups[G];
      const isa::ModifierChoice *Choice = Group.findBySym(Mod);
      if (!Choice)
        continue;
      Word.setField(Group.Field.Lo, Group.Field.Width, Choice->Value);
      Consumed |= uint64_t(1) << G;
      Matched = true;
      break;
    }
    if (!Matched)
      return Error::failure(
          error("unknown modifier '." + std::string(spelling(Mod)) + "'").Msg);
  }
  for (unsigned G = 0; G < IS.NumOpcodeMods; ++G) {
    if (Consumed & (uint64_t(1) << G))
      continue;
    const ModifierGroup &Group = IS.ModGroups[G];
    if (!Group.HasDefault)
      return Error::failure(
          error("missing mandatory modifier of type " + Group.TypeName).Msg);
    Word.setField(Group.Field.Lo, Group.Field.Width, Group.DefaultValue);
  }
  return Error::success();
}

// --- Decoder ---------------------------------------------------------------

class InstDecoder {
public:
  InstDecoder(const ArchSpec &Spec, const BitString &Word, uint64_t Pc,
              std::string_view ErrorPrefix)
      : Spec(Spec), Word(Word), Pc(Pc), ErrorPrefix(ErrorPrefix) {}

  Expected<Instruction> run();

private:
  const ArchSpec &Spec;
  const BitString &Word;
  uint64_t Pc;
  std::string_view ErrorPrefix;

  /// The decode's one failure message, built in a single buffer:
  /// "<prefix>decode error (<arch>): <what><detail> in word <hex>".
  Failure error(std::string_view What, std::string_view Detail = {}) const {
    std::string_view Arch = Spec.name();
    std::string Msg;
    Msg.reserve(ErrorPrefix.size() + Arch.size() + What.size() +
                Detail.size() + 26 + Word.size() / 4);
    Msg += ErrorPrefix;
    Msg += "decode error (";
    Msg += Arch;
    Msg += "): ";
    Msg += What;
    Msg += Detail;
    Msg += " in word ";
    Word.appendHex(Msg);
    return Failure(std::move(Msg));
  }

  Expected<Operand> decodeOperand(const OperandSlot &Slot,
                                  const InstrSpec &IS);
};

Expected<Instruction> InstDecoder::run() {
  const InstrSpec *IS = Spec.match(Word);
  if (!IS)
    return error("unknown instruction word");

  Instruction Inst;
  Inst.setOpcode(IS->MnemonicSym);

  uint64_t GuardValue = Word.field(Spec.GuardField.Lo, Spec.GuardField.Width);
  Inst.GuardPredicate = GuardValue & 7;
  Inst.GuardNegated = (GuardValue >> 3) & 1;

  for (const OperandSlot &Slot : IS->Operands) {
    Expected<Operand> Op = decodeOperand(Slot, *IS);
    if (!Op)
      return std::move(Op).takeError();
    Inst.Operands.push_back(*Op);
  }

  // Opcode-attached modifiers in group order.
  for (unsigned G = 0; G < IS->NumOpcodeMods; ++G) {
    const ModifierGroup &Group = IS->ModGroups[G];
    uint64_t Value = Word.field(Group.Field.Lo, Group.Field.Width);
    const isa::ModifierChoice *Choice = Group.findByValue(Value);
    if (!Choice)
      return error("invalid encoding for modifier type ", Group.TypeName);
    if (Choice->Sym != InvalidSymbolId)
      Inst.Modifiers.push_back(Choice->Sym);
  }
  return Inst;
}

Expected<Operand> InstDecoder::decodeOperand(const OperandSlot &Slot,
                                             const InstrSpec &IS) {
  const isa::FieldRef &F0 = Slot.Fields[0];
  const isa::FieldRef &F1 = Slot.Fields[1];
  Operand Op;

  switch (Slot.Enc) {
  case SlotEncoding::Reg: {
    uint64_t Id = Word.field(F0.Lo, F0.Width);
    Op = Operand::makeRegister(static_cast<unsigned>(Id));
    if (Id == Spec.zeroReg())
      Op.Value[0] = -1;
    break;
  }
  case SlotEncoding::Pred:
    Op = Operand::makePredicate(
        static_cast<unsigned>(Word.field(F0.Lo, F0.Width)));
    break;
  case SlotEncoding::SpecialReg: {
    uint64_t Code = Word.field(F0.Lo, F0.Width);
    SymbolId Name = isa::specialRegSym(static_cast<unsigned>(Code));
    if (Name == InvalidSymbolId)
      return error("unassigned special register code");
    Op = Operand::makeSpecialReg(Name);
    break;
  }
  case SlotEncoding::UImm:
    Op = Operand::makeIntImm(
        static_cast<int64_t>(Word.field(F0.Lo, F0.Width)));
    break;
  case SlotEncoding::SImm:
    Op = Operand::makeIntImm(Word.signedField(F0.Lo, F0.Width));
    break;
  case SlotEncoding::FImm32: {
    uint32_t Bits =
        static_cast<uint32_t>(Word.field(F0.Lo, F0.Width) << (32 - F0.Width));
    float F = floatFromBits(Bits);
    // Inf/NaN have no re-parseable assembly spelling; the real tool's
    // listing for such words is garbage the toolchain itself rejects.
    if (!std::isfinite(F))
      return error("non-finite float immediate");
    Op = Operand::makeFloatImm(F);
    break;
  }
  case SlotEncoding::FImm64: {
    uint64_t Bits = Word.field(F0.Lo, F0.Width) << (64 - F0.Width);
    double D = doubleFromBits(Bits);
    if (!std::isfinite(D))
      return error("non-finite float immediate");
    Op = Operand::makeFloatImm(D);
    break;
  }
  case SlotEncoding::RelAddr: {
    int64_t Offset = Word.signedField(F0.Lo, F0.Width);
    int64_t Target = Offset + static_cast<int64_t>(Pc + Spec.WordBits / 8);
    Op = Operand::makeIntImm(Target);
    break;
  }
  case SlotEncoding::Mem: {
    uint64_t Id = Word.field(F0.Lo, F0.Width);
    Op = Operand::makeMemory(static_cast<unsigned>(Id),
                             Word.signedField(F1.Lo, F1.Width));
    if (Id == Spec.zeroReg())
      Op.Value[0] = -1;
    break;
  }
  case SlotEncoding::ConstMem: {
    uint64_t Bank, Offset;
    isa::unpackConst(Slot.Packing, Word.field(F0.Lo, F0.Width), Bank, Offset);
    if (F1.valid()) {
      uint64_t Id = Word.field(F1.Lo, F1.Width);
      if (Id != Spec.zeroReg()) {
        Op = Operand::makeConstMemReg(static_cast<unsigned>(Bank),
                                      static_cast<unsigned>(Id),
                                      static_cast<int64_t>(Offset));
        break;
      }
    }
    Op = Operand::makeConstMem(static_cast<unsigned>(Bank),
                               static_cast<int64_t>(Offset));
    break;
  }
  case SlotEncoding::TexShape: {
    uint64_t Value = Word.field(F0.Lo, F0.Width);
    if (Value > static_cast<uint64_t>(sass::TexShapeKind::Array2D))
      return error("invalid texture shape encoding");
    Op = Operand::makeTexShape(static_cast<sass::TexShapeKind>(Value));
    break;
  }
  case SlotEncoding::TexChannel: {
    uint64_t Mask = Word.field(F0.Lo, F0.Width);
    // An all-zero mask would print as an empty operand, which no parser
    // (including ours) accepts back.
    if (Mask == 0)
      return error("empty texture channel mask");
    Op = Operand::makeTexChannel(static_cast<unsigned>(Mask));
    break;
  }
  case SlotEncoding::Barrier:
    Op = Operand::makeBarrier(
        static_cast<unsigned>(Word.field(F0.Lo, F0.Width)));
    break;
  case SlotEncoding::BitSet:
    Op = Operand::makeBitSet(Word.field(F0.Lo, F0.Width));
    break;
  }

  if (Slot.NegBit != 0xff && Word.get(Slot.NegBit))
    Op.Negated = true;
  if (Slot.AbsBit != 0xff && Word.get(Slot.AbsBit))
    Op.Absolute = true;
  if (Slot.InvBit != 0xff && Word.get(Slot.InvBit))
    Op.Complemented = true;
  if (Slot.NotBit != 0xff && Word.get(Slot.NotBit))
    Op.LogicalNot = true;

  // Operand-attached modifiers.
  for (unsigned ModIdx : Slot.OperandMods) {
    const ModifierGroup &Group = IS.ModGroups[ModIdx];
    uint64_t Value = Word.field(Group.Field.Lo, Group.Field.Width);
    const isa::ModifierChoice *Choice = Group.findByValue(Value);
    if (!Choice)
      return error("invalid encoding for operand modifier type ",
                   Group.TypeName);
    if (Choice->Sym != InvalidSymbolId)
      Op.Mods.push_back(Choice->Sym);
  }
  return Op;
}

} // namespace

Expected<BitString> encoder::encodeInstruction(const ArchSpec &Spec,
                                               const Instruction &Inst,
                                               uint64_t Pc) {
  return InstEncoder(Spec, Inst, Pc).run();
}

Expected<Instruction> encoder::decodeInstruction(const ArchSpec &Spec,
                                                 const BitString &Word,
                                                 uint64_t Pc,
                                                 std::string_view ErrorPrefix) {
  return InstDecoder(Spec, Word, Pc, ErrorPrefix).run();
}

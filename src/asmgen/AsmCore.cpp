//===- asmgen/AsmCore.cpp -------------------------------------------------===//

#include "asmgen/AsmCore.h"

#include <algorithm>
#include <string>

using namespace dcb;
using namespace dcb::asmgen;
using namespace dcb::analyzer;

namespace {

/// Forces every consistent bit of a packed pattern onto \p Word
/// (Algorithm 3's "binary[b] = m.binary[b]") with whole-word stores.
void applyPattern(BitString &Word, const PackedPattern &P) {
  for (unsigned W = 0; W < P.NumWords; ++W) {
    unsigned Lo = W * 64;
    if (Lo >= Word.size())
      break;
    unsigned Width = std::min<unsigned>(64, Word.size() - Lo);
    uint64_t Current = Word.field(Lo, Width);
    uint64_t Next = (Current & ~P.Mask[W]) | (P.Value[W] & P.Mask[W]);
    Word.setField(Lo, Width, Next);
  }
}

/// Writes a component value into every window it fits. Returns false when
/// windows exist but the value fits none (the learned fields cannot express
/// it), or when no window exists and the value is not the zero background.
bool writeComponentWindows(BitString &Word,
                           const std::vector<WindowRef> &Windows,
                           const CompValue &Value) {
  if (Windows.empty())
    return Value.Int == 0 || (Value.IsReg && Value.Int < 0);
  bool AnyWritten = false;
  for (const WindowRef &W : Windows) {
    uint64_t Content;
    if (!interpEncode(static_cast<InterpKind>(W.Kind), Value, W.Size,
                      Content))
      continue;
    Word.setField(W.Lo, W.Size, Content);
    AnyWritten = true;
  }
  return AnyWritten;
}

/// Extracts component \p CompIdx of an operand into \p Value. Must mirror
/// the analyzer's value extraction exactly. Returns false for operand kinds
/// without numeric components (named tokens).
bool componentValue(const sass::Operand &Op, unsigned CompIdx, uint64_t Addr,
                    unsigned WordBytes, CompValue &Value) {
  using sass::OperandKind;
  Value = CompValue();
  Value.InstAddr = Addr;
  Value.WordBytes = WordBytes;
  switch (Op.Kind) {
  case OperandKind::Register:
    Value.Int = Op.Value[0];
    Value.IsReg = true;
    return true;
  case OperandKind::Predicate:
  case OperandKind::Barrier:
  case OperandKind::BitSet:
    Value.Int = Op.Value[0];
    return true;
  case OperandKind::IntImm: {
    int64_t V = Op.Value[0];
    if (Op.Negated && V > 0)
      V = -V;
    Value.Int = V;
    return true;
  }
  case OperandKind::FloatImm:
    Value.Float = Op.FValue;
    return true;
  case OperandKind::Memory:
    if (CompIdx == 0) {
      Value.Int = Op.Value[0];
      Value.IsReg = true;
    } else {
      Value.Int = Op.Value[1];
    }
    return true;
  case OperandKind::ConstMem:
    if (CompIdx == 0) {
      Value.Int = Op.Value[0];
    } else if (CompIdx == 1) {
      Value.Int = Op.Value[1];
    } else {
      Value.Int = Op.Value[2];
      Value.IsReg = true;
    }
    return true;
  case OperandKind::SpecialReg:
  case OperandKind::TexShape:
  case OperandKind::TexChannel:
    return false;
  }
  return false;
}

/// "unknown <What> '.<spelling>'".
Failure unknownModifier(const char *What, SymbolId Mod) {
  return Failure(std::string("unknown ") + What + " '." +
                 std::string(SymbolTable::global().spelling(Mod)) + "'");
}

/// The unary operators an operand can carry, in application order.
struct UnaryCase {
  bool Present;
  char Ch;
  const char *What;
};

} // namespace

Expected<BitString> asmgen::assembleOperation(const FrozenOperation &Op,
                                              const sass::Instruction &Inst,
                                              uint64_t Pc,
                                              unsigned WordBits) {
  if (Inst.Operands.size() != Op.Operands.size())
    return Failure("operand count mismatch");

  BitString Word(WordBits);

  // 1. Opcode bits.
  applyPattern(Word, Op.Opcode);

  // 2. Opcode-attached modifiers, matched by (name, same-type occurrence)
  //    so PSETP.AND.OR and PSETP.OR.AND encode differently (§III-A). The
  //    occurrence index counts previous modifiers of the same *type*
  //    (FrozenMod::Type interns modifierType()).
  SymbolId Types[sass::MaxModifiers];
  for (size_t MI = 0; MI < Inst.Modifiers.size(); ++MI) {
    const SymbolId Id = Inst.Modifiers[MI];
    SymbolId Type = Op.modType(Id);
    if (Type == InvalidSymbolId)
      return unknownModifier("modifier", Id);
    unsigned Occurrence = 0;
    for (size_t Prev = 0; Prev < MI; ++Prev)
      Occurrence += Types[Prev] == Type;
    Types[MI] = Type;
    const PackedPattern *Pattern = Op.findMod(Id, Occurrence);
    if (!Pattern)
      return unknownModifier("modifier", Id);
    applyPattern(Word, *Pattern);
  }

  // 3. Operands: attached modifiers, unary operators and named tokens
  //    first; value components last so the most variable information wins
  //    any stale overlap.
  const unsigned WordBytes = WordBits / 8;
  for (size_t I = 0; I < Inst.Operands.size(); ++I) {
    const sass::Operand &Operand = Inst.Operands[I];
    const FrozenOperand &Rec = Op.Operands[I];

    for (SymbolId Mod : Operand.Mods) {
      const PackedPattern *Pattern = Rec.findMod(Mod);
      if (!Pattern)
        return unknownModifier("operand modifier", Mod);
      applyPattern(Word, *Pattern);
    }

    UnaryCase Unaries[] = {
        {Operand.Negated && Operand.Kind != sass::OperandKind::IntImm, '-',
         "negation"},
        {Operand.Complemented, '~', "bitwise complement"},
        {Operand.Absolute, '|', "absolute value"},
        {Operand.LogicalNot, '!', "logical negation"},
    };
    for (const UnaryCase &U : Unaries) {
      if (!U.Present)
        continue;
      const PackedPattern &Pattern =
          Rec.Unaries[FrozenOperand::unarySlot(U.Ch)];
      if (!Pattern)
        return Failure(std::string("unlearned unary ") + U.What);
      applyPattern(Word, Pattern);
    }

    if (SymbolId Token = sass::tokenSym(Operand); Token != InvalidSymbolId) {
      const PackedPattern *Pattern = Rec.findToken(Token);
      if (!Pattern)
        return Failure("unlearned token '" +
                       std::string(SymbolTable::global().spelling(Token)) +
                       "'");
      applyPattern(Word, *Pattern);
      continue;
    }

    for (unsigned Comp = 0; Comp < Rec.CompWindows.size(); ++Comp) {
      CompValue Value;
      if (!componentValue(Operand, Comp, Pc, WordBytes, Value))
        continue;
      if (!writeComponentWindows(Word, Rec.CompWindows[Comp], Value))
        return Failure("operand " + std::to_string(I) + " component " +
                       std::to_string(Comp) + " fits no learned field");
    }
  }

  // 4. The conditional guard, last (Fig. 7).
  CompValue GuardValue;
  GuardValue.Int = (Inst.GuardNegated ? 8 : 0) |
                   static_cast<int64_t>(Inst.GuardPredicate);
  GuardValue.InstAddr = Pc;
  GuardValue.WordBytes = WordBytes;
  if (!writeComponentWindows(Word, Op.GuardWindows, GuardValue))
    return Failure("guard fits no learned field");

  return Word;
}

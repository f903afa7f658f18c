//===- sass/Parser.cpp ----------------------------------------------------===//

#include "sass/Parser.h"

#include "support/StringUtils.h"

#include <cassert>
#include <cstdlib>

using namespace dcb;
using namespace dcb::sass;

namespace {

/// The two's-complement value of a literal with magnitude \p Magnitude,
/// negated in unsigned arithmetic so "-0x8000000000000000" is INT64_MIN
/// rather than a signed overflow.
int64_t applySign(bool Negative, uint64_t Magnitude) {
  return static_cast<int64_t>(Negative ? uint64_t(0) - Magnitude
                                       : Magnitude);
}

/// Character-level parser over one instruction's text. It writes straight
/// into the record it is given; every step returns false on the first
/// error, whose message it leaves in Msg.
class InstParser {
public:
  explicit InstParser(std::string_view Text) : Text(Text) {}

  /// Parses the whole text into \p Inst, which starts default-constructed.
  Error run(Instruction &Inst) {
    if (parseInstruction(Inst))
      return Error::success();
    return Error::failure(std::move(Msg));
  }

private:
  std::string_view Text;
  size_t Pos = 0;
  std::string Msg;

  bool atEnd() const { return Pos >= Text.size(); }
  char peek() const { return atEnd() ? '\0' : Text[Pos]; }
  bool consume(char C) {
    if (peek() != C)
      return false;
    ++Pos;
    return true;
  }
  void skipSpace() {
    while (!atEnd() && isAsciiSpace(Text[Pos]))
      ++Pos;
  }

  /// Records "sass parse error at column N: <What> in '<text>'".
  bool error(const std::string &What) {
    Msg = "sass parse error at column " + std::to_string(Pos) + ": " + What +
          " in '" + std::string(Text) + "'";
    return false;
  }

  static bool isIdentChar(char C) { return isAsciiAlnum(C) || C == '_'; }

  /// Reads a run of identifier characters.
  std::string_view readIdent() {
    size_t Start = Pos;
    while (!atEnd() && isIdentChar(Text[Pos]))
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }

  /// Interns \p Spelling into \p Id; an error when the table is full.
  bool intern(std::string_view Spelling, SymbolId &Id) {
    Id = SymbolTable::global().intern(Spelling);
    return Id != InvalidSymbolId ||
           error("symbol table full, cannot intern '" + std::string(Spelling) +
                 "'");
  }

  bool parseInstruction(Instruction &Inst);
  bool parseOperand(Operand &Op);
  bool parseOperandCore(Operand &Op);
  bool parseNumberOrShape(bool Negative, Operand &Op);
  bool parseMemory(Operand &Op);
  bool parseConstMem(Operand &Op);
  bool parseBitSet(Operand &Op);
  bool classifyIdent(std::string_view Ident, Operand &Op);
  bool parseIntLiteral(int64_t &Value);
  bool parseOperandSuffixMods(Operand &Op);
};

bool InstParser::parseInstruction(Instruction &Inst) {
  skipSpace();

  // Optional guard: @P3 or @!P3 or @PT.
  if (consume('@')) {
    Inst.GuardNegated = consume('!');
    std::string_view Pred = readIdent();
    if (Pred == "PT") {
      Inst.GuardPredicate = 7;
    } else if (Pred.size() >= 2 && Pred[0] == 'P') {
      std::optional<uint64_t> Id = parseUInt(Pred.substr(1));
      if (!Id || *Id > 6)
        return error("bad guard predicate '" + std::string(Pred) + "'");
      Inst.GuardPredicate = static_cast<uint8_t>(*Id);
    } else {
      return error("bad guard predicate '" + std::string(Pred) + "'");
    }
    skipSpace();
  }

  // Opcode and its dotted modifiers, interned as they are read.
  std::string_view Opcode = readIdent();
  if (Opcode.empty())
    return error("expected an opcode");
  SymbolId Sym;
  if (!intern(Opcode, Sym))
    return false;
  Inst.setOpcode(Sym);
  while (consume('.')) {
    if (Inst.Modifiers.full())
      return error("more than " + std::to_string(MaxModifiers) +
                   " modifiers");
    std::string_view Mod = readIdent();
    if (Mod.empty())
      return error("expected a modifier after '.'");
    if (!intern(Mod, Sym))
      return false;
    Inst.Modifiers.push_back(Sym);
  }

  // Operand list.
  skipSpace();
  if (!atEnd() && peek() != ';') {
    while (true) {
      if (Inst.Operands.full())
        return error("more than " + std::to_string(MaxOperands) +
                     " operands");
      if (!parseOperand(Inst.Operands.push_back(Operand())))
        return false;
      skipSpace();
      if (!consume(','))
        break;
      skipSpace();
    }
  }

  skipSpace();
  consume(';');
  skipSpace();
  return atEnd() || error("trailing characters after instruction");
}

bool InstParser::parseOperand(Operand &Op) {
  // Unary prefixes. '-' on a numeric literal becomes a negative literal
  // instead (the ambiguity the analyzer must itself resolve, per §III-A).
  bool Negated = false, Complemented = false, LogicalNot = false;
  while (true) {
    if (peek() == '-' && Pos + 1 < Text.size() &&
        !isAsciiDigit(Text[Pos + 1])) {
      ++Pos;
      Negated = true;
      continue;
    }
    if (consume('~')) {
      Complemented = true;
      continue;
    }
    if (consume('!')) {
      LogicalNot = true;
      continue;
    }
    break;
  }

  bool Absolute = consume('|');
  if (!parseOperandCore(Op))
    return false;
  if (Absolute && !consume('|'))
    return error("expected closing '|' for absolute value");

  Op.Negated |= Negated;
  Op.Complemented |= Complemented;
  Op.LogicalNot |= LogicalNot;
  Op.Absolute |= Absolute;
  return parseOperandSuffixMods(Op);
}

bool InstParser::parseOperandSuffixMods(Operand &Op) {
  // Operand-attached modifiers, e.g. R4.CC or R2.reuse.
  while (peek() == '.') {
    size_t Save = Pos;
    ++Pos;
    std::string_view Mod = readIdent();
    if (Mod.empty()) {
      Pos = Save;
      return true;
    }
    if (Op.Mods.full())
      return error("more than " + std::to_string(MaxOperandMods) +
                   " operand modifiers");
    SymbolId Sym;
    if (!intern(Mod, Sym))
      return false;
    Op.Mods.push_back(Sym);
  }
  return true;
}

bool InstParser::parseOperandCore(Operand &Op) {
  char C = peek();
  if (C == '[')
    return parseMemory(Op);
  if (C == '{')
    return parseBitSet(Op);
  if (C == 'c' && Pos + 1 < Text.size() && Text[Pos + 1] == '[') {
    ++Pos; // consume 'c'
    return parseConstMem(Op);
  }
  if (isAsciiDigit(C))
    return parseNumberOrShape(/*Negative=*/false, Op);
  if (C == '-') {
    ++Pos;
    return parseNumberOrShape(/*Negative=*/true, Op);
  }
  if (isAsciiAlpha(C) || C == '_') {
    size_t Start = Pos;
    std::string_view Ident = readIdent();
    // Special registers may contain dots (SR_TID.X); greedily absorb a
    // dotted suffix for SR_ names only.
    if (startsWith(Ident, "SR_")) {
      while (peek() == '.') {
        ++Pos;
        readIdent();
      }
      SymbolId Sym;
      if (!intern(Text.substr(Start, Pos - Start), Sym))
        return false;
      Op = Operand::makeSpecialReg(Sym);
      return true;
    }
    return classifyIdent(Ident, Op);
  }
  return error("cannot parse operand");
}

bool InstParser::parseNumberOrShape(bool Negative, Operand &Op) {
  size_t Start = Pos;
  // Hexadecimal literal.
  if (peek() == '0' && Pos + 1 < Text.size() &&
      (Text[Pos + 1] == 'x' || Text[Pos + 1] == 'X')) {
    Pos += 2;
    size_t DigitsStart = Pos;
    while (!atEnd() && isAsciiHexDigit(Text[Pos]))
      ++Pos;
    if (Pos == DigitsStart)
      return error("expected hex digits after 0x");
    std::optional<uint64_t> V =
        parseHexDigits(Text.substr(DigitsStart, Pos - DigitsStart));
    if (!V)
      return error("bad hex literal");
    Op = Operand::makeIntImm(applySign(Negative, *V));
    return true;
  }

  // Decimal digits.
  while (!atEnd() && isAsciiDigit(Text[Pos]))
    ++Pos;

  // Texture shape: 1D / 2D / 3D.
  if (!Negative && peek() == 'D' && Pos - Start == 1) {
    char Dim = Text[Start];
    ++Pos;
    if (Dim < '1' || Dim > '3')
      return error("bad texture shape");
    Op = Operand::makeTexShape(static_cast<TexShapeKind>(Dim - '1'));
    return true;
  }

  // Float literal if a fraction or exponent follows.
  bool IsFloat = false;
  if (peek() == '.' && Pos + 1 < Text.size() && isAsciiDigit(Text[Pos + 1])) {
    IsFloat = true;
    ++Pos;
    while (!atEnd() && isAsciiDigit(Text[Pos]))
      ++Pos;
  }
  if (peek() == 'e' || peek() == 'E') {
    size_t Save = Pos;
    ++Pos;
    if (peek() == '+' || peek() == '-')
      ++Pos;
    if (isAsciiDigit(peek())) {
      IsFloat = true;
      while (!atEnd() && isAsciiDigit(Text[Pos]))
        ++Pos;
    } else {
      Pos = Save;
    }
  }

  std::string_view Body = Text.substr(Start, Pos - Start);
  if (Body.empty())
    return error("expected a number");
  if (IsFloat) {
    double FV = std::strtod(std::string(Body).c_str(), nullptr);
    Op = Operand::makeFloatImm(Negative ? -FV : FV);
    return true;
  }
  std::optional<uint64_t> V = parseUInt(Body);
  if (!V)
    return error("bad integer literal");
  Op = Operand::makeIntImm(applySign(Negative, *V));
  return true;
}

bool InstParser::parseMemory(Operand &Op) {
  if (!consume('['))
    return error("expected '['");
  skipSpace();
  std::string_view Reg = readIdent();
  int64_t BaseReg = 0;
  if (Reg == "RZ") {
    BaseReg = -1; // Canonical marker; the encoder substitutes the max id.
  } else if (Reg.size() >= 2 && Reg[0] == 'R') {
    std::optional<uint64_t> Id = parseUInt(Reg.substr(1));
    if (!Id)
      return error("bad base register '" + std::string(Reg) + "'");
    BaseReg = static_cast<unsigned>(*Id);
  } else {
    return error("expected base register in memory operand");
  }
  int64_t Offset = 0;
  skipSpace();
  if (consume('+')) {
    skipSpace();
    if (!parseIntLiteral(Offset))
      return false;
  } else if (peek() == '-') {
    if (!parseIntLiteral(Offset))
      return false;
  }
  skipSpace();
  if (!consume(']'))
    return error("expected ']'");
  Op = Operand::makeMemory(0, Offset);
  Op.Value[0] = BaseReg;
  return true;
}

bool InstParser::parseConstMem(Operand &Op) {
  // 'c' already consumed; expect [bank][(reg+)?offset].
  if (!consume('['))
    return error("expected '[' after c");
  int64_t Bank;
  if (!parseIntLiteral(Bank))
    return false;
  if (!consume(']'))
    return error("expected ']' after constant bank");
  if (!consume('['))
    return error("expected second '[' in constant operand");
  skipSpace();

  bool HasReg = false;
  int64_t RegId = 0;
  if (peek() == 'R') {
    size_t Save = Pos;
    std::string_view Reg = readIdent();
    if (Reg == "RZ") {
      HasReg = true;
      RegId = -1;
    } else {
      std::optional<uint64_t> Id = parseUInt(Reg.substr(1));
      if (Id) {
        HasReg = true;
        RegId = static_cast<unsigned>(*Id);
      } else {
        Pos = Save;
      }
    }
    if (HasReg) {
      skipSpace();
      if (!consume('+'))
        return error("expected '+' after register in constant operand");
      skipSpace();
    }
  }

  int64_t Offset;
  if (!parseIntLiteral(Offset))
    return false;
  if (!consume(']'))
    return error("expected closing ']' in constant operand");

  Op = Operand::makeConstMem(static_cast<unsigned>(Bank), Offset);
  if (HasReg) {
    Op.HasRegister = true;
    Op.Value[2] = RegId;
  }
  return true;
}

bool InstParser::parseBitSet(Operand &Op) {
  if (!consume('{'))
    return error("expected '{'");
  uint64_t Mask = 0;
  skipSpace();
  if (!consume('}')) {
    while (true) {
      int64_t Bit;
      if (!parseIntLiteral(Bit))
        return false;
      if (Bit < 0 || Bit >= 64)
        return error("bit index out of range in bit set");
      Mask |= uint64_t(1) << Bit;
      skipSpace();
      if (consume('}'))
        break;
      if (!consume(','))
        return error("expected ',' or '}' in bit set");
      skipSpace();
    }
  }
  Op = Operand::makeBitSet(Mask);
  return true;
}

bool InstParser::classifyIdent(std::string_view Ident, Operand &Op) {
  if (Ident == "RZ") {
    Op = Operand::makeRegister(0);
    Op.Value[0] = -1; // Canonical zero-register marker.
    return true;
  }
  if (Ident == "PT") {
    Op = Operand::makePredicate(7);
    return true;
  }

  if (Ident.size() >= 2 && Ident[0] == 'R' && isAsciiDigit(Ident[1])) {
    std::optional<uint64_t> Id = parseUInt(Ident.substr(1));
    if (!Id || *Id > 254)
      return error("bad register '" + std::string(Ident) + "'");
    Op = Operand::makeRegister(static_cast<unsigned>(*Id));
    return true;
  }
  if (Ident.size() >= 2 && Ident[0] == 'P' && isAsciiDigit(Ident[1])) {
    std::optional<uint64_t> Id = parseUInt(Ident.substr(1));
    if (!Id || *Id > 6)
      return error("bad predicate '" + std::string(Ident) + "'");
    Op = Operand::makePredicate(static_cast<unsigned>(*Id));
    return true;
  }
  if (Ident.size() >= 3 && Ident[0] == 'S' && Ident[1] == 'B' &&
      isAsciiDigit(Ident[2])) {
    std::optional<uint64_t> Id = parseUInt(Ident.substr(2));
    if (!Id || *Id > 7)
      return error("bad scoreboard '" + std::string(Ident) + "'");
    Op = Operand::makeBarrier(static_cast<unsigned>(*Id));
    return true;
  }

  // Texture shapes spelled with letters.
  TexShapeKind Shape;
  if (parseTexShapeName(Ident, Shape)) {
    Op = Operand::makeTexShape(Shape);
    return true;
  }

  // Texture channel combination: subset of R, G, B, A in canonical order.
  static constexpr std::string_view Channels = "RGBA";
  unsigned Mask = 0;
  bool IsChannel = !Ident.empty();
  size_t LastIdx = 0;
  for (char C : Ident) {
    size_t Idx = Channels.find(C);
    if (Idx == std::string_view::npos || (Mask && Idx <= LastIdx)) {
      IsChannel = false;
      break;
    }
    LastIdx = Idx;
    Mask |= 1u << Idx;
  }
  if (IsChannel) {
    Op = Operand::makeTexChannel(Mask);
    return true;
  }

  return error("unknown operand '" + std::string(Ident) + "'");
}

bool InstParser::parseIntLiteral(int64_t &Value) {
  bool Negative = consume('-');
  size_t Start = Pos;
  if (peek() == '0' && Pos + 1 < Text.size() &&
      (Text[Pos + 1] == 'x' || Text[Pos + 1] == 'X')) {
    Pos += 2;
  }
  while (!atEnd() && isAsciiHexDigit(Text[Pos]))
    ++Pos;
  std::string_view Body = Text.substr(Start, Pos - Start);
  std::optional<uint64_t> V = parseUInt(Body);
  if (!V) {
    // The one message without the column prefix.
    Msg = "bad integer literal '" + std::string(Body) + "'";
    return false;
  }
  Value = applySign(Negative, *V);
  return true;
}

} // namespace

Error sass::parseInstruction(std::string_view Text, Instruction &Inst) {
  assert(Inst == Instruction() && "parsing into a used record");
  return InstParser(trim(Text)).run(Inst);
}

Expected<Instruction> sass::parseInstruction(std::string_view Text) {
  Instruction Inst;
  if (Error E = InstParser(trim(Text)).run(Inst))
    return E;
  return Inst;
}

Expected<std::vector<Instruction>> sass::parseProgram(std::string_view Text) {
  std::vector<Instruction> Program;
  for (std::string_view Line : splitLines(Text)) {
    // Strip /* ... */ comments (the hex column of listings).
    size_t CommentPos = Line.find("/*");
    if (CommentPos != std::string_view::npos)
      Line = Line.substr(0, CommentPos);
    Line = trim(Line);
    if (Line.empty() || startsWith(Line, "//") || startsWith(Line, "#"))
      continue;
    Expected<Instruction> Inst = parseInstruction(Line);
    if (!Inst)
      return Inst.takeError();
    Program.push_back(*Inst);
  }
  return Program;
}

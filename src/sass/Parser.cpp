//===- sass/Parser.cpp ----------------------------------------------------===//

#include "sass/Parser.h"

#include "support/StringUtils.h"

#include <cctype>
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

/// Character-level parser over one instruction's text.
class InstParser {
public:
  explicit InstParser(std::string_view Text) : Text(Text) {}

  Expected<Instruction> run();

private:
  std::string_view Text;
  size_t Pos = 0;

  bool atEnd() const { return Pos >= Text.size(); }
  char peek() const { return atEnd() ? '\0' : Text[Pos]; }
  char take() { return Text[Pos++]; }
  bool consume(char C) {
    if (peek() != C)
      return false;
    ++Pos;
    return true;
  }
  void skipSpace() {
    while (!atEnd() && std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  Failure error(const std::string &Msg) const {
    return Failure("sass parse error at column " + std::to_string(Pos) + ": " +
                   Msg + " in '" + std::string(Text) + "'");
  }

  static bool isIdentChar(char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  }

  /// Reads a run of identifier characters.
  std::string readIdent() {
    size_t Start = Pos;
    while (!atEnd() && isIdentChar(Text[Pos]))
      ++Pos;
    return std::string(Text.substr(Start, Pos - Start));
  }

  Expected<Instruction> parseBody();
  Expected<Operand> parseOperand();
  Expected<Operand> parseOperandCore();
  Expected<Operand> parseNumberOrShape(bool Negative);
  Expected<Operand> parseMemory();
  Expected<Operand> parseConstMem();
  Expected<Operand> parseBitSet();
  Expected<Operand> classifyIdent(const std::string &Ident);
  Expected<int64_t> parseIntLiteral();
  void parseOperandSuffixMods(Operand &Op);
};

Expected<Instruction> InstParser::run() {
  skipSpace();
  Expected<Instruction> Result = parseBody();
  if (!Result)
    return Result;
  skipSpace();
  consume(';');
  skipSpace();
  if (!atEnd())
    return error("trailing characters after instruction");
  return Result;
}

Expected<Instruction> InstParser::parseBody() {
  Instruction Inst;

  // Optional guard: @P3 or @!P3 or @PT.
  if (consume('@')) {
    Inst.GuardNegated = consume('!');
    std::string Pred = readIdent();
    if (Pred == "PT") {
      Inst.GuardPredicate = 7;
    } else if (Pred.size() >= 2 && Pred[0] == 'P') {
      std::optional<uint64_t> Id = parseUInt(Pred.substr(1));
      if (!Id || *Id > 6)
        return error("bad guard predicate '" + Pred + "'");
      Inst.GuardPredicate = static_cast<unsigned>(*Id);
    } else {
      return error("bad guard predicate '" + Pred + "'");
    }
    skipSpace();
  }

  // Opcode and its dotted modifiers, interned as they are read so the
  // assembly pipeline dispatches on integer ids.
  std::string Opcode = readIdent();
  if (Opcode.empty())
    return error("expected an opcode");
  const SymbolId Sym = SymbolTable::global().intern(Opcode);
  Inst.setOpcode(std::move(Opcode), Sym);
  while (consume('.')) {
    std::string Mod = readIdent();
    if (Mod.empty())
      return error("expected a modifier after '.'");
    Inst.ModifierSyms.push_back(SymbolTable::global().intern(Mod));
    Inst.Modifiers.push_back(std::move(Mod));
  }

  skipSpace();
  if (atEnd() || peek() == ';')
    return Inst;

  // Operand list.
  while (true) {
    Expected<Operand> Op = parseOperand();
    if (!Op)
      return Op.takeError();
    Inst.Operands.push_back(Op.takeValue());
    skipSpace();
    if (!consume(','))
      break;
    skipSpace();
  }
  return Inst;
}

Expected<Operand> InstParser::parseOperand() {
  // Unary prefixes. '-' on a numeric literal becomes a negative literal
  // instead (the ambiguity the analyzer must itself resolve, per §III-A).
  bool Negated = false, Complemented = false, LogicalNot = false;
  while (true) {
    if (peek() == '-' && Pos + 1 < Text.size() &&
        !std::isdigit(static_cast<unsigned char>(Text[Pos + 1]))) {
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

  Expected<Operand> Core = parseOperandCore();
  if (!Core)
    return Core;
  Operand Op = Core.takeValue();

  if (Absolute && !consume('|'))
    return error("expected closing '|' for absolute value");

  Op.Negated |= Negated;
  Op.Complemented |= Complemented;
  Op.LogicalNot |= LogicalNot;
  Op.Absolute |= Absolute;

  parseOperandSuffixMods(Op);
  return Op;
}

void InstParser::parseOperandSuffixMods(Operand &Op) {
  // Operand-attached modifiers, e.g. R4.CC or R2.reuse.
  while (peek() == '.') {
    size_t Save = Pos;
    ++Pos;
    std::string Mod = readIdent();
    if (Mod.empty()) {
      Pos = Save;
      return;
    }
    Op.Mods.push_back(Mod);
  }
}

Expected<Operand> InstParser::parseOperandCore() {
  char C = peek();
  if (C == '[')
    return parseMemory();
  if (C == '{')
    return parseBitSet();
  if (C == 'c' && Pos + 1 < Text.size() && Text[Pos + 1] == '[') {
    ++Pos; // consume 'c'
    return parseConstMem();
  }
  if (std::isdigit(static_cast<unsigned char>(C)))
    return parseNumberOrShape(/*Negative=*/false);
  if (C == '-') {
    ++Pos;
    return parseNumberOrShape(/*Negative=*/true);
  }
  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
    std::string Ident = readIdent();
    // Special registers may contain dots (SR_TID.X); greedily absorb a
    // dotted suffix for SR_ names only.
    if (startsWith(Ident, "SR_")) {
      while (peek() == '.') {
        ++Pos;
        Ident += '.';
        Ident += readIdent();
      }
      return Operand::makeSpecialReg(Ident);
    }
    return classifyIdent(Ident);
  }
  return error("cannot parse operand");
}

Expected<Operand> InstParser::parseNumberOrShape(bool Negative) {
  size_t Start = Pos;
  // Hexadecimal literal.
  if (peek() == '0' && Pos + 1 < Text.size() &&
      (Text[Pos + 1] == 'x' || Text[Pos + 1] == 'X')) {
    Pos += 2;
    size_t DigitsStart = Pos;
    while (!atEnd() && std::isxdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    if (Pos == DigitsStart)
      return error("expected hex digits after 0x");
    std::string HexBody(Text.substr(DigitsStart, Pos - DigitsStart));
    std::optional<uint64_t> V = parseUInt("0x" + HexBody);
    if (!V)
      return error("bad hex literal");
    return Operand::makeIntImm(applySign(Negative, *V));
  }

  // Decimal digits.
  while (!atEnd() && std::isdigit(static_cast<unsigned char>(Text[Pos])))
    ++Pos;

  // Texture shape: 1D / 2D / 3D.
  if (!Negative && peek() == 'D' && Pos - Start == 1) {
    char Dim = Text[Start];
    ++Pos;
    if (Dim == '1')
      return Operand::makeTexShape(TexShapeKind::Dim1D);
    if (Dim == '2')
      return Operand::makeTexShape(TexShapeKind::Dim2D);
    if (Dim == '3')
      return Operand::makeTexShape(TexShapeKind::Dim3D);
    return error("bad texture shape");
  }

  // Float literal if a fraction or exponent follows.
  bool IsFloat = false;
  if (peek() == '.' && Pos + 1 < Text.size() &&
      std::isdigit(static_cast<unsigned char>(Text[Pos + 1]))) {
    IsFloat = true;
    ++Pos;
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }
  if (peek() == 'e' || peek() == 'E') {
    size_t Save = Pos;
    ++Pos;
    if (peek() == '+' || peek() == '-')
      ++Pos;
    if (std::isdigit(static_cast<unsigned char>(peek()))) {
      IsFloat = true;
      while (!atEnd() && std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    } else {
      Pos = Save;
    }
  }

  std::string Body(Text.substr(Start, Pos - Start));
  if (Body.empty())
    return error("expected a number");
  if (IsFloat) {
    double FV = std::strtod(Body.c_str(), nullptr);
    return Operand::makeFloatImm(Negative ? -FV : FV);
  }
  std::optional<uint64_t> V = parseUInt(Body);
  if (!V)
    return error("bad integer literal");
  return Operand::makeIntImm(applySign(Negative, *V));
}

Expected<Operand> InstParser::parseMemory() {
  if (!consume('['))
    return error("expected '['");
  skipSpace();
  std::string Reg = readIdent();
  unsigned BaseReg = 0;
  if (Reg == "RZ") {
    BaseReg = ~0u; // Resolved to the arch's zero register by the encoder.
  } else if (Reg.size() >= 2 && Reg[0] == 'R') {
    std::optional<uint64_t> Id = parseUInt(Reg.substr(1));
    if (!Id)
      return error("bad base register '" + Reg + "'");
    BaseReg = static_cast<unsigned>(*Id);
  } else {
    return error("expected base register in memory operand");
  }
  int64_t Offset = 0;
  skipSpace();
  if (consume('+')) {
    skipSpace();
    Expected<int64_t> Off = parseIntLiteral();
    if (!Off)
      return Off.takeError();
    Offset = *Off;
  } else if (peek() == '-') {
    Expected<int64_t> Off = parseIntLiteral();
    if (!Off)
      return Off.takeError();
    Offset = *Off;
  }
  skipSpace();
  if (!consume(']'))
    return error("expected ']'");
  Operand Op = Operand::makeMemory(BaseReg, Offset);
  if (Reg == "RZ")
    Op.Value[0] = -1; // Canonical marker; encoder substitutes max id.
  return Op;
}

Expected<Operand> InstParser::parseConstMem() {
  // 'c' already consumed; expect [bank][(reg+)?offset].
  if (!consume('['))
    return error("expected '[' after c");
  Expected<int64_t> Bank = parseIntLiteral();
  if (!Bank)
    return Bank.takeError();
  if (!consume(']'))
    return error("expected ']' after constant bank");
  if (!consume('['))
    return error("expected second '[' in constant operand");
  skipSpace();

  bool HasReg = false;
  unsigned RegId = 0;
  if (peek() == 'R') {
    size_t Save = Pos;
    std::string Reg = readIdent();
    if (Reg == "RZ") {
      HasReg = true;
      RegId = ~0u;
    } else {
      std::optional<uint64_t> Id = parseUInt(std::string_view(Reg).substr(1));
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

  Expected<int64_t> Offset = parseIntLiteral();
  if (!Offset)
    return Offset.takeError();
  if (!consume(']'))
    return error("expected closing ']' in constant operand");

  if (HasReg) {
    Operand Op = Operand::makeConstMemReg(static_cast<unsigned>(*Bank), RegId,
                                          *Offset);
    if (RegId == ~0u)
      Op.Value[2] = -1;
    return Op;
  }
  return Operand::makeConstMem(static_cast<unsigned>(*Bank), *Offset);
}

Expected<Operand> InstParser::parseBitSet() {
  if (!consume('{'))
    return error("expected '{'");
  uint64_t Mask = 0;
  skipSpace();
  if (!consume('}')) {
    while (true) {
      Expected<int64_t> Bit = parseIntLiteral();
      if (!Bit)
        return Bit.takeError();
      if (*Bit < 0 || *Bit >= 64)
        return error("bit index out of range in bit set");
      Mask |= uint64_t(1) << *Bit;
      skipSpace();
      if (consume('}'))
        break;
      if (!consume(','))
        return error("expected ',' or '}' in bit set");
      skipSpace();
    }
  }
  return Operand::makeBitSet(Mask);
}

Expected<Operand> InstParser::classifyIdent(const std::string &Ident) {
  if (Ident == "RZ") {
    Operand Op = Operand::makeRegister(0);
    Op.Value[0] = -1; // Canonical zero-register marker.
    return Op;
  }
  if (Ident == "PT")
    return Operand::makePredicate(7);

  if (Ident.size() >= 2 && Ident[0] == 'R' &&
      std::isdigit(static_cast<unsigned char>(Ident[1]))) {
    std::optional<uint64_t> Id = parseUInt(std::string_view(Ident).substr(1));
    if (!Id || *Id > 254)
      return error("bad register '" + Ident + "'");
    return Operand::makeRegister(static_cast<unsigned>(*Id));
  }
  if (Ident.size() >= 2 && Ident[0] == 'P' &&
      std::isdigit(static_cast<unsigned char>(Ident[1]))) {
    std::optional<uint64_t> Id = parseUInt(std::string_view(Ident).substr(1));
    if (!Id || *Id > 6)
      return error("bad predicate '" + Ident + "'");
    return Operand::makePredicate(static_cast<unsigned>(*Id));
  }
  if (Ident.size() >= 3 && Ident[0] == 'S' && Ident[1] == 'B' &&
      std::isdigit(static_cast<unsigned char>(Ident[2]))) {
    std::optional<uint64_t> Id = parseUInt(std::string_view(Ident).substr(2));
    if (!Id || *Id > 7)
      return error("bad scoreboard '" + Ident + "'");
    return Operand::makeBarrier(static_cast<unsigned>(*Id));
  }

  // Texture shapes spelled with letters.
  TexShapeKind Shape;
  if (parseTexShapeName(Ident, Shape))
    return Operand::makeTexShape(Shape);

  // Texture channel combination: subset of R, G, B, A in canonical order.
  unsigned Mask = 0;
  bool IsChannel = !Ident.empty();
  int LastIdx = -1;
  for (char C : Ident) {
    int Idx;
    switch (C) {
    case 'R':
      Idx = 0;
      break;
    case 'G':
      Idx = 1;
      break;
    case 'B':
      Idx = 2;
      break;
    case 'A':
      Idx = 3;
      break;
    default:
      Idx = -1;
      break;
    }
    if (Idx < 0 || Idx <= LastIdx) {
      IsChannel = false;
      break;
    }
    LastIdx = Idx;
    Mask |= 1u << Idx;
  }
  if (IsChannel)
    return Operand::makeTexChannel(Mask);

  return error("unknown operand '" + Ident + "'");
}

Expected<int64_t> InstParser::parseIntLiteral() {
  bool Negative = consume('-');
  size_t Start = Pos;
  if (peek() == '0' && Pos + 1 < Text.size() &&
      (Text[Pos + 1] == 'x' || Text[Pos + 1] == 'X')) {
    Pos += 2;
  }
  while (!atEnd() && std::isxdigit(static_cast<unsigned char>(Text[Pos])))
    ++Pos;
  std::string Body(Text.substr(Start, Pos - Start));
  std::optional<uint64_t> V = parseUInt(Body);
  if (!V)
    return Failure("bad integer literal '" + Body + "'");
  return applySign(Negative, *V);
}

} // namespace

Expected<Instruction> sass::parseInstruction(std::string_view Text) {
  return InstParser(trim(Text)).run();
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
    Program.push_back(Inst.takeValue());
  }
  return Program;
}

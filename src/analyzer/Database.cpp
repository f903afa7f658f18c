//===- analyzer/Database.cpp - Learned-encoding persistence ---------------===//
//
// Text (de)serialization of the learned encodings: the counterpart of the
// paper's released Zenodo artifacts (decoded opcodes and operands), and of
// the persistent analysis state its tools pass between runs.
//
//===----------------------------------------------------------------------===//

#include "analyzer/IsaAnalyzer.h"
#include "analyzer/Signature.h"

#include "support/StringUtils.h"

#include <sstream>

using namespace dcb;
using namespace dcb::analyzer;

namespace {

void writePattern(std::ostringstream &Out, const char *Tag,
                  const std::string &Name, const PatternRec &Rec) {
  Out << Tag << ' ' << Name << ' ' << Rec.Binary.toHex() << ' '
      << Rec.Bits.toHex() << ' ' << Rec.Occurrences << '\n';
}

bool readPattern(const std::vector<std::string_view> &Fields, unsigned Base,
                 unsigned WordBits, PatternRec &Rec) {
  if (Fields.size() < Base + 3)
    return false;
  Rec.Binary = BitString::fromHex(Fields[Base], WordBits);
  if (Rec.Binary.empty())
    return false;
  Rec.Bits = BitString::fromHex(Fields[Base + 1], WordBits);
  if (Rec.Bits.empty())
    return false;
  std::optional<uint64_t> Occ = parseUInt(Fields[Base + 2]);
  if (!Occ)
    return false;
  Rec.Occurrences = static_cast<unsigned>(*Occ);
  Rec.Started = true;
  return true;
}

void writeComponent(std::ostringstream &Out, const char *Tag, unsigned Index,
                    const ComponentRec &Comp) {
  Out << Tag << ' ' << Index << ' ' << Comp.Instances;
  for (unsigned Kind = 0; Kind < NumInterpKinds; ++Kind) {
    const auto &Masks = Comp.widthMasks(static_cast<InterpKind>(Kind));
    for (unsigned B = 0; B < Masks.size(); ++B)
      if (Masks[B] != 0)
        Out << ' ' << Kind << ':' << B << ':'
            << toHexString(Masks[B]);
  }
  Out << '\n';
}

bool readComponent(const std::vector<std::string_view> &Fields, unsigned Base,
                   unsigned WordBits, ComponentRec &Comp) {
  if (Fields.size() < Base + 2)
    return false;
  std::optional<uint64_t> Index = parseUInt(Fields[Base]);
  std::optional<uint64_t> Instances = parseUInt(Fields[Base + 1]);
  if (!Index || !Instances)
    return false;
  Comp.clear(WordBits);
  Comp.Instances = static_cast<unsigned>(*Instances);
  for (size_t I = Base + 2; I < Fields.size(); ++I) {
    auto Parts = split(Fields[I], ':');
    if (Parts.size() != 3)
      return false;
    std::optional<uint64_t> Kind = parseUInt(Parts[0]);
    std::optional<uint64_t> Bit = parseUInt(Parts[1]);
    std::optional<uint64_t> Mask = parseUInt(Parts[2]);
    if (!Kind || !Bit || !Mask || *Kind >= NumInterpKinds ||
        *Bit >= WordBits)
      return false;
    // The assembler writes a start bit's widest window, so no width may
    // run past the word.
    if (WordBits - *Bit < 64 && (*Mask >> (WordBits - *Bit)) != 0)
      return false;
    Comp.setWidths(static_cast<InterpKind>(*Kind),
                   static_cast<unsigned>(*Bit), *Mask);
  }
  return true;
}

std::vector<std::string_view> fields(std::string_view Line) {
  std::vector<std::string_view> Result;
  for (std::string_view Piece : split(Line, ' '))
    if (!Piece.empty())
      Result.push_back(Piece);
  return Result;
}

} // namespace

std::string EncodingDatabase::serialize() const {
  std::ostringstream Out;
  Out << "dcb-encodings 1 " << archName(A) << ' ' << WordBits << '\n';
  for (const auto &[Key, Op] : Ops) {
    Out << "operation " << Key << ' ' << Op.Instances << ' '
        << Op.ExemplarAddr << ' ' << Op.ExemplarWord.toHex() << ' '
        << Op.ExemplarKernel << '\n';
    writePattern(Out, "opcode", "-", Op.Opcode);
    writeComponent(Out, "guard", 0, Op.Guard);
    for (size_t I = 0; I < Op.Operands.size(); ++I) {
      const OperandRec &Operand = Op.Operands[I];
      Out << "operand " << I << ' ' << Operand.SigChar << '\n';
      for (size_t C = 0; C < Operand.Comps.size(); ++C)
        writeComponent(Out, "comp", static_cast<unsigned>(C),
                       Operand.Comps[C]);
      for (const auto &[Ch, Rec] : Operand.Unaries)
        writePattern(Out, "unary", std::string(1, Ch), Rec);
      for (const auto &[Name, Rec] : Operand.Tokens)
        writePattern(Out, "token", Name, Rec);
      for (const auto &[Name, Rec] : Operand.Mods)
        writePattern(Out, "opmod", Name, Rec);
    }
    for (const auto &[NameOcc, Rec] : Op.Mods)
      writePattern(Out, "mod",
                   NameOcc.first + "@" + std::to_string(NameOcc.second), Rec);
    Out << "end\n";
  }
  return Out.str();
}

Expected<EncodingDatabase> EncodingDatabase::deserialize(
    const std::string &Text) {
  std::vector<std::string_view> Lines = splitLines(Text);
  if (Lines.empty())
    return Failure("encodings: empty input");

  auto Header = fields(Lines[0]);
  if (Header.size() != 4 || Header[0] != "dcb-encodings" || Header[1] != "1")
    return Failure("encodings: bad header");
  std::optional<Arch> A = archFromName(std::string(Header[2]));
  std::optional<uint64_t> WordBits = parseUInt(Header[3]);
  if (!A || !WordBits)
    return Failure("encodings: bad architecture or word size");

  EncodingDatabase Db(*A);
  if (Db.wordBits() != *WordBits)
    return Failure("encodings: word size does not match architecture");

  OperationRec *Op = nullptr;
  OperandRec *Operand = nullptr;
  for (size_t LineNo = 1; LineNo < Lines.size(); ++LineNo) {
    auto F = fields(Lines[LineNo]);
    if (F.empty())
      continue;
    auto fail = [&](const std::string &Msg) {
      return Failure("encodings line " + std::to_string(LineNo + 1) + ": " +
                     Msg);
    };

    if (F[0] == "operation") {
      if (F.size() != 6)
        return fail("malformed operation record");
      std::string Key(F[1]);
      size_t Slash = Key.find('/');
      if (Slash == std::string::npos)
        return fail("operation key lacks a signature");
      OperationRec Rec;
      Rec.Mnemonic = Key.substr(0, Slash);
      Rec.Signature = Key.substr(Slash + 1);
      if (Rec.Signature.find_first_not_of(OperandSignatureChars) !=
              std::string::npos ||
          Rec.Signature.size() > sass::MaxOperands)
        return fail("bad operand signature");
      Rec.WordBits = Db.wordBits();
      std::optional<uint64_t> Instances = parseUInt(F[2]);
      std::optional<uint64_t> Addr = parseUInt(F[3]);
      if (!Instances || !Addr)
        return fail("bad operation counters");
      Rec.Instances = static_cast<unsigned>(*Instances);
      Rec.ExemplarAddr = *Addr;
      Rec.ExemplarWord = BitString::fromHex(F[4], Db.wordBits());
      Rec.ExemplarKernel = std::string(F[5]);
      Rec.Operands.resize(Rec.Signature.size());
      for (size_t I = 0; I < Rec.Signature.size(); ++I) {
        Rec.Operands[I].SigChar = Rec.Signature[I];
        Rec.Operands[I].Comps.resize(componentCountFor(Rec.Signature[I]));
      }
      auto [It, Inserted] = Db.operations().try_emplace(Key, std::move(Rec));
      if (!Inserted)
        return fail("duplicate operation " + Key);
      Op = &It->second;
      Operand = nullptr;
      continue;
    }

    if (!Op)
      return fail("record outside an operation");

    if (F[0] == "opcode") {
      if (!readPattern(F, 2, Db.wordBits(), Op->Opcode))
        return fail("bad opcode record");
    } else if (F[0] == "guard") {
      if (!readComponent(F, 1, Db.wordBits(), Op->Guard))
        return fail("bad guard record");
    } else if (F[0] == "operand") {
      std::optional<uint64_t> Index = parseUInt(F[1]);
      if (!Index || *Index >= Op->Operands.size())
        return fail("bad operand index");
      Operand = &Op->Operands[*Index];
    } else if (F[0] == "comp") {
      if (!Operand)
        return fail("component outside an operand");
      std::optional<uint64_t> Index = parseUInt(F[1]);
      if (!Index || *Index >= Operand->Comps.size())
        return fail("bad component index");
      if (!readComponent(F, 1, Db.wordBits(), Operand->Comps[*Index]))
        return fail("bad component record");
    } else if (F[0] == "unary") {
      if (!Operand || F[1].size() != 1 ||
          UnaryOps.find(F[1][0]) == std::string_view::npos)
        return fail("bad unary record");
      if (!readPattern(F, 2, Db.wordBits(), Operand->Unaries[F[1][0]]))
        return fail("bad unary record");
    } else if (F[0] == "token") {
      if (!Operand)
        return fail("token outside an operand");
      if (!readPattern(F, 2, Db.wordBits(),
                       Operand->Tokens[std::string(F[1])]))
        return fail("bad token record");
    } else if (F[0] == "opmod") {
      if (!Operand)
        return fail("operand modifier outside an operand");
      if (!readPattern(F, 2, Db.wordBits(),
                       Operand->Mods[std::string(F[1])]))
        return fail("bad operand modifier record");
    } else if (F[0] == "mod") {
      std::string NameOcc(F[1]);
      size_t At = NameOcc.rfind('@');
      if (At == std::string::npos)
        return fail("modifier key lacks an occurrence index");
      std::optional<uint64_t> Occ = parseUInt(NameOcc.substr(At + 1));
      if (!Occ)
        return fail("bad modifier occurrence");
      if (!readPattern(F, 2, Db.wordBits(),
                       Op->Mods[{NameOcc.substr(0, At),
                                 static_cast<unsigned>(*Occ)}]))
        return fail("bad modifier record");
    } else if (F[0] == "end") {
      Op = nullptr;
      Operand = nullptr;
    } else {
      return fail("unknown record '" + std::string(F[0]) + "'");
    }
  }
  return Db;
}

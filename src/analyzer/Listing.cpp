//===- analyzer/Listing.cpp -----------------------------------------------===//

#include "analyzer/Listing.h"

#include "sass/Parser.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace dcb;
using namespace dcb::analyzer;

namespace {

/// Parses "/*NNNN*/" returning the address; advances \p Line, which is
/// trimmed, past it.
bool takeAddress(std::string_view &Line, uint64_t &Address) {
  if (!startsWith(Line, "/*"))
    return false;
  size_t End = Line.find("*/");
  if (End == std::string_view::npos)
    return false;
  std::optional<uint64_t> Value = parseHexDigits(trim(Line.substr(2, End - 2)));
  if (!Value)
    return false;
  Address = *Value;
  Line = Line.substr(End + 2);
  return true;
}

/// Extracts the "/* 0xHEX */" tail; returns the hex body.
bool takeHexComment(std::string_view &Line, std::string_view &Hex) {
  // A hand-rolled rfind("/*"): the library's compares at every position.
  size_t Pos = Line.size();
  do {
    if (Pos < 2)
      return false;
    --Pos;
  } while (Line[Pos] != '*' || Line[Pos - 1] != '/');
  --Pos;
  std::string_view Tail = Line.substr(Pos + 2);
  size_t End = Tail.find("*/");
  if (End == std::string_view::npos)
    return false;
  std::string_view Body = trim(Tail.substr(0, End));
  if (!startsWith(Body, "0x"))
    return false;
  Hex = Body;
  Line = Line.substr(0, Pos);
  return true;
}

/// Sizes a new kernel's lists from the lines up to the next section: a
/// disassembled kernel has one word per line and a SCHI word at every
/// group's first position, so neither list reallocates while it fills.
void reserveKernel(ListingKernel &K, std::string_view Rest, Arch A) {
  size_t Lines = 0;
  for (size_t Pos = 0; Pos < Rest.size(); ++Lines) {
    while (Pos < Rest.size() && (Rest[Pos] == ' ' || Rest[Pos] == '\t'))
      ++Pos;
    if (Rest.compare(Pos, 10, "Function :") == 0)
      break;
    Pos = Rest.find('\n', Pos);
    if (Pos == std::string_view::npos)
      Pos = Rest.size();
    ++Pos;
  }
  const unsigned Group = schiGroupSize(archSchiKind(A));
  const size_t Schis = Group > 1 ? (Lines + Group - 1) / Group : 0;
  K.Insts.reserve(Lines - std::min(Lines, Schis));
  K.Schis.reserve(Schis);
}

} // namespace

Expected<Listing> analyzer::parseListing(std::string_view Text) {
  Listing Result;
  bool SawArch = false;
  ListingKernel *Kernel = nullptr;
  unsigned WordBits = 64;

  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string_view::npos)
      Eol = Text.size();
    std::string_view Raw = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    if (!Raw.empty() && Raw.back() == '\r')
      Raw.remove_suffix(1);
    std::string_view Line = trim(Raw);
    if (Line.empty())
      continue;

    // Instruction and SCHI lines open with their address comment.
    if (Line[0] != '/' && startsWith(Line, "code for ")) {
      std::optional<Arch> A =
          archFromName(std::string(trim(Line.substr(9))));
      if (!A)
        return Failure("listing: unknown architecture in '" +
                       std::string(Line) + "'");
      Result.A = *A;
      WordBits = archWordBits(*A);
      SawArch = true;
      continue;
    }
    if (Line[0] != '/' && startsWith(Line, "Function :")) {
      if (!SawArch)
        return Failure("listing: Function before 'code for' header");
      Result.Kernels.emplace_back();
      Kernel = &Result.Kernels.back();
      Kernel->Name = std::string(trim(Line.substr(10)));
      reserveKernel(*Kernel, Text.substr(std::min(Pos, Text.size())),
                    Result.A);
      continue;
    }

    uint64_t Address = 0;
    if (!takeAddress(Line, Address))
      return Failure("listing: expected an address in '" + std::string(Raw) +
                     "'");
    if (!Kernel)
      return Failure("listing: instruction outside any Function section");

    std::string_view Hex;
    if (!takeHexComment(Line, Hex))
      return Failure("listing: missing binary column in '" +
                     std::string(Raw) + "'");
    BitString Word = BitString::fromHex(Hex, WordBits);
    if (Word.empty())
      return Failure("listing: bad binary value '" + std::string(Hex) + "'");

    std::string_view Asm = trim(Line);
    if (Asm.empty()) {
      // A bare hex line is a SCHI scheduling word.
      Kernel->Schis.push_back(ListingSchi{Address, Word});
      continue;
    }

    ListingInst &Entry = Kernel->Insts.emplace_back();
    if (Error E = sass::parseInstruction(Asm, Entry.Inst))
      return Failure("listing: " + E.message());
    Entry.Address = Address;
    Entry.Binary = Word;
  }

  if (!SawArch)
    return Failure("listing: missing 'code for sm_XX' header");
  return Result;
}

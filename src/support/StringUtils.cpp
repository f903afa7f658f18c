//===- support/StringUtils.cpp --------------------------------------------===//

#include "support/StringUtils.h"

using namespace dcb;

std::vector<std::string_view> dcb::split(std::string_view S, char Sep) {
  std::vector<std::string_view> Pieces;
  size_t Pos = 0;
  while (true) {
    size_t Next = S.find(Sep, Pos);
    if (Next == std::string_view::npos) {
      Pieces.push_back(S.substr(Pos));
      return Pieces;
    }
    Pieces.push_back(S.substr(Pos, Next - Pos));
    Pos = Next + 1;
  }
}

std::vector<std::string_view> dcb::splitLines(std::string_view S) {
  std::vector<std::string_view> Lines = split(S, '\n');
  for (std::string_view &Line : Lines)
    if (!Line.empty() && Line.back() == '\r')
      Line.remove_suffix(1);
  return Lines;
}

bool dcb::startsWith(std::string_view S, std::string_view Prefix) {
  return S.size() >= Prefix.size() && S.substr(0, Prefix.size()) == Prefix;
}

namespace {

/// Digits of \p S in \p Base, all of them; nullopt when empty, on a stray
/// character or on overflow.
std::optional<uint64_t> parseDigits(std::string_view S, unsigned Base) {
  if (S.empty())
    return std::nullopt;
  uint64_t Value = 0;
  for (char C : S) {
    unsigned Digit;
    if (C >= '0' && C <= '9')
      Digit = C - '0';
    else if (Base == 16 && C >= 'a' && C <= 'f')
      Digit = C - 'a' + 10;
    else if (Base == 16 && C >= 'A' && C <= 'F')
      Digit = C - 'A' + 10;
    else
      return std::nullopt;
    uint64_t Next = Value * Base + Digit;
    if (Next / Base != Value) // Overflow.
      return std::nullopt;
    Value = Next;
  }
  return Value;
}

} // namespace

std::optional<uint64_t> dcb::parseUInt(std::string_view S) {
  if (startsWith(S, "0x") || startsWith(S, "0X"))
    return parseDigits(S.substr(2), 16);
  return parseDigits(S, 10);
}

std::optional<uint64_t> dcb::parseHexDigits(std::string_view S) {
  return parseDigits(S, 16);
}

std::optional<int64_t> dcb::parseInt(std::string_view S) {
  bool Negative = false;
  if (!S.empty() && S[0] == '-') {
    Negative = true;
    S.remove_prefix(1);
  }
  std::optional<uint64_t> Magnitude = parseUInt(S);
  if (!Magnitude)
    return std::nullopt;
  if (Negative)
    return -static_cast<int64_t>(*Magnitude);
  return static_cast<int64_t>(*Magnitude);
}

void dcb::appendHexString(std::string &Out, uint64_t Value) {
  static const char Digits[] = "0123456789abcdef";
  char Buf[18];
  char *End = Buf + sizeof(Buf), *P = End;
  do {
    *--P = Digits[Value & 0xf];
    Value >>= 4;
  } while (Value != 0);
  *--P = 'x';
  *--P = '0';
  Out.append(P, End);
}

std::string dcb::toHexString(uint64_t Value) {
  std::string Result;
  appendHexString(Result, Value);
  return Result;
}

void dcb::appendPaddedHex(std::string &Out, uint64_t Value, unsigned Digits) {
  static const char HexDigits[] = "0123456789abcdef";
  size_t Start = Out.size();
  Out.append(Digits, '0');
  for (unsigned I = 0; I < Digits && Value != 0; ++I) {
    Out[Start + Digits - 1 - I] = HexDigits[Value & 0xf];
    Value >>= 4;
  }
}

std::string dcb::toPaddedHex(uint64_t Value, unsigned Digits) {
  std::string Result;
  appendPaddedHex(Result, Value, Digits);
  return Result;
}

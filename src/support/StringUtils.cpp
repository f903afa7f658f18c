//===- support/StringUtils.cpp --------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <cstdio>

using namespace dcb;

std::string_view dcb::trim(std::string_view S) {
  size_t Begin = 0;
  while (Begin < S.size() && std::isspace(static_cast<unsigned char>(S[Begin])))
    ++Begin;
  size_t End = S.size();
  while (End > Begin && std::isspace(static_cast<unsigned char>(S[End - 1])))
    --End;
  return S.substr(Begin, End - Begin);
}

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

bool dcb::endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.substr(S.size() - Suffix.size()) == Suffix;
}

std::optional<uint64_t> dcb::parseUInt(std::string_view S) {
  if (S.empty())
    return std::nullopt;
  unsigned Base = 10;
  if (startsWith(S, "0x") || startsWith(S, "0X")) {
    Base = 16;
    S.remove_prefix(2);
    if (S.empty())
      return std::nullopt;
  }
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

std::string dcb::toHexString(uint64_t Value) {
  static const char Digits[] = "0123456789abcdef";
  if (Value == 0)
    return "0x0";
  std::string Body;
  while (Value != 0) {
    Body.push_back(Digits[Value & 0xf]);
    Value >>= 4;
  }
  std::string Result = "0x";
  Result.append(Body.rbegin(), Body.rend());
  return Result;
}

std::string dcb::toPaddedHex(uint64_t Value, unsigned Digits) {
  static const char HexDigits[] = "0123456789abcdef";
  std::string Result(Digits, '0');
  for (unsigned I = 0; I < Digits && Value != 0; ++I) {
    Result[Digits - 1 - I] = HexDigits[Value & 0xf];
    Value >>= 4;
  }
  return Result;
}

void dcb::appendJsonEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

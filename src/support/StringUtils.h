//===- support/StringUtils.h - Small string helpers -------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String splitting, trimming and numeric parsing helpers shared across
/// the libraries.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SUPPORT_STRINGUTILS_H
#define DCB_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dcb {

/// ASCII character classes, as <cctype> has them in the "C" locale, but
/// inline: the SASS and listing parsers test every character.
inline bool isAsciiSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }
inline bool isAsciiDigit(char C) { return C >= '0' && C <= '9'; }
inline bool isAsciiAlpha(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z');
}
inline bool isAsciiAlnum(char C) { return isAsciiAlpha(C) || isAsciiDigit(C); }
inline bool isAsciiHexDigit(char C) {
  return isAsciiDigit(C) || (C >= 'a' && C <= 'f') || (C >= 'A' && C <= 'F');
}

/// Returns \p S with leading and trailing whitespace removed.
inline std::string_view trim(std::string_view S) {
  size_t Begin = 0;
  while (Begin < S.size() && isAsciiSpace(S[Begin]))
    ++Begin;
  size_t End = S.size();
  while (End > Begin && isAsciiSpace(S[End - 1]))
    --End;
  return S.substr(Begin, End - Begin);
}

/// Splits \p S on \p Sep, keeping empty pieces.
std::vector<std::string_view> split(std::string_view S, char Sep);

/// Splits \p S into lines (on '\n'), dropping a trailing '\r' on each.
std::vector<std::string_view> splitLines(std::string_view S);

bool startsWith(std::string_view S, std::string_view Prefix);

/// Parses a decimal or (0x-prefixed) hexadecimal unsigned integer.
std::optional<uint64_t> parseUInt(std::string_view S);

/// Parses hexadecimal digits without a prefix.
std::optional<uint64_t> parseHexDigits(std::string_view S);

/// Parses an integer that may carry a leading '-'.
std::optional<int64_t> parseInt(std::string_view S);

/// Formats \p Value as "0x..." lowercase hex with no leading zeros.
std::string toHexString(uint64_t Value);
/// Appends toHexString(Value) to \p Out.
void appendHexString(std::string &Out, uint64_t Value);

/// Formats the low \p Digits hex digits of \p Value, lowercase and
/// zero-padded.
std::string toPaddedHex(uint64_t Value, unsigned Digits);
/// Appends toPaddedHex(Value, Digits) to \p Out.
void appendPaddedHex(std::string &Out, uint64_t Value, unsigned Digits);

} // namespace dcb

#endif // DCB_SUPPORT_STRINGUTILS_H

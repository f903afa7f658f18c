//===- support/StringUtils.h - Small string helpers -------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String splitting, trimming, numeric parsing and JSON string escaping
/// helpers shared across the libraries.
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

/// Returns \p S with leading and trailing whitespace removed.
std::string_view trim(std::string_view S);

/// Splits \p S on \p Sep, keeping empty pieces.
std::vector<std::string_view> split(std::string_view S, char Sep);

/// Splits \p S into lines (on '\n'), dropping a trailing '\r' on each.
std::vector<std::string_view> splitLines(std::string_view S);

bool startsWith(std::string_view S, std::string_view Prefix);
bool endsWith(std::string_view S, std::string_view Suffix);

/// Parses a decimal or (0x-prefixed) hexadecimal unsigned integer.
std::optional<uint64_t> parseUInt(std::string_view S);

/// Parses an integer that may carry a leading '-'.
std::optional<int64_t> parseInt(std::string_view S);

/// Formats \p Value as "0x..." lowercase hex with no leading zeros.
std::string toHexString(uint64_t Value);

/// Formats \p Value as lowercase hex zero-padded to \p Digits digits.
std::string toPaddedHex(uint64_t Value, unsigned Digits);

/// Appends \p S to \p Out with JSON string escaping: quote, backslash,
/// newline and tab by name, every other control byte as `\u00XX`.
void appendJsonEscaped(std::string &Out, std::string_view S);

} // namespace dcb

#endif // DCB_SUPPORT_STRINGUTILS_H

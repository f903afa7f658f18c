//===- support/Json.h - The JSON reader and string writer -------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tree's one JSON reader and one JSON string escaper, plus base64
/// for binary payloads. The serve protocol (docs/SERVE.md) reads requests
/// with it, `dcb stats` reads saved dcb-stats-v1 documents with it, and
/// every JSON writer quotes free text (names, messages, outputs) through
/// appendString. The reader is a small recursive-descent parser with no
/// external dependency. Depth, and by construction line length, bound it,
/// so a malicious client can't stack- or memory-bomb the daemon.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SUPPORT_JSON_H
#define DCB_SUPPORT_JSON_H

#include "support/Errors.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dcb {
namespace json {

/// One parsed JSON value. A tree of these lives only for the duration of
/// one request dispatch, so a simple tagged struct beats a clever one.
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  /// Exact twins of Num for a plain integer literal (no fraction, no
  /// exponent): UInt when it lies in [0, 2^64 - 1], Int when it lies in
  /// [-2^63, 2^63 - 1]. A double cannot tell 2^53 from 2^53 + 1.
  std::optional<uint64_t> UInt;
  std::optional<int64_t> Int;
  std::string Str;
  std::vector<Value> Arr;
  std::map<std::string, Value> Obj;

  bool isObject() const { return K == Kind::Object; }
  bool isString() const { return K == Kind::String; }

  /// Object field access; returns nullptr when absent or not an object.
  const Value *field(const std::string &Name) const;
  /// Convenience typed getters with defaults (absent/mistyped -> default).
  /// num() returns an integer literal up to 2^64 - 1 exactly; otherwise a
  /// fraction truncates, a negative number reads as absent and a value of
  /// 2^64 or more saturates at UINT64_MAX.
  std::string str(const std::string &Name, std::string Default = "") const;
  uint64_t num(const std::string &Name, uint64_t Default = 0) const;
  bool boolean(const std::string &Name, bool Default = false) const;
};

/// Parses exactly one JSON document from \p Text (trailing whitespace
/// allowed, trailing garbage is an error).
Expected<Value> parse(std::string_view Text);

/// Appends \p S as a quoted JSON string: quote, backslash, newline and tab
/// escaped by name, every other byte below 0x20 as `\u00XX`.
void appendString(std::string &Out, std::string_view S);

/// Standard base64 (RFC 4648, with padding).
std::string base64Encode(const uint8_t *Data, size_t Size);
inline std::string base64Encode(const std::vector<uint8_t> &Bytes) {
  return base64Encode(Bytes.data(), Bytes.size());
}
inline std::string base64Encode(std::string_view Bytes) {
  return base64Encode(reinterpret_cast<const uint8_t *>(Bytes.data()),
                      Bytes.size());
}
Expected<std::vector<uint8_t>> base64Decode(std::string_view Text);

} // namespace json
} // namespace dcb

#endif // DCB_SUPPORT_JSON_H

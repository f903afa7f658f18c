//===- serve/Json.h - Minimal JSON for the line protocol --------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON reader and string/base64 writers for the
/// serve protocol (docs/SERVE.md): one JSON object per line, binary
/// payloads as base64 fields. The existing emitters elsewhere in the tree
/// build JSON by appending strings; this adds the *reading* side the
/// server needs, with no external dependency. Depth, and by construction
/// line length, bound the parser, so a malicious client can't stack- or
/// memory-bomb the daemon.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SERVE_JSON_H
#define DCB_SERVE_JSON_H

#include "support/Errors.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dcb {
namespace serve {
namespace json {

/// One parsed JSON value. A tree of these lives only for the duration of
/// one request dispatch, so a simple tagged struct beats a clever one.
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<Value> Arr;
  std::map<std::string, Value> Obj;

  bool isObject() const { return K == Kind::Object; }
  bool isString() const { return K == Kind::String; }

  /// Object field access; returns nullptr when absent or not an object.
  const Value *field(const std::string &Name) const;
  /// Convenience typed getters with defaults (absent/mistyped -> default).
  /// num() truncates, reads a negative number as absent and saturates at
  /// UINT64_MAX.
  std::string str(const std::string &Name, std::string Default = "") const;
  uint64_t num(const std::string &Name, uint64_t Default = 0) const;
  bool boolean(const std::string &Name, bool Default = false) const;
};

/// Parses exactly one JSON document from \p Text (trailing whitespace
/// allowed, trailing garbage is an error).
Expected<Value> parse(std::string_view Text);

/// Appends \p S as a quoted, escaped JSON string.
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
} // namespace serve
} // namespace dcb

#endif // DCB_SERVE_JSON_H

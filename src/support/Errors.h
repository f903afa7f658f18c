//===- support/Errors.h - Lightweight error handling ------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exception-free error propagation: Error for fallible void operations and
/// Expected<T> for fallible value-returning operations. Modeled after the
/// LLVM idiom but simplified (message strings, no dynamic typing).
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SUPPORT_ERRORS_H
#define DCB_SUPPORT_ERRORS_H

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace dcb {

/// The result of a fallible operation that yields no value.
///
/// Converts to true when it holds a failure, enabling
/// `if (Error E = doThing()) return E;`.
class Error {
public:
  /// Creates a success value.
  static Error success() { return Error(); }

  /// Creates a failure carrying \p Message.
  static Error failure(std::string Message) {
    Error E;
    E.Failed = true;
    E.Msg = std::move(Message);
    return E;
  }

  explicit operator bool() const { return Failed; }

  /// The failure message; empty for success values.
  const std::string &message() const { return Msg; }

private:
  template <typename T> friend class Expected;

  bool Failed = false;
  std::string Msg;
};

/// Tag type used to construct a failed Expected<T> from a message.
struct Failure {
  std::string Msg;
  explicit Failure(std::string M) : Msg(std::move(M)) {}
};

/// The result of a fallible operation yielding a T on success.
template <typename T> class Expected {
public:
  /// Constructs a success value.
  Expected(T Value)
      : Storage(std::in_place_index<0>, std::move(Value)) {}

  /// Constructs a failure from a Failure tag.
  Expected(Failure F) : Storage(std::in_place_index<1>, std::move(F)) {}

  /// Constructs a failure from a failed Error, taking over its message.
  /// \p E must be a failure.
  Expected(Error E)
      : Storage(std::in_place_index<1>, Failure(std::move(E.Msg))) {
    assert(E.Failed && "constructing Expected failure from a success Error");
  }

  /// True when a value is present.
  explicit operator bool() const { return Storage.index() == 0; }
  bool hasValue() const { return Storage.index() == 0; }

  T &operator*() {
    assert(hasValue() && "dereferencing a failed Expected");
    return std::get<0>(Storage);
  }
  const T &operator*() const {
    assert(hasValue() && "dereferencing a failed Expected");
    return std::get<0>(Storage);
  }
  T *operator->() { return &**this; }
  const T *operator->() const { return &**this; }

  /// The failure message; only valid when !hasValue().
  const std::string &message() const {
    assert(!hasValue() && "asking a success value for its error message");
    return std::get<1>(Storage).Msg;
  }

  /// Converts the failure into an Error (or success() if a value is held).
  Error takeError() const & {
    if (hasValue())
      return Error::success();
    return Error::failure(message());
  }
  /// As above, moving the message out of an expiring failure.
  Error takeError() && {
    if (hasValue())
      return Error::success();
    return Error::failure(std::move(std::get<1>(Storage).Msg));
  }

  /// Moves the value out. Only valid when hasValue().
  T takeValue() {
    assert(hasValue() && "taking value of a failed Expected");
    return std::move(std::get<0>(Storage));
  }

private:
  std::variant<T, Failure> Storage;
};

} // namespace dcb

#endif // DCB_SUPPORT_ERRORS_H

//===- support/Json.cpp ---------------------------------------------------===//

#include "support/Json.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

using namespace dcb;
using namespace dcb::json;

const Value *Value::field(const std::string &Name) const {
  if (K != Kind::Object)
    return nullptr;
  auto It = Obj.find(Name);
  return It == Obj.end() ? nullptr : &It->second;
}

std::string Value::str(const std::string &Name, std::string Default) const {
  const Value *F = field(Name);
  return F && F->K == Kind::String ? F->Str : std::move(Default);
}

uint64_t Value::num(const std::string &Name, uint64_t Default) const {
  const Value *F = field(Name);
  if (F && F->UInt)
    return *F->UInt;
  if (!F || F->K != Kind::Number || F->Num < 0)
    return Default;
  // 2^64 and above saturate: the cast is undefined there.
  if (F->Num >= 18446744073709551616.0)
    return UINT64_MAX;
  return static_cast<uint64_t>(F->Num);
}

bool Value::boolean(const std::string &Name, bool Default) const {
  const Value *F = field(Name);
  return F && F->K == Kind::Bool ? F->B : Default;
}

namespace {

/// Hand-rolled descent with explicit depth cap; errors carry the byte
/// offset so a bad request line is diagnosable from the response alone.
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  Expected<Value> run() {
    Value Root;
    if (Error E = parseValue(Root, 0))
      return E;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing garbage after document");
    return Root;
  }

private:
  static constexpr unsigned MaxDepth = 32;

  Error fail(const std::string &Msg) {
    return Error::failure("json: " + Msg + " at offset " +
                          std::to_string(Pos));
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool consumeWord(std::string_view W) {
    if (Text.substr(Pos, W.size()) == W) {
      Pos += W.size();
      return true;
    }
    return false;
  }

  Error parseValue(Value &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return parseObject(Out, Depth);
    if (C == '[')
      return parseArray(Out, Depth);
    if (C == '"') {
      Out.K = Value::Kind::String;
      return parseString(Out.Str);
    }
    if (consumeWord("true")) {
      Out.K = Value::Kind::Bool;
      Out.B = true;
      return Error::success();
    }
    if (consumeWord("false")) {
      Out.K = Value::Kind::Bool;
      Out.B = false;
      return Error::success();
    }
    if (consumeWord("null")) {
      Out.K = Value::Kind::Null;
      return Error::success();
    }
    return parseNumber(Out);
  }

  Error parseObject(Value &Out, unsigned Depth) {
    Out.K = Value::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (consume('}'))
      return Error::success();
    for (;;) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      std::string Key;
      if (Error E = parseString(Key))
        return E;
      skipWs();
      if (!consume(':'))
        return fail("expected ':'");
      Value Field;
      if (Error E = parseValue(Field, Depth + 1))
        return E;
      Out.Obj[Key] = std::move(Field);
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return Error::success();
      return fail("expected ',' or '}'");
    }
  }

  Error parseArray(Value &Out, unsigned Depth) {
    Out.K = Value::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (consume(']'))
      return Error::success();
    for (;;) {
      Value Item;
      if (Error E = parseValue(Item, Depth + 1))
        return E;
      Out.Arr.push_back(std::move(Item));
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return Error::success();
      return fail("expected ',' or ']'");
    }
  }

  Error parseHex4(unsigned &Code) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    for (unsigned I = 0; I < 4; ++I) {
      char H = Text[Pos++];
      Code <<= 4;
      if (H >= '0' && H <= '9')
        Code |= static_cast<unsigned>(H - '0');
      else if (H >= 'a' && H <= 'f')
        Code |= static_cast<unsigned>(H - 'a' + 10);
      else if (H >= 'A' && H <= 'F')
        Code |= static_cast<unsigned>(H - 'A' + 10);
      else
        return fail("bad \\u escape digit");
    }
    return Error::success();
  }

  static void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out.push_back(static_cast<char>(Code));
      return;
    }
    if (Code < 0x800) {
      Out.push_back(static_cast<char>(0xc0 | (Code >> 6)));
    } else if (Code < 0x10000) {
      Out.push_back(static_cast<char>(0xe0 | (Code >> 12)));
      Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3f)));
    } else {
      Out.push_back(static_cast<char>(0xf0 | (Code >> 18)));
      Out.push_back(static_cast<char>(0x80 | ((Code >> 12) & 0x3f)));
      Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3f)));
    }
    Out.push_back(static_cast<char>(0x80 | (Code & 0x3f)));
  }

  Error parseString(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return Error::success();
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out.push_back(E);
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        unsigned Code = 0;
        if (Error Err = parseHex4(Code))
          return Err;
        // A code point past the BMP arrives as a surrogate pair (the form
        // Python's json.dump writes); half a pair names no character.
        if (Code >= 0xd800 && Code <= 0xdbff &&
            Text.substr(Pos, 2) == "\\u") {
          Pos += 2;
          unsigned Low = 0;
          if (Error Err = parseHex4(Low))
            return Err;
          if (Low < 0xdc00 || Low > 0xdfff)
            return fail("unpaired surrogate \\u escape");
          Code = 0x10000 + ((Code - 0xd800) << 10) + (Low - 0xdc00);
        } else if (Code >= 0xd800 && Code <= 0xdfff) {
          return fail("unpaired surrogate \\u escape");
        }
        appendUtf8(Out, Code);
        break;
      }
      default:
        return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  /// Consumes a run of digits; false when there is none.
  bool digits() {
    const size_t Start = Pos;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    return Pos > Start;
  }

  Error parseNumber(Value &Out) {
    // Exactly RFC 8259's -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
    // so strtod never sees a form it would accept and JSON does not.
    const size_t Start = Pos;
    (void)consume('-');
    // No leading zeros ("01" is two tokens, i.e. an error here).
    if (Pos + 1 < Text.size() && Text[Pos] == '0' &&
        std::isdigit(static_cast<unsigned char>(Text[Pos + 1])))
      return fail("leading zero in number");
    if (!consume('0') && !digits())
      return fail(Pos == Start ? "expected a value" : "bad number");
    bool Ok = !consume('.') || digits();
    if (Ok && (consume('e') || consume('E'))) {
      if (!consume('+'))
        (void)consume('-');
      Ok = digits();
    }
    std::string Num(Text.substr(Start, Pos - Start));
    double V = std::strtod(Num.c_str(), nullptr);
    if (!Ok || !std::isfinite(V)) {
      Pos = Start;
      return fail("bad number");
    }
    Out.K = Value::Kind::Number;
    Out.Num = V;
    // A plain integer literal also keeps its exact value where it fits.
    const bool Neg = Num[0] == '-';
    uint64_t Mag = 0;
    const char *Last = Num.data() + Num.size();
    auto [Ptr, Ec] = std::from_chars(Num.data() + Neg, Last, Mag);
    if (Ec != std::errc() || Ptr != Last)
      return Error::success();
    if (!Neg || Mag == 0)
      Out.UInt = Mag;
    if (Neg ? Mag <= uint64_t(1) << 63 : Mag <= INT64_MAX)
      Out.Int = static_cast<int64_t>(Neg ? 0 - Mag : Mag);
    return Error::success();
  }

  std::string_view Text;
  size_t Pos = 0;
};

} // namespace

Expected<Value> dcb::json::parse(std::string_view Text) {
  return Parser(Text).run();
}

void dcb::json::appendString(std::string &Out, std::string_view S) {
  Out.push_back('"');
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
        static const char Digits[] = "0123456789abcdef";
        Out += "\\u00";
        Out.push_back(Digits[(C >> 4) & 0xf]);
        Out.push_back(Digits[C & 0xf]);
      } else {
        Out.push_back(C);
      }
    }
  }
  Out.push_back('"');
}

namespace {
const char B64Digits[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
} // namespace

std::string dcb::json::base64Encode(const uint8_t *Data, size_t Size) {
  std::string Out;
  Out.reserve((Size + 2) / 3 * 4);
  size_t I = 0;
  for (; I + 3 <= Size; I += 3) {
    uint32_t Triple = (static_cast<uint32_t>(Data[I]) << 16) |
                      (static_cast<uint32_t>(Data[I + 1]) << 8) |
                      Data[I + 2];
    Out.push_back(B64Digits[(Triple >> 18) & 0x3f]);
    Out.push_back(B64Digits[(Triple >> 12) & 0x3f]);
    Out.push_back(B64Digits[(Triple >> 6) & 0x3f]);
    Out.push_back(B64Digits[Triple & 0x3f]);
  }
  if (I < Size) {
    uint32_t Triple = static_cast<uint32_t>(Data[I]) << 16;
    bool HasSecond = I + 1 < Size;
    if (HasSecond)
      Triple |= static_cast<uint32_t>(Data[I + 1]) << 8;
    Out.push_back(B64Digits[(Triple >> 18) & 0x3f]);
    Out.push_back(B64Digits[(Triple >> 12) & 0x3f]);
    Out.push_back(HasSecond ? B64Digits[(Triple >> 6) & 0x3f] : '=');
    Out.push_back('=');
  }
  return Out;
}

Expected<std::vector<uint8_t>>
dcb::json::base64Decode(std::string_view Text) {
  static const auto Reverse = [] {
    std::array<int8_t, 256> T;
    T.fill(-1);
    for (int I = 0; I < 64; ++I)
      T[static_cast<unsigned char>(B64Digits[I])] = static_cast<int8_t>(I);
    return T;
  }();
  if (Text.size() % 4 != 0)
    return Failure("base64: length not a multiple of 4");
  std::vector<uint8_t> Out;
  Out.reserve(Text.size() / 4 * 3);
  for (size_t I = 0; I < Text.size(); I += 4) {
    unsigned Pad = 0;
    uint32_t Triple = 0;
    for (unsigned J = 0; J < 4; ++J) {
      char C = Text[I + J];
      if (C == '=') {
        // Padding is only legal in the last one or two positions.
        if (I + 4 != Text.size() || J < 2)
          return Failure("base64: misplaced padding");
        ++Pad;
        Triple <<= 6;
        continue;
      }
      if (Pad != 0)
        return Failure("base64: digit after padding");
      int8_t V = Reverse[static_cast<unsigned char>(C)];
      if (V < 0)
        return Failure("base64: bad digit");
      Triple = (Triple << 6) | static_cast<uint32_t>(V);
    }
    Out.push_back(static_cast<uint8_t>(Triple >> 16));
    if (Pad < 2)
      Out.push_back(static_cast<uint8_t>(Triple >> 8));
    if (Pad < 1)
      Out.push_back(static_cast<uint8_t>(Triple));
  }
  return Out;
}

//===- analyzer/Records.cpp -----------------------------------------------===//

#include "analyzer/Records.h"

#include <cassert>
#include <algorithm>
#include <bit>
#include <cstring>

using namespace dcb;
using namespace dcb::analyzer;

namespace {

/// Branch target minus the next instruction's address, wrapped to 64 bits
/// (targets near 2^63 overflow a signed subtraction).
int64_t relNextOffset(const CompValue &V) {
  return static_cast<int64_t>(static_cast<uint64_t>(V.Int) -
                              (V.InstAddr + V.WordBytes));
}

/// The float interpretation's bit pattern, left-aligned in 64 bits so that
/// the top W bits of either width are `Top >> (64 - W)`.
uint64_t floatTopBits(InterpKind K, double Value) {
  if (K == InterpKind::Float32Hi) {
    float F = static_cast<float>(Value);
    uint32_t Bits;
    std::memcpy(&Bits, &F, sizeof(Bits));
    return uint64_t(Bits) << 32;
  }
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  return Bits;
}

/// Width-set mask (bit W-1 = width W) of the widths Lo..Hi.
uint64_t widthRange(unsigned Lo, unsigned Hi) {
  if (Lo > Hi)
    return 0;
  return BitString::lowMask(Hi) & ~BitString::lowMask(Lo - 1);
}

/// The widths among \p Live (none wider than \p MaxWidth) at which
/// interpretation \p K of \p V matches a window whose low \p MaxWidth
/// bits are \p Window. For the integer interpretations these form one
/// range: width W matches when the value fits in W bits and the window's
/// low W bits equal the value's, so the range runs from the value's
/// minimum width up to the first bit where window and value differ. A
/// truncated float's top bits change with the width, so the float
/// interpretations compare width by width.
uint64_t matchingWidths(InterpKind K, const CompValue &V, uint64_t Window,
                        unsigned MaxWidth, uint64_t Live) {
  uint64_t Value = 0;
  unsigned MinWidth = 1;
  switch (K) {
  case InterpKind::Plain:
    if (V.IsReg && V.Int < 0) { // RZ: all-ones at every width.
      unsigned Ones = std::countr_one(Window);
      return Live & widthRange(1, std::min(MaxWidth, Ones));
    }
    if (V.Int < 0)
      return 0;
    Value = static_cast<uint64_t>(V.Int);
    MinWidth = std::max<unsigned>(1, std::bit_width(Value));
    break;
  case InterpKind::Signed:
  case InterpKind::RelNext: {
    int64_t Int = K == InterpKind::Signed ? V.Int : relNextOffset(V);
    Value = static_cast<uint64_t>(Int);
    MinWidth = std::bit_width(static_cast<uint64_t>(Int ^ (Int >> 63))) + 1;
    break;
  }
  case InterpKind::Float32Hi:
  case InterpKind::Float64Hi: {
    const uint64_t Top = floatTopBits(K, V.Float);
    const unsigned Limit = K == InterpKind::Float32Hi ? 32 : 64;
    uint64_t Matched = 0;
    uint64_t Cand = Live & BitString::lowMask(std::min(Limit, MaxWidth));
    for (; Cand != 0; Cand &= Cand - 1) {
      unsigned W = std::countr_zero(Cand) + 1;
      if ((Window & BitString::lowMask(W)) == Top >> (64 - W))
        Matched |= uint64_t(1) << (W - 1);
    }
    return Matched;
  }
  }
  unsigned Agree = std::countr_zero(Window ^ Value);
  return Live & widthRange(MinWidth, std::min(MaxWidth, Agree));
}

} // namespace

bool analyzer::interpEncode(InterpKind K, const CompValue &V, unsigned Width,
                            uint64_t &Content) {
  assert(Width >= 1 && Width <= 64 && "bad window width");
  switch (K) {
  case InterpKind::Plain: {
    if (V.IsReg && V.Int < 0) {
      // The zero register encodes as the all-ones register id.
      Content = BitString::lowMask(Width);
      return true;
    }
    if (V.Int < 0)
      return false;
    uint64_t U = static_cast<uint64_t>(V.Int);
    if (Width < 64 && (U >> Width) != 0)
      return false;
    Content = U;
    return true;
  }
  case InterpKind::Signed: {
    int64_t Value = V.Int;
    if (Width < 64) {
      int64_t Lo = -(int64_t(1) << (Width - 1));
      int64_t Hi = (int64_t(1) << (Width - 1)) - 1;
      if (Value < Lo || Value > Hi)
        return false;
    }
    Content = static_cast<uint64_t>(Value) & BitString::lowMask(Width);
    return true;
  }
  case InterpKind::RelNext: {
    int64_t Offset = relNextOffset(V);
    if (Width < 64) {
      int64_t Lo = -(int64_t(1) << (Width - 1));
      int64_t Hi = (int64_t(1) << (Width - 1)) - 1;
      if (Offset < Lo || Offset > Hi)
        return false;
    }
    Content = static_cast<uint64_t>(Offset) & BitString::lowMask(Width);
    return true;
  }
  case InterpKind::Float32Hi:
  case InterpKind::Float64Hi:
    if (K == InterpKind::Float32Hi && Width > 32)
      return false;
    Content = floatTopBits(K, V.Float) >> (64 - Width);
    return true;
  }
  return false;
}

void ComponentRec::narrow(const BitString &Word, const CompValue &Value,
                          const std::vector<InterpKind> &Kinds) {
  unsigned WordBits = Word.size();
  bool First = !Started;
  if (First) {
    Started = true;
    for (InterpKind Kind : Kinds)
      WidthMask[static_cast<unsigned>(Kind)].assign(WordBits, 0);
  }
  for (InterpKind Kind : Kinds) {
    auto &Masks = WidthMask[static_cast<unsigned>(Kind)];
    assert(Masks.size() == WordBits && "word width changed mid-analysis");
    for (unsigned B = 0; B < WordBits; ++B) {
      uint64_t Previous = First ? ~uint64_t(0) : Masks[B];
      if (Previous == 0)
        continue;
      unsigned MaxWidth = std::min<unsigned>(64, WordBits - B);
      Masks[B] = matchingWidths(Kind, Value, Word.field(B, MaxWidth),
                                MaxWidth,
                                Previous & BitString::lowMask(MaxWidth));
    }
  }
  ++Instances;
}

std::vector<std::pair<unsigned, unsigned>>
ComponentRec::windows(InterpKind Kind) const {
  std::vector<std::pair<unsigned, unsigned>> Result;
  const auto &Masks = WidthMask[static_cast<unsigned>(Kind)];
  for (unsigned B = 0; B < Masks.size(); ++B) {
    if (Masks[B] == 0)
      continue;
    unsigned MaxWidth = 64 - __builtin_clzll(Masks[B]);
    Result.emplace_back(B, MaxWidth);
  }
  return Result;
}

std::vector<WindowRef>
ComponentRec::collectWindows(const std::vector<InterpKind> &Kinds) const {
  std::vector<WindowRef> Result;
  for (InterpKind Kind : Kinds) {
    for (auto [B, S] : windows(Kind))
      Result.push_back(WindowRef{static_cast<uint8_t>(Kind),
                                 static_cast<uint8_t>(B),
                                 static_cast<uint8_t>(S)});
  }
  return Result;
}

bool ComponentRec::anyWindow() const {
  for (const auto &Masks : WidthMask)
    for (uint64_t Mask : Masks)
      if (Mask != 0)
        return true;
  return false;
}

unsigned analyzer::componentCountFor(char Sig) {
  switch (Sig) {
  case 'r':
  case 'p':
  case 'i':
  case 'f':
  case 'b':
  case 'z':
    return 1;
  case 'm': // base register + offset
  case 'c': // bank + offset
    return 2;
  case 'C': // bank + offset + register
    return 3;
  case 's': // special registers are named tokens
  case 't': // texture shapes
  case 'h': // texture channels
    return 0;
  default:
    return 0;
  }
}

bool analyzer::isControlFlowMnemonic(const std::string &Mnemonic) {
  static const char *Names[] = {"BRA", "CAL", "SSY",  "JMP",
                                "JCAL", "PBK", "PCNT", "BRX"};
  for (const char *Name : Names)
    if (Mnemonic == Name)
      return true;
  return false;
}

const std::vector<InterpKind> &
analyzer::interpKindsFor(char Sig, unsigned CompIdx,
                         const std::string &Mnemonic) {
  using Kinds = std::vector<InterpKind>;
  static const Kinds None;
  static const Kinds Plain = {InterpKind::Plain};
  static const Kinds Branch = {InterpKind::RelNext};
  static const Kinds Integer = {InterpKind::Plain, InterpKind::Signed};
  static const Kinds Float = {InterpKind::Float32Hi, InterpKind::Float64Hi};
  switch (Sig) {
  case 'r':
  case 'p':
  case 'b':
  case 'z':
    return Plain;
  case 'i':
    return isControlFlowMnemonic(Mnemonic) ? Branch : Integer;
  case 'f':
    return Float;
  case 'm':
    // Component 0 = base register; component 1 = signed byte offset.
    return CompIdx == 0 ? Plain : Integer;
  case 'c':
  case 'C':
    // Bank, offset and (for 'C') the register are all plain values.
    return Plain;
  default:
    return None;
  }
}

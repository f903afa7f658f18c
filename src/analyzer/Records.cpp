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

/// Width-set mask (bit W-1 = width W) of the widths Lo..Hi; empty when
/// Lo > Hi. \p Lo is at least 1.
uint64_t widthRange(unsigned Lo, unsigned Hi) {
  return BitString::lowMask(Hi) & ~BitString::lowMask(Lo - 1);
}

/// The widths at which one interpretation of one component value matches a
/// window (bit W-1 = width W). What depends only on the value is worked out
/// once per narrow, so each live start bit costs a few word operations.
///
/// For the integer interpretations the matching widths form one range:
/// width W matches when the value fits in W bits and the window's low W
/// bits equal the value's, so the range runs from the value's minimum width
/// up to the first bit where window and value differ. A truncated float's
/// top bits change with the width, so the float interpretations compare
/// each surviving width on its own.
class WidthMatcher {
public:
  WidthMatcher(InterpKind K, const CompValue &V) {
    switch (K) {
    case InterpKind::Plain:
      if (V.IsReg && V.Int < 0) { // RZ: all-ones at every width.
        M = Mode::AllOnes;
        return;
      }
      if (V.Int < 0) {
        M = Mode::None;
        return;
      }
      M = Mode::Range;
      Value = static_cast<uint64_t>(V.Int);
      MinWidth = std::max<unsigned>(1, std::bit_width(Value));
      return;
    case InterpKind::Signed:
    case InterpKind::RelNext: {
      int64_t Int = K == InterpKind::Signed ? V.Int : relNextOffset(V);
      M = Mode::Range;
      Value = static_cast<uint64_t>(Int);
      MinWidth = std::bit_width(static_cast<uint64_t>(Int ^ (Int >> 63))) + 1;
      return;
    }
    case InterpKind::Float32Hi:
    case InterpKind::Float64Hi:
      M = Mode::Float;
      Value = floatTopBits(K, V.Float);
      Limit = K == InterpKind::Float32Hi ? 32 : 64;
      return;
    }
  }

  /// The widths among \p Live (none wider than \p MaxWidth) that match a
  /// window whose low \p MaxWidth bits are \p Window.
  uint64_t operator()(uint64_t Window, unsigned MaxWidth,
                      uint64_t Live) const {
    switch (M) {
    case Mode::None:
      break;
    case Mode::AllOnes:
      return Live & widthRange(1, std::min<unsigned>(
                                      MaxWidth, std::countr_one(Window)));
    case Mode::Range:
      return Live & widthRange(MinWidth,
                               std::min<unsigned>(
                                   MaxWidth, std::countr_zero(Window ^ Value)));
    case Mode::Float: {
      uint64_t Matched = 0;
      uint64_t Cand = Live & BitString::lowMask(std::min(Limit, MaxWidth));
      for (; Cand != 0; Cand &= Cand - 1) {
        unsigned W = std::countr_zero(Cand) + 1;
        if ((Window & BitString::lowMask(W)) == Value >> (64 - W))
          Matched |= uint64_t(1) << (W - 1);
      }
      return Matched;
    }
    }
    return 0;
  }

private:
  enum class Mode : uint8_t { None, AllOnes, Range, Float };
  Mode M = Mode::None;
  uint64_t Value = 0; ///< The integer, or the left-aligned float bits.
  unsigned MinWidth = 1;
  unsigned Limit = 64;
};

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

void ComponentRec::clear(unsigned WordBits) {
  assert(WordBits <= BitString::MaxBits && "word wider than 128 bits");
  Started = true;
  for (auto &Masks : WidthMask)
    Masks.assign(WordBits, 0);
  Live = {};
}

void ComponentRec::setWidths(InterpKind Kind, unsigned Bit, uint64_t Mask) {
  auto &Masks = WidthMask[static_cast<unsigned>(Kind)];
  assert(Bit < Masks.size() && "start bit outside the word");
  assert((Masks.size() - Bit >= 64 ||
          (Mask >> (Masks.size() - Bit)) == 0) &&
         "width runs past the word");
  Masks[Bit] = Mask;
  uint64_t &Half = Live[static_cast<unsigned>(Kind)][Bit / 64];
  const uint64_t Flag = uint64_t(1) << (Bit % 64);
  Half = Mask != 0 ? Half | Flag : Half & ~Flag;
}

void ComponentRec::narrow(const BitString &Word, const CompValue &Value,
                          const std::vector<InterpKind> &Kinds) {
  const unsigned WordBits = Word.size();
  const bool First = !Started;
  if (First) {
    Started = true;
    for (InterpKind Kind : Kinds) {
      // Every start bit begins live, with every width that fits.
      unsigned K = static_cast<unsigned>(Kind);
      WidthMask[K].assign(WordBits, 0);
      for (unsigned H = 0; H < BitString::NumWords; ++H)
        Live[K][H] = WordBits > 64 * H
                         ? BitString::lowMask(std::min(64u, WordBits - 64 * H))
                         : 0;
    }
  }
  for (InterpKind Kind : Kinds) {
    const unsigned K = static_cast<unsigned>(Kind);
    const WidthMatcher Match(Kind, Value);
    auto &Masks = WidthMask[K];
    assert((Masks.size() == WordBits || (Live[K][0] | Live[K][1]) == 0) &&
           "word width changed mid-analysis");
    for (unsigned H = 0; H < BitString::NumWords; ++H) {
      // The window at start bit 64*H+S is the 64 bits from bit S of this
      // half and the next; bits above the width are zero, so it is already
      // cut to the word's end. (Shifting the next half by 64-S in two steps
      // keeps S = 0 defined.)
      const uint64_t Half = Word.word(H);
      const uint64_t Next = H + 1 < BitString::NumWords ? Word.word(H + 1) : 0;
      for (uint64_t Pending = Live[K][H]; Pending != 0;
           Pending &= Pending - 1) {
        const unsigned S = std::countr_zero(Pending), B = 64 * H + S;
        const uint64_t Window = (Half >> S) | ((Next << 1) << (63 - S));
        const unsigned MaxWidth = std::min(64u, WordBits - B);
        const uint64_t Previous =
            (First ? ~uint64_t(0) : Masks[B]) & BitString::lowMask(MaxWidth);
        Masks[B] = Match(Window, MaxWidth, Previous);
        if (Masks[B] == 0)
          Live[K][H] &= ~(uint64_t(1) << S);
      }
    }
  }
  ++Instances;
}

std::vector<std::pair<unsigned, unsigned>>
ComponentRec::windows(InterpKind Kind) const {
  std::vector<std::pair<unsigned, unsigned>> Result;
  const unsigned K = static_cast<unsigned>(Kind);
  for (unsigned H = 0; H < BitString::NumWords; ++H)
    for (uint64_t Pending = Live[K][H]; Pending != 0; Pending &= Pending - 1) {
      const unsigned B = 64 * H + std::countr_zero(Pending);
      Result.emplace_back(B, std::bit_width(WidthMask[K][B]));
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

const std::vector<InterpKind> &
analyzer::interpKindsFor(char Sig, unsigned CompIdx, Flow F) {
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
    return F == Flow::Control ? Branch : Integer;
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

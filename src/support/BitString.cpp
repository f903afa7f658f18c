//===- support/BitString.cpp ----------------------------------------------===//

#include "support/BitString.h"

#include <algorithm>
#include <array>

using namespace dcb;

void BitString::setField(unsigned Lo, unsigned Width, uint64_t Value) {
  assert(Width <= 64 && "field wider than 64 bits");
  assert(Lo + Width <= NumBits && "field out of range");
  if (Width == 0)
    return;
  Value &= lowMask(Width);
  unsigned WordIdx = Lo / 64;
  unsigned Shift = Lo % 64;
  uint64_t Mask = lowMask(Width) << Shift;
  Words[WordIdx] = (Words[WordIdx] & ~Mask) | (Value << Shift);
  if (Shift + Width > 64) {
    unsigned HighBits = Shift + Width - 64;
    uint64_t HighMask = lowMask(HighBits);
    Words[WordIdx + 1] =
        (Words[WordIdx + 1] & ~HighMask) | (Value >> (64 - Shift));
  }
}

int64_t BitString::signedField(unsigned Lo, unsigned Width) const {
  assert(Width >= 1 && Width <= 64 && "bad signed field width");
  uint64_t Raw = field(Lo, Width);
  if (Width < 64 && (Raw & (uint64_t(1) << (Width - 1))))
    Raw |= ~lowMask(Width);
  return static_cast<int64_t>(Raw);
}

void BitString::appendHex(std::string &Out) const {
  static const char Digits[] = "0123456789abcdef";
  // Nibble I is the I-th from the least significant end; the most
  // significant prints first. Bits above the width are zero, so a partial
  // top nibble needs no mask.
  char Text[MaxBits / 4];
  const unsigned NumNibbles = (NumBits + 3) / 4;
  for (unsigned I = 0; I < NumNibbles; ++I)
    Text[NumNibbles - 1 - I] = Digits[(Words[I / 16] >> (4 * (I % 16))) & 0xf];
  Out.append(Text, NumNibbles);
}

std::string BitString::toHex() const {
  std::string Result;
  Result.reserve((NumBits + 3) / 4);
  appendHex(Result);
  return Result;
}

BitString BitString::fromHex(std::string_view Hex, unsigned Bits) {
  if (Hex.size() >= 2 && Hex[0] == '0' && (Hex[1] == 'x' || Hex[1] == 'X'))
    Hex.remove_prefix(2);
  if (Hex.empty() || Bits > MaxBits)
    return BitString();

  // Nibble values, or 0xff for a non-hex character.
  static const auto Nibbles = [] {
    std::array<uint8_t, 256> T;
    T.fill(0xff);
    for (unsigned C = 0; C < 10; ++C)
      T['0' + C] = static_cast<uint8_t>(C);
    for (unsigned C = 0; C < 6; ++C)
      T['a' + C] = T['A' + C] = static_cast<uint8_t>(10 + C);
    return T;
  }();

  // Leading zeros never matter; the rest must fit in MaxBits. Digits go
  // most significant first, the last 16 into the low word.
  size_t First = 0;
  while (First + 1 < Hex.size() && Hex[First] == '0')
    ++First;
  if (Hex.size() - First > MaxBits / 4)
    return BitString();
  const size_t Split = std::max(First, Hex.size() - std::min<size_t>(
                                                        16, Hex.size()));
  uint64_t Words[NumWords] = {0, 0};
  uint8_t Seen = 0; // Ors every nibble: 0xff marks a bad character.
  for (size_t I = First; I < Hex.size(); ++I) {
    const uint8_t Nibble = Nibbles[static_cast<uint8_t>(Hex[I])];
    Seen |= Nibble;
    uint64_t &W = Words[I < Split];
    W = (W << 4) | (Nibble & 0xf);
  }
  if (Seen > 0xf)
    return BitString();
  // Bits at and above the width must stay zero.
  for (unsigned W = 0; W < NumWords; ++W) {
    const unsigned Lo = W * 64;
    const uint64_t Allowed =
        Bits <= Lo ? 0 : lowMask(std::min(64u, Bits - Lo));
    if (Words[W] & ~Allowed)
      return BitString(); // Value does not fit.
  }
  BitString Result(Bits);
  Result.Words[0] = Words[0];
  Result.Words[1] = Words[1];
  return Result;
}

BitString BitString::fromBytes(const uint8_t *Bytes, unsigned NumBytes) {
  if (NumBytes > MaxBits / 8)
    return BitString();
  BitString Result(NumBytes * 8);
  for (unsigned I = 0; I < NumBytes; ++I)
    Result.Words[I / 8] |= static_cast<uint64_t>(Bytes[I]) << (8 * (I % 8));
  return Result;
}

void BitString::toBytes(uint8_t *Out) const {
  assert(NumBits % 8 == 0 && "width is not a whole number of bytes");
  for (unsigned I = 0; I < NumBits / 8; ++I)
    Out[I] = static_cast<uint8_t>(Words[I / 8] >> (8 * (I % 8)));
}

void BitString::appendBytes(std::vector<uint8_t> &Out) const {
  size_t Old = Out.size();
  Out.resize(Old + NumBits / 8);
  toBytes(Out.data() + Old);
}

//===- support/BitString.cpp ----------------------------------------------===//

#include "support/BitString.h"

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

BitString BitString::fromHex(const std::string &Hex, unsigned Bits) {
  size_t Start = 0;
  if (Hex.size() >= 2 && Hex[0] == '0' && (Hex[1] == 'x' || Hex[1] == 'X'))
    Start = 2;
  if (Start == Hex.size() || Bits > MaxBits)
    return BitString();

  BitString Result(Bits);
  unsigned NibbleIdx = 0;
  for (size_t I = Hex.size(); I > Start; --I, ++NibbleIdx) {
    char C = Hex[I - 1];
    uint64_t Nibble;
    if (C >= '0' && C <= '9')
      Nibble = C - '0';
    else if (C >= 'a' && C <= 'f')
      Nibble = C - 'a' + 10;
    else if (C >= 'A' && C <= 'F')
      Nibble = C - 'A' + 10;
    else
      return BitString();
    if (Nibble == 0)
      continue;
    // Bits at and above the width must stay zero.
    unsigned Lo = NibbleIdx * 4;
    if (Lo >= Bits || (Bits - Lo < 4 && (Nibble >> (Bits - Lo)) != 0))
      return BitString(); // Value does not fit.
    Result.Words[Lo / 64] |= Nibble << (Lo % 64);
  }
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

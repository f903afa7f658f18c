//===- support/BitString.h - Fixed-width bit vector -------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-width bit string used to represent binary machine instructions.
///
/// GPU instructions in this project are 64 bits (Fermi through Pascal) or
/// 128 bits (Volta), so a string holds at most 128 bits, stored inline as
/// two 64-bit words: copying one never touches the heap. Bit 0 is the least
/// significant bit, matching the numbering used throughout the paper ("we
/// refer to the least significant bit as bit 0, and the most significant
/// bit as bit 63").
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SUPPORT_BITSTRING_H
#define DCB_SUPPORT_BITSTRING_H

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dcb {

/// A fixed-width string of at most MaxBits bits with field extraction and
/// insertion.
///
/// Values wider than a field are truncated on insertion; extraction of up to
/// 64 bits at a time is supported. The width is fixed at construction. Bits
/// at and above the width are always zero, so whole words compare and
/// combine directly.
class BitString {
public:
  /// The widest string: one Volta instruction word.
  static constexpr unsigned MaxBits = 128;
  static constexpr unsigned NumWords = MaxBits / 64;

  BitString() = default;

  /// Creates an all-zero bit string of \p Bits bits (at most MaxBits).
  explicit BitString(unsigned Bits) : NumBits(Bits) {
    assert(Bits <= MaxBits && "bit string wider than 128 bits");
  }

  /// Creates a bit string of \p Bits bits whose low 64 bits are \p Value.
  BitString(unsigned Bits, uint64_t Value) : BitString(Bits) {
    Words[0] = Bits >= 64 ? Value : (Value & lowMask(Bits));
  }

  unsigned size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }

  /// Returns bit \p Index (0 = least significant).
  bool get(unsigned Index) const {
    assert(Index < NumBits && "bit index out of range");
    return (Words[Index / 64] >> (Index % 64)) & 1;
  }

  /// Sets bit \p Index to \p Value.
  void set(unsigned Index, bool Value) {
    assert(Index < NumBits && "bit index out of range");
    uint64_t Mask = uint64_t(1) << (Index % 64);
    if (Value)
      Words[Index / 64] |= Mask;
    else
      Words[Index / 64] &= ~Mask;
  }

  /// Flips bit \p Index.
  void flip(unsigned Index) { set(Index, !get(Index)); }

  /// Bits [64*I, 64*I+64) as one value; zero above the width.
  uint64_t word(unsigned I) const {
    assert(I < NumWords && "word index out of range");
    return Words[I];
  }

  /// Extracts \p Width bits starting at bit \p Lo as an unsigned value.
  /// \p Width must be between 0 and 64; the field must lie in range.
  uint64_t field(unsigned Lo, unsigned Width) const {
    assert(Width <= 64 && "field wider than 64 bits");
    assert(Lo + Width <= NumBits && "field out of range");
    if (Width == 0)
      return 0;
    unsigned Shift = Lo % 64;
    uint64_t Value = Words[Lo / 64] >> Shift;
    if (Shift + Width > 64)
      Value |= Words[Lo / 64 + 1] << (64 - Shift);
    return Value & lowMask(Width);
  }

  /// Inserts the low \p Width bits of \p Value at bit \p Lo.
  void setField(unsigned Lo, unsigned Width, uint64_t Value);

  /// Extracts a field as a sign-extended two's complement value.
  int64_t signedField(unsigned Lo, unsigned Width) const;

  /// Returns the big-endian hexadecimal rendering used by the disassembler
  /// listing, e.g. a 64-bit word prints as 16 hex digits, most significant
  /// first, without a "0x" prefix.
  std::string toHex() const;

  /// Appends toHex() to \p Out.
  void appendHex(std::string &Out) const;

  /// Parses a hex string (optionally "0x"-prefixed) into a bit string of
  /// \p Bits bits. Returns an empty (size 0) BitString on malformed input,
  /// if the value does not fit, or if \p Bits exceeds MaxBits.
  static BitString fromHex(std::string_view Hex, unsigned Bits);

  /// Builds a NumBytes*8-bit string from little-endian bytes in one bulk
  /// load — byte I lands at bits [8*I, 8*I+8). The inverse of toBytes.
  /// Returns an empty BitString when NumBytes*8 exceeds MaxBits.
  static BitString fromBytes(const uint8_t *Bytes, unsigned NumBytes);

  /// Writes the bits as size()/8 little-endian bytes to \p Out. The width
  /// must be a whole number of bytes.
  void toBytes(uint8_t *Out) const;

  /// Appends the little-endian byte rendering to \p Out.
  void appendBytes(std::vector<uint8_t> &Out) const;

  /// Number of set bits.
  unsigned popcount() const {
    return static_cast<unsigned>(__builtin_popcountll(Words[0]) +
                                 __builtin_popcountll(Words[1]));
  }

  /// Bitwise operators over strings of one width; ~ stays within it.
  BitString operator^(const BitString &Other) const {
    assert(NumBits == Other.NumBits && "combining strings of two widths");
    BitString R(NumBits);
    R.Words[0] = Words[0] ^ Other.Words[0];
    R.Words[1] = Words[1] ^ Other.Words[1];
    return R;
  }
  BitString &operator&=(const BitString &Other) {
    assert(NumBits == Other.NumBits && "combining strings of two widths");
    Words[0] &= Other.Words[0];
    Words[1] &= Other.Words[1];
    return *this;
  }
  BitString operator~() const {
    BitString R(NumBits);
    R.Words[0] = ~Words[0] & lowMask(NumBits >= 64 ? 64 : NumBits);
    R.Words[1] = ~Words[1] & lowMask(NumBits > 64 ? NumBits - 64 : 0);
    return R;
  }

  bool operator==(const BitString &Other) const {
    return NumBits == Other.NumBits && Words[0] == Other.Words[0] &&
           Words[1] == Other.Words[1];
  }
  bool operator!=(const BitString &Other) const { return !(*this == Other); }

  /// Lexicographic comparison (by width first, then value) so BitString can
  /// key ordered containers deterministically.
  bool operator<(const BitString &Other) const {
    if (NumBits != Other.NumBits)
      return NumBits < Other.NumBits;
    if (Words[1] != Other.Words[1])
      return Words[1] < Other.Words[1];
    return Words[0] < Other.Words[0];
  }

  /// Returns the mask covering the low \p Bits bits of a 64-bit word.
  static uint64_t lowMask(unsigned Bits) {
    assert(Bits <= 64 && "mask width out of range");
    return Bits == 64 ? ~uint64_t(0) : ((uint64_t(1) << Bits) - 1);
  }

private:
  unsigned NumBits = 0;
  uint64_t Words[NumWords] = {0, 0};
};

} // namespace dcb

#endif // DCB_SUPPORT_BITSTRING_H

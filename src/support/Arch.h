//===- support/Arch.h - GPU architecture identifiers ------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Architecture (compute capability) identifiers and the coarse facts the
/// paper treats as public knowledge: instruction word width, which
/// generations share an encoding family, and where scheduling words (SCHI)
/// appear in the instruction stream. The hidden per-instruction encoding
/// tables live in src/isa and are NOT visible to the analyzer side.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SUPPORT_ARCH_H
#define DCB_SUPPORT_ARCH_H

#include <optional>
#include <string>

namespace dcb {

/// Compute capabilities covered by the framework (paper §IV-B).
enum class Arch {
  SM20, ///< Fermi, CC 2.0.
  SM21, ///< Fermi, CC 2.1 (same ISA as 2.0).
  SM30, ///< Early Kepler, CC 3.0 (Fermi encodings + SCHI words).
  SM35, ///< Late Kepler, CC 3.5 (new encodings, 256 registers).
  SM50, ///< Maxwell, CC 5.0.
  SM52, ///< Maxwell, CC 5.2.
  SM60, ///< Pascal, CC 6.0.
  SM61, ///< Pascal, CC 6.1.
  SM70, ///< Volta, CC 7.0 (128-bit instructions; partially decoded).
};

/// Generations that share one binary encoding.
enum class EncodingFamily {
  Fermi,   ///< SM20/SM21/SM30 instruction encodings (6-bit registers).
  Kepler2, ///< SM35 (8-bit registers, all-new encoding).
  Maxwell, ///< SM50/SM52/SM60/SM61 (opcode in bits 52..63).
  Volta,   ///< SM70 (128-bit, embedded scheduling).
};

/// How compile-time scheduling information is laid out (paper §II-B/§IV-B).
enum class SchiKind {
  None,     ///< Hardware scheduling (Fermi): no SCHI words.
  Kepler30, ///< Every 8th word is SCHI; bits 0..3 = 7, bits 60..63 = 2.
  Kepler35, ///< Every 8th word is SCHI; bits 0..1 = 0, bits 58..63 = 2.
  Maxwell,  ///< Every 4th word is SCHI; no opcode bits, 3x21-bit groups.
  Embedded, ///< Volta: control bits inside each 128-bit instruction.
};

inline const char *archName(Arch A) {
  switch (A) {
  case Arch::SM20:
    return "sm_20";
  case Arch::SM21:
    return "sm_21";
  case Arch::SM30:
    return "sm_30";
  case Arch::SM35:
    return "sm_35";
  case Arch::SM50:
    return "sm_50";
  case Arch::SM52:
    return "sm_52";
  case Arch::SM60:
    return "sm_60";
  case Arch::SM61:
    return "sm_61";
  case Arch::SM70:
    return "sm_70";
  }
  return "sm_??";
}

inline std::optional<Arch> archFromName(const std::string &Name) {
  static const Arch All[] = {Arch::SM20, Arch::SM21, Arch::SM30,
                             Arch::SM35, Arch::SM50, Arch::SM52,
                             Arch::SM60, Arch::SM61, Arch::SM70};
  for (Arch A : All)
    if (Name == archName(A))
      return A;
  return std::nullopt;
}

inline EncodingFamily archFamily(Arch A) {
  switch (A) {
  case Arch::SM20:
  case Arch::SM21:
  case Arch::SM30:
    return EncodingFamily::Fermi;
  case Arch::SM35:
    return EncodingFamily::Kepler2;
  case Arch::SM50:
  case Arch::SM52:
  case Arch::SM60:
  case Arch::SM61:
    return EncodingFamily::Maxwell;
  case Arch::SM70:
    return EncodingFamily::Volta;
  }
  return EncodingFamily::Fermi;
}

/// Number of general registers an instruction can name: R0..R62 in the
/// Fermi encodings' 6-bit register fields (R63 is RZ), R0..R254 in the
/// 8-bit fields of every later family (R255 is RZ).
inline unsigned archGeneralRegs(Arch A) {
  return archFamily(A) == EncodingFamily::Fermi ? 63 : 255;
}

/// Instruction word width in bits.
inline unsigned archWordBits(Arch A) {
  return archFamily(A) == EncodingFamily::Volta ? 128 : 64;
}

inline SchiKind archSchiKind(Arch A) {
  switch (A) {
  case Arch::SM20:
  case Arch::SM21:
    return SchiKind::None;
  case Arch::SM30:
    return SchiKind::Kepler30;
  case Arch::SM35:
    return SchiKind::Kepler35;
  case Arch::SM50:
  case Arch::SM52:
  case Arch::SM60:
  case Arch::SM61:
    return SchiKind::Maxwell;
  case Arch::SM70:
    return SchiKind::Embedded;
  }
  return SchiKind::None;
}

/// Words per instruction group including the SCHI word itself:
/// 8 on Kepler (1 SCHI + 7 instructions), 4 on Maxwell/Pascal
/// (1 SCHI + 3 instructions), 1 otherwise.
inline unsigned schiGroupSize(SchiKind K) {
  switch (K) {
  case SchiKind::Kepler30:
  case SchiKind::Kepler35:
    return 8;
  case SchiKind::Maxwell:
    return 4;
  case SchiKind::None:
  case SchiKind::Embedded:
    return 1;
  }
  return 1;
}

/// All architectures with complete oracle support.
inline const Arch *supportedArchs(unsigned &Count) {
  static const Arch All[] = {Arch::SM20, Arch::SM21, Arch::SM30, Arch::SM35,
                             Arch::SM50, Arch::SM52, Arch::SM60, Arch::SM61};
  Count = sizeof(All) / sizeof(All[0]);
  return All;
}

} // namespace dcb

#endif // DCB_SUPPORT_ARCH_H

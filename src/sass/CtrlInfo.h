//===- sass/CtrlInfo.h - Per-instruction scheduling info --------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-instruction scheduling ("control") information that the compiler
/// embeds in SCHI words, where those words sit in a kernel's code, and the
/// pack/unpack routines for each SCHI layout.
///
/// The layouts themselves are among the paper's published findings (Figs. 9
/// and 10, §IV-B), so this file is their one statement: the vendor
/// simulator's compiler and disassembler and the framework's IR (emission,
/// and splitting SCHI words to in-line the values with individual
/// instructions) all ask it instead of restating the cadence.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SASS_CTRLINFO_H
#define DCB_SASS_CTRLINFO_H

#include "support/Arch.h"
#include "support/BitString.h"

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dcb {
namespace sass {

/// Scheduling state attached to one real instruction.
///
/// On Kepler only Stall (and dual-issue) is meaningful; on Maxwell/Pascal
/// and Volta the barrier fields apply as well.
struct CtrlInfo {
  /// Minimum cycles to wait after dispatching this instruction before
  /// dispatching the next (0..31 on Kepler via dispatch values
  /// 0x20..0x3f; 0..15 on Maxwell).
  unsigned Stall = 1;

  /// Kepler: instruction may be dispatched in the same cycle as the next
  /// (dispatch value 0x4).
  bool DualIssue = false;

  /// Maxwell+: yield hint flag (bit 4); encourages switching threads and is
  /// required for high stall values.
  bool Yield = false;

  /// Maxwell+: write barrier to set (0..5), or 7 for none. Used for true
  /// dependences of variable-latency instructions with a destination
  /// register (e.g. loads).
  unsigned WriteBarrier = 7;

  /// Maxwell+: read barrier to set (0..5), or 7 for none. Used for
  /// anti-dependences of variable-latency instructions with source
  /// registers (e.g. stores).
  unsigned ReadBarrier = 7;

  /// Maxwell+: bit mask of the six barriers this instruction must wait for
  /// before dispatch.
  unsigned WaitMask = 0;

  /// Maxwell+: register reuse cache flags (4 bits).
  unsigned Reuse = 0;

  bool operator==(const CtrlInfo &O) const {
    return Stall == O.Stall && DualIssue == O.DualIssue && Yield == O.Yield &&
           WriteBarrier == O.WriteBarrier && ReadBarrier == O.ReadBarrier &&
           WaitMask == O.WaitMask && Reuse == O.Reuse;
  }
  bool operator!=(const CtrlInfo &O) const { return !(*this == O); }

  /// Human-readable rendering used when in-lining control info with
  /// instructions, e.g. "[B--:R-:W1:Y:S06]".
  std::string str() const;
};

/// Kepler dispatch-slot encoding (Fig. 9): 0x04 means the instruction may
/// dual-issue with the next; 0x20..0x3f mean a stall of value - 0x1f cycles.
uint8_t encodeKeplerDispatch(const CtrlInfo &Info);
CtrlInfo decodeKeplerDispatch(uint8_t Slot);

/// Packs seven dispatch slots into a Kepler SCHI word. \p Kind selects the
/// SM30 layout (slots at bits 4..59, bits 0..3 = 7, bits 60..63 = 2) or the
/// SM35 layout (slots at bits 2..57, bits 0..1 = 0, bits 58..63 = 2).
BitString packKeplerSchi(SchiKind Kind, const std::array<CtrlInfo, 7> &Slots);

/// Splits a Kepler SCHI word into its seven dispatch values. Returns false
/// if the fixed marker bits do not match \p Kind.
bool unpackKeplerSchi(SchiKind Kind, const BitString &Word,
                      std::array<CtrlInfo, 7> &Slots);

/// Packs one 21-bit Maxwell/Pascal control group: stall 0..3, yield 4,
/// write barrier 5..7, read barrier 8..10, wait mask 11..16, reuse 17..20.
uint32_t packMaxwellGroup(const CtrlInfo &Info);
CtrlInfo unpackMaxwellGroup(uint32_t Group);

/// Packs three control groups into a Maxwell SCHI word (bit 63 unused).
BitString packMaxwellSchi(const std::array<CtrlInfo, 3> &Slots);
void unpackMaxwellSchi(const BitString &Word, std::array<CtrlInfo, 3> &Slots);

/// Volta: control bits 105..125 of each 128-bit instruction, same 21-bit
/// group layout as Maxwell.
void embedVoltaCtrl(BitString &InstWord, const CtrlInfo &Info);
CtrlInfo extractVoltaCtrl(const BitString &InstWord);

// The SCHI cadence: with SCHI words, a kernel's code is a run of groups of
// schiGroupSize() words, each a SCHI word and the instructions it schedules.

/// Is word \p WordIndex of a kernel's code a SCHI word?
inline bool isSchiWord(SchiKind Kind, uint64_t WordIndex) {
  const unsigned Group = schiGroupSize(Kind);
  return Group > 1 && WordIndex % Group == 0;
}

/// Byte address of instruction \p Index, counting instructions only.
inline uint64_t instAddress(SchiKind Kind, unsigned WordBytes,
                            uint64_t Index) {
  const unsigned Group = schiGroupSize(Kind);
  const unsigned Slots = Group - 1;
  if (Slots == 0)
    return Index * WordBytes;
  return (Index / Slots * Group + 1 + Index % Slots) * WordBytes;
}

/// \p Count instructions rounded up to whole SCHI groups; the compiler pads
/// the tail with NOPs.
inline size_t paddedInstCount(SchiKind Kind, size_t Count) {
  const unsigned Slots = schiGroupSize(Kind) - 1;
  return Slots == 0 ? Count : (Count + Slots - 1) / Slots * Slots;
}

/// Lays out a kernel's code bytes from its instruction words, \p CtrlAt(I)
/// being instruction I's control info: a SCHI word before each group on
/// Kepler and Maxwell, the control bits embedded in each word on Volta, the
/// words alone on Fermi. \p Words must fill whole groups (paddedInstCount).
std::vector<uint8_t>
layoutCode(SchiKind Kind, std::vector<BitString> Words,
           const std::function<const CtrlInfo &(size_t)> &CtrlAt);

/// Control info of the instruction in code word \p WordIndex, unpacked from
/// \p Word: the SCHI word of its group on Kepler and Maxwell, the
/// instruction word itself on Volta. The defaults where there is none: on
/// Fermi, at a SCHI word's own index, and from a Kepler word whose marker
/// bits do not match \p Kind.
CtrlInfo unpackCtrl(SchiKind Kind, const BitString &Word, uint64_t WordIndex);

} // namespace sass
} // namespace dcb

#endif // DCB_SASS_CTRLINFO_H

//===- sass/CtrlInfo.cpp --------------------------------------------------===//

#include "sass/CtrlInfo.h"

#include <cassert>
#include <cstdio>

using namespace dcb;
using namespace dcb::sass;

std::string CtrlInfo::str() const {
  // Format: [B<waits>:R<rd>:W<wr>:<Y|->:S<stall>]  (MaxAs-like notation).
  std::string Waits;
  for (unsigned I = 0; I < 6; ++I)
    Waits += (WaitMask & (1u << I)) ? char('0' + I) : '-';
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "[B%s:R%c:W%c:%c:S%02u%s]",
                Waits.c_str(),
                ReadBarrier == 7 ? '-' : char('0' + ReadBarrier),
                WriteBarrier == 7 ? '-' : char('0' + WriteBarrier),
                Yield ? 'Y' : '-', Stall, DualIssue ? ":D" : "");
  return Buffer;
}

uint8_t sass::encodeKeplerDispatch(const CtrlInfo &Info) {
  if (Info.DualIssue)
    return 0x04;
  unsigned Stall = Info.Stall;
  if (Stall < 1)
    Stall = 1;
  if (Stall > 32)
    Stall = 32;
  return static_cast<uint8_t>(0x1f + Stall);
}

CtrlInfo sass::decodeKeplerDispatch(uint8_t Slot) {
  CtrlInfo Info;
  if (Slot == 0x04) {
    Info.DualIssue = true;
    Info.Stall = 0;
    return Info;
  }
  if (Slot >= 0x20 && Slot <= 0x3f) {
    Info.Stall = Slot - 0x1f;
    return Info;
  }
  // Unknown dispatch value: conservatively treat as a 1-cycle stall.
  Info.Stall = 1;
  return Info;
}

BitString sass::packKeplerSchi(SchiKind Kind,
                               const std::array<CtrlInfo, 7> &Slots) {
  assert((Kind == SchiKind::Kepler30 || Kind == SchiKind::Kepler35) &&
         "not a Kepler SCHI layout");
  BitString Word(64);
  unsigned SlotBase;
  if (Kind == SchiKind::Kepler30) {
    Word.setField(0, 4, 7);
    Word.setField(60, 4, 2);
    SlotBase = 4;
  } else {
    Word.setField(0, 2, 0);
    Word.setField(58, 6, 2);
    SlotBase = 2;
  }
  for (unsigned I = 0; I < 7; ++I)
    Word.setField(SlotBase + I * 8, 8, encodeKeplerDispatch(Slots[I]));
  return Word;
}

bool sass::unpackKeplerSchi(SchiKind Kind, const BitString &Word,
                            std::array<CtrlInfo, 7> &Slots) {
  assert(Word.size() == 64 && "Kepler SCHI words are 64-bit");
  unsigned SlotBase;
  if (Kind == SchiKind::Kepler30) {
    if (Word.field(0, 4) != 7 || Word.field(60, 4) != 2)
      return false;
    SlotBase = 4;
  } else if (Kind == SchiKind::Kepler35) {
    if (Word.field(0, 2) != 0 || Word.field(58, 6) != 2)
      return false;
    SlotBase = 2;
  } else {
    return false;
  }
  for (unsigned I = 0; I < 7; ++I)
    Slots[I] =
        decodeKeplerDispatch(static_cast<uint8_t>(Word.field(SlotBase + I * 8, 8)));
  return true;
}

uint32_t sass::packMaxwellGroup(const CtrlInfo &Info) {
  assert(Info.Stall <= 15 && "Maxwell stall field is 4 bits");
  assert((Info.WriteBarrier <= 5 || Info.WriteBarrier == 7) &&
         "bad write barrier");
  assert((Info.ReadBarrier <= 5 || Info.ReadBarrier == 7) &&
         "bad read barrier");
  assert(Info.WaitMask < 64 && "wait mask is 6 bits");
  assert(Info.Reuse < 16 && "reuse flags are 4 bits");
  uint32_t Group = 0;
  Group |= Info.Stall & 0xf;
  Group |= (Info.Yield ? 1u : 0u) << 4;
  Group |= (Info.WriteBarrier & 0x7) << 5;
  Group |= (Info.ReadBarrier & 0x7) << 8;
  Group |= (Info.WaitMask & 0x3f) << 11;
  Group |= (Info.Reuse & 0xf) << 17;
  return Group;
}

CtrlInfo sass::unpackMaxwellGroup(uint32_t Group) {
  CtrlInfo Info;
  Info.Stall = Group & 0xf;
  Info.Yield = (Group >> 4) & 1;
  Info.WriteBarrier = (Group >> 5) & 0x7;
  Info.ReadBarrier = (Group >> 8) & 0x7;
  Info.WaitMask = (Group >> 11) & 0x3f;
  Info.Reuse = (Group >> 17) & 0xf;
  return Info;
}

BitString sass::packMaxwellSchi(const std::array<CtrlInfo, 3> &Slots) {
  BitString Word(64);
  for (unsigned I = 0; I < 3; ++I)
    Word.setField(I * 21, 21, packMaxwellGroup(Slots[I]));
  return Word;
}

void sass::unpackMaxwellSchi(const BitString &Word,
                             std::array<CtrlInfo, 3> &Slots) {
  assert(Word.size() == 64 && "Maxwell SCHI words are 64-bit");
  for (unsigned I = 0; I < 3; ++I)
    Slots[I] =
        unpackMaxwellGroup(static_cast<uint32_t>(Word.field(I * 21, 21)));
}

void sass::embedVoltaCtrl(BitString &InstWord, const CtrlInfo &Info) {
  assert(InstWord.size() == 128 && "Volta instructions are 128-bit");
  InstWord.setField(105, 21, packMaxwellGroup(Info));
}

CtrlInfo sass::extractVoltaCtrl(const BitString &InstWord) {
  assert(InstWord.size() == 128 && "Volta instructions are 128-bit");
  return unpackMaxwellGroup(static_cast<uint32_t>(InstWord.field(105, 21)));
}

std::vector<uint8_t>
sass::layoutCode(SchiKind Kind, std::vector<BitString> Words,
                 const std::function<const CtrlInfo &(size_t)> &CtrlAt) {
  assert(Words.size() == paddedInstCount(Kind, Words.size()) &&
         "instruction words must fill whole SCHI groups");
  const unsigned Group = schiGroupSize(Kind);
  const size_t SchiWords = Group > 1 ? Words.size() / (Group - 1) : 0;
  std::vector<uint8_t> Code;
  if (!Words.empty())
    Code.reserve((Words.size() + SchiWords) * (Words.front().size() / 8));
  const bool Kepler = Kind == SchiKind::Kepler30 || Kind == SchiKind::Kepler35;
  for (size_t I = 0; I < Words.size(); ++I) {
    if (Kind == SchiKind::Embedded)
      embedVoltaCtrl(Words[I], CtrlAt(I));
    else if (Kind == SchiKind::Maxwell && I % 3 == 0)
      packMaxwellSchi({CtrlAt(I), CtrlAt(I + 1), CtrlAt(I + 2)})
          .appendBytes(Code);
    else if (Kepler && I % 7 == 0)
      packKeplerSchi(Kind, {CtrlAt(I), CtrlAt(I + 1), CtrlAt(I + 2),
                            CtrlAt(I + 3), CtrlAt(I + 4), CtrlAt(I + 5),
                            CtrlAt(I + 6)})
          .appendBytes(Code);
    Words[I].appendBytes(Code);
  }
  return Code;
}

CtrlInfo sass::unpackCtrl(SchiKind Kind, const BitString &Word,
                          uint64_t WordIndex) {
  if (Kind == SchiKind::Embedded)
    return extractVoltaCtrl(Word);
  if (Kind == SchiKind::None || isSchiWord(Kind, WordIndex))
    return CtrlInfo();
  const size_t Slot = WordIndex % schiGroupSize(Kind) - 1;
  if (Kind == SchiKind::Maxwell) {
    std::array<CtrlInfo, 3> Slots;
    unpackMaxwellSchi(Word, Slots);
    return Slots[Slot];
  }
  std::array<CtrlInfo, 7> Slots;
  return unpackKeplerSchi(Kind, Word, Slots) ? Slots[Slot] : CtrlInfo();
}

//===- isa/Spec.cpp -------------------------------------------------------===//

#include "isa/Spec.h"

#include "isa/DecodeIndex.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>

using namespace dcb;
using namespace dcb::isa;

namespace {

/// Dispatch-path metrics; handles resolved once at static init so the
/// per-word cost is one relaxed gate load when telemetry is off.
struct DecodeTelemetry {
  telemetry::Counter &Dispatches = telemetry::counter("isa.decode.dispatch");
  telemetry::Counter &Misses = telemetry::counter("isa.decode.miss");
  telemetry::Histogram &BucketScan =
      telemetry::histogram("isa.decode.bucket_scan");
  telemetry::Histogram &FreezeNs =
      telemetry::histogram("isa.freeze_decode_ns");
} DecTel;

/// Kept out of line so the common gates-off dispatch stays a tiny
/// load-branch-tailcall and the counting code never costs I-cache there.
[[gnu::noinline]] const InstrSpec *matchCounted(const DecodeIndex &Idx,
                                                uint64_t Low) {
  DecodeIndex::Counted R = Idx.matchCounted(Low);
  DecTel.Dispatches.add();
  DecTel.BucketScan.record(R.ScanLen);
  if (!R.Spec)
    DecTel.Misses.add();
  return R.Spec;
}

} // namespace

bool isa::slotAcceptsOperand(const OperandSlot &Slot, const sass::Operand &Op) {
  using sass::OperandKind;
  switch (Slot.Enc) {
  case SlotEncoding::Reg:
    return Op.Kind == OperandKind::Register;
  case SlotEncoding::Pred:
    return Op.Kind == OperandKind::Predicate;
  case SlotEncoding::SpecialReg:
    return Op.Kind == OperandKind::SpecialReg;
  case SlotEncoding::UImm:
  case SlotEncoding::SImm:
  case SlotEncoding::RelAddr:
    return Op.Kind == OperandKind::IntImm;
  case SlotEncoding::FImm32:
  case SlotEncoding::FImm64:
    return Op.Kind == OperandKind::FloatImm ||
           Op.Kind == OperandKind::IntImm;
  case SlotEncoding::Mem:
    return Op.Kind == OperandKind::Memory;
  case SlotEncoding::ConstMem:
    if (Op.Kind != OperandKind::ConstMem)
      return false;
    // A slot without a register field cannot encode c[b][Rx+off].
    return Slot.Fields[1].valid() || !Op.HasRegister;
  case SlotEncoding::TexShape:
    return Op.Kind == OperandKind::TexShape;
  case SlotEncoding::TexChannel:
    return Op.Kind == OperandKind::TexChannel;
  case SlotEncoding::Barrier:
    return Op.Kind == OperandKind::Barrier;
  case SlotEncoding::BitSet:
    return Op.Kind == OperandKind::BitSet;
  }
  return false;
}

const InstrSpec *ArchSpec::findSpec(const sass::Instruction &Inst) const {
  for (const InstrSpec &Spec : Instrs) {
    if (Spec.MnemonicSym != Inst.opcodeSym() ||
        Spec.Operands.size() != Inst.Operands.size())
      continue;
    bool Match = true;
    for (size_t I = 0; I < Spec.Operands.size(); ++I) {
      if (!slotAcceptsOperand(Spec.Operands[I], Inst.Operands[I])) {
        Match = false;
        break;
      }
    }
    if (Match)
      return &Spec;
  }
  return nullptr;
}

const InstrSpec *ArchSpec::match(const BitString &Word) const {
  assert(Word.size() == WordBits && "word width mismatch");
  const DecodeIndex &Idx = decodeIndex();
  uint64_t Low = Word.field(0, 64);
  if (telemetry::countersEnabled()) [[unlikely]]
    return matchCounted(Idx, Low);
  return Idx.match(Low);
}

void ArchSpec::buildDecodeIndex() {
  DCB_SPAN("isa.freezeDecode");
  uint64_t Start = telemetry::nowNs();
  Decode = DecodeIndex(Instrs);
  DecTel.FreezeNs.record(telemetry::nowNs() - Start);
}

std::optional<std::string> ArchSpec::checkNoAmbiguity() const {
  for (size_t I = 0; I < Instrs.size(); ++I) {
    for (size_t J = I + 1; J < Instrs.size(); ++J) {
      const InstrSpec &A = Instrs[I];
      const InstrSpec &B = Instrs[J];
      uint64_t Common = A.OpcodeMask & B.OpcodeMask;
      if (((A.OpcodeValue ^ B.OpcodeValue) & Common) == 0)
        return A.Mnemonic + "." + A.FormTag + " and " + B.Mnemonic + "." +
               B.FormTag + " have compatible opcode patterns";
    }
  }
  return std::nullopt;
}

// --- Special registers ----------------------------------------------------

namespace {

struct SpecialRegEntry {
  const char *Name;
  unsigned Code;
};

// Table III of the paper plus a handful of additional registers; encodings
// are stable across GPU generations.
const SpecialRegEntry SpecialRegs[] = {
    {"SR_LANEID", 0},     {"SR_VIRTID", 3},      {"SR_TID.X", 33},
    {"SR_TID.Y", 34},     {"SR_TID.Z", 35},      {"SR_CTAID.X", 37},
    {"SR_CTAID.Y", 38},   {"SR_CTAID.Z", 39},    {"SR_NTID.X", 41},
    {"SR_NTID.Y", 42},    {"SR_NTID.Z", 43},     {"SR_NCTAID.X", 45},
    {"SR_NCTAID.Y", 46},  {"SR_NCTAID.Z", 47},   {"SR_SMID", 64},
    {"SR_WARPID", 66},    {"SR_CLOCK_LO", 80},   {"SR_CLOCK_HI", 81},
    {"SR_GLOBALTIMER", 82}, {"SR_EQMASK", 56},   {"SR_LTMASK", 57},
    {"SR_LEMASK", 58},    {"SR_GTMASK", 59},     {"SR_GEMASK", 60},
};

} // namespace

namespace {

/// SpecialRegs' names, interned once.
const std::vector<SymbolId> &specialRegSyms() {
  static const std::vector<SymbolId> Syms = [] {
    std::vector<SymbolId> Out;
    for (const SpecialRegEntry &Entry : SpecialRegs)
      Out.push_back(sass::internKnown(Entry.Name));
    return Out;
  }();
  return Syms;
}

} // namespace

std::optional<unsigned> isa::specialRegEncoding(SymbolId Name) {
  const std::vector<SymbolId> &Syms = specialRegSyms();
  for (size_t I = 0; I < Syms.size(); ++I)
    if (Syms[I] == Name)
      return SpecialRegs[I].Code;
  return std::nullopt;
}

SymbolId isa::specialRegSym(unsigned Code) {
  const std::vector<SymbolId> &Syms = specialRegSyms();
  for (size_t I = 0; I < Syms.size(); ++I)
    if (SpecialRegs[I].Code == Code)
      return Syms[I];
  return InvalidSymbolId;
}

std::vector<std::string> isa::allSpecialRegNames() {
  std::vector<std::string> Names;
  for (const SpecialRegEntry &Entry : SpecialRegs)
    Names.push_back(Entry.Name);
  return Names;
}

// --- Const-memory packing -------------------------------------------------

std::optional<uint64_t> isa::packConst(ConstPacking Packing, uint64_t Bank,
                                       uint64_t Offset) {
  switch (Packing) {
  case ConstPacking::None:
    return std::nullopt;
  case ConstPacking::Bank5Off14:
    if (Bank >= 32 || Offset >= (1u << 14))
      return std::nullopt;
    return (Bank << 14) | Offset;
  case ConstPacking::Bank4Off16:
    if (Bank >= 16 || Offset >= (1u << 16))
      return std::nullopt;
    return (Bank << 16) | Offset;
  case ConstPacking::Bank5Off16:
    if (Bank >= 32 || Offset >= (1u << 16))
      return std::nullopt;
    return (Bank << 16) | Offset;
  }
  return std::nullopt;
}

void isa::unpackConst(ConstPacking Packing, uint64_t Field, uint64_t &Bank,
                      uint64_t &Offset) {
  switch (Packing) {
  case ConstPacking::None:
    Bank = 0;
    Offset = 0;
    return;
  case ConstPacking::Bank5Off14:
    Bank = Field >> 14;
    Offset = Field & BitString::lowMask(14);
    return;
  case ConstPacking::Bank4Off16:
  case ConstPacking::Bank5Off16:
    Bank = Field >> 16;
    Offset = Field & BitString::lowMask(16);
    return;
  }
}

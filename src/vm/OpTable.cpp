//===- vm/OpTable.cpp -----------------------------------------------------===//

#include "vm/OpTable.h"

#include "support/SymbolTable.h"

#include <vector>

using namespace dcb;
using namespace dcb::vm;

namespace {

using K = OpKind;
using W = WidthRule;
using M = MemDir;
using R = RegionKind;
using L = LatencyClass;
using T = ValType;
constexpr uint8_t All = 0xff; // SrcLast: every operand from SrcFirst on.

// Quirks kept on purpose: BRK/PBK (and the unmodeled BRX/JCAL/JMP/PCNT)
// are control for def/use but schedule as fixed latency; S2R has load
// latency but touches no memory, so it may dual-issue; RED and ATOM data
// registers are always one wide. Integer results carry pointer-ness from
// address-forming operands only: both IADD sources, all three of IADD3's,
// and IMAD's addend (base + index * stride).
// clang-format off
const OpInfo Rows[] = {
// Mnemonic    Kind        Roles    Width       Mem        Region     Latency     Cyc Ctl    Src      First Last Result   Carry
{"MOV",       K::Mov,    "ds",    W::One,     M::None,   R::Global, L::Fixed,    6, false, T::None, 0, 0,    T::Copy, 0b10},
{"MOV32I",    K::Mov,    "ds",    W::One,     M::None,   R::Global, L::Fixed,    6, false, T::None, 0, 0,    T::Copy, 0b10},
{"S2R",       K::S2R,    "dx",    W::One,     M::None,   R::Global, L::Load,     6, false, T::None, 0, 0,    T::Int,  0},
{"IADD",      K::IAdd,   "dss",   W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::Int,  0b110},
{"IADD32I",   K::IAdd,   "dss",   W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::Int,  0b110},
{"IADD3",     K::IAdd3,  "dsss",  W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::Int,  0b1110},
{"IMUL",      K::IMul,   "dss",   W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::Int,  0},
{"IMAD",      K::IMad,   "dsss",  W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::Int,  0b1000},
{"XMAD",      K::Xmad,   "dsss",  W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::Int,  0},
{"BFE",       K::Bfe,    "dss",   W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::Int,  0},
{"BFI",       K::Bfi,    "dsss",  W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::Int,  0},
{"POPC",      K::Popc,   "ds",    W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::Int,  0},
{"LOP3",      K::Lop3,   "dssss", W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::Int,  0},
{"IMNMX",     K::Imnmx,  "dssq",  W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::Int,  0},
{"LOP",       K::Lop,    "dss",   W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::Int,  0},
{"SHL",       K::Shl,    "dss",   W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::Int,  0},
{"SHR",       K::Shr,    "dss",   W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::Int,  0},
{"FADD",      K::FAdd,   "dss",   W::One,     M::None,   R::Global, L::Fixed,    6, false, T::F32,  1, 2,    T::F32,  0},
{"FMUL",      K::FMul,   "dss",   W::One,     M::None,   R::Global, L::Fixed,    6, false, T::F32,  1, 2,    T::F32,  0},
{"FFMA",      K::Ffma,   "dsss",  W::One,     M::None,   R::Global, L::Fixed,    6, false, T::F32,  1, 3,    T::F32,  0},
{"FMNMX",     K::Fmnmx,  "dssq",  W::One,     M::None,   R::Global, L::Fixed,    6, false, T::F32,  1, 2,    T::F32,  0},
{"MUFU",      K::Mufu,   "ds",    W::One,     M::None,   R::Global, L::Fixed,   13, false, T::F32,  1, 1,    T::F32,  0},
{"RRO",       K::Rro,    "ds",    W::One,     M::None,   R::Global, L::Fixed,    6, false, T::F32,  1, 1,    T::F32,  0},
{"DADD",      K::DAdd,   "dss",   W::Pairs,   M::None,   R::Global, L::Fixed,   15, false, T::F64,  1, 2,    T::F64,  0},
{"DMUL",      K::DMul,   "dss",   W::Pairs,   M::None,   R::Global, L::Fixed,   15, false, T::F64,  1, 2,    T::F64,  0},
{"DFMA",      K::Dfma,   "dsss",  W::Pairs,   M::None,   R::Global, L::Fixed,   15, false, T::F64,  1, 3,    T::F64,  0},
{"F2F",       K::F2F,    "ds",    W::Formats, M::None,   R::Global, L::Fixed,    6, false, T::Format, 1, 1,  T::Format, 0},
{"F2I",       K::F2I,    "ds",    W::Formats, M::None,   R::Global, L::Fixed,    6, false, T::F32,  1, 1,    T::Int,  0},
{"I2F",       K::I2F,    "ds",    W::Formats, M::None,   R::Global, L::Fixed,    6, false, T::Int,  1, All,  T::F32,  0},
{"ISETP",     K::Setp,   "ppssq", W::One,     M::None,   R::Global, L::Fixed,    6, false, T::Int,  2, 3,    T::None, 0},
{"FSETP",     K::Setp,   "ppssq", W::One,     M::None,   R::Global, L::Fixed,    6, false, T::F32,  2, 3,    T::None, 0},
{"PSETP",     K::Psetp,  "ppqqq", W::One,     M::None,   R::Global, L::Fixed,    6, false, T::None, 0, 0,    T::None, 0},
{"SETP",      K::Unknown,"pp",    W::One,     M::None,   R::Global, L::Fixed,    6, false, T::None, 0, 0,    T::None, 0},
{"SEL",       K::Sel,    "dssq",  W::One,     M::None,   R::Global, L::Fixed,    6, false, T::None, 0, 0,    T::Copy, 0b110},
{"VOTE",      K::Vote,   "pq",    W::One,     M::None,   R::Global, L::Fixed,    6, false, T::None, 0, 0,    T::None, 0},
{"SHFL",      K::Shfl,   "pdrs",  W::One,     M::None,   R::Global, L::Fixed,    6, false, T::None, 0, 0,    T::Copy, 0b100},
{"LD",        K::Load,   "dm",    W::MemData, M::Load,   R::Global, L::Load,     6, false, T::None, 0, 0,    T::None, 0},
{"LDG",       K::Load,   "dm",    W::MemData, M::Load,   R::Global, L::Load,     6, false, T::None, 0, 0,    T::None, 0},
{"LDL",       K::Load,   "dm",    W::MemData, M::Load,   R::Local,  L::Load,     6, false, T::None, 0, 0,    T::None, 0},
{"LDS",       K::Load,   "dm",    W::MemData, M::Load,   R::Shared, L::Load,     6, false, T::None, 0, 0,    T::None, 0},
{"LDC",       K::Ldc,    "dc",    W::MemData, M::Load,   R::Global, L::Load,     6, false, T::None, 0, 0,    T::None, 0},
{"ST",        K::Store,  "mr",    W::MemData, M::Store,  R::Global, L::Store,    6, false, T::None, 0, 0,    T::None, 0},
{"STG",       K::Store,  "mr",    W::MemData, M::Store,  R::Global, L::Store,    6, false, T::None, 0, 0,    T::None, 0},
{"STL",       K::Store,  "mr",    W::MemData, M::Store,  R::Local,  L::Store,    6, false, T::None, 0, 0,    T::None, 0},
{"STS",       K::Store,  "mr",    W::MemData, M::Store,  R::Shared, L::Store,    6, false, T::None, 0, 0,    T::None, 0},
{"RED",       K::Unknown,"mr",    W::One,     M::Store,  R::Global, L::Store,    6, false, T::None, 0, 0,    T::None, 0},
{"ATOM",      K::Atom,   "dmr",   W::One,     M::Atomic, R::Global, L::Load,     6, false, T::None, 0, 0,    T::Int,  0},
{"TEX",       K::Tex,    "dsxx",  W::One,     M::Load,   R::Global, L::Load,     6, false, T::None, 0, 0,    T::Int,  0},
{"BRA",       K::Bra,    "",      W::One,     M::None,   R::Global, L::Control,  6, true,  T::None, 0, 0,    T::None, 0},
{"CAL",       K::Cal,    "",      W::One,     M::None,   R::Global, L::Control,  6, true,  T::None, 0, 0,    T::None, 0},
{"RET",       K::Ret,    "",      W::One,     M::None,   R::Global, L::Control,  6, true,  T::None, 0, 0,    T::None, 0},
{"SSY",       K::Ssy,    "",      W::One,     M::None,   R::Global, L::Control,  6, true,  T::None, 0, 0,    T::None, 0},
{"SYNC",      K::Sync,   "",      W::One,     M::None,   R::Global, L::Control,  6, true,  T::None, 0, 0,    T::None, 0},
{"EXIT",      K::Exit,   "",      W::One,     M::None,   R::Global, L::Control,  6, true,  T::None, 0, 0,    T::None, 0},
{"BAR",       K::Bar,    "",      W::One,     M::None,   R::Global, L::Control,  6, true,  T::None, 0, 0,    T::None, 0},
{"NOP",       K::Nop,    "",      W::One,     M::None,   R::Global, L::Control,  6, true,  T::None, 0, 0,    T::None, 0},
{"MEMBAR",    K::Fence,  "",      W::One,     M::None,   R::Global, L::Control,  6, true,  T::None, 0, 0,    T::None, 0},
{"DEPBAR",    K::Fence,  "",      W::One,     M::None,   R::Global, L::Control,  6, true,  T::None, 0, 0,    T::None, 0},
{"TEXDEPBAR", K::Fence,  "",      W::One,     M::None,   R::Global, L::Control,  6, true,  T::None, 0, 0,    T::None, 0},
{"PBK",       K::Pbk,    "",      W::One,     M::None,   R::Global, L::Fixed,    6, true,  T::None, 0, 0,    T::None, 0},
{"BRK",       K::Brk,    "",      W::One,     M::None,   R::Global, L::Fixed,    6, true,  T::None, 0, 0,    T::None, 0},
{"BRX",       K::Unknown,"",      W::One,     M::None,   R::Global, L::Fixed,    6, true,  T::None, 0, 0,    T::None, 0},
{"JCAL",      K::Unknown,"",      W::One,     M::None,   R::Global, L::Fixed,    6, true,  T::None, 0, 0,    T::None, 0},
{"JMP",       K::Unknown,"",      W::One,     M::None,   R::Global, L::Fixed,    6, true,  T::None, 0, 0,    T::None, 0},
{"PCNT",      K::Unknown,"",      W::One,     M::None,   R::Global, L::Fixed,    6, true,  T::None, 0, 0,    T::None, 0},
};
const OpInfo DefaultRow =
{"",          K::Unknown,"d",     W::One,     M::None,   R::Global, L::Fixed,    6, false, T::None, 0, 0,    T::None, 0};
// clang-format on

/// Rows indexed by the interned mnemonic. Every mnemonic in Rows is
/// interned before the index is sized, so any symbol beyond it has no row.
const std::vector<const OpInfo *> &rowsBySymbol() {
  static const std::vector<const OpInfo *> Index = [] {
    std::vector<const OpInfo *> Out;
    for (const OpInfo &Row : Rows) {
      SymbolId Id = sass::internKnown(Row.Mnemonic);
      if (Id >= Out.size())
        Out.resize(Id + 1, nullptr);
      Out[Id] = &Row;
    }
    return Out;
  }();
  return Index;
}

/// Built while the process starts, before any input can fill the table.
[[maybe_unused]] const std::vector<const OpInfo *> &StartupRows =
    rowsBySymbol();

/// Width selected by the first .64/.128 modifier.
unsigned memWidth(const sass::Instruction &Asm) {
  for (size_t I = 0; I < Asm.Modifiers.size(); ++I) {
    std::string_view Mod = Asm.modifier(I);
    if (Mod == "64")
      return 2;
    if (Mod == "128")
      return 4;
  }
  return 1;
}

bool isWideFormat(std::string_view Fmt) {
  return Fmt == "F64" || Fmt == "S64" || Fmt == "U64";
}

} // namespace

unsigned OpInfo::defs() const {
  unsigned N = 0;
  while (Roles[N] == 'd' || Roles[N] == 'p')
    ++N;
  return N;
}

const OpInfo &vm::opInfo(const sass::Instruction &Asm) {
  const std::vector<const OpInfo *> &Index = rowsBySymbol();
  const SymbolId Id = Asm.opcodeSym();
  return Id < Index.size() && Index[Id] ? *Index[Id] : DefaultRow;
}

unsigned vm::regWidth(const sass::Instruction &Asm, const OpInfo &Row,
                      size_t Idx) {
  switch (Row.Width) {
  case WidthRule::One:
    break;
  case WidthRule::MemData: {
    // The data register: the load's def or the store's register source.
    size_t Data = 0;
    while (Row.Roles[Data] && Row.Roles[Data] != 'd' && Row.Roles[Data] != 'r')
      ++Data;
    return Idx == Data ? memWidth(Asm) : 1;
  }
  case WidthRule::Pairs:
    return Asm.Operands[Idx].Kind == sass::OperandKind::Register ? 2 : 1;
  case WidthRule::Formats:
    // Modifier order is <dst>.<src>.
    if (Asm.Modifiers.size() >= 2 &&
        isWideFormat(Asm.modifier(Idx == 0 ? 0 : 1)))
      return 2;
    break;
  }
  return 1;
}

std::string vm::operandError(const sass::Instruction &Asm, const OpInfo &Row) {
  using sass::OperandKind;
  auto regFits = [](int64_t Id, unsigned Width) {
    return Id == -1 || (Id >= 0 && Id + Width <= 255);
  };
  for (size_t I = 0; Row.Roles[I]; ++I) {
    const char *Why = nullptr;
    if (I >= Asm.Operands.size()) {
      Why = "is missing";
    } else {
      const sass::Operand &Op = Asm.Operands[I];
      const char Role = Row.Roles[I];
      if ((Role == 'd' || Role == 'r') && Op.Kind != OperandKind::Register)
        Why = "is not a register";
      else if ((Role == 'p' || Role == 'q') &&
               (Op.Kind != OperandKind::Predicate || Op.Value[0] < 0 ||
                Op.Value[0] > 7))
        Why = "is not a predicate";
      else if (Role == 'm' && Op.Kind != OperandKind::Memory)
        Why = "is not a memory reference";
      else if (Role == 'c' && Op.Kind != OperandKind::ConstMem)
        Why = "is not a constant-memory reference";
      else if ((Op.Kind == OperandKind::Register &&
                !regFits(Op.Value[0], regWidth(Asm, Row, I))) ||
               (Op.Kind == OperandKind::Memory && !regFits(Op.Value[0], 1)) ||
               (Op.Kind == OperandKind::ConstMem && Op.HasRegister &&
                !regFits(Op.Value[2], 1)))
        Why = "names registers beyond R254";
    }
    if (Why)
      return "malformed operand " + std::to_string(I) + ": " + Why;
  }
  return std::string();
}

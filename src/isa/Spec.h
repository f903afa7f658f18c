//===- isa/Spec.h - Hidden ground-truth ISA encoding tables -----*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synthetic "closed-source" instruction encoding specifications. These
/// tables stand in for NVIDIA's secret per-generation ISA definitions: the
/// vendor toolchain simulator (nvcc-sim / cuobjdump-sim) encodes and decodes
/// instructions with them, while the analyzer side of the project must
/// rediscover their content purely from {assembly, binary} pairs.
///
/// FIREWALL: nothing under src/analyzer, src/asmgen, src/ir or src/transform
/// may include this header (tests enforce that). Tests themselves may, in
/// order to validate learned encodings against ground truth.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ISA_SPEC_H
#define DCB_ISA_SPEC_H

#include "isa/DecodeIndex.h"
#include "sass/Ast.h"
#include "support/Arch.h"
#include "support/BitString.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dcb {
namespace isa {

/// A contiguous bit field inside an instruction word.
struct FieldRef {
  uint8_t Lo = 0;
  uint8_t Width = 0;
  bool valid() const { return Width != 0; }
};

/// How one operand slot is encoded.
enum class SlotEncoding {
  Reg,        ///< Register id in one field (zero register = max id).
  Pred,       ///< Predicate id in 3 bits (+ optional logical-not bit).
  SpecialReg, ///< 8-bit special register code (S2R).
  UImm,       ///< Unsigned literal.
  SImm,       ///< Two's-complement literal.
  FImm32,     ///< Truncated IEEE binary32 literal (top Width bits kept).
  FImm64,     ///< Truncated IEEE binary64 literal (top Width bits kept).
  RelAddr,    ///< PC-relative offset; assembly shows an absolute address.
  Mem,        ///< [reg + offset]: Fields[0] = reg, Fields[1] = signed offset.
  ConstMem,   ///< Packed bank+offset in Fields[0]; optional reg Fields[1].
  TexShape,   ///< 3-bit texture shape.
  TexChannel, ///< 4-bit channel mask.
  Barrier,    ///< Scoreboard index.
  BitSet,     ///< Barrier bit mask.
};

/// How a ConstMem slot packs bank and offset into its field
/// (paper §IV-A: 19/20/21-bit variants).
enum class ConstPacking {
  None,
  Bank5Off14, ///< 19 bits: top 5 = bank, low 14 = byte offset.
  Bank4Off16, ///< 20 bits: top 4 = bank, low 16 = byte offset (LDC form).
  Bank5Off16, ///< 21 bits: top 5 = bank, low 16 = byte offset.
};

/// One operand slot of an instruction form.
struct OperandSlot {
  SlotEncoding Enc = SlotEncoding::Reg;

  /// Primary (and for Mem/ConstMem secondary) fields. Meaning per Enc.
  FieldRef Fields[2];

  ConstPacking Packing = ConstPacking::None;

  /// Unary-operator bits (one bit each; 0xff = not supported).
  uint8_t NegBit = 0xff;  ///< Arithmetic negation.
  uint8_t AbsBit = 0xff;  ///< Absolute value.
  uint8_t InvBit = 0xff;  ///< Bitwise complement.
  uint8_t NotBit = 0xff;  ///< Logical negation (predicates).

  /// Indices into InstrSpec::ModGroups of operand-attached modifier groups
  /// (e.g. the Maxwell "reuse" flag rendered as a register suffix).
  std::vector<unsigned> OperandMods;
};

/// One choice within a modifier group.
struct ModifierChoice {
  std::string Name; ///< Spelling without the dot; empty = prints nothing.
  uint64_t Value = 0;
  /// Name interned in SymbolTable::global() when the spec is built;
  /// InvalidSymbolId for the empty name.
  SymbolId Sym = InvalidSymbolId;
};

/// A group of mutually exclusive modifiers occupying one field.
///
/// Groups have a type name so that a second occurrence of the same type in
/// one instruction (e.g. the two logic steps of PSETP, or the two formats
/// of F2F) is matched to the right field by position (paper §III-A).
struct ModifierGroup {
  std::string TypeName;
  FieldRef Field;
  std::vector<ModifierChoice> Choices;

  /// The value encoded when no modifier of this group is written. If no
  /// choice matches the default, the group is mandatory.
  uint64_t DefaultValue = 0;
  bool HasDefault = true;

  const ModifierChoice *findBySym(SymbolId Sym) const {
    for (const ModifierChoice &C : Choices)
      if (C.Sym == Sym)
        return &C;
    return nullptr;
  }
  const ModifierChoice *findByValue(uint64_t Value) const {
    for (const ModifierChoice &C : Choices)
      if (C.Value == Value)
        return &C;
    return nullptr;
  }
};

/// One instruction form ("operation" in the paper's terminology): a
/// mnemonic together with an operand-type signature. Two IADDs with
/// different operand types are two distinct InstrSpecs because the form
/// selector bits are part of the opcode.
struct InstrSpec {
  std::string Mnemonic;
  /// Mnemonic interned in SymbolTable::global() (set for the built-in
  /// specs), so decoded instructions carry their opcode symbol for free.
  SymbolId MnemonicSym = InvalidSymbolId;
  std::string FormTag; ///< Distinguishes forms, e.g. "rr" / "ri" / "rc".

  /// Fixed bits: (Word & OpcodeMask) == OpcodeValue identifies the form.
  /// For 128-bit Volta words only the low 64 bits carry opcode bits.
  uint64_t OpcodeValue = 0;
  uint64_t OpcodeMask = 0;

  std::vector<OperandSlot> Operands;

  /// Opcode-attached modifier groups in print order, then operand-attached
  /// groups (referenced from OperandSlot::OperandMods).
  std::vector<ModifierGroup> ModGroups;

  /// Number of leading entries of ModGroups that attach to the opcode.
  unsigned NumOpcodeMods = 0;

  /// Scheduling class used by the vendor scheduler (not part of encoding).
  enum class LatencyClass {
    Fixed,    ///< ALU-style fixed latency.
    Memory,   ///< Variable latency with destination (loads): write barrier.
    Store,    ///< Variable latency reading sources (stores): read barrier.
    Control,  ///< Branches and friends.
  };
  LatencyClass Latency = LatencyClass::Fixed;
  unsigned FixedLatency = 6;

  /// Number of leading operands that are written by the instruction
  /// (e.g. 1 for IADD, 2 for ISETP's two predicate results, 0 for stores).
  /// Used by the vendor scheduler's dependence analysis; 0xff means
  /// "derive a default from the latency class" (done at build time).
  uint8_t NumDefs = 0xff;
};

/// A full architecture specification: the hidden tables for one encoding
/// family instantiated for one compute capability.
struct ArchSpec {
  Arch A = Arch::SM35;
  EncodingFamily Family = EncodingFamily::Kepler2;
  unsigned WordBits = 64;
  unsigned RegBits = 8;   ///< 6 on Fermi-family, 8 from SM35 on.
  unsigned NumRegs = 256; ///< Zero register RZ = NumRegs - 1.
  FieldRef GuardField;    ///< 4 bits: low 3 = predicate id, high = negate.

  /// The forms in table order. The decode index borrows pointers into this
  /// vector, so it must not change after buildDecodeIndex().
  std::vector<InstrSpec> Instrs;

  ArchSpec() = default;
  ArchSpec(const ArchSpec &) = delete;
  ArchSpec &operator=(const ArchSpec &) = delete;

  const char *name() const { return archName(A); }
  unsigned zeroReg() const { return NumRegs - 1; }

  /// Finds the form matching a parsed instruction (mnemonic + operand
  /// signature). Returns nullptr when the instruction has no encoding.
  const InstrSpec *findSpec(const sass::Instruction &Inst) const;

  /// Finds the first form in table order whose opcode pattern matches
  /// \p Word, through the decode index. Returns nullptr for undecodable
  /// words. The index must have been built.
  const InstrSpec *match(const BitString &Word) const;

  /// Builds the decode dispatch index over Instrs. getArchSpec builds it
  /// once for every built-in spec; a hand-built spec makes the same call
  /// after its last change to Instrs.
  void buildDecodeIndex();

  const DecodeIndex &decodeIndex() const {
    assert(Decode.built() && "decode index not built");
    return Decode;
  }

  /// Checks that no two forms have compatible opcode patterns (decode
  /// ambiguity); returns a description of the first conflict, if any.
  std::optional<std::string> checkNoAmbiguity() const;

private:
  DecodeIndex Decode;
};

/// Returns the (lazily constructed, immutable) specification for \p A.
const ArchSpec &getArchSpec(Arch A);

/// Whether \p Slot can encode operand \p Op (used by findSpec and by the
/// vendor encoder's diagnostics).
bool slotAcceptsOperand(const OperandSlot &Slot, const sass::Operand &Op);

// --- Special registers (paper Table III) ---------------------------------

/// Returns the 8-bit encoding for an interned special register name, or
/// nullopt.
std::optional<unsigned> specialRegEncoding(SymbolId Name);

/// Returns the interned canonical name for an 8-bit special register code,
/// or InvalidSymbolId if unassigned.
SymbolId specialRegSym(unsigned Code);

/// All known special register names.
std::vector<std::string> allSpecialRegNames();

// --- Const-memory packing -------------------------------------------------

/// Packs bank+offset per \p Packing. Returns nullopt when out of range.
std::optional<uint64_t> packConst(ConstPacking Packing, uint64_t Bank,
                                  uint64_t Offset);

/// Unpacks a packed const-memory field.
void unpackConst(ConstPacking Packing, uint64_t Field, uint64_t &Bank,
                 uint64_t &Offset);

} // namespace isa
} // namespace dcb

#endif // DCB_ISA_SPEC_H

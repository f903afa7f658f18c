//===- sass/Ast.h - SASS assembly AST ---------------------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parsed representation of one SASS assembly instruction. This mirrors
/// the paper's ASSEM/ASMOPERAND structures (Fig. 6): an opcode identifier, a
/// list of modifiers, and a list of operands, where each operand has up to
/// three value components, a set of unary operators and its own modifiers.
///
/// The record is flat and trivially copyable: the opcode, the modifiers,
/// the operand modifiers and special-register names are interned SymbolIds
/// (support/SymbolTable.h), and the lists are inline arrays whose
/// capacities come from the ISA inventory (the most any form uses is 5
/// operands, 4 opcode modifier groups and 1 operand modifier), with a
/// little headroom. The parser refuses text beyond a capacity; hand-built
/// code asserts. Only the printer and error messages turn ids into text.
///
/// The same record is produced by the vendor-simulator's decoder and by the
/// analyzer-side parser, which is exactly the property the paper relies
/// on: a one-to-one mapping between each assembly instruction and each
/// binary instruction in the cuobjdump listing.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SASS_AST_H
#define DCB_SASS_AST_H

#include "support/SymbolTable.h"

#include <cassert>
#include <cstdint>
#include <new>
#include <string_view>
#include <type_traits>

namespace dcb {
namespace sass {

/// Capacities of the record's inline lists.
constexpr unsigned MaxOperands = 6;
constexpr unsigned MaxModifiers = 6;
constexpr unsigned MaxOperandMods = 2;

/// A fixed-capacity list stored inline, so a record holding one never
/// touches the heap and copies as plain bytes. Slots past size() are raw
/// storage: constructing a list writes only its length, so an empty
/// record costs a few bytes to make, not its capacity.
template <class T, unsigned N> class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>, "elements copy as bytes");

public:
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  bool full() const { return Size == N; }

  // T is an implicit-lifetime type, so the storage holds its elements.
  T *begin() { return reinterpret_cast<T *>(Storage); }
  T *end() { return begin() + Size; }
  const T *begin() const { return reinterpret_cast<const T *>(Storage); }
  const T *end() const { return begin() + Size; }

  T &operator[](size_t I) {
    assert(I < Size && "inline list index out of range");
    return begin()[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Size && "inline list index out of range");
    return begin()[I];
  }
  T &back() { return (*this)[Size - 1]; }
  const T &back() const { return (*this)[Size - 1]; }

  /// Appends \p V and returns the new element.
  T &push_back(const T &V) {
    assert(Size < N && "inline list capacity exceeded");
    return *::new (Storage + sizeof(T) * Size++) T(V);
  }
  void clear() { Size = 0; }

  bool operator==(const InlineVec &O) const {
    if (Size != O.Size)
      return false;
    for (unsigned I = 0; I < Size; ++I)
      if (!((*this)[I] == O[I]))
        return false;
    return true;
  }
  bool operator!=(const InlineVec &O) const { return !(*this == O); }

private:
  alignas(T) unsigned char Storage[sizeof(T) * N];
  uint8_t Size = 0;
};

/// The syntactic category of one operand.
enum class OperandKind : uint8_t {
  Register,    ///< R0..R254 or RZ.
  Predicate,   ///< P0..P6 or PT.
  SpecialReg,  ///< SR_TID.X etc. (S2R only).
  IntImm,      ///< Integer literal, usually hexadecimal.
  FloatImm,    ///< Floating-point literal written in decimal.
  Memory,      ///< [Rx], [Rx+0xa] — global/local/shared load-store form.
  ConstMem,    ///< c[0xbank][0xoff] or c[0xbank][Rx+0xoff].
  TexShape,    ///< 1D, 2D, 3D, CUBE, ARRAY_1D, ARRAY_2D.
  TexChannel,  ///< Combination of R, G, B, A.
  Barrier,     ///< SB0..SB7 scoreboard resource.
  BitSet,      ///< {0,1,3} barrier bit indices.
};

/// Texture shape values (3-bit encoding, per the paper).
enum class TexShapeKind : uint8_t {
  Dim1D = 0,
  Dim2D = 1,
  Dim3D = 2,
  Cube = 3,
  Array1D = 4,
  Array2D = 5,
};

/// Returns the assembly spelling of \p Shape ("1D", "CUBE", ...).
const char *texShapeName(TexShapeKind Shape);

/// Parses a texture shape spelling; returns true on success.
bool parseTexShapeName(std::string_view Name, TexShapeKind &Shape);

/// One parsed operand.
///
/// The discrete value components live in \c Value[0..2]; how many are
/// meaningful depends on the kind (paper: memory operands may be represented
/// by up to two values, constant memory by up to three).
struct Operand {
  OperandKind Kind = OperandKind::IntImm;

  /// Unary operators attached to the operand, each typically one bit in the
  /// encoding: arithmetic negation (-), bitwise complement (~), absolute
  /// value (|x|) and logical negation (!).
  bool Negated = false;
  bool Complemented = false;
  bool Absolute = false;
  bool LogicalNot = false;

  /// True for ConstMem operands of the form c[bank][Rx+off].
  bool HasRegister = false;

  /// Operand-attached modifiers (e.g. "reuse", "CC"), without dots.
  InlineVec<SymbolId, MaxOperandMods> Mods;

  /// The spelled name of a SpecialReg operand (e.g. "SR_TID.X").
  SymbolId Sym = InvalidSymbolId;

  /// Value components.
  ///  Register:   Value[0] = register id (RZ = -1).
  ///  Predicate:  Value[0] = predicate id (PT = 7).
  ///  SpecialReg: the name is Sym; encoding resolved later.
  ///  IntImm:     Value[0] = two's-complement literal (sign in bit 63).
  ///  FloatImm:   FValue holds the numeric value.
  ///  Memory:     Value[0] = base register id, Value[1] = byte offset.
  ///  ConstMem:   Value[0] = bank, Value[1] = offset,
  ///              Value[2] = register id when HasRegister.
  ///  TexShape:   Value[0] = TexShapeKind.
  ///  TexChannel: Value[0] = 4-bit mask (R=1, G=2, B=4, A=8).
  ///  Barrier:    Value[0] = scoreboard index.
  ///  BitSet:     Value[0] = bit mask.
  int64_t Value[3] = {0, 0, 0};
  double FValue = 0.0;

  /// The special-register spelling (empty for other kinds).
  std::string_view text() const { return SymbolTable::global().spelling(Sym); }

  // --- Convenience constructors -----------------------------------------

  static Operand makeRegister(unsigned Id);
  static Operand makePredicate(unsigned Id);
  static Operand makeSpecialReg(SymbolId Name);
  static Operand makeSpecialReg(std::string_view Name);
  static Operand makeIntImm(int64_t V);
  static Operand makeFloatImm(double V);
  static Operand makeMemory(unsigned BaseReg, int64_t Offset);
  static Operand makeConstMem(unsigned Bank, int64_t Offset);
  static Operand makeConstMemReg(unsigned Bank, unsigned Reg, int64_t Offset);
  static Operand makeTexShape(TexShapeKind Shape);
  static Operand makeTexChannel(unsigned Mask);
  static Operand makeBarrier(unsigned Index);
  static Operand makeBitSet(uint64_t Mask);

  bool operator==(const Operand &O) const;
  bool operator!=(const Operand &O) const { return !(*this == O); }
};

/// One parsed SASS instruction (the paper's ASSEM struct).
struct Instruction {
  /// Conditional guard: @P3 / @!P3. Defaults to the always-true PT.
  uint8_t GuardPredicate = 7;
  bool GuardNegated = false;

  /// Opcode-attached modifiers in source order, without dots, e.g. for
  /// "PSETP.AND.OR" these are the ids of {"AND", "OR"}. Order matters
  /// (paper §III-A).
  InlineVec<SymbolId, MaxModifiers> Modifiers;

  InlineVec<Operand, MaxOperands> Operands;

  /// Opcode mnemonic, e.g. "IADD"; empty until set.
  std::string_view opcode() const {
    return SymbolTable::global().spelling(OpcodeSym);
  }

  /// The interned id of opcode(), or InvalidSymbolId while it is empty.
  SymbolId opcodeSym() const { return OpcodeSym; }

  void setOpcode(SymbolId Sym) { OpcodeSym = Sym; }
  /// Sets the mnemonic by spelling (hand-built code).
  void setOpcode(std::string_view Mnemonic);

  /// The spelling of modifier \p I.
  std::string_view modifier(size_t I) const {
    return SymbolTable::global().spelling(Modifiers[I]);
  }
  /// Appends a modifier by spelling (hand-built code).
  void addModifier(std::string_view Spelling);

  bool hasGuard() const { return GuardPredicate != 7 || GuardNegated; }

  bool operator==(const Instruction &I) const;
  bool operator!=(const Instruction &I) const { return !(*this == I); }

private:
  SymbolId OpcodeSym = InvalidSymbolId;
};

static_assert(std::is_trivially_copyable_v<Instruction>,
              "an instruction copies as plain bytes");
static_assert(sizeof(Operand) == 56, "operand record grew");
static_assert(sizeof(Instruction) == 384, "instruction record grew");

/// The id of \p Spelling in SymbolTable::global(), for hand-built code:
/// asserts that the table took it.
SymbolId internKnown(std::string_view Spelling);

/// The id of a named operand's token — the special register, texture
/// shape or channel combination as spelled — or InvalidSymbolId for
/// value operands. Shape and channel spellings are interned at start-up.
SymbolId tokenSym(const Operand &Op);

// --- Control-flow classification ------------------------------------------
//
// One id-keyed statement of the control-flow mnemonics, shared by the
// analyzer (which learns branch targets as PC-relative fields) and the IR
// builder (which splits blocks).

/// Does \p Opcode take a code address as its literal operand (BRA, CAL,
/// SSY, JMP, JCAL, PBK, PCNT, BRX)?
bool isControlFlowOpcode(SymbolId Opcode);

/// A control-flow instruction whose one operand is a literal address.
bool hasLiteralTarget(const Instruction &Inst);

/// A reconvergence command: SYNC on Maxwell+, or any instruction carrying
/// the .S modifier on Fermi/Kepler.
bool isReconvergence(const Instruction &Inst);

/// Does the reconvergence instruction jump to the armed SSY target? Only
/// SYNC and NOP.S transfer control; a .S marker on an ordinary instruction
/// labels the reconvergence point but falls through.
bool isReconvergenceJump(const Instruction &Inst);

/// Does the instruction end a basic block (BRA, EXIT, RET, BRK or a
/// reconvergence command)?
bool isTerminator(const Instruction &Inst);

} // namespace sass
} // namespace dcb

#endif // DCB_SASS_AST_H

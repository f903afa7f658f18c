//===- analyzer/Records.h - Learned-encoding records ------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis-state structures of the paper's Fig. 6. An OPERATION record
/// accumulates, across every observed instance of one operation:
///
///  - opcode bits: the first instance's word plus a boolean array of which
///    bits have stayed consistent (narrowed by Algorithm 1);
///  - a guard component (the conditional guard is analyzed like a small
///    operand whose value is negate<<3 | predicate);
///  - per-operand COMPONENT records: for each candidate start bit, the
///    maximum window size whose content matches the component's value under
///    each possible interpretation (Fig. 5 / Algorithm 2);
///  - MODIFIER and UNARYFUNC records: one instance's word plus the
///    consistency mask over instances where that modifier/operator appears.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ANALYZER_RECORDS_H
#define DCB_ANALYZER_RECORDS_H

#include "support/BitString.h"

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dcb {
namespace analyzer {

/// The "possible interpretations" a literal component value may have in the
/// binary (paper §III-A: relative branch offsets, truncated floats, ...).
enum class InterpKind : uint8_t {
  Plain,     ///< Unsigned value verbatim; registers use all-ones for RZ.
  Signed,    ///< Two's complement truncated to the window width.
  RelNext,   ///< PC-relative to the next instruction (control flow).
  Float32Hi, ///< Top window-width bits of the IEEE binary32 value.
  Float64Hi, ///< Top window-width bits of the IEEE binary64 value.
};
constexpr unsigned NumInterpKinds = 5;

/// The value of one operand component plus the context needed to compute
/// interpretation-specific encodings.
struct CompValue {
  int64_t Int = 0;      ///< Integer value; -1 marks the zero register.
  double Float = 0.0;   ///< For float literals.
  bool IsReg = false;   ///< Enables the all-ones RZ rule under Plain.
  uint64_t InstAddr = 0;
  unsigned WordBytes = 8;
};

/// Returns the window content that interpretation \p K of \p V would
/// produce for a window of \p Width bits, or false when \p V cannot be
/// represented that way at that width.
bool interpEncode(InterpKind K, const CompValue &V, unsigned Width,
                  uint64_t &Content);

/// Consistency record shared by opcodes, modifiers and unary operators: one
/// observed word plus the mask of bits that never changed across instances.
struct PatternRec {
  bool Started = false;
  BitString Binary;
  std::vector<bool> Bits;
  unsigned Occurrences = 0;

  void observe(const BitString &Word) {
    if (!Started) {
      Started = true;
      Binary = Word;
      Bits.assign(Word.size(), true);
    } else {
      for (unsigned B = 0; B < Word.size(); ++B)
        if (Word.get(B) != Binary.get(B))
          Bits[B] = false;
    }
    ++Occurrences;
  }

  /// Number of still-consistent bits.
  unsigned consistentCount() const {
    unsigned N = 0;
    for (bool Bit : Bits)
      N += Bit;
    return N;
  }
};

/// One surviving component window: interpretation kind + field position.
/// The unit the assembler consumes — computed from ComponentRec masks once
/// at database-freeze time (and baked as literals into generated
/// assemblers).
struct WindowRef {
  uint8_t Kind;
  uint8_t Lo;
  uint8_t Size;
};

/// Per-component window search state (the paper's COMPONENT 'size' array),
/// kept separately for each interpretation kind so that an interpretation
/// survives only if it matched in every instance.
///
/// Refinement over the paper's Algorithm 2: instead of a single maximum
/// size per start bit we keep the *set* of surviving widths (a 64-bit mask
/// per position), intersected across instances. The scalar version silently
/// accepts windows that never matched earlier instances: shrinking a window
/// changes its meaning for top-bits interpretations (truncated floats), so
/// a width reduced by instance N is not implied to have matched instances
/// 1..N-1. The width-set intersection is exactly sound.
struct ComponentRec {
  bool Started = false;
  /// WidthMask[kind][b] bit (w-1) set = a window of width w at start bit b
  /// has matched every instance so far under that interpretation.
  std::array<std::vector<uint64_t>, NumInterpKinds> WidthMask;
  unsigned Instances = 0;

  /// Narrows against one instance. \p Kinds lists the interpretations this
  /// component may use (fixed per operand kind). Costs one window
  /// extraction per start bit that still has a live width: the integer
  /// interpretations match a contiguous range of widths computed in closed
  /// form, and only the float interpretations compare width by width.
  void narrow(const BitString &Word, const CompValue &Value,
              const std::vector<InterpKind> &Kinds);

  /// Surviving windows of one kind: (startBit, maxWidth) pairs — the widest
  /// surviving window per start position.
  std::vector<std::pair<unsigned, unsigned>>
  windows(InterpKind Kind) const;

  /// The surviving windows restricted to \p Kinds, in kind order — the
  /// flat form the assembler iterates.
  std::vector<WindowRef>
  collectWindows(const std::vector<InterpKind> &Kinds) const;

  /// True if any window of any kind survives.
  bool anyWindow() const;
};

/// One operand's analysis state (the paper's OPERAND struct).
struct OperandRec {
  char SigChar = '?';
  std::vector<ComponentRec> Comps;
  std::map<char, PatternRec> Unaries;          ///< '-', '~', '|', '!'.
  std::map<std::string, PatternRec> Tokens;    ///< Named values (SR_*, 2D..).
  std::map<std::string, PatternRec> Mods;      ///< Operand-attached mods.
};

/// One operation's full analysis state (the paper's OPERATION struct).
struct OperationRec {
  std::string Mnemonic;
  std::string Signature;
  unsigned WordBits = 64;

  PatternRec Opcode;   ///< opcodeBinary + opcodeBits of Algorithm 1.
  ComponentRec Guard;  ///< The conditional guard, Plain interpretation.
  std::vector<OperandRec> Operands;

  /// Opcode-attached modifiers keyed by (name, occurrence index among
  /// modifiers of the same type) — PSETP.AND.OR stores (AND,0) and (OR,1).
  std::map<std::pair<std::string, unsigned>, PatternRec> Mods;

  unsigned Instances = 0;

  /// One concrete occurrence, used by the bit flipper to build variants.
  std::string ExemplarKernel;
  uint64_t ExemplarAddr = 0;
  BitString ExemplarWord;

  std::string key() const { return Mnemonic + "/" + Signature; }
};

/// The number of value components an operand of signature char \p Sig has
/// (memory has two, constant-with-register three, named tokens zero).
unsigned componentCountFor(char Sig);

/// The interpretation kinds applicable to component \p CompIdx of an
/// operand with signature char \p Sig in an instruction whose mnemonic is
/// \p Mnemonic (control-flow literals use RelNext; see §III-A). The list
/// is one of five static lists, so the call allocates nothing.
const std::vector<InterpKind> &interpKindsFor(char Sig, unsigned CompIdx,
                                              const std::string &Mnemonic);

/// Whether \p Mnemonic is a control-transfer instruction whose literal
/// operand is an absolute address in assembly but PC-relative in binary.
bool isControlFlowMnemonic(const std::string &Mnemonic);

} // namespace analyzer
} // namespace dcb

#endif // DCB_ANALYZER_RECORDS_H

//===- vm/OpTable.h - One row of public facts per mnemonic ------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single statement of what each SASS mnemonic is, under the public
/// model (mnemonic conventions and operand syntax, never the hidden vendor
/// tables). One row per mnemonic gives:
///
///  - the VM's OpKind (what the VM executes and what the MEM/RAC
///    checkers' abstract transfer evaluates);
///  - operand roles, from which the def count follows, and how operand
///    register widths are read;
///  - the memory direction and region;
///  - the scheduling latency class and fixed latency;
///  - whether the mnemonic is control flow for def/use purposes;
///  - the value types its sources want and its result holds.
///
/// Every consumer reads the row instead of keeping its own mnemonic list:
/// vm::predecode, the operand check the VM and the abstract replay
/// apply, analysis::RegModel, transform's latency classes, the Kepler
/// dual-issue rule, type inference and the TYP checks. Rows are found by the
/// instruction's interned opcode symbol.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_VM_OPTABLE_H
#define DCB_VM_OPTABLE_H

#include "sass/Ast.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace dcb {
namespace vm {

/// The semantic kind the VM executes. Control kinds are the scheduler's;
/// Unknown means the VM cannot execute the mnemonic.
enum class OpKind : uint8_t {
  Mov, S2R, IAdd, IMul, IMad, Xmad, IAdd3, Bfe, Bfi, Popc, Lop3, Imnmx,
  FAdd, FMul, Ffma, Fmnmx, Dfma, Rro, Vote, DAdd, DMul, Mufu, F2F, F2I,
  I2F, Setp, Psetp, Sel, Lop, Shl, Shr, Load, Store, Ldc, Atom, Tex,
  Shfl, Bra, Cal, Ret, Ssy, Pbk, Brk, Sync, Exit, Bar, Nop, Fence, Unknown,
};

/// Target space of the LD/ST/ATOM forms.
enum class RegionKind : uint8_t { Global, Local, Shared };

/// Memory direction: what the instruction does to memory, if anything.
enum class MemDir : uint8_t { None, Load, Store, Atomic };

/// The public scheduling classes transform assigns control info by.
enum class LatencyClass : uint8_t { Fixed, Load, Store, Control };

/// How operand register widths are read (see regWidth).
enum class WidthRule : uint8_t {
  One,     ///< Every operand is one register.
  MemData, ///< The data register follows the .64/.128 size modifier.
  Pairs,   ///< Register operands are double-precision pairs.
  Formats, ///< A cast: modifier 0 sizes the result, modifier 1 the source.
};

/// Value type of an instruction's sources or result.
enum class ValType : uint8_t {
  None,   ///< Untyped (or predicates only).
  Int,    ///< 32-bit integer.
  F32,
  F64,
  Format, ///< F2F: read from the format modifiers.
  Copy,   ///< The result holds whatever the carried sources held.
};

/// One mnemonic's public facts.
struct OpInfo {
  const char *Mnemonic;
  OpKind Kind;
  /// One letter per operand the VM reads, in order: d register def,
  /// p predicate def, s value source (any operand kind), q predicate
  /// source, r register source, m memory reference, c constant-memory
  /// reference, x any operand. The leading d/p letters are the defs.
  const char *Roles;
  WidthRule Width;
  MemDir Mem;
  RegionKind Region;
  LatencyClass Latency;
  uint8_t Cycles;  ///< Fixed-class latency.
  bool Control;    ///< Control flow for def/use: defines nothing.
  ValType Src;     ///< Type the sources SrcFirst..SrcLast are read as.
  uint8_t SrcFirst, SrcLast;
  ValType Result;  ///< What the register defs hold afterwards.
  uint8_t Carry;   ///< Bit i: operand i's contents flow into the result
                   ///< (all of it for Copy, its pointer-ness for Int).

  /// Number of leading operands the mnemonic defines.
  unsigned defs() const;
  /// May share a Kepler dual-issue slot: neither memory nor control.
  bool dualIssue() const { return !Control && Mem == MemDir::None; }
};

/// The row of \p Asm's mnemonic, or the default row (an unknown
/// one-result instruction) when the mnemonic has none.
const OpInfo &opInfo(const sass::Instruction &Asm);

/// Consecutive registers operand \p Idx of \p Asm occupies (1, 2 or 4).
unsigned regWidth(const sass::Instruction &Asm, const OpInfo &Row,
                  size_t Idx);

/// Checks \p Asm's operands against its row's roles: count, operand kind,
/// and register ranges (every register of a group within R0..R254).
/// Returns an empty string when they fit, else what is wrong.
std::string operandError(const sass::Instruction &Asm, const OpInfo &Row);

} // namespace vm
} // namespace dcb

#endif // DCB_VM_OPTABLE_H

//===- vm/Dispatch.h - Predecode records and scalar semantics ---*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the VM and the typed analyses read from an instruction and compute
/// from its values:
///
/// 1. The packed `Pre` record and `predecode()` — one instruction's
///    modifier-derived facts resolved to enums/flags. The VM runs it once
///    per instruction per launch; TypeInference and the MEM/RAC checkers
///    classify with it too.
///
/// 2. `scalar::*` — every arithmetic expression whose result the VM and
///    the MEM/RAC checkers' abstract transfer must agree on is written
///    exactly once, so the compiler cannot contract or reassociate two
///    copies differently.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_VM_DISPATCH_H
#define DCB_VM_DISPATCH_H

#include "sass/Printer.h"
#include "support/Errors.h"
#include "vm/OpTable.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

namespace dcb {
namespace vm {

// --- Predecoded instruction forms ----------------------------------------

enum class CmpKind : uint8_t { LT, EQ, LE, GT, NE, GE };
enum class LogicKind : uint8_t { And, Or, Xor };
enum class MufuKind : uint8_t { Cos, Sin, Ex2, Lg2, Rcp, Rsq, Zero };
enum class AtomKind : uint8_t { Add, Min, Max, Exch, And, Or, Xor, None };
enum class F2FKind : uint8_t { F32F64, F64F32, Other };
enum class SrKind : uint8_t { TidX, CtaidX, NtidX, LaneId, ClockLo, Zero };
enum class VoteKind : uint8_t { All, Any, Eq };
enum class ShflKind : uint8_t { Idx, Up, Down, Bfly, None };

/// One instruction's modifier-derived facts, resolved once. Everything a
/// step needs except the operands themselves.
struct Pre {
  OpKind Kind = OpKind::Unknown;
  RegionKind Region = RegionKind::Global; ///< Load/Store/Atom target.
  uint8_t MemBytes = 4;                   ///< Load/Store/Ldc access width.
  CmpKind Cmp = CmpKind::GE;              ///< Setp comparison.
  LogicKind L1 = LogicKind::And;          ///< Setp/Psetp/Lop first logic op.
  LogicKind L2 = LogicKind::And;          ///< Psetp second logic op.
  MufuKind Mufu = MufuKind::Zero;
  AtomKind Atom = AtomKind::None;
  F2FKind F2F = F2FKind::Other;
  SrKind Sr = SrKind::Zero;
  VoteKind Vote = VoteKind::All;
  ShflKind Shfl = ShflKind::None;
  bool Hi = false;               ///< IMUL.HI.
  bool H1A = false, H1B = false; ///< XMAD operand-half selects.
  bool U32 = false;              ///< BFE/SHR unsigned variant.
  bool FloatSetp = false;        ///< FSETP (vs ISETP).
  bool I2FUnsigned = false;
  bool RejoinS = false;          ///< NOP carrying an "S" modifier anywhere.
  bool HasMods2 = false;         ///< At least two modifiers present.
};

/// Classifies one instruction: the kind and region come from its opcode
/// table row, every modifier string is resolved here. Unknown values keep
/// the same defaults the original interpreter used (comparison GE, logic
/// AND, MUFU result 0, ATOM no-op). Only "BAR.SYNC" becomes a real
/// barrier; BAR.ARV joins the memory fences as a no-op, matching their
/// advisory role under this memory model.
Pre predecode(const sass::Instruction &Asm);

/// Uniform error shape for anything the VM cannot execute.
inline Failure vmUnsupported(const sass::Instruction &Asm,
                             const std::string &Why) {
  return Failure("vm: " + Why + " in '" + sass::printInstruction(Asm) + "'");
}

/// What is wrong with the operands of \p Asm against its opcode row, or
/// empty when they fit. The VM reports it as its vm: error when the
/// instruction issues, and the abstract replay treats the instruction's
/// defs as unknown. Unknown opcodes keep their "unimplemented" error.
inline std::string malformedOperands(const sass::Instruction &Asm,
                                     const Pre &P) {
  return P.Kind == OpKind::Unknown ? std::string()
                                   : operandError(Asm, opInfo(Asm));
}

// --- Shared scalar semantics ---------------------------------------------
//
// Each expression appears exactly once so the VM and the abstract replay
// produce identical bit patterns (FP contraction/reassociation cannot
// diverge between two copies that do not exist).

namespace scalar {

inline float asFloat(uint32_t Bits) {
  float F;
  std::memcpy(&F, &Bits, sizeof(F));
  return F;
}
inline uint32_t fromFloat(float F) {
  uint32_t Bits;
  std::memcpy(&Bits, &F, sizeof(Bits));
  return Bits;
}
inline double asDouble(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}
inline uint64_t fromDouble(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return Bits;
}

inline uint32_t fadd(float A, float B) { return fromFloat(A + B); }
inline uint32_t fmul(float A, float B) { return fromFloat(A * B); }
inline uint32_t ffma(float A, float B, float C) {
  return fromFloat(A * B + C);
}
inline uint32_t fmnmx(float A, float B, bool TakeMin) {
  return fromFloat(TakeMin ? std::fmin(A, B) : std::fmax(A, B));
}
inline uint64_t dadd(double A, double B) { return fromDouble(A + B); }
inline uint64_t dmul(double A, double B) { return fromDouble(A * B); }
inline uint64_t dfma(double A, double B, double C) {
  return fromDouble(A * B + C);
}

inline uint32_t mufu(MufuKind Kind, float X) {
  float R = 0;
  switch (Kind) {
  case MufuKind::Cos:
    R = std::cos(X);
    break;
  case MufuKind::Sin:
    R = std::sin(X);
    break;
  case MufuKind::Ex2:
    R = std::exp2(X);
    break;
  case MufuKind::Lg2:
    R = std::log2(X);
    break;
  case MufuKind::Rcp:
    R = 1.0f / X;
    break;
  case MufuKind::Rsq:
    R = 1.0f / std::sqrt(X);
    break;
  case MufuKind::Zero:
    break;
  }
  return fromFloat(R);
}

/// BFE: operand 2 packs position (bits 0..7) and length (bits 8..15).
inline uint32_t bfe(uint32_t Src, uint32_t Ctl, bool U32) {
  unsigned Pos = Ctl & 0xff, Len = (Ctl >> 8) & 0xff;
  if (Len == 0 || Len > 32)
    Len = 32;
  uint32_t Field = Pos >= 32 ? 0 : (Src >> Pos);
  if (Len < 32)
    Field &= (1u << Len) - 1;
  if (!U32 && Len < 32 && (Field >> (Len - 1)) & 1)
    Field |= ~((1u << Len) - 1); // Sign-extend.
  return Field;
}

inline uint32_t bfi(uint32_t Src, uint32_t Ctl, uint32_t Base) {
  unsigned Pos = Ctl & 0xff, Len = (Ctl >> 8) & 0xff;
  if (Len == 0 || Len > 32)
    Len = 32;
  uint32_t Mask = (Len >= 32 ? ~0u : ((1u << Len) - 1)) << (Pos & 31);
  return (Base & ~Mask) | ((Src << (Pos & 31)) & Mask);
}

inline uint32_t lop3(uint32_t A, uint32_t B, uint32_t C, uint32_t Lut) {
  uint32_t Out = 0;
  for (unsigned Bit = 0; Bit < 32; ++Bit) {
    unsigned Index =
        (((A >> Bit) & 1) << 2) | (((B >> Bit) & 1) << 1) | ((C >> Bit) & 1);
    Out |= ((Lut >> Index) & 1) << Bit;
  }
  return Out;
}

inline uint32_t xmad(uint32_t A, uint32_t B, uint32_t C, bool H1A,
                     bool H1B) {
  if (H1A)
    A >>= 16;
  if (H1B)
    B >>= 16;
  return (A & 0xffff) * (B & 0xffff) + C;
}

inline uint32_t imul(uint32_t A, uint32_t B, bool Hi) {
  uint64_t Product = static_cast<uint64_t>(A) * B;
  return Hi ? static_cast<uint32_t>(Product >> 32)
            : static_cast<uint32_t>(Product);
}

inline uint32_t imnmx(uint32_t A, uint32_t B, bool TakeMin) {
  int32_t SA = static_cast<int32_t>(A), SB = static_cast<int32_t>(B);
  return static_cast<uint32_t>(TakeMin ? (SA < SB ? SA : SB)
                                       : (SA > SB ? SA : SB));
}

inline uint32_t popc(uint32_t A) {
  return static_cast<uint32_t>(__builtin_popcount(A));
}

inline uint32_t shl(uint32_t A, uint32_t Amount) { return A << (Amount & 31); }

inline uint32_t shr(uint32_t A, uint32_t Amount, bool U32) {
  Amount &= 31;
  return U32 ? A >> Amount
             : static_cast<uint32_t>(static_cast<int32_t>(A) >> Amount);
}

inline uint32_t i2f(uint32_t Raw, bool Unsigned) {
  return fromFloat(Unsigned ? static_cast<float>(Raw)
                            : static_cast<float>(static_cast<int32_t>(Raw)));
}

/// F2I's truncating conversion. NaN and out-of-range inputs give
/// 0x80000000, the x86 "integer indefinite" value the cast produced
/// before it was defined here.
inline uint32_t f2i(float F) {
  if (!(F >= -2147483648.0f && F < 2147483648.0f))
    return 0x80000000u;
  return static_cast<uint32_t>(static_cast<int32_t>(F));
}

inline uint32_t f64to32(double D) { return fromFloat(static_cast<float>(D)); }
inline uint64_t f32to64(float F) { return fromDouble(static_cast<double>(F)); }

inline bool compareF(CmpKind Cmp, float A, float B) {
  switch (Cmp) {
  case CmpKind::LT:
    return A < B;
  case CmpKind::EQ:
    return A == B;
  case CmpKind::LE:
    return A <= B;
  case CmpKind::GT:
    return A > B;
  case CmpKind::NE:
    return A != B;
  case CmpKind::GE:
    break;
  }
  return A >= B;
}
inline bool compareI(CmpKind Cmp, int32_t A, int32_t B) {
  switch (Cmp) {
  case CmpKind::LT:
    return A < B;
  case CmpKind::EQ:
    return A == B;
  case CmpKind::LE:
    return A <= B;
  case CmpKind::GT:
    return A > B;
  case CmpKind::NE:
    return A != B;
  case CmpKind::GE:
    break;
  }
  return A >= B;
}
inline bool logic(LogicKind Op, bool A, bool B) {
  switch (Op) {
  case LogicKind::Or:
    return A || B;
  case LogicKind::Xor:
    return A != B;
  case LogicKind::And:
    break;
  }
  return A && B;
}

inline uint32_t lop(LogicKind Op, uint32_t A, uint32_t B) {
  return Op == LogicKind::Or ? (A | B) : Op == LogicKind::Xor ? (A ^ B) : (A & B);
}

inline uint32_t atomApply(AtomKind Kind, uint32_t Old, uint32_t Src) {
  switch (Kind) {
  case AtomKind::Add:
    return Old + Src;
  case AtomKind::Min:
    return Old < Src ? Old : Src;
  case AtomKind::Max:
    return Old > Src ? Old : Src;
  case AtomKind::Exch:
    return Src;
  case AtomKind::And:
    return Old & Src;
  case AtomKind::Or:
    return Old | Src;
  case AtomKind::Xor:
    return Old ^ Src;
  case AtomKind::None:
    break;
  }
  return Old;
}

/// Deterministic synthetic texture: a hash of unit, coordinate and shape,
/// so transformed code can be checked for equivalence.
inline uint32_t texHash(uint32_t Coord, int64_t Shape, int64_t Channel) {
  uint64_t H = 0x9e3779b97f4a7c15ull;
  H ^= Coord;
  H *= 0xbf58476d1ce4e5b9ull;
  H ^= static_cast<uint64_t>(Shape) << 32;
  H ^= static_cast<uint64_t>(Channel) << 8;
  return static_cast<uint32_t>(H >> 16);
}

} // namespace scalar

} // namespace vm
} // namespace dcb

#endif // DCB_VM_DISPATCH_H

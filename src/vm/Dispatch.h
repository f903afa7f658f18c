//===- vm/Dispatch.h - Predecode records and warp scheduling ----*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantic core shared by both VM tiers.
///
/// Three things live here, and the reason they are *shared* is the
/// bit-identity contract between the tiers (see docs/VM.md):
///
/// 1. The packed `Pre` record and `predecode()` — one instruction's
///    modifier-derived facts resolved to enums/flags. The RefVm oracle
///    re-runs predecode on every issued instruction (string compares in
///    the hot loop, the honest naive cost); GridVm runs it once per
///    kernel and never touches a string again.
///
/// 2. `scalar::*` — every arithmetic expression whose floating-point
///    result must match across the tiers is written exactly once, so the
///    compiler cannot contract or reassociate it differently in the two
///    engines.
///
/// 3. The warp scheduler and block loop templates — warps are the
///    scheduling unit; a per-warp stack of {Pending, Rejoin, Break}
///    entries models divergence (BRA splits push the not-taken mask,
///    SSY/PBK arm reconvergence points, SYNC/BRK park lanes into them),
///    and BAR.SYNC suspends a warp until every live warp of the block
///    arrives. The schedule is a pure function of the kernel and launch,
///    so RefVm and GridVm — which plug in only the per-instruction
///    execution — observe identical interleavings. Blocks run one after
///    another through the same loop (runGrid), so the only difference
///    left between the tiers is the machine they run.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_VM_DISPATCH_H
#define DCB_VM_DISPATCH_H

#include "ir/Flatten.h"
#include "sass/Printer.h"
#include "support/Errors.h"
#include "vm/MemModel.h"
#include "vm/OpTable.h"
#include "vm/Vm.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

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

/// Uniform error shape for anything either engine cannot execute.
inline Failure vmUnsupported(const sass::Instruction &Asm,
                             const std::string &Why) {
  return Failure("vm: " + Why + " in '" + sass::printInstruction(Asm) + "'");
}

/// What is wrong with the operands of \p Asm against its opcode row, or
/// empty when they fit. Both engines report it as their vm: error when the
/// instruction issues, and the abstract replay treats the instruction's
/// defs as unknown. Unknown opcodes keep their "unimplemented" error.
inline std::string malformedOperands(const sass::Instruction &Asm,
                                     const Pre &P) {
  return P.Kind == OpKind::Unknown ? std::string()
                                   : operandError(Asm, opInfo(Asm));
}

// --- Shared scalar semantics ---------------------------------------------
//
// Each expression appears exactly once so both engines produce identical
// bit patterns (FP contraction/reassociation cannot diverge between two
// copies that do not exist).

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

// --- Block-wide execution state ------------------------------------------

/// Counters one run accumulates; surfaced through GridResult and the
/// vm.* telemetry counters. Identical between the tiers by construction
/// (the scheduler counts issues/steps/barriers, the shared memory helpers
/// count wraps).
struct VmStats {
  uint64_t Issues = 0;    ///< Warp-issued instructions.
  uint64_t LaneSteps = 0; ///< Per-lane executed instructions.
  uint64_t MemWraps = 0;  ///< Accesses that wrapped (OobPolicy::Wrap).
  uint64_t Barriers = 0;  ///< Warp arrivals at BAR.SYNC.
  uint64_t Blocks = 0;    ///< Blocks executed.
  uint64_t SharedConflicts = 0; ///< Unordered shared accesses observed by
                                ///< the watch (LaunchConfig::WatchShared).
};

/// All architectural state of one block: the lane register files plus the
/// block-private memory arenas. Blocks never share mutable state; the grid
/// merges them by block index (mergeBlocks).
struct BlockState {
  unsigned NumThreads = 0;
  unsigned WarpSize = 32;
  uint32_t Ctaid = 0;
  unsigned MaxStepsPerThread = 0;
  OobPolicy Oob = OobPolicy::Wrap;

  std::vector<uint32_t> Regs;              ///< NumThreads * 256.
  std::vector<uint8_t> Preds;              ///< NumThreads * 7.
  std::vector<std::vector<uint8_t>> Local; ///< Per-lane local memory.
  std::vector<uint64_t> Steps;             ///< Per-lane issue counts.
  std::vector<uint8_t> Global;             ///< Block-private copy.
  std::vector<uint8_t> Shared;             ///< Block arena.
  const Memory *Banks = nullptr;           ///< Constant banks (read-only).
  VmStats Stats;

  /// Shared-access watch (LaunchConfig::WatchShared): per-byte last
  /// writer/reader with the barrier epoch they acted in. Two accesses to
  /// the same byte, in the same epoch, from different threads, at least
  /// one a store, are unordered — the dynamic ground truth the static
  /// RAC001-003 checkers are validated against.
  struct SharedCell {
    static constexpr uint32_t kNoTid = 0xffffffffu;
    static constexpr uint32_t kManyTids = 0xfffffffeu;
    uint32_t Writer = kNoTid;
    uint32_t Reader = kNoTid;
    uint64_t WriterEpoch = 0;
    uint64_t ReaderEpoch = 0;
  };
  bool WatchShared = false;
  uint64_t Epoch = 1; ///< Bumped at every barrier release (0 = never).
  std::vector<SharedCell> SharedCells;

  void init(const Memory &Mem, unsigned Threads, unsigned Warp,
            uint32_t CtaidX, unsigned MaxSteps, size_t LocalSize,
            OobPolicy Policy, bool Watch = false) {
    NumThreads = Threads;
    WarpSize = Warp;
    Ctaid = CtaidX;
    MaxStepsPerThread = MaxSteps;
    Oob = Policy;
    Regs.assign(static_cast<size_t>(Threads) * 256, 0);
    Preds.assign(static_cast<size_t>(Threads) * 7, 0);
    Local.assign(Threads, std::vector<uint8_t>(LocalSize, 0));
    Steps.assign(Threads, 0);
    Global = Mem.Global;
    Shared = Mem.Shared;
    Banks = &Mem;
    WatchShared = Watch;
    Epoch = 1;
    SharedCells.clear();
    if (Watch)
      SharedCells.assign(Shared.size(), SharedCell{});
  }

  /// Records one shared-memory access for the watch. Bytes follow the
  /// Wrap policy's per-byte modulo so the footprint matches what the
  /// engines actually touched. Counts one conflict per conflicting
  /// access, not per byte.
  void noteSharedAccess(unsigned Tid, uint64_t Addr, unsigned Bytes,
                        bool IsStore) {
    if (!WatchShared || SharedCells.empty())
      return;
    bool Conflict = false;
    for (unsigned I = 0; I < Bytes; ++I) {
      SharedCell &Cell = SharedCells[(Addr + I) % SharedCells.size()];
      if (IsStore) {
        if (Cell.WriterEpoch == Epoch && Cell.Writer != SharedCell::kNoTid &&
            Cell.Writer != Tid)
          Conflict = true;
        if (Cell.ReaderEpoch == Epoch && Cell.Reader != SharedCell::kNoTid &&
            Cell.Reader != Tid)
          Conflict = true;
        Cell.Writer = Cell.WriterEpoch == Epoch &&
                              Cell.Writer != SharedCell::kNoTid &&
                              Cell.Writer != Tid
                          ? SharedCell::kManyTids
                          : Tid;
        Cell.WriterEpoch = Epoch;
      } else {
        if (Cell.WriterEpoch == Epoch && Cell.Writer != SharedCell::kNoTid &&
            Cell.Writer != Tid)
          Conflict = true;
        Cell.Reader = Cell.ReaderEpoch == Epoch &&
                              Cell.Reader != SharedCell::kNoTid &&
                              Cell.Reader != Tid
                          ? SharedCell::kManyTids
                          : Tid;
        Cell.ReaderEpoch = Epoch;
      }
    }
    if (Conflict)
      ++Stats.SharedConflicts;
  }

  uint32_t reg(unsigned Tid, int64_t Id) const {
    if (Id < 0)
      return 0; // RZ.
    assert(Id < 255 && "register id out of range");
    return Regs[static_cast<size_t>(Tid) * 256 + Id];
  }
  void setReg(unsigned Tid, int64_t Id, uint32_t Value) {
    if (Id < 0)
      return; // Writes to RZ are discarded.
    Regs[static_cast<size_t>(Tid) * 256 + Id] = Value;
  }
  uint64_t reg64(unsigned Tid, int64_t Id) const {
    if (Id < 0)
      return 0;
    return static_cast<uint64_t>(reg(Tid, Id)) |
           (static_cast<uint64_t>(reg(Tid, Id + 1)) << 32);
  }
  void setReg64(unsigned Tid, int64_t Id, uint64_t Value) {
    if (Id < 0)
      return;
    setReg(Tid, Id, static_cast<uint32_t>(Value));
    setReg(Tid, Id + 1, static_cast<uint32_t>(Value >> 32));
  }
  bool pred(unsigned Tid, int64_t Id) const {
    return Id == 7 ? true : Preds[static_cast<size_t>(Tid) * 7 + Id] != 0;
  }
  void setPred(unsigned Tid, int64_t Id, bool Value) {
    if (Id != 7)
      Preds[static_cast<size_t>(Tid) * 7 + Id] = Value;
  }

  std::vector<uint8_t> &regionFor(RegionKind Region, unsigned Tid) {
    switch (Region) {
    case RegionKind::Local:
      return Local[Tid];
    case RegionKind::Shared:
      return Shared;
    case RegionKind::Global:
      break;
    }
    return Global; // LD/ST/LDG/STG/ATOM.
  }
};

/// Guard predicate of one instruction, as the scheduler consumes it.
struct GuardRef {
  int64_t Pred = 7;
  bool Negated = false;
};

// --- Warp scheduler -------------------------------------------------------

/// One divergence-stack entry. Pending holds lanes that lost a divergent
/// branch and wait for the taken side to park or die; Rejoin/Break are
/// armed by SSY/PBK and accumulate lanes as SYNC/BRK retire them.
struct DivEntry {
  enum : uint8_t { Pending, Rejoin, Break };
  uint8_t Kind = Pending;
  uint32_t Pc = 0;
  uint32_t Mask = 0;
};

struct WarpState {
  enum : uint8_t { Running, AtBarrier, Done };
  uint32_t Pc = 0;
  uint32_t Active = 0;
  uint8_t Phase = Running;
  uint64_t Issues = 0;
  uint32_t Base = 0;   ///< First thread id of the warp.
  unsigned Lanes = 0;  ///< Live lane count (last warp may be partial).
  unsigned Index = 0;
  std::vector<DivEntry> Stack;
  std::vector<uint32_t> CallStack;
};

/// Parks \p Mask lanes into the innermost armed entry of \p Kind.
/// Returns false when none is armed (a malformed program).
inline bool parkLanes(WarpState &W, uint32_t Mask, uint8_t Kind) {
  for (size_t I = W.Stack.size(); I-- > 0;) {
    DivEntry &E = W.Stack[I];
    if (E.Kind != Kind)
      continue;
    E.Mask |= Mask;
    W.Active &= ~Mask;
    return true;
  }
  return false;
}

/// Restores the next runnable lane set after the current one drained.
/// Returns false when the warp is finished.
inline bool popWarpState(WarpState &W) {
  while (!W.Stack.empty()) {
    DivEntry E = W.Stack.back();
    W.Stack.pop_back();
    if (E.Mask) {
      W.Pc = E.Pc;
      W.Active = E.Mask;
      return true;
    }
  }
  return false;
}

/// Issues one instruction for warp \p W (or performs one bookkeeping pop).
/// The Machine supplies classification and data-op execution:
///   size_t size();
///   const Pre &pre(size_t Pc);            (by value for the oracle)
///   const ir::Inst &inst(size_t Pc);
///   GuardRef guard(size_t Pc);
///   int64_t target(size_t Pc);
///   Expected<bool> execData(BlockState&, size_t Pc, const Pre&,
///                           uint32_t Mask, uint32_t Base, unsigned Lanes);
template <class M>
Expected<bool> stepWarp(M &Machine, BlockState &B, WarpState &W) {
  if (W.Active == 0) {
    if (!popWarpState(W))
      W.Phase = WarpState::Done;
    return true;
  }
  if (W.Pc >= Machine.size()) {
    // Falling off the end retires the active lanes, like EXIT.
    W.Active = 0;
    return true;
  }

  ++W.Issues;
  ++B.Stats.Issues;
  if (W.Issues >
      static_cast<uint64_t>(B.MaxStepsPerThread) * W.Lanes)
    return Failure("vm: warp " + std::to_string(W.Index) +
                   " exceeded the step limit (runaway loop?)");

  const size_t Pc = W.Pc;
  const Pre &P = Machine.pre(Pc);
  const GuardRef G = Machine.guard(Pc);

  uint32_t Taken = 0;
  B.Stats.LaneSteps += __builtin_popcount(W.Active);
  if (G.Pred == 7 && !G.Negated) {
    // Unguarded (the common case): every active lane takes it; only the
    // per-lane issue counts need the walk.
    Taken = W.Active;
    for (uint32_t Bits = W.Active; Bits; Bits &= Bits - 1)
      ++B.Steps[W.Base + static_cast<unsigned>(__builtin_ctz(Bits))];
  } else {
    for (uint32_t Bits = W.Active; Bits; Bits &= Bits - 1) {
      unsigned L = static_cast<unsigned>(__builtin_ctz(Bits));
      ++B.Steps[W.Base + L];
      bool Ok = B.pred(W.Base + L, G.Pred);
      if (G.Negated)
        Ok = !Ok;
      if (Ok)
        Taken |= 1u << L;
    }
  }

  W.Pc = static_cast<uint32_t>(Pc + 1); // Fall-through; cases override.

  switch (P.Kind) {
  case OpKind::Bra: {
    if (!Taken)
      break;
    int64_t Target = Machine.target(Pc);
    if (Target < 0)
      return vmUnsupported(Machine.inst(Pc).Asm, "indirect branch");
    if (Taken == W.Active) {
      W.Pc = static_cast<uint32_t>(Target);
      break;
    }
    // Divergent: run the taken side first, park the rest.
    W.Stack.push_back({DivEntry::Pending, static_cast<uint32_t>(Pc + 1),
                       W.Active & ~Taken});
    W.Active = Taken;
    W.Pc = static_cast<uint32_t>(Target);
    break;
  }
  case OpKind::Cal: {
    if (!Taken)
      break;
    if (Taken != W.Active)
      return vmUnsupported(Machine.inst(Pc).Asm, "divergent CAL");
    int64_t Target = Machine.target(Pc);
    if (Target < 0)
      return vmUnsupported(Machine.inst(Pc).Asm, "indirect call");
    W.CallStack.push_back(static_cast<uint32_t>(Pc + 1));
    W.Pc = static_cast<uint32_t>(Target);
    break;
  }
  case OpKind::Ret:
    if (!Taken)
      break;
    if (Taken != W.Active)
      return vmUnsupported(Machine.inst(Pc).Asm, "divergent RET");
    if (W.CallStack.empty())
      return vmUnsupported(Machine.inst(Pc).Asm,
                           "RET with an empty call stack");
    W.Pc = W.CallStack.back();
    W.CallStack.pop_back();
    break;
  case OpKind::Ssy: {
    if (!Taken)
      break;
    if (Taken != W.Active)
      return vmUnsupported(Machine.inst(Pc).Asm, "divergent SSY");
    int64_t Target = Machine.target(Pc);
    if (Target < 0)
      return vmUnsupported(Machine.inst(Pc).Asm, "SSY without a target");
    W.Stack.push_back(
        {DivEntry::Rejoin, static_cast<uint32_t>(Target), 0});
    break;
  }
  case OpKind::Pbk: {
    if (!Taken)
      break;
    if (Taken != W.Active)
      return vmUnsupported(Machine.inst(Pc).Asm, "divergent PBK");
    int64_t Target = Machine.target(Pc);
    if (Target < 0)
      return vmUnsupported(Machine.inst(Pc).Asm, "PBK without a target");
    W.Stack.push_back(
        {DivEntry::Break, static_cast<uint32_t>(Target), 0});
    break;
  }
  case OpKind::Sync:
    if (Taken && !parkLanes(W, Taken, DivEntry::Rejoin))
      return vmUnsupported(Machine.inst(Pc).Asm,
                           "SYNC without an armed SSY");
    break;
  case OpKind::Brk:
    if (Taken && !parkLanes(W, Taken, DivEntry::Break))
      return vmUnsupported(Machine.inst(Pc).Asm,
                           "BRK without an armed PBK");
    break;
  case OpKind::Exit:
    W.Active &= ~Taken;
    break;
  case OpKind::Bar:
    // BAR.SYNC: the whole warp (guard-false lanes included — the warp is
    // the scheduling unit) waits until every live warp of the block
    // arrives. The block driver releases them together.
    if (Taken) {
      W.Phase = WarpState::AtBarrier;
      ++B.Stats.Barriers;
    }
    break;
  case OpKind::Nop:
    if (P.RejoinS && Taken && !parkLanes(W, Taken, DivEntry::Rejoin))
      return vmUnsupported(Machine.inst(Pc).Asm,
                           "NOP.S without an armed SSY");
    break;
  case OpKind::Fence:
    break;
  default:
    if (Taken) {
      Expected<bool> R =
          Machine.execData(B, Pc, P, Taken, W.Base, W.Lanes);
      if (!R)
        return R.takeError();
    }
    break;
  }
  return true;
}

// --- Warp-wide data operations --------------------------------------------
//
// VOTE and SHFL read every issued lane before writing any, so both engines
// run them as whole-mask loops, shared here like the scheduler; the
// engines supply the operand reads and writes.

/// VOTE: combines each issued lane's Src(Tid) predicate and writes the
/// result to every issued lane through Dst(Tid, Value).
template <class Read, class Write>
void warpVote(VoteKind Kind, uint32_t Mask, uint32_t Base, Read &&Src,
              Write &&Dst) {
  bool All = true, Any = false;
  for (uint32_t Bits = Mask; Bits; Bits &= Bits - 1) {
    bool S = Src(Base + static_cast<unsigned>(__builtin_ctz(Bits)));
    All = All && S;
    Any = Any || S;
  }
  const bool Out = Kind == VoteKind::Any  ? Any
                   : Kind == VoteKind::Eq ? All || !Any
                                          : All;
  for (uint32_t Bits = Mask; Bits; Bits &= Bits - 1)
    Dst(Base + static_cast<unsigned>(__builtin_ctz(Bits)), Out);
}

/// SHFL: each issued lane reads the Src register of the lane its Sel value
/// names (per Kind); a source outside the warp or the issue mask reads the
/// lane's own value. Dst(Tid, Value, InBounds) writes both results.
template <class ReadSrc, class ReadSel, class Write>
void warpShfl(ShflKind Kind, uint32_t Mask, uint32_t Base, unsigned Lanes,
              ReadSrc &&Src, ReadSel &&Sel, Write &&Dst) {
  uint32_t Vals[32] = {0};
  int64_t Sels[32] = {0};
  for (uint32_t Bits = Mask; Bits; Bits &= Bits - 1) {
    unsigned L = static_cast<unsigned>(__builtin_ctz(Bits));
    Vals[L] = Src(Base + L);
    Sels[L] = Sel(Base + L);
  }
  for (uint32_t Bits = Mask; Bits; Bits &= Bits - 1) {
    unsigned L = static_cast<unsigned>(__builtin_ctz(Bits));
    const int64_t Self = static_cast<int64_t>(L);
    const int64_t S = Kind == ShflKind::Idx    ? Sels[L]
                      : Kind == ShflKind::Up   ? Self - Sels[L]
                      : Kind == ShflKind::Down ? Self + Sels[L]
                      : Kind == ShflKind::Bfly ? Self ^ (Sels[L] & 31)
                                               : 0;
    const bool Valid = S >= 0 && S < static_cast<int64_t>(Lanes) &&
                       ((Mask >> S) & 1) != 0;
    Dst(Base + L, Valid ? Vals[S] : Vals[L], Valid);
  }
}

/// "out-of-bounds <load|store> of N bytes at 0xADDR (region size S)" —
/// the payload vmUnsupported wraps when OobPolicy::Fault trips.
std::string oobDescription(const MemFault &Fault, bool IsStore);

/// Launch caps. Until the merge, each thread holds its register file and
/// local arena (about 5 KB at the default LocalSizePerThread) and each
/// block a copy of the global and shared arenas, so the caps bound what a
/// launch can allocate: 1024 threads per block (as on the hardware), 2^16
/// threads per grid and 1024 blocks per grid.
constexpr unsigned kMaxBlockThreads = 1024;
constexpr uint64_t kMaxGridThreads = uint64_t(1) << 16;
constexpr unsigned kMaxGridBlocks = 1024;

/// Checks launch parameters both engines agree to reject: a zero or
/// too-wide warp (masks are 32-bit) and a shape beyond the launch caps.
/// Returns an explanatory Failure.
Expected<bool> validateLaunch(const Memory &Mem, const LaunchConfig &Config);

/// Folds per-block outcomes back into \p Mem and \p Out: thread results
/// block-major, per-block global byte-diffs versus the launch-initial
/// image applied in ascending block order (later blocks win conflicting
/// bytes), Mem.Shared left as the last block's arena, and the aggregated
/// stats published to the vm.* telemetry counters.
void mergeBlocks(Memory &Mem, std::vector<BlockState> &Blocks,
                 GridResult &Out);

/// Runs every warp of one block to completion. Warps execute in index
/// order, each until it finishes or parks at a barrier; when no warp is
/// runnable, all parked warps are released together. Deterministic by
/// construction, and deadlock-free: an exited warp counts as arrived.
template <class M>
Expected<bool> runBlockWarps(M &Machine, BlockState &B) {
  const unsigned WarpSize = B.WarpSize;
  const unsigned NumWarps = (B.NumThreads + WarpSize - 1) / WarpSize;
  std::vector<WarpState> Warps(NumWarps);
  for (unsigned I = 0; I < NumWarps; ++I) {
    WarpState &W = Warps[I];
    W.Index = I;
    W.Base = I * WarpSize;
    W.Lanes = B.NumThreads - W.Base < WarpSize ? B.NumThreads - W.Base
                                               : WarpSize;
    W.Active = W.Lanes >= 32 ? 0xffffffffu : ((1u << W.Lanes) - 1);
  }

  for (;;) {
    bool AnyBarrier = false;
    for (WarpState &W : Warps) {
      while (W.Phase == WarpState::Running) {
        Expected<bool> S = stepWarp(Machine, B, W);
        if (!S)
          return S.takeError();
      }
      AnyBarrier |= W.Phase == WarpState::AtBarrier;
    }
    if (!AnyBarrier)
      break;
    ++B.Epoch; // Barrier release: accesses before and after are ordered.
    for (WarpState &W : Warps)
      if (W.Phase == WarpState::AtBarrier)
        W.Phase = WarpState::Running;
  }
  return true;
}

/// Runs every block of a validated launch in index order, each on a fresh
/// machine M built from \p Code, and merges them. The first failing block
/// fails the launch.
template <class M, class CodeT>
Expected<GridResult> runGrid(const CodeT &Code, Memory &Mem,
                             const LaunchConfig &Config) {
  const unsigned NumBlocks = Config.NumBlocks ? Config.NumBlocks : 1;
  std::vector<BlockState> Blocks(NumBlocks);
  for (unsigned Idx = 0; Idx < NumBlocks; ++Idx) {
    BlockState &B = Blocks[Idx];
    B.init(Mem, Config.NumThreads, Config.WarpSize, Config.BlockId + Idx,
           Config.MaxStepsPerThread, Config.LocalSizePerThread, Config.Oob,
           Config.WatchShared);
    M Machine(Code);
    Expected<bool> R = runBlockWarps(Machine, B);
    if (!R)
      return R.takeError();
    ++B.Stats.Blocks;
  }

  GridResult Out;
  mergeBlocks(Mem, Blocks, Out);
  return Out;
}

} // namespace vm
} // namespace dcb

#endif // DCB_VM_DISPATCH_H

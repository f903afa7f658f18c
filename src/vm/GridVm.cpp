//===- vm/GridVm.cpp - Predecoded VM tier ---------------------------------===//
//
// The fast tier. Each kernel is packed ONCE into PInst records — Pre
// classification, guard, branch target, an operand check against the
// opcode's row and up to five packed operands with constant banks resolved
// to pointers — and then executed by the shared transfer functions of
// vm/Semantics.h over the lane domain below, one dispatch per warp-issued
// instruction. The hot path touches no strings, no std::map, and no
// sass::Operand; it shares the warp scheduler and every scalar expression
// with RefVm (Dispatch.h), which is what makes the two tiers bit-identical.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/Telemetry.h"
#include "vm/Semantics.h"

#include <cmath>

using namespace dcb;
using namespace dcb::vm;
using ir::Inst;
using ir::Kernel;
using sass::Operand;
using sass::OperandKind;

namespace {

// --- Packed operands ------------------------------------------------------

/// Packed operand category. Collapses the sass::OperandKind cases onto what
/// the evaluators distinguish; SpecialReg/TexShape/TexChannel/etc. fold to
/// Other with their value32 image precomputed.
enum class PK : uint8_t { Reg, PredOp, Imm, FImm, Const, Mem, Other };

struct POp {
  PK Kind = PK::Other;
  bool Neg = false, Abs = false, Comp = false, Not = false;
  bool HasReg = false; ///< Const with a register index.
  int64_t Reg = -1;    ///< Register/predicate id; Const index register.
  int64_t Imm = 0;     ///< Mem offset, Const offset, integer literal.
  double F = 0;        ///< FloatImm payload.
  uint32_t Imm32 = 0;  ///< Precomputed value32 for Imm/FImm/Mem/Other.
  uint32_t Raw32 = 0;  ///< Same, without unary flags (valueF32's base).
  const std::vector<uint8_t> *Bank = nullptr; ///< Resolved const bank.
};

/// One packed instruction: everything a step needs, contiguous.
struct PInst {
  Pre P;
  GuardRef G;
  int64_t Target = -1;
  const Inst *Src = nullptr;
  uint8_t NumOps = 0;
  bool Malformed = false; ///< Operands do not fit the opcode's row.
  POp Ops[5];
};

struct GridKernel {
  std::vector<PInst> Insts;
};

POp packOp(const Operand &Op, const Memory &Mem) {
  POp O;
  O.Neg = Op.Negated;
  O.Abs = Op.Absolute;
  O.Comp = Op.Complemented;
  O.Not = Op.LogicalNot;
  switch (Op.Kind) {
  case OperandKind::Register:
    O.Kind = PK::Reg;
    O.Reg = Op.Value[0];
    break;
  case OperandKind::Predicate:
    O.Kind = PK::PredOp;
    O.Reg = Op.Value[0];
    break;
  case OperandKind::IntImm:
    O.Kind = PK::Imm;
    O.Imm = Op.Value[0];
    O.Raw32 = static_cast<uint32_t>(Op.Value[0]);
    break;
  case OperandKind::FloatImm:
    O.Kind = PK::FImm;
    O.F = Op.FValue;
    O.Raw32 = scalar::fromFloat(static_cast<float>(Op.FValue));
    break;
  case OperandKind::ConstMem: {
    O.Kind = PK::Const;
    auto It = Mem.ConstBanks.find(static_cast<unsigned>(Op.Value[0]));
    O.Bank = It == Mem.ConstBanks.end() ? nullptr : &It->second;
    O.Imm = Op.Value[1];
    O.HasReg = Op.HasRegister;
    O.Reg = Op.Value[2];
    break;
  }
  case OperandKind::Memory:
    O.Kind = PK::Mem;
    O.Reg = Op.Value[0];
    O.Imm = Op.Value[1];
    break;
  default:
    // SpecialReg, TexShape, TexChannel, Barrier, BitSet: value32 sees 0.
    O.Kind = PK::Other;
    break;
  }
  // value32's unary-flag rules, folded at pack time: Complemented applies
  // to any kind, Negated only to registers (evaluated live).
  O.Imm32 = O.Comp ? ~O.Raw32 : O.Raw32;
  return O;
}

GridKernel packKernel(const ir::FlatKernel &Flat, const Memory &Mem) {
  DCB_SPAN("vm.predecode");
  GridKernel GK;
  GK.Insts.reserve(Flat.size());
  for (size_t Pc = 0; Pc < Flat.size(); ++Pc) {
    const Inst *I = Flat.Insts[Pc];
    PInst PI;
    PI.P = predecode(I->Asm);
    PI.G = {I->Asm.GuardPredicate, I->Asm.GuardNegated};
    PI.Target = Flat.targetPc(Pc);
    PI.Src = I;
    PI.Malformed = !malformedOperands(I->Asm, PI.P).empty();
    const auto &Ops = I->Asm.Operands;
    PI.NumOps = static_cast<uint8_t>(Ops.size() < 5 ? Ops.size() : 5);
    for (unsigned K = 0; K < PI.NumOps; ++K)
      PI.Ops[K] = packOp(Ops[K], Mem);
    GK.Insts.push_back(std::move(PI));
  }
  return GK;
}

// --- The lane domain -------------------------------------------------------
//
// vm/Semantics.h's transfer functions over concrete lanes: every value is
// the lane's 32-bit (or 64-bit) bit pattern, the issue mask is walked inside
// each instruction, and memory faults latch into the domain for
// GridMachine::execData to report. The operand readers are structural
// mirrors of the oracle's value32/valueF32/valueF64/predValue on POp,
// including the historical quirks (ConstMem skips unary flags; valueF64
// re-applies Abs/Neg on top of valueF32 for non-register sources). See
// docs/VM.md.

struct LaneDomain {
  using Lane = unsigned; ///< Thread id within the block.

  BlockState &B;
  const PInst &I;
  uint32_t Mask;
  uint32_t Base;
  unsigned Lanes;
  MemFault Fault;
  bool FaultStore = false;
  const char *Why = nullptr;
  bool Unimplemented = false;

  // --- Packed operand evaluation ------------------------------------------
  uint64_t loadConst(Lane T, const POp &Op, unsigned Bytes) {
    if (!Op.Bank || Op.Bank->empty())
      return 0;
    uint64_t Addr =
        static_cast<uint64_t>(Op.Imm) + (Op.HasReg ? B.reg(T, Op.Reg) : 0);
    // Constant banks always wrap regardless of policy (matching RefVm), so
    // operand evaluation can never fault mid-expression.
    return loadMem(*Op.Bank, Addr, Bytes, OobPolicy::Wrap, B.Stats.MemWraps,
                   Fault);
  }
  uint32_t value32(Lane T, const POp &Op) {
    switch (Op.Kind) {
    case PK::Reg: {
      uint32_t V = B.reg(T, Op.Reg);
      if (Op.Comp)
        V = ~V;
      if (Op.Neg)
        V = static_cast<uint32_t>(-static_cast<int32_t>(V));
      return V;
    }
    case PK::Const:
      return static_cast<uint32_t>(loadConst(T, Op, 4));
    default:
      return Op.Imm32; // Precomputed, flags folded.
    }
  }
  /// value32 without unary flags — valueF32's raw base.
  uint32_t raw32(Lane T, const POp &Op) {
    switch (Op.Kind) {
    case PK::Reg:
      return B.reg(T, Op.Reg);
    case PK::Const:
      return static_cast<uint32_t>(loadConst(T, Op, 4));
    default:
      return Op.Raw32;
    }
  }
  float valueF32(Lane T, const POp &Op) {
    float F = Op.Kind == PK::FImm ? static_cast<float>(Op.F)
                                  : scalar::asFloat(raw32(T, Op));
    if (Op.Abs)
      F = std::fabs(F);
    if (Op.Neg && Op.Kind != PK::FImm)
      F = -F;
    return F;
  }
  double valueF64(Lane T, const POp &Op) {
    double D = Op.Kind == PK::FImm  ? Op.F
               : Op.Kind == PK::Reg ? scalar::asDouble(B.reg64(T, Op.Reg))
                                    : static_cast<double>(valueF32(T, Op));
    if (Op.Abs)
      D = std::fabs(D);
    if (Op.Neg && Op.Kind != PK::FImm)
      D = -D;
    return D;
  }

  // --- The domain interface -------------------------------------------------
  template <class Fn> bool forLanes(Fn &&Body) {
    for (uint32_t Bits = Mask; Bits; Bits &= Bits - 1)
      if (!Body(Base + static_cast<unsigned>(__builtin_ctz(Bits))))
        return false;
    return true;
  }
  template <class Fn, class... A> static auto lift(Fn &&F, A... Args) {
    return F(Args...);
  }
  template <class Then, class Else>
  static uint32_t select(bool Cond, Then &&T, Else &&E) {
    return Cond ? T() : E();
  }

  uint32_t u32(Lane T, unsigned K) { return value32(T, I.Ops[K]); }
  float f32(Lane T, unsigned K) { return valueF32(T, I.Ops[K]); }
  double f64(Lane T, unsigned K) { return valueF64(T, I.Ops[K]); }
  bool pred(Lane T, unsigned K) const {
    return B.pred(T, I.Ops[K].Reg) != I.Ops[K].Not;
  }
  uint32_t reg(Lane T, unsigned K, unsigned Off) const {
    return B.reg(T, I.Ops[K].Reg + Off);
  }
  uint64_t reg64(Lane T, unsigned K) const { return B.reg64(T, I.Ops[K].Reg); }
  int64_t imm(unsigned K) const { return I.Src->Asm.Operands[K].Value[0]; }
  uint64_t address(Lane T, unsigned K) const {
    return B.reg(T, I.Ops[K].Reg) + static_cast<uint64_t>(I.Ops[K].Imm);
  }
  static uint64_t offset(uint64_t Addr, unsigned Bytes) { return Addr + Bytes; }

  uint32_t special(Lane T, SrKind Sr) const {
    switch (Sr) {
    case SrKind::TidX:
      return T;
    case SrKind::CtaidX:
      return B.Ctaid;
    case SrKind::NtidX:
      return B.NumThreads;
    case SrKind::LaneId:
      return T % B.WarpSize;
    case SrKind::ClockLo:
      return static_cast<uint32_t>(B.Steps[T]);
    case SrKind::Zero:
      break;
    }
    return 0;
  }

  void setReg(Lane T, unsigned K, uint32_t V) { B.setReg(T, I.Ops[K].Reg, V); }
  void setReg64(Lane T, unsigned K, uint64_t V) {
    B.setReg64(T, I.Ops[K].Reg, V);
  }
  void setRegAt(Lane T, unsigned K, unsigned Off, uint32_t V) {
    B.setReg(T, I.Ops[K].Reg + Off, V);
  }
  void setPred(Lane T, unsigned K, bool V) { B.setPred(T, I.Ops[K].Reg, V); }

  uint64_t load(Lane T, RegionKind Region, uint64_t Addr, unsigned Bytes) {
    return loadMem(B.regionFor(Region, T), Addr, Bytes, B.Oob,
                   B.Stats.MemWraps, Fault);
  }
  void store(Lane T, RegionKind Region, uint64_t Addr, unsigned Bytes,
             uint64_t V) {
    storeMem(B.regionFor(Region, T), Addr, Bytes, V, B.Oob, B.Stats.MemWraps,
             Fault);
  }
  uint64_t constant(Lane T, unsigned K, unsigned Bytes) {
    return loadConst(T, I.Ops[K], Bytes);
  }
  void noteShared(Lane T, uint64_t Addr, unsigned Bytes, bool IsStore) {
    B.noteSharedAccess(T, Addr, Bytes, IsStore);
  }
  bool memOk(bool IsStore) {
    if (!Fault.Faulted)
      return true;
    FaultStore = IsStore;
    return false;
  }

  bool vote(VoteKind Kind) {
    warpVote(
        Kind, Mask, Base, [&](Lane T) { return pred(T, 1); },
        [&](Lane T, bool V) { setPred(T, 0, V); });
    return true;
  }
  bool shfl(ShflKind Kind) {
    warpShfl(
        Kind, Mask, Base, Lanes, [&](Lane T) { return reg(T, 2, 0); },
        [&](Lane T) { return u32(T, 3); },
        [&](Lane T, uint32_t V, bool Valid) {
          setReg(T, 1, V);
          setPred(T, 0, Valid);
        });
    return true;
  }

  bool unsupported(const char *Reason) {
    Why = Reason;
    return false;
  }
  bool unimplemented() {
    Unimplemented = true;
    return false;
  }
};

// --- The machine plugged into the shared scheduler ------------------------

class GridMachine {
public:
  explicit GridMachine(const GridKernel &GK) : GK(GK) {}

  size_t size() const { return GK.Insts.size(); }
  const Pre &pre(size_t Pc) const { return GK.Insts[Pc].P; }
  const Inst &inst(size_t Pc) const { return *GK.Insts[Pc].Src; }
  GuardRef guard(size_t Pc) const { return GK.Insts[Pc].G; }
  int64_t target(size_t Pc) const { return GK.Insts[Pc].Target; }

  Expected<bool> execData(BlockState &B, size_t Pc, const Pre &P,
                          uint32_t Mask, uint32_t Base, unsigned Lanes) {
    const PInst &I = GK.Insts[Pc];
    if (I.Malformed)
      return vmUnsupported(I.Src->Asm, malformedOperands(I.Src->Asm, P));
    LaneDomain D{B, I, Mask, Base, Lanes, MemFault()};
    if (transfer(D, P))
      return true;
    if (D.Fault.Faulted)
      return vmUnsupported(I.Src->Asm, oobDescription(D.Fault, D.FaultStore));
    if (D.Unimplemented)
      return vmUnsupported(I.Src->Asm,
                           "unimplemented opcode " + I.Src->Asm.opcode());
    return vmUnsupported(I.Src->Asm, D.Why ? D.Why : "unsupported input");
  }

private:
  const GridKernel &GK;
};

} // namespace

Expected<GridResult> GridVm::run(const Kernel &K, Memory &Mem,
                                 const LaunchConfig &Config) {
  Expected<bool> Valid = validateLaunch(Mem, Config);
  if (!Valid)
    return Valid.takeError();

  const ir::FlatKernel Flat = ir::flattenKernel(K);
  const GridKernel GK = packKernel(Flat, Mem);
  DCB_SPAN("vm.grid_run");
  return runGrid<GridMachine>(GK, Mem, Config);
}

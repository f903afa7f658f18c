//===- vm/Vm.cpp - RefVm, the reference oracle ----------------------------===//
//
// The slow tier. Every issued instruction is re-classified from its
// opcode/modifier strings (predecode in the hot loop) and operands are
// walked in their generic sass::Operand form, constant banks through the
// std::map — the honest naive cost the predecoded GridVm is measured
// against. Scheduling (warps, divergence, barriers, blocks) and all
// floating-point expressions are shared with GridVm via Dispatch.h, so
// the two tiers can only drift where GridVm's packing is wrong — which is
// exactly what the parity suite tests.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "vm/Dispatch.h"

#include <cstring>

using namespace dcb;
using namespace dcb::vm;
using ir::Inst;
using ir::Kernel;
using sass::Instruction;
using sass::Operand;
using sass::OperandKind;
using scalar::asDouble;
using scalar::asFloat;
using scalar::fromDouble;
using scalar::fromFloat;

namespace {

/// The oracle's per-block machine: classification re-derived per issue,
/// operands evaluated from the AST.
class RefMachine {
public:
  explicit RefMachine(const ir::FlatKernel &Flat) : Flat(Flat) {}

  size_t size() const { return Flat.size(); }
  // By value, on purpose: the oracle re-derives the classification from
  // the instruction text on every issue.
  Pre pre(size_t Pc) const { return predecode(Flat.Insts[Pc]->Asm); }
  const Inst &inst(size_t Pc) const { return *Flat.Insts[Pc]; }
  GuardRef guard(size_t Pc) const {
    const Instruction &Asm = Flat.Insts[Pc]->Asm;
    return {Asm.GuardPredicate, Asm.GuardNegated};
  }
  int64_t target(size_t Pc) const { return Flat.targetPc(Pc); }

  Expected<bool> execData(BlockState &B, size_t Pc, const Pre &P,
                          uint32_t Mask, uint32_t Base, unsigned Lanes);

private:
  const ir::FlatKernel &Flat;
  MemFault Fault;
  bool FaultStore = false;

  uint64_t loadR(BlockState &B, std::vector<uint8_t> &R, uint64_t Addr,
                 unsigned Bytes) {
    return loadMem(R, Addr, Bytes, B.Oob, B.Stats.MemWraps, Fault);
  }
  void storeR(BlockState &B, std::vector<uint8_t> &R, uint64_t Addr,
              unsigned Bytes, uint64_t Value) {
    storeMem(R, Addr, Bytes, Value, B.Oob, B.Stats.MemWraps, Fault);
    if (Fault.Faulted)
      FaultStore = true;
  }

  // --- Operand evaluation (the seed interpreter's rules, verbatim) ------
  uint32_t value32(BlockState &B, unsigned Tid, const Operand &Op) {
    uint32_t V = 0;
    switch (Op.Kind) {
    case OperandKind::Register:
      V = B.reg(Tid, Op.Value[0]);
      break;
    case OperandKind::IntImm:
      V = static_cast<uint32_t>(Op.Value[0]);
      break;
    case OperandKind::FloatImm:
      V = fromFloat(static_cast<float>(Op.FValue));
      break;
    case OperandKind::ConstMem: {
      auto It =
          B.Banks->ConstBanks.find(static_cast<unsigned>(Op.Value[0]));
      if (It == B.Banks->ConstBanks.end() || It->second.empty())
        return 0;
      uint64_t Addr = Op.Value[1];
      if (Op.HasRegister)
        Addr += B.reg(Tid, Op.Value[2]);
      // Constant banks always wrap regardless of policy, so operand
      // evaluation can never fault mid-expression.
      return static_cast<uint32_t>(loadMem(It->second, Addr, 4,
                                           OobPolicy::Wrap,
                                           B.Stats.MemWraps, Fault));
    }
    default:
      break;
    }
    // Unary operators on register-like sources act bitwise here; float ops
    // re-interpret below.
    if (Op.Complemented)
      V = ~V;
    if (Op.Negated && Op.Kind == OperandKind::Register)
      V = static_cast<uint32_t>(-static_cast<int32_t>(V));
    return V;
  }

  float valueF32(BlockState &B, unsigned Tid, const Operand &Op) {
    float F;
    if (Op.Kind == OperandKind::FloatImm) {
      F = static_cast<float>(Op.FValue);
    } else {
      Operand Plain = Op;
      Plain.Negated = Plain.Absolute = Plain.Complemented = false;
      F = asFloat(value32(B, Tid, Plain));
    }
    if (Op.Absolute)
      F = std::fabs(F);
    if (Op.Negated && Op.Kind != OperandKind::FloatImm)
      F = -F;
    return F;
  }

  double valueF64(BlockState &B, unsigned Tid, const Operand &Op) {
    double D;
    if (Op.Kind == OperandKind::FloatImm) {
      D = Op.FValue;
    } else if (Op.Kind == OperandKind::Register) {
      D = asDouble(B.reg64(Tid, Op.Value[0]));
    } else {
      D = static_cast<double>(valueF32(B, Tid, Op));
    }
    if (Op.Absolute)
      D = std::fabs(D);
    if (Op.Negated && Op.Kind != OperandKind::FloatImm)
      D = -D;
    return D;
  }

  bool predValue(BlockState &B, unsigned Tid, const Operand &Op) {
    bool V = B.pred(Tid, Op.Value[0]);
    return Op.LogicalNot ? !V : V;
  }

  uint64_t memAddress(BlockState &B, unsigned Tid, const Operand &Op) {
    assert(Op.Kind == OperandKind::Memory && "not a memory operand");
    return B.reg(Tid, Op.Value[0]) + static_cast<uint64_t>(Op.Value[1]);
  }

  Expected<bool> execLane(BlockState &B, const Inst &Entry, unsigned Tid);
};

Expected<bool> RefMachine::execData(BlockState &B, size_t Pc, const Pre &P,
                                    uint32_t Mask, uint32_t Base,
                                    unsigned Lanes) {
  const Inst &Entry = *Flat.Insts[Pc];
  const Instruction &Asm = Entry.Asm;
  const auto &Ops = Asm.Operands;

  if (std::string Bad = malformedOperands(Asm, P); !Bad.empty())
    return vmUnsupported(Asm, Bad);

  // Warp-wide operations see the whole issue mask at once.
  if (P.Kind == OpKind::Vote) {
    warpVote(
        P.Vote, Mask, Base,
        [&](unsigned Tid) { return predValue(B, Tid, Ops[1]); },
        [&](unsigned Tid, bool V) { B.setPred(Tid, Ops[0].Value[0], V); });
    return true;
  }
  if (P.Kind == OpKind::Shfl) {
    if (P.Shfl == ShflKind::None)
      return vmUnsupported(Asm, "unhandled SHFL mode");
    warpShfl(
        P.Shfl, Mask, Base, Lanes,
        [&](unsigned Tid) { return B.reg(Tid, Ops[2].Value[0]); },
        [&](unsigned Tid) { return value32(B, Tid, Ops[3]); },
        [&](unsigned Tid, uint32_t V, bool Valid) {
          B.setReg(Tid, Ops[1].Value[0], V);
          B.setPred(Tid, Ops[0].Value[0], Valid);
        });
    return true;
  }

  for (uint32_t Bits = Mask; Bits; Bits &= Bits - 1) {
    unsigned Tid = Base + static_cast<unsigned>(__builtin_ctz(Bits));
    Expected<bool> R = execLane(B, Entry, Tid);
    if (!R)
      return R.takeError();
    if (Fault.Faulted)
      return vmUnsupported(Asm, oobDescription(Fault, FaultStore));
  }
  return true;
}

Expected<bool> RefMachine::execLane(BlockState &B, const Inst &Entry,
                                    unsigned Tid) {
  const Instruction &Asm = Entry.Asm;
  const auto &Ops = Asm.Operands;

  // The oracle's honest cost model, preserved from the original
  // one-thread-at-a-time interpreter: every lane re-derives the
  // instruction's classification from its opcode/modifier strings at the
  // moment it executes. Nothing is shared across lanes or steps — that is
  // exactly the cost the predecoded tier is measured against.
  const Pre P = predecode(Asm);

  switch (P.Kind) {
  case OpKind::Mov:
    B.setReg(Tid, Ops[0].Value[0], value32(B, Tid, Ops[1]));
    break;
  case OpKind::S2R: {
    uint32_t V = 0;
    switch (P.Sr) {
    case SrKind::TidX:
      V = Tid;
      break;
    case SrKind::CtaidX:
      V = B.Ctaid;
      break;
    case SrKind::NtidX:
      V = B.NumThreads;
      break;
    case SrKind::LaneId:
      V = Tid % B.WarpSize;
      break;
    case SrKind::ClockLo:
      V = static_cast<uint32_t>(B.Steps[Tid]);
      break;
    case SrKind::Zero:
      break;
    }
    B.setReg(Tid, Ops[0].Value[0], V);
    break;
  }
  case OpKind::IAdd: {
    // Register negation is already folded inside value32.
    uint32_t A = value32(B, Tid, Ops[1]);
    uint32_t C = value32(B, Tid, Ops[2]);
    B.setReg(Tid, Ops[0].Value[0], A + C);
    break;
  }
  case OpKind::IMul: {
    uint64_t Product = static_cast<uint64_t>(value32(B, Tid, Ops[1])) *
                       value32(B, Tid, Ops[2]);
    B.setReg(Tid, Ops[0].Value[0],
             P.Hi ? static_cast<uint32_t>(Product >> 32)
                  : static_cast<uint32_t>(Product));
    break;
  }
  case OpKind::IMad: {
    uint32_t V = value32(B, Tid, Ops[1]) * value32(B, Tid, Ops[2]) +
                 value32(B, Tid, Ops[3]);
    B.setReg(Tid, Ops[0].Value[0], V);
    break;
  }
  case OpKind::Xmad:
    B.setReg(Tid, Ops[0].Value[0],
             scalar::xmad(value32(B, Tid, Ops[1]), value32(B, Tid, Ops[2]),
                          value32(B, Tid, Ops[3]), P.H1A, P.H1B));
    break;
  case OpKind::IAdd3:
    B.setReg(Tid, Ops[0].Value[0],
             value32(B, Tid, Ops[1]) + value32(B, Tid, Ops[2]) +
                 value32(B, Tid, Ops[3]));
    break;
  case OpKind::Bfe:
    B.setReg(Tid, Ops[0].Value[0],
             scalar::bfe(value32(B, Tid, Ops[1]), value32(B, Tid, Ops[2]),
                         P.U32));
    break;
  case OpKind::Bfi:
    B.setReg(Tid, Ops[0].Value[0],
             scalar::bfi(value32(B, Tid, Ops[1]), value32(B, Tid, Ops[2]),
                         value32(B, Tid, Ops[3])));
    break;
  case OpKind::Popc:
    B.setReg(Tid, Ops[0].Value[0],
             static_cast<uint32_t>(
                 __builtin_popcount(value32(B, Tid, Ops[1]))));
    break;
  case OpKind::Lop3:
    B.setReg(Tid, Ops[0].Value[0],
             scalar::lop3(value32(B, Tid, Ops[1]), value32(B, Tid, Ops[2]),
                          value32(B, Tid, Ops[3]),
                          value32(B, Tid, Ops[4])));
    break;
  case OpKind::Imnmx: {
    int32_t A = static_cast<int32_t>(value32(B, Tid, Ops[1]));
    int32_t C = static_cast<int32_t>(value32(B, Tid, Ops[2]));
    bool TakeMin = predValue(B, Tid, Ops[3]);
    int32_t Min = A < C ? A : C, Max = A > C ? A : C;
    B.setReg(Tid, Ops[0].Value[0],
             static_cast<uint32_t>(TakeMin ? Min : Max));
    break;
  }
  case OpKind::FAdd:
    B.setReg(Tid, Ops[0].Value[0],
             scalar::fadd(valueF32(B, Tid, Ops[1]),
                          valueF32(B, Tid, Ops[2])));
    break;
  case OpKind::FMul:
    B.setReg(Tid, Ops[0].Value[0],
             scalar::fmul(valueF32(B, Tid, Ops[1]),
                          valueF32(B, Tid, Ops[2])));
    break;
  case OpKind::Ffma:
    B.setReg(Tid, Ops[0].Value[0],
             scalar::ffma(valueF32(B, Tid, Ops[1]),
                          valueF32(B, Tid, Ops[2]),
                          valueF32(B, Tid, Ops[3])));
    break;
  case OpKind::Fmnmx:
    B.setReg(Tid, Ops[0].Value[0],
             scalar::fmnmx(valueF32(B, Tid, Ops[1]),
                           valueF32(B, Tid, Ops[2]),
                           predValue(B, Tid, Ops[3])));
    break;
  case OpKind::Dfma:
    B.setReg64(Tid, Ops[0].Value[0],
               scalar::dfma(valueF64(B, Tid, Ops[1]),
                            valueF64(B, Tid, Ops[2]),
                            valueF64(B, Tid, Ops[3])));
    break;
  case OpKind::Rro:
    // Range reduction: modeled as the identity (MUFU consumes it).
    B.setReg(Tid, Ops[0].Value[0], fromFloat(valueF32(B, Tid, Ops[1])));
    break;
  case OpKind::DAdd:
    B.setReg64(Tid, Ops[0].Value[0],
               scalar::dadd(valueF64(B, Tid, Ops[1]),
                            valueF64(B, Tid, Ops[2])));
    break;
  case OpKind::DMul:
    B.setReg64(Tid, Ops[0].Value[0],
               scalar::dmul(valueF64(B, Tid, Ops[1]),
                            valueF64(B, Tid, Ops[2])));
    break;
  case OpKind::Mufu:
    B.setReg(Tid, Ops[0].Value[0],
             scalar::mufu(P.Mufu, valueF32(B, Tid, Ops[1])));
    break;
  case OpKind::F2F:
    // Modifiers are <dst>.<src>.
    if (P.F2F == F2FKind::F32F64) {
      B.setReg(Tid, Ops[0].Value[0],
               fromFloat(static_cast<float>(valueF64(B, Tid, Ops[1]))));
    } else if (P.F2F == F2FKind::F64F32) {
      B.setReg64(Tid, Ops[0].Value[0],
                 fromDouble(static_cast<double>(valueF32(B, Tid, Ops[1]))));
    } else {
      return vmUnsupported(Asm, "unhandled F2F format pair");
    }
    break;
  case OpKind::F2I:
    B.setReg(Tid, Ops[0].Value[0], scalar::f2i(valueF32(B, Tid, Ops[1])));
    break;
  case OpKind::I2F: {
    uint32_t Raw = value32(B, Tid, Ops[1]);
    float F = P.I2FUnsigned
                  ? static_cast<float>(Raw)
                  : static_cast<float>(static_cast<int32_t>(Raw));
    B.setReg(Tid, Ops[0].Value[0], fromFloat(F));
    break;
  }
  case OpKind::Setp: {
    if (!P.HasMods2)
      return vmUnsupported(Asm, "missing comparison or logic modifier");
    bool Test;
    if (P.FloatSetp) {
      Test = scalar::compareF(P.Cmp, valueF32(B, Tid, Ops[2]),
                              valueF32(B, Tid, Ops[3]));
    } else {
      Test = scalar::compareI(P.Cmp,
                              static_cast<int32_t>(value32(B, Tid, Ops[2])),
                              static_cast<int32_t>(value32(B, Tid, Ops[3])));
    }
    bool Combined = scalar::logic(P.L1, Test, predValue(B, Tid, Ops[4]));
    B.setPred(Tid, Ops[0].Value[0], Combined);
    B.setPred(Tid, Ops[1].Value[0], !Combined);
    break;
  }
  case OpKind::Psetp: {
    if (!P.HasMods2)
      return vmUnsupported(Asm, "missing logic modifier");
    bool V = scalar::logic(P.L2,
                           scalar::logic(P.L1, predValue(B, Tid, Ops[2]),
                                         predValue(B, Tid, Ops[3])),
                           predValue(B, Tid, Ops[4]));
    B.setPred(Tid, Ops[0].Value[0], V);
    B.setPred(Tid, Ops[1].Value[0], !V);
    break;
  }
  case OpKind::Sel:
    B.setReg(Tid, Ops[0].Value[0], predValue(B, Tid, Ops[3])
                                       ? value32(B, Tid, Ops[1])
                                       : value32(B, Tid, Ops[2]));
    break;
  case OpKind::Lop: {
    uint32_t A = value32(B, Tid, Ops[1]);
    uint32_t C = value32(B, Tid, Ops[2]);
    uint32_t V = P.L1 == LogicKind::Or    ? (A | C)
                 : P.L1 == LogicKind::Xor ? (A ^ C)
                                          : (A & C);
    B.setReg(Tid, Ops[0].Value[0], V);
    break;
  }
  case OpKind::Shl:
    B.setReg(Tid, Ops[0].Value[0],
             value32(B, Tid, Ops[1]) << (value32(B, Tid, Ops[2]) & 31));
    break;
  case OpKind::Shr: {
    uint32_t Amount = value32(B, Tid, Ops[2]) & 31;
    if (P.U32)
      B.setReg(Tid, Ops[0].Value[0], value32(B, Tid, Ops[1]) >> Amount);
    else
      B.setReg(Tid, Ops[0].Value[0],
               static_cast<uint32_t>(
                   static_cast<int32_t>(value32(B, Tid, Ops[1])) >>
                   Amount));
    break;
  }
  case OpKind::Load: {
    std::vector<uint8_t> &Region = B.regionFor(P.Region, Tid);
    uint64_t Addr = memAddress(B, Tid, Ops[1]);
    if (P.Region == RegionKind::Shared)
      B.noteSharedAccess(Tid, Addr, P.MemBytes, /*IsStore=*/false);
    if (P.MemBytes <= 4)
      B.setReg(Tid, Ops[0].Value[0],
               static_cast<uint32_t>(loadR(B, Region, Addr, P.MemBytes)));
    else if (P.MemBytes == 8)
      B.setReg64(Tid, Ops[0].Value[0], loadR(B, Region, Addr, 8));
    else
      for (unsigned I = 0; I < 4; ++I)
        B.setReg(Tid, Ops[0].Value[0] + I,
                 static_cast<uint32_t>(loadR(B, Region, Addr + 4 * I, 4)));
    break;
  }
  case OpKind::Store: {
    std::vector<uint8_t> &Region = B.regionFor(P.Region, Tid);
    uint64_t Addr = memAddress(B, Tid, Ops[0]);
    if (P.Region == RegionKind::Shared)
      B.noteSharedAccess(Tid, Addr, P.MemBytes, /*IsStore=*/true);
    if (P.MemBytes <= 4)
      storeR(B, Region, Addr, P.MemBytes, B.reg(Tid, Ops[1].Value[0]));
    else if (P.MemBytes == 8)
      storeR(B, Region, Addr, 8, B.reg64(Tid, Ops[1].Value[0]));
    else
      for (unsigned I = 0; I < 4; ++I)
        storeR(B, Region, Addr + 4 * I, 4,
               B.reg(Tid, Ops[1].Value[0] + I));
    break;
  }
  case OpKind::Ldc: {
    const Operand &C = Ops[1];
    auto It = B.Banks->ConstBanks.find(static_cast<unsigned>(C.Value[0]));
    uint64_t Addr =
        C.Value[1] + (C.HasRegister ? B.reg(Tid, C.Value[2]) : 0);
    uint64_t V = It == B.Banks->ConstBanks.end() || It->second.empty()
                     ? 0
                     : loadMem(It->second, Addr, P.MemBytes,
                               OobPolicy::Wrap, B.Stats.MemWraps, Fault);
    if (P.MemBytes == 8)
      B.setReg64(Tid, Ops[0].Value[0], V);
    else
      B.setReg(Tid, Ops[0].Value[0], static_cast<uint32_t>(V));
    break;
  }
  case OpKind::Atom: {
    uint64_t Addr = memAddress(B, Tid, Ops[1]);
    uint32_t Old = static_cast<uint32_t>(loadR(B, B.Global, Addr, 4));
    if (Fault.Faulted) // Report the load fault, not the store's.
      break;
    uint32_t Src = B.reg(Tid, Ops[2].Value[0]);
    storeR(B, B.Global, Addr, 4, scalar::atomApply(P.Atom, Old, Src));
    B.setReg(Tid, Ops[0].Value[0], Old);
    break;
  }
  case OpKind::Tex:
    B.setReg(Tid, Ops[0].Value[0],
             scalar::texHash(value32(B, Tid, Ops[1]), Ops[2].Value[0],
                             Ops[3].Value[0]));
    break;
  case OpKind::Unknown:
    return vmUnsupported(Asm, "unimplemented opcode " + Asm.opcode());
  default:
    // Control kinds never reach execData; the scheduler owns them.
    return vmUnsupported(Asm, "unimplemented opcode " + Asm.opcode());
  }
  return true;
}

} // namespace

Expected<GridResult> RefVm::run(const Kernel &K, Memory &Mem,
                                const LaunchConfig &Config) {
  Expected<bool> Valid = validateLaunch(Mem, Config);
  if (!Valid)
    return Valid.takeError();

  const ir::FlatKernel Flat = ir::flattenKernel(K);
  return runGrid<RefMachine>(Flat, Mem, Config);
}

//===- analysis/TypedCheckers.cpp -----------------------------------------===//
//
// The bounds/race half of this file is an abstract interpreter over the
// VM's own scalar semantics: per launch context (tid, ctaid) each register
// holds either an exactly-known 32-bit value or "unknown", and every
// transfer below evaluates the expressions of vm::scalar (vm/Dispatch.h)
// over Known values, classified by vm::predecode. That is the
// no-false-negative argument: whenever the VM observes an out-of-bounds
// access or an unordered shared access, the static value was either
// computed here identically (an exact MEM/RAC error) or degraded to
// unknown (the conservative MEM002/RAC003 warning). The VM writes its own
// per-kind evaluation, and the VmValidation corpus in
// tests/analysis_typed_test.cpp checks the property against it.
//
//===----------------------------------------------------------------------===//

#include "analysis/TypedCheckers.h"

#include "analysis/Cfg.h"
#include "analysis/Dataflow.h"
#include "analysis/TypeInference.h"
#include "support/Telemetry.h"
#include "vm/Dispatch.h"
#include "vm/MemModel.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <string_view>

using namespace dcb;
using namespace dcb::analysis;
using sass::Instruction;
using sass::Operand;
using sass::OperandKind;

namespace {

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%llx", static_cast<unsigned long long>(V));
  return Buf;
}

void countRules(const Report &R) {
  for (const Finding &F : R.Findings)
    telemetry::counter("analysis.rule." + F.Rule).add(1);
}

// --- Per-context abstract values -----------------------------------------

/// One value in a fixed launch context: exactly known or not. Known
/// values mirror the VM bit-for-bit; anything else is Unknown.
template <class T> struct Abs {
  bool Known = false;
  T V{};

  static Abs of(T V) { return {true, V}; }
  bool operator==(const Abs &O) const {
    return Known == O.Known && (!Known || V == O.V);
  }
  bool operator!=(const Abs &O) const { return !(*this == O); }
};
using AbsVal = Abs<uint32_t>;

AbsVal joinVal(AbsVal A, AbsVal B) { return A == B ? A : AbsVal(); }

/// The register/predicate environment of one thread in one context.
/// Slots 0..255 are general registers, 256..262 predicates (0/1).
struct Env {
  bool Reached = false;
  std::vector<AbsVal> Slots;

  static Env bottom() { return Env{false, {}}; }
  static Env entry() {
    // The VM zero-initializes registers and predicates (BlockState::init).
    return Env{true, std::vector<AbsVal>(kNumSlots, AbsVal::of(0))};
  }

  void join(const Env &O) {
    if (!O.Reached)
      return;
    if (!Reached) {
      *this = O;
      return;
    }
    for (size_t I = 0; I < kNumSlots; ++I)
      Slots[I] = joinVal(Slots[I], O.Slots[I]);
  }
  bool operator==(const Env &O) const {
    return Reached == O.Reached && (!Reached || Slots == O.Slots);
  }
  bool operator!=(const Env &O) const { return !(*this == O); }

  // Reads, mirroring BlockState.
  AbsVal reg(int64_t Id) const {
    if (Id < 0)
      return AbsVal::of(0); // RZ.
    if (Id >= static_cast<int64_t>(kNumRegSlots))
      return AbsVal();
    return Slots[static_cast<size_t>(Id)];
  }
  AbsVal pred(int64_t Id) const {
    if (Id == 7)
      return AbsVal::of(1);
    if (Id < 0 || Id >= static_cast<int64_t>(kNumPredSlots))
      return AbsVal();
    return Slots[kNumRegSlots + static_cast<size_t>(Id)];
  }
};

/// Guard outcome for one instruction in one context.
enum class Guard : uint8_t { True, False, Maybe };

Guard guardOf(const Env &E, const Instruction &Asm) {
  if (!Asm.hasGuard())
    return Guard::True;
  AbsVal V = E.pred(Asm.GuardPredicate);
  if (!V.Known)
    return Guard::Maybe;
  return (V.V != 0) != Asm.GuardNegated ? Guard::True : Guard::False;
}

/// Fn over exactly known values; Unknown when any argument is.
template <class Fn, class... A>
auto lift(Fn &&F, Abs<A>... Args) -> Abs<decltype(F(Args.V...))> {
  if ((Args.Known && ...))
    return Abs<decltype(F(Args.V...))>::of(F(Args.V...));
  return {};
}

/// One instruction in one launch context (tid, ctaid): operand reads and
/// register/predicate writes over that thread's Env, mirroring the VM's
/// BlockState and operand evaluation.
struct ContextEval {
  Env &E;
  const Instruction &Asm;
  Guard G;
  uint32_t Tid;
  uint32_t Ctaid;
  const LaunchShape &Shape;

  const Operand &op(unsigned K) const { return Asm.Operands[K]; }
  AbsVal u32(unsigned K, bool ApplyUnary = true) const {
    const Operand &Op = op(K);
    AbsVal V = AbsVal::of(0);
    switch (Op.Kind) {
    case OperandKind::Register:
      V = E.reg(Op.Value[0]);
      break;
    case OperandKind::IntImm:
      V = AbsVal::of(static_cast<uint32_t>(Op.Value[0]));
      break;
    case OperandKind::FloatImm:
      V = AbsVal::of(vm::scalar::fromFloat(static_cast<float>(Op.FValue)));
      break;
    case OperandKind::ConstMem:
      return AbsVal(); // Constant-bank contents are launch data.
    default:
      break;
    }
    if (!V.Known || !ApplyUnary)
      return V;
    if (Op.Complemented)
      V.V = ~V.V;
    if (Op.Negated && Op.Kind == OperandKind::Register)
      V.V = 0u - V.V; // As the VM negates: defined for INT32_MIN.
    return V;
  }
  Abs<float> f32(unsigned K) const {
    const Operand &Op = op(K);
    float F;
    if (Op.Kind == OperandKind::FloatImm) {
      F = static_cast<float>(Op.FValue);
    } else {
      AbsVal V = u32(K, /*ApplyUnary=*/false);
      if (!V.Known)
        return {};
      F = vm::scalar::asFloat(V.V);
    }
    if (Op.Absolute)
      F = std::fabs(F);
    if (Op.Negated && Op.Kind != OperandKind::FloatImm)
      F = -F;
    return Abs<float>::of(F);
  }
  Abs<double> f64(unsigned K) const {
    const Operand &Op = op(K);
    double D;
    if (Op.Kind == OperandKind::FloatImm) {
      D = Op.FValue;
    } else if (Op.Kind == OperandKind::Register) {
      // The register pair; RZ reads as a zero pair.
      const int64_t Id = Op.Value[0];
      const AbsVal Lo = E.reg(Id);
      const AbsVal Hi = Id < 0 ? AbsVal::of(0) : E.reg(Id + 1);
      if (!Lo.Known || !Hi.Known)
        return {};
      D = vm::scalar::asDouble(Lo.V | (static_cast<uint64_t>(Hi.V) << 32));
    } else {
      Abs<float> F = f32(K);
      if (!F.Known)
        return {};
      D = static_cast<double>(F.V);
    }
    if (Op.Absolute)
      D = std::fabs(D);
    if (Op.Negated && Op.Kind != OperandKind::FloatImm)
      D = -D;
    return Abs<double>::of(D);
  }
  Abs<bool> pred(unsigned K) const {
    AbsVal V = E.pred(op(K).Value[0]);
    if (!V.Known)
      return {};
    return Abs<bool>::of((V.V != 0) != op(K).LogicalNot);
  }
  AbsVal special(vm::SrKind Sr) const {
    switch (Sr) {
    case vm::SrKind::TidX:
      return AbsVal::of(Tid);
    case vm::SrKind::CtaidX:
      return AbsVal::of(Ctaid);
    case vm::SrKind::NtidX:
      return AbsVal::of(Shape.NumThreads);
    case vm::SrKind::LaneId:
      return AbsVal::of(Tid % Shape.WarpSize);
    case vm::SrKind::ClockLo:
      return AbsVal(); // Step counts are schedule state.
    case vm::SrKind::Zero:
      break;
    }
    return AbsVal::of(0);
  }

  // Writes, mirroring BlockState, joined with the old value under a guard
  // that may be false.
  void setSlot(size_t Slot, AbsVal V) {
    E.Slots[Slot] = G == Guard::True ? V : joinVal(E.Slots[Slot], V);
  }
  void setRegId(int64_t Id, AbsVal V) {
    if (Id >= 0 && Id < static_cast<int64_t>(kNumRegSlots))
      setSlot(static_cast<size_t>(Id), V);
  }
  void setReg(unsigned K, AbsVal V) { setRegId(op(K).Value[0], V); }
  void setReg64(unsigned K, Abs<uint64_t> V) {
    const int64_t Id = op(K).Value[0];
    if (Id < 0)
      return;
    setRegId(Id, lift([](uint64_t X) { return static_cast<uint32_t>(X); }, V));
    setRegId(Id + 1,
             lift([](uint64_t X) { return static_cast<uint32_t>(X >> 32); },
                  V));
  }
  void setPred(unsigned K, Abs<bool> V) {
    const int64_t Id = op(K).Value[0];
    if (Id >= 0 && Id < 7)
      setSlot(kNumRegSlots + static_cast<size_t>(Id),
              V.Known ? AbsVal::of(V.V ? 1 : 0) : AbsVal());
  }

  /// Degrades every register/predicate the instruction defines to
  /// Unknown — what cross-lane and rejected instructions do here.
  void smashDefs() {
    visitRegs(Asm, [&](int Slot, unsigned Width, bool IsDef) {
      if (!IsDef)
        return;
      for (unsigned Off = 0; Off < Width; ++Off) {
        unsigned S = static_cast<unsigned>(Slot) + Off;
        if (isRegSlot(static_cast<unsigned>(Slot)) && S >= kNumRegSlots)
          break;
        if (S < kNumSlots)
          E.Slots[S] = AbsVal();
      }
    });
  }
};

/// What one data instruction, classified as \p P, computes in \p C: the
/// VM's scalar expressions over Known/Unknown values. Memory contents and
/// constant banks are launch data this analysis does not track, so loads,
/// LDC and ATOM define Unknown and stores change nothing; cross-lane
/// VOTE/SHFL and forms the VM rejects define Unknown. Control kinds belong
/// to the CFG and compute nothing.
void transfer(ContextEval &C, const vm::Pre &P) {
  namespace scalar = vm::scalar;
  // Operand 0 := Fn(operands Srcs...), read as integers / floats / doubles.
  auto intOp = [&](auto Fn, auto... Srcs) {
    C.setReg(0, lift(Fn, C.u32(Srcs)...));
  };
  auto f32Op = [&](auto Fn, auto... Srcs) {
    C.setReg(0, lift(Fn, C.f32(Srcs)...));
  };
  auto f64Op = [&](auto Fn, auto... Srcs) {
    C.setReg64(0, lift(Fn, C.f64(Srcs)...));
  };
  // Predicate results: operand 0 := V, operand 1 := !V.
  auto setPredPair = [&](Abs<bool> V) {
    C.setPred(0, V);
    C.setPred(1, lift([](bool B) { return !B; }, V));
  };

  switch (P.Kind) {
  case vm::OpKind::Mov:
    return C.setReg(0, C.u32(1));
  case vm::OpKind::S2R:
    return C.setReg(0, C.special(P.Sr));
  case vm::OpKind::IAdd:
    return intOp([](uint32_t A, uint32_t B) { return A + B; }, 1, 2);
  case vm::OpKind::IMul:
    return intOp(
        [Hi = P.Hi](uint32_t A, uint32_t B) { return scalar::imul(A, B, Hi); },
        1, 2);
  case vm::OpKind::IMad:
    return intOp(
        [](uint32_t A, uint32_t B, uint32_t C) { return A * B + C; }, 1, 2,
        3);
  case vm::OpKind::Xmad:
    return intOp(
        [&P](uint32_t A, uint32_t B, uint32_t C) {
          return scalar::xmad(A, B, C, P.H1A, P.H1B);
        },
        1, 2, 3);
  case vm::OpKind::IAdd3:
    return intOp(
        [](uint32_t A, uint32_t B, uint32_t C) { return A + B + C; }, 1, 2,
        3);
  case vm::OpKind::Bfe:
    return intOp(
        [U = P.U32](uint32_t A, uint32_t B) { return scalar::bfe(A, B, U); },
        1, 2);
  case vm::OpKind::Bfi:
    return intOp(scalar::bfi, 1, 2, 3);
  case vm::OpKind::Popc:
    return intOp(scalar::popc, 1);
  case vm::OpKind::Lop3:
    return intOp(scalar::lop3, 1, 2, 3, 4);
  case vm::OpKind::Imnmx:
    return C.setReg(0, lift(scalar::imnmx, C.u32(1), C.u32(2), C.pred(3)));
  case vm::OpKind::FAdd:
    return f32Op(scalar::fadd, 1, 2);
  case vm::OpKind::FMul:
    return f32Op(scalar::fmul, 1, 2);
  case vm::OpKind::Ffma:
    return f32Op(scalar::ffma, 1, 2, 3);
  case vm::OpKind::Fmnmx:
    return C.setReg(0, lift(scalar::fmnmx, C.f32(1), C.f32(2), C.pred(3)));
  case vm::OpKind::Dfma:
    return f64Op(scalar::dfma, 1, 2, 3);
  case vm::OpKind::Rro:
    // Range reduction: modeled as the identity (MUFU consumes it).
    return f32Op(scalar::fromFloat, 1);
  case vm::OpKind::DAdd:
    return f64Op(scalar::dadd, 1, 2);
  case vm::OpKind::DMul:
    return f64Op(scalar::dmul, 1, 2);
  case vm::OpKind::Mufu:
    return f32Op([Fn = P.Mufu](float X) { return scalar::mufu(Fn, X); }, 1);
  case vm::OpKind::F2F:
    // Modifiers are <dst>.<src>.
    if (P.F2F == vm::F2FKind::F32F64)
      return C.setReg(0, lift(scalar::f64to32, C.f64(1)));
    if (P.F2F == vm::F2FKind::F64F32)
      return C.setReg64(0, lift(scalar::f32to64, C.f32(1)));
    return C.smashDefs();
  case vm::OpKind::F2I:
    return f32Op(scalar::f2i, 1);
  case vm::OpKind::I2F:
    return intOp(
        [U = P.I2FUnsigned](uint32_t Raw) { return scalar::i2f(Raw, U); }, 1);
  case vm::OpKind::Setp: {
    if (!P.HasMods2)
      return C.smashDefs();
    const Abs<bool> Test =
        P.FloatSetp ? lift([Cmp = P.Cmp](float A, float B) {
                        return scalar::compareF(Cmp, A, B);
                      }, C.f32(2), C.f32(3))
                    : lift([Cmp = P.Cmp](uint32_t A, uint32_t B) {
                        return scalar::compareI(Cmp, static_cast<int32_t>(A),
                                                static_cast<int32_t>(B));
                      }, C.u32(2), C.u32(3));
    return setPredPair(lift([Op = P.L1](bool T, bool In) {
      return scalar::logic(Op, T, In);
    }, Test, C.pred(4)));
  }
  case vm::OpKind::Psetp:
    if (!P.HasMods2)
      return C.smashDefs();
    return setPredPair(lift([&P](bool A, bool B, bool In) {
      return scalar::logic(P.L2, scalar::logic(P.L1, A, B), In);
    }, C.pred(2), C.pred(3), C.pred(4)));
  case vm::OpKind::Sel: {
    const Abs<bool> Cond = C.pred(3);
    if (Cond.Known)
      return C.setReg(0, C.u32(Cond.V ? 1 : 2));
    return C.setReg(0, joinVal(C.u32(1), C.u32(2)));
  }
  case vm::OpKind::Lop:
    return intOp(
        [Op = P.L1](uint32_t A, uint32_t B) { return scalar::lop(Op, A, B); },
        1, 2);
  case vm::OpKind::Shl:
    return intOp(scalar::shl, 1, 2);
  case vm::OpKind::Shr:
    return intOp(
        [U = P.U32](uint32_t A, uint32_t B) { return scalar::shr(A, B, U); },
        1, 2);
  case vm::OpKind::Load:
  case vm::OpKind::Ldc:
  case vm::OpKind::Atom:
    // The registers the VM writes: four for LD.128 (an RZ destination
    // still names the three after it), a pair for LD.64 and LDC.64, else
    // one.
    if (P.Kind == vm::OpKind::Load && P.MemBytes > 8) {
      for (unsigned K = 0; K < 4; ++K)
        C.setRegId(C.op(0).Value[0] + K, AbsVal());
      return;
    }
    if (P.Kind != vm::OpKind::Atom && P.MemBytes == 8)
      return C.setReg64(0, {});
    return C.setReg(0, AbsVal());
  case vm::OpKind::Tex:
    return C.setReg(0, lift([Shape = C.op(2).Value[0],
                             Channel = C.op(3).Value[0]](uint32_t Coord) {
      return scalar::texHash(Coord, Shape, Channel);
    }, C.u32(1)));
  case vm::OpKind::Vote:
  case vm::OpKind::Shfl:
  case vm::OpKind::Unknown:
    return C.smashDefs();
  default:
    return; // Store and the control kinds.
  }
}

/// One instruction's forward transfer in context (Tid, Ctaid). Malformed
/// instructions, which the VM rejects, define Unknown.
void evalInst(Env &E, const ir::Inst &I, uint32_t Tid, uint32_t Ctaid,
              const LaunchShape &Shape) {
  const Guard G = guardOf(E, I.Asm);
  if (G == Guard::False)
    return;
  const vm::Pre P = vm::predecode(I.Asm);
  ContextEval C{E, I.Asm, G, Tid, Ctaid, Shape};
  if (!vm::malformedOperands(I.Asm, P).empty())
    C.smashDefs();
  else
    transfer(C, P);
}

// --- The per-kernel access table ------------------------------------------

/// One LD/ST/ATOM site with its per-context address facts.
struct Access {
  int Block = 0;
  int Inst = 0;
  uint64_t OrigAddress = ir::Inst::kNoAddress;
  bool IsStore = false;
  vm::RegionKind Region = vm::RegionKind::Global;
  unsigned Bytes = 4;
  int Seg = -1; ///< Barrier segment id (filled for race checking).

  enum : uint8_t { Skip, KnownAddr, MayUnknown };
  std::vector<uint8_t> State; ///< Per context b * NumThreads + t.
  std::vector<uint64_t> Addr; ///< Valid where State == KnownAddr.
};

/// Launch contexts above this are not enumerated; addresses degrade to
/// "unknown" (conservative warnings) instead of exhaustive evaluation.
constexpr size_t kMaxContexts = 4096;

struct AccessTable {
  /// False when the kernel defeats exhaustive evaluation (CAL/RET or
  /// unknown control flow, or more than kMaxContexts contexts);
  /// every access must then be treated as unknown-address, may-execute.
  bool Exhaustive = true;
  std::vector<Access> Accesses;
};

/// Control flow the CFG-edge reachability argument does not cover.
bool defeatsEvaluation(const ir::Kernel &K) {
  for (const ir::Block &B : K.Blocks)
    for (const ir::Inst &I : B.Insts) {
      const vm::OpInfo &Row = vm::opInfo(I.Asm);
      if (Row.Kind == vm::OpKind::Cal || Row.Kind == vm::OpKind::Ret ||
          (Row.Kind == vm::OpKind::Unknown && Row.Control))
        return true;
    }
  return false;
}

/// The memory operand (the row's 'm' role) of an LD/ST/ATOM-class
/// access, or nullptr for any other instruction.
const Operand *memOperand(const Instruction &Asm, vm::OpKind Kind) {
  if (Kind != vm::OpKind::Load && Kind != vm::OpKind::Store &&
      Kind != vm::OpKind::Atom)
    return nullptr;
  const std::string_view Roles = vm::opInfo(Asm).Roles;
  const size_t Idx = Roles.find('m');
  if (Idx >= Asm.Operands.size() ||
      Asm.Operands[Idx].Kind != OperandKind::Memory)
    return nullptr;
  return &Asm.Operands[Idx];
}

AccessTable buildAccessTable(const ir::Kernel &K, const LaunchShape &Shape) {
  AccessTable T;
  const size_t Contexts =
      static_cast<size_t>(Shape.NumBlocks) * Shape.NumThreads;
  T.Exhaustive = Contexts > 0 && Contexts <= kMaxContexts &&
                 !defeatsEvaluation(K);

  // Collect the sites first, in deterministic (block, inst) order.
  for (size_t B = 0; B < K.Blocks.size(); ++B)
    for (size_t I = 0; I < K.Blocks[B].Insts.size(); ++I) {
      const ir::Inst &Inst = K.Blocks[B].Insts[I];
      const vm::Pre P = vm::predecode(Inst.Asm);
      if (!memOperand(Inst.Asm, P.Kind))
        continue;
      Access A;
      A.Block = static_cast<int>(B);
      A.Inst = static_cast<int>(I);
      A.OrigAddress = Inst.OrigAddress;
      A.IsStore = P.Kind != vm::OpKind::Load; // ATOM both loads and stores.
      A.Region = P.Region;  // ATOM's row: global.
      A.Bytes = P.MemBytes; // ATOM: the 4-byte default.
      const size_t N = T.Exhaustive ? Contexts : 1;
      A.State.assign(N, Access::MayUnknown);
      A.Addr.assign(N, 0);
      T.Accesses.push_back(std::move(A));
    }
  if (!T.Exhaustive || T.Accesses.empty())
    return T;

  const Cfg C = Cfg::build(K);
  const size_t N = K.Blocks.size();
  std::vector<Env> In, Out;
  for (unsigned Blk = 0; Blk < Shape.NumBlocks; ++Blk) {
    for (unsigned Tid = 0; Tid < Shape.NumThreads; ++Tid) {
      const uint32_t Ctaid = Blk;
      const size_t Ctx = static_cast<size_t>(Blk) * Shape.NumThreads + Tid;
      solveForward(
          K, C, Env::entry(), Env::bottom(), In, Out,
          [](Env &Into, const Env &From) { Into.join(From); },
          [&](int B, Env &E) {
            if (E.Reached)
              for (const ir::Inst &I : K.Blocks[B].Insts)
                evalInst(E, I, Tid, Ctaid, Shape);
          });

      // Replay each block once more to read off the per-access facts.
      size_t AccIdx = 0;
      for (size_t B = 0; B < N; ++B) {
        Env Walk = In[B];
        for (size_t I = 0; I < K.Blocks[B].Insts.size(); ++I) {
          const ir::Inst &Inst = K.Blocks[B].Insts[I];
          const vm::Pre P = vm::predecode(Inst.Asm);
          const Operand *Mem = memOperand(Inst.Asm, P.Kind);
          if (Mem) {
            Access &A = T.Accesses[AccIdx++];
            const Guard G =
                Walk.Reached ? guardOf(Walk, Inst.Asm) : Guard::False;
            if (!Walk.Reached || G == Guard::False) {
              A.State[Ctx] = Access::Skip;
            } else {
              // memAddress mirror: the raw base register (no unary ops)
              // zero-extended, plus the literal byte offset. A Maybe
              // guard degrades to MayUnknown — the access might not
              // execute, so a concrete fault/race witness would be an
              // overclaim.
              const AbsVal Base = Walk.reg(Mem->Value[0]);
              if (G == Guard::True && Base.Known) {
                A.State[Ctx] = Access::KnownAddr;
                A.Addr[Ctx] = static_cast<uint64_t>(Base.V) +
                              static_cast<uint64_t>(Mem->Value[1]);
              } else {
                A.State[Ctx] = Access::MayUnknown;
              }
            }
          }
          if (Walk.Reached)
            evalInst(Walk, Inst, Tid, Ctaid, Shape);
        }
      }
    }
  }
  return T;
}

// --- Barrier intervals ----------------------------------------------------

/// The kernel's CFG partitioned into barrier-free segments, plus the two
/// reachability facts race checking needs: which segments can execute in
/// the entry epoch (E) and which in any post-release epoch (U).
struct BarrierIntervals {
  std::vector<std::vector<int>> SegOfInst; ///< [block][inst] -> segment.
  std::vector<bool> EntryEpoch;            ///< Segment in E.
  std::vector<bool> ReleaseEpoch;          ///< Segment in U.

  bool concurrent(int A, int B) const {
    return (EntryEpoch[A] && EntryEpoch[B]) ||
           (ReleaseEpoch[A] && ReleaseEpoch[B]);
  }
};

bool isFullBarrier(const ir::Inst &I) {
  return vm::predecode(I.Asm).Kind == vm::OpKind::Bar && !I.Asm.hasGuard();
}

BarrierIntervals buildBarrierIntervals(const ir::Kernel &K) {
  BarrierIntervals BI;
  const size_t N = K.Blocks.size();
  BI.SegOfInst.resize(N);
  std::vector<int> FirstSeg(N, -1), LastSeg(N, -1);
  std::vector<int> BarrierStarts;
  int NumSegs = 0;
  for (size_t B = 0; B < N; ++B) {
    int Seg = NumSegs++;
    FirstSeg[B] = Seg;
    BI.SegOfInst[B].resize(K.Blocks[B].Insts.size());
    for (size_t I = 0; I < K.Blocks[B].Insts.size(); ++I) {
      BI.SegOfInst[B][I] = Seg;
      if (isFullBarrier(K.Blocks[B].Insts[I])) {
        // The segment after an unguarded BAR.SYNC starts a new epoch; no
        // barrier-free edge crosses the split.
        Seg = NumSegs++;
        BarrierStarts.push_back(Seg);
      }
    }
    LastSeg[B] = Seg;
  }

  std::vector<std::vector<int>> Edges(NumSegs);
  for (size_t B = 0; B < N; ++B)
    for (int S : K.Blocks[B].Succs)
      if (S >= 0 && static_cast<size_t>(S) < N)
        Edges[LastSeg[B]].push_back(FirstSeg[S]);

  auto reach = [&](const std::vector<int> &Starts) {
    std::vector<bool> Seen(NumSegs, false);
    std::deque<int> Work;
    for (int S : Starts)
      if (!Seen[S]) {
        Seen[S] = true;
        Work.push_back(S);
      }
    while (!Work.empty()) {
      int S = Work.front();
      Work.pop_front();
      for (int T : Edges[S])
        if (!Seen[T]) {
          Seen[T] = true;
          Work.push_back(T);
        }
    }
    return Seen;
  };

  BI.EntryEpoch = N > 0 ? reach({FirstSeg[0]})
                        : std::vector<bool>(NumSegs, false);
  BI.ReleaseEpoch = reach(BarrierStarts);
  return BI;
}

// --- Shared helpers for the checker bodies --------------------------------

Finding makeFinding(const ir::Kernel &K, const char *Rule, Severity Sev,
                    std::string Message, int Block, int Inst,
                    uint64_t Address) {
  Finding F;
  F.Rule = Rule;
  F.Sev = Sev;
  F.Message = std::move(Message);
  F.Kernel = K.Name;
  F.Block = Block;
  F.Inst = Inst;
  F.Address = Address;
  return F;
}

size_t regionSize(vm::RegionKind Region) {
  switch (Region) {
  case vm::RegionKind::Shared:
    return vm::kSharedBytes;
  case vm::RegionKind::Local:
    return vm::kLocalBytes;
  case vm::RegionKind::Global:
    break;
  }
  return vm::kGlobalBytes;
}

const char *regionName(vm::RegionKind Region) {
  switch (Region) {
  case vm::RegionKind::Shared:
    return "shared";
  case vm::RegionKind::Local:
    return "local";
  case vm::RegionKind::Global:
    break;
  }
  return "global";
}

/// Mirror of the loadMem/storeMem fault condition, chunked exactly as the
/// VM chunks wide accesses (16-byte forms go as four 4-byte accesses).
/// Like the VM, it never computes Addr + Bytes, which wraps for addresses
/// within 16 bytes below 2^64.
bool accessFaults(uint64_t Addr, unsigned Bytes, size_t Size) {
  if (Size == 0)
    return false; // Empty regions read zero / drop stores.
  auto Outside = [Size](uint64_t At, unsigned N) {
    return At > Size || N > Size - At;
  };
  if (Bytes <= 8)
    return Outside(Addr, Bytes);
  for (unsigned I = 0; I < 4; ++I)
    if (Outside(Addr + 4 * I, 4))
      return true;
  return false;
}

/// Do the wrapped byte footprints of two accesses into the same region
/// intersect? Mirrors the Wrap policy's per-byte modulo.
bool bytesOverlap(uint64_t A, unsigned BytesA, uint64_t B, unsigned BytesB,
                  size_t Size) {
  if (Size == 0)
    return false;
  for (unsigned I = 0; I < BytesA; ++I)
    for (unsigned J = 0; J < BytesB; ++J)
      if ((A + I) % Size == (B + J) % Size)
        return true;
  return false;
}

std::string siteLabel(const Access &A) {
  std::string S = std::string(A.IsStore ? "store" : "load") + " at BB" +
                  std::to_string(A.Block) + ":" + std::to_string(A.Inst);
  if (A.OrigAddress != ir::Inst::kNoAddress)
    S += " @" + hex(A.OrigAddress);
  return S;
}

} // namespace

Error analysis::validateLaunchShape(const LaunchShape &Shape) {
  if (Shape.WarpSize < 1 || Shape.WarpSize > 32)
    return Error::failure("warp size must be between 1 and 32, got " +
                          std::to_string(Shape.WarpSize));
  if (Shape.NumThreads == 0)
    return Error::failure("at least 1 thread per block, got 0");
  if (Shape.NumBlocks == 0)
    return Error::failure("at least 1 block per grid, got 0");
  return Error::success();
}

// --- TYP001-004 -----------------------------------------------------------

Report analysis::checkTypes(const ir::Kernel &K) {
  DCB_SPAN("analysis.checkTypes");
  Report R;
  const TypeInference T = inferTypes(K);

  for (size_t B = 0; B < K.Blocks.size(); ++B) {
    T.forEachTypeBefore(
        K, static_cast<int>(B),
        [&](int InstIdx, const std::vector<TypeMask> &Types) {
          const ir::Inst &I = K.Blocks[B].Insts[InstIdx];
          const Instruction &Asm = I.Asm;
          const vm::Pre P = vm::predecode(Asm);

          // Address-base checks: TYP001 / TYP003.
          for (const Operand &Op : Asm.Operands) {
            if (Op.Kind != OperandKind::Memory || Op.Value[0] < 0 ||
                Op.Value[0] >= static_cast<int64_t>(kNumRegSlots))
              continue;
            const unsigned Slot = static_cast<unsigned>(Op.Value[0]);
            const TypeMask M = Types[Slot];
            if (!M)
              continue;
            if (typeConflict(M)) {
              R.add(makeFinding(
                  K, "TYP003", Severity::Error,
                  slotName(Slot) + " holds conflicting types (" +
                      typeMaskName(M) +
                      ") merged at a join and is dereferenced",
                  static_cast<int>(B), InstIdx, I.OrigAddress));
            } else if ((M & kTypeFloatAny) && !(M & ~kTypeFloatAny)) {
              R.add(makeFinding(
                  K, "TYP001", Severity::Error,
                  "float-typed register " + slotName(Slot) + " (" +
                      typeMaskName(M) + ") used as a " +
                      regionName(P.Region) + " address",
                  static_cast<int>(B), InstIdx, I.OrigAddress));
            }
          }

          // Operand-width / interpretation checks: TYP002 / TYP004, for
          // the sources whose type the opcode row fixes.
          const vm::OpInfo &Row = vm::opInfo(Asm);
          vm::ValType Want = Row.Src;
          if (Want == vm::ValType::Format) // F2F reads its <src> format.
            Want = P.F2F == vm::F2FKind::F32F64   ? vm::ValType::F64
                   : P.F2F == vm::F2FKind::F64F32 ? vm::ValType::F32
                                                  : vm::ValType::None;

          const unsigned NumDefs = defCount(Asm);
          for (size_t Idx = NumDefs; Idx < Asm.Operands.size(); ++Idx) {
            const Operand &Op = Asm.Operands[Idx];
            if (Op.Kind != OperandKind::Register || Op.Value[0] < 0 ||
                Op.Value[0] >= static_cast<int64_t>(kNumRegSlots))
              continue;
            const unsigned Slot = static_cast<unsigned>(Op.Value[0]);
            const TypeMask M = Types[Slot];
            if (!M)
              continue;
            if (Idx < Row.SrcFirst || Idx > Row.SrcLast)
              continue;
            switch (Want) {
            case vm::ValType::F32:
              if ((M & kTypeF64) && !(M & kTypeF32))
                R.add(makeFinding(
                    K, "TYP002", Severity::Warning,
                    slotName(Slot) + " holds f64 but " + std::string(Asm.opcode()) +
                        " reads it as f32 (width mismatch)",
                    static_cast<int>(B), InstIdx, I.OrigAddress));
              break;
            case vm::ValType::F64:
              if ((M & kTypeF32) && !(M & kTypeF64))
                R.add(makeFinding(
                    K, "TYP002", Severity::Warning,
                    slotName(Slot) + " holds f32 but " + std::string(Asm.opcode()) +
                        " reads it as an f64 pair (width mismatch)",
                    static_cast<int>(B), InstIdx, I.OrigAddress));
              break;
            case vm::ValType::Int:
              if ((M & kTypeFloatAny) && !(M & ~kTypeFloatAny))
                R.add(makeFinding(
                    K, "TYP004", Severity::Warning,
                    "integer op " + std::string(Asm.opcode()) +
                        " consumes float-typed register " + slotName(Slot) +
                        " (" + typeMaskName(M) + ")",
                    static_cast<int>(B), InstIdx, I.OrigAddress));
              break;
            default:
              break;
            }
          }
        });
  }
  countRules(R);
  return R;
}

Report analysis::checkTypes(const ir::Program &P) {
  Report R;
  for (const ir::Kernel &K : P.Kernels)
    R.append(checkTypes(K));
  return R;
}

// --- MEM001-004 -----------------------------------------------------------

Report analysis::checkBounds(const ir::Kernel &K, const LaunchShape &Shape) {
  DCB_SPAN("analysis.checkBounds");
  Report R;
  const AccessTable T = buildAccessTable(K, Shape);
  const TypeInference Types = inferTypes(K);

  for (const Access &A : T.Accesses) {
    const size_t Size = regionSize(A.Region);
    const char *Space = regionName(A.Region);
    const std::string Label = siteLabel(A);

    bool AnyUnknown = !T.Exhaustive;
    bool AnyKnown = false;
    bool ConstantAddr = true;
    uint64_t FirstAddr = 0;
    int FaultCtx = -1;
    int MisalignCtx = -1;
    if (T.Exhaustive) {
      for (size_t Ctx = 0; Ctx < A.State.size(); ++Ctx) {
        if (A.State[Ctx] == Access::Skip)
          continue;
        if (A.State[Ctx] == Access::MayUnknown) {
          AnyUnknown = true;
          continue;
        }
        const uint64_t Addr = A.Addr[Ctx];
        if (!AnyKnown) {
          AnyKnown = true;
          FirstAddr = Addr;
        } else if (Addr != FirstAddr) {
          ConstantAddr = false;
        }
        if (FaultCtx < 0 && accessFaults(Addr, A.Bytes, Size))
          FaultCtx = static_cast<int>(Ctx);
        if (MisalignCtx < 0 && (A.Bytes == 8 || A.Bytes == 16) &&
            Addr % A.Bytes != 0)
          MisalignCtx = static_cast<int>(Ctx);
      }
    }

    if (FaultCtx >= 0) {
      const uint64_t Addr = A.Addr[FaultCtx];
      const unsigned Tid =
          static_cast<unsigned>(FaultCtx) % Shape.NumThreads;
      const unsigned Blk =
          static_cast<unsigned>(FaultCtx) / Shape.NumThreads;
      if (ConstantAddr && !AnyUnknown) {
        R.add(makeFinding(K, "MEM001", Severity::Error,
                          std::string(Space) + " " + Label + ": constant " +
                              std::to_string(A.Bytes) + "-byte access at " +
                              hex(Addr) + " is out of bounds (region size " +
                              std::to_string(Size) + ")",
                          A.Block, A.Inst, A.OrigAddress));
      } else {
        R.add(makeFinding(
            K, "MEM002", Severity::Error,
            std::string(Space) + " " + Label + ": " +
                std::to_string(A.Bytes) + "-byte access at " + hex(Addr) +
                " (tid " + std::to_string(Tid) + ", ctaid " +
                std::to_string(Blk) +
                ") is out of bounds for the declared launch (region size " +
                std::to_string(Size) + ")",
            A.Block, A.Inst, A.OrigAddress));
      }
    } else if (AnyUnknown) {
      R.add(makeFinding(K, "MEM002", Severity::Warning,
                        std::string(Space) + " " + Label +
                            ": address is not statically analyzable; "
                            "cannot prove the access in bounds",
                        A.Block, A.Inst, A.OrigAddress));
    }

    if (FaultCtx < 0 && MisalignCtx >= 0)
      R.add(makeFinding(K, "MEM003", Severity::Warning,
                        std::string(Space) + " " + Label + ": " +
                            std::to_string(A.Bytes) +
                            "-byte access at " + hex(A.Addr[MisalignCtx]) +
                            " is not " + std::to_string(A.Bytes) +
                            "-byte aligned",
                        A.Block, A.Inst, A.OrigAddress));
  }

  // MEM004: the typed view — a register that the type lattice says points
  // into one space, dereferenced as another.
  size_t AccIdx = 0;
  for (size_t B = 0; B < K.Blocks.size(); ++B) {
    Types.forEachTypeBefore(
        K, static_cast<int>(B),
        [&](int InstIdx, const std::vector<TypeMask> &Masks) {
          while (AccIdx < T.Accesses.size() &&
                 (T.Accesses[AccIdx].Block < static_cast<int>(B) ||
                  (T.Accesses[AccIdx].Block == static_cast<int>(B) &&
                   T.Accesses[AccIdx].Inst < InstIdx)))
            ++AccIdx;
          if (AccIdx >= T.Accesses.size())
            return;
          const Access &A = T.Accesses[AccIdx];
          if (A.Block != static_cast<int>(B) || A.Inst != InstIdx)
            return;
          const ir::Inst &I = K.Blocks[B].Insts[InstIdx];
          const vm::Pre P = vm::predecode(I.Asm);
          const Operand *Mem = memOperand(I.Asm, P.Kind);
          if (!Mem || Mem->Value[0] < 0 ||
              Mem->Value[0] >= static_cast<int64_t>(kNumRegSlots))
            return;
          const unsigned Slot = static_cast<unsigned>(Mem->Value[0]);
          const TypeMask M = Masks[Slot];
          const TypeMask Ptr = M & kTypePtrAny;
          TypeMask Bit = 0;
          switch (A.Region) {
          case vm::RegionKind::Shared:
            Bit = kTypePtrShared;
            break;
          case vm::RegionKind::Local:
            Bit = kTypePtrLocal;
            break;
          case vm::RegionKind::Global:
            Bit = kTypePtrGlobal;
            break;
          }
          if (Ptr && !(Ptr & Bit) && !typeConflict(M))
            R.add(makeFinding(K, "MEM004", Severity::Error,
                              slotName(Slot) + " is typed " +
                                  typeMaskName(M) + " but " +
                                  std::string(I.Asm.opcode()) +
                                  " dereferences it as a " +
                                  regionName(A.Region) +
                                  " address (space confusion)",
                              A.Block, A.Inst, A.OrigAddress));
        });
  }

  countRules(R);
  return R;
}

Report analysis::checkBounds(const ir::Program &P, const LaunchShape &Shape) {
  Report R;
  for (const ir::Kernel &K : P.Kernels)
    R.append(checkBounds(K, Shape));
  return R;
}

// --- RAC001-003 -----------------------------------------------------------

Report analysis::checkRaces(const ir::Kernel &K, const LaunchShape &Shape) {
  DCB_SPAN("analysis.checkRaces");
  Report R;

  AccessTable T = buildAccessTable(K, Shape);
  std::vector<Access *> Shared;
  for (Access &A : T.Accesses)
    if (A.Region == vm::RegionKind::Shared)
      Shared.push_back(&A);
  bool AnyStore = false;
  for (const Access *A : Shared)
    AnyStore |= A->IsStore;
  if (Shared.empty() || !AnyStore || Shape.NumThreads < 2) {
    countRules(R);
    return R;
  }

  const BarrierIntervals BI = buildBarrierIntervals(K);
  for (Access *A : Shared)
    A->Seg = BI.SegOfInst[static_cast<size_t>(A->Block)]
                         [static_cast<size_t>(A->Inst)];
  // With control flow the evaluator cannot cover, the barrier-interval
  // reachability is not trusted either: every pair is treated as
  // potentially concurrent.
  const bool TrustSegments = T.Exhaustive;

  // RAC003 is per *site*, not per pair: any shared store (or a load
  // against an unanalyzable store) we cannot fully order and resolve gets
  // one conservative finding.
  std::vector<bool> Covered(Shared.size(), false);

  for (size_t IA = 0; IA < Shared.size(); ++IA) {
    for (size_t IB = IA; IB < Shared.size(); ++IB) {
      const Access &A = *Shared[IA];
      const Access &B = *Shared[IB];
      if (!A.IsStore && !B.IsStore)
        continue;
      if (TrustSegments && !BI.concurrent(A.Seg, B.Seg))
        continue;

      bool Unresolved = !T.Exhaustive;
      bool Conflict = false;
      unsigned WitnessT1 = 0, WitnessT2 = 0;
      if (T.Exhaustive) {
        for (unsigned Blk = 0; !Conflict && Blk < Shape.NumBlocks; ++Blk) {
          const size_t CtxBase =
              static_cast<size_t>(Blk) * Shape.NumThreads;
          for (unsigned T1 = 0; !Conflict && T1 < Shape.NumThreads; ++T1) {
            for (unsigned T2 = 0; T2 < Shape.NumThreads; ++T2) {
              if (T1 == T2)
                continue;
              if (IA == IB && T1 > T2)
                continue; // Same site: unordered thread pair.
              const uint8_t SA = A.State[CtxBase + T1];
              const uint8_t SB = B.State[CtxBase + T2];
              if (SA == Access::Skip || SB == Access::Skip)
                continue;
              if (SA == Access::MayUnknown || SB == Access::MayUnknown) {
                Unresolved = true;
                continue;
              }
              if (bytesOverlap(A.Addr[CtxBase + T1], A.Bytes,
                               B.Addr[CtxBase + T2], B.Bytes,
                               vm::kSharedBytes)) {
                Conflict = true;
                WitnessT1 = T1;
                WitnessT2 = T2;
                break;
              }
            }
          }
        }
      }

      if (Conflict) {
        const bool WW = A.IsStore && B.IsStore;
        R.add(makeFinding(
            K, WW ? "RAC001" : "RAC002", Severity::Error,
            std::string("unordered shared-memory ") +
                (WW ? "write/write" : "write/read") + ": " + siteLabel(A) +
                " (tid " + std::to_string(WitnessT1) + ") and " +
                siteLabel(B) + " (tid " + std::to_string(WitnessT2) +
                ") touch the same bytes in the same barrier interval",
            A.Block, A.Inst, A.OrigAddress));
        Covered[IA] = true;
        Covered[IB] = true;
      } else if (Unresolved) {
        // Emit once per site, at the pair's store end.
        const size_t Site = A.IsStore ? IA : IB;
        if (!Covered[Site]) {
          Covered[Site] = true;
          const Access &S = *Shared[Site];
          R.add(makeFinding(
              K, "RAC003", Severity::Warning,
              "shared-memory " + siteLabel(S) +
                  " shares a barrier interval with other shared "
                  "accesses and cannot be statically analyzed; "
                  "ordering unproven",
              S.Block, S.Inst, S.OrigAddress));
        }
      }
    }
  }

  countRules(R);
  return R;
}

Report analysis::checkRaces(const ir::Program &P, const LaunchShape &Shape) {
  Report R;
  for (const ir::Kernel &K : P.Kernels)
    R.append(checkRaces(K, Shape));
  return R;
}

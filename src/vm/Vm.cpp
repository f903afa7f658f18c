//===- vm/Vm.cpp - The SASS simulator -------------------------------------===//
//
// Each launch classifies every instruction once (predecode plus the operand
// check against its opcode row), then runs the grid's blocks one after
// another on one block state. Operands are read in their sass::Operand
// form, constant banks through the std::map. The scalar expressions come
// from Dispatch.h; the per-kind evaluation below is written independently
// of the MEM/RAC checkers' transfer (analysis/TypedCheckers.cpp), so that
// transfer is tested against an engine that does not share it.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "ir/Flatten.h"
#include "support/Telemetry.h"
#include "vm/Dispatch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
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

/// Launch caps: 1024 threads per block (as on the hardware), 2^16 threads
/// per grid and 1024 blocks per grid. Every thread's result is kept until
/// the launch returns (about 1 KB of registers each), so the caps bound
/// what a launch can allocate.
constexpr unsigned kMaxBlockThreads = 1024;
constexpr uint64_t kMaxGridThreads = uint64_t(1) << 16;
constexpr unsigned kMaxGridBlocks = 1024;

/// Granularity of the per-block write tracking.
constexpr size_t kPageBytes = 256;

/// Refuses a zero or too-wide warp (masks are 32-bit), an empty block or
/// grid, and a shape beyond the launch caps, before anything is allocated.
Expected<bool> validateLaunch(const Memory &Mem, const LaunchConfig &Config) {
  assert(!Mem.Global.empty() && !Mem.Shared.empty() &&
         "memory regions must be non-empty");
  (void)Mem;
  if (Config.WarpSize < 1 || Config.WarpSize > 32)
    return Failure("vm: warp size must be between 1 and 32, got " +
                   std::to_string(Config.WarpSize));
  if (Config.NumThreads == 0)
    return Failure("vm: at least 1 thread per block, got 0");
  if (Config.NumBlocks == 0)
    return Failure("vm: at least 1 block per grid, got 0");
  if (Config.NumThreads > kMaxBlockThreads)
    return Failure("vm: at most " + std::to_string(kMaxBlockThreads) +
                   " threads per block, got " +
                   std::to_string(Config.NumThreads));
  if (Config.NumBlocks > kMaxGridBlocks)
    return Failure("vm: at most " + std::to_string(kMaxGridBlocks) +
                   " blocks per grid, got " +
                   std::to_string(Config.NumBlocks));
  if (uint64_t(Config.NumBlocks) * Config.NumThreads > kMaxGridThreads)
    return Failure("vm: at most " + std::to_string(kMaxGridThreads) +
                   " threads per grid, got " +
                   std::to_string(Config.NumBlocks) + " blocks of " +
                   std::to_string(Config.NumThreads));
  return true;
}

/// "out-of-bounds <load|store> of N bytes at 0xADDR (region size S)".
std::string oobDescription(const MemFault &Fault, bool IsStore) {
  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "%llx",
                static_cast<unsigned long long>(Fault.Addr));
  return std::string("out-of-bounds ") + (IsStore ? "store" : "load") +
         " of " + std::to_string(Fault.Bytes) + " bytes at 0x" + Hex +
         " (region size " + std::to_string(Fault.RegionSize) + ")";
}

// --- Block state -----------------------------------------------------------

/// A region blocks write: its bytes, starting from the launch image, and
/// the pages stored to since the last restore.
struct Arena {
  std::vector<uint8_t> Bytes;
  std::vector<uint8_t> Dirty;  ///< One flag per page.
  std::vector<uint32_t> Pages; ///< The flagged pages.

  explicit Arena(const std::vector<uint8_t> &Image)
      : Bytes(Image), Dirty((Image.size() + kPageBytes - 1) / kPageBytes, 0) {}

  void markPage(size_t Page) {
    if (!Dirty[Page]) {
      Dirty[Page] = 1;
      Pages.push_back(static_cast<uint32_t>(Page));
    }
  }

  /// Flags the pages storeMem writes for this access: the in-bounds range,
  /// or each wrapped byte under OobPolicy::Wrap.
  void markStore(uint64_t Addr, unsigned N, OobPolicy Oob) {
    const size_t Size = Bytes.size();
    if (Size == 0)
      return;
    if (Addr <= Size && N <= Size - Addr) {
      markPage(Addr / kPageBytes);
      markPage((Addr + N - 1) / kPageBytes);
    } else if (Oob == OobPolicy::Wrap) {
      for (unsigned I = 0; I < N; ++I)
        markPage((Addr + I) % Size / kPageBytes);
    }
  }

  /// Copies every byte of a flagged page that differs from \p Launch into
  /// \p Out.
  void mergeInto(std::vector<uint8_t> &Out,
                 const std::vector<uint8_t> &Launch) const {
    for (uint32_t Page : Pages) {
      const size_t End = std::min((Page + 1) * kPageBytes, Bytes.size());
      for (size_t I = Page * kPageBytes; I < End; ++I)
        if (Bytes[I] != Launch[I])
          Out[I] = Bytes[I];
    }
  }

  /// Returns every flagged page to its \p Launch bytes.
  void restore(const std::vector<uint8_t> &Launch) {
    for (uint32_t Page : Pages) {
      const size_t Begin = Page * kPageBytes;
      const size_t End = std::min(Begin + kPageBytes, Bytes.size());
      std::memcpy(Bytes.data() + Begin, Launch.data() + Begin, End - Begin);
      Dirty[Page] = 0;
    }
    Pages.clear();
  }
};

/// The architectural state of the running block: the lane register files
/// and local arenas, and the global and shared arenas, each starting from
/// the launch image. One per launch; startBlock() resets it for the next
/// block.
struct BlockState {
  unsigned NumThreads;
  unsigned WarpSize;
  unsigned MaxStepsPerThread;
  OobPolicy Oob;
  bool WatchShared;
  uint32_t Ctaid = 0;

  std::vector<uint32_t> Regs;              ///< NumThreads * 256.
  std::vector<uint8_t> Preds;              ///< NumThreads * 7.
  std::vector<uint64_t> Steps;             ///< Per-lane issue counts.
  std::vector<std::vector<uint8_t>> Local; ///< Per-lane local memory.
  std::vector<uint8_t> LocalDirty;         ///< Lanes that stored locally.
  Arena Global, Shared;
  const Memory &Banks; ///< Constant banks (read-only).
  GridResult &Out;     ///< The launch's result; counters accumulate here.

  /// Shared-access watch (LaunchConfig::WatchShared): per-byte last
  /// writer/reader with the barrier epoch they acted in. Two accesses to
  /// the same byte, in the same epoch, from different threads, at least
  /// one a store, are unordered — the dynamic ground truth the static
  /// RAC001-003 checkers are validated against. Epochs only grow, so a
  /// cell an earlier block touched never matches the running block.
  struct SharedCell {
    static constexpr uint32_t kNoTid = 0xffffffffu;
    static constexpr uint32_t kManyTids = 0xfffffffeu;
    uint32_t Writer = kNoTid;
    uint32_t Reader = kNoTid;
    uint64_t WriterEpoch = 0;
    uint64_t ReaderEpoch = 0;
  };
  uint64_t Epoch = 0; ///< Bumped at every block start and barrier release.
  std::vector<SharedCell> SharedCells;

  BlockState(const Memory &Mem, const LaunchConfig &Config, GridResult &Out)
      : NumThreads(Config.NumThreads), WarpSize(Config.WarpSize),
        MaxStepsPerThread(Config.MaxStepsPerThread), Oob(Config.Oob),
        WatchShared(Config.WatchShared),
        Regs(static_cast<size_t>(NumThreads) * 256, 0),
        Preds(static_cast<size_t>(NumThreads) * 7, 0), Steps(NumThreads, 0),
        Local(NumThreads, std::vector<uint8_t>(kLocalBytes, 0)),
        LocalDirty(NumThreads, 0), Global(Mem.Global), Shared(Mem.Shared),
        Banks(Mem), Out(Out) {
    if (WatchShared)
      SharedCells.assign(Shared.Bytes.size(), SharedCell{});
  }

  /// Zeroes the lane state a block may have left behind. The arenas are
  /// restored by the grid loop, which merges them first.
  void startBlock(uint32_t CtaidX) {
    Ctaid = CtaidX;
    std::fill(Regs.begin(), Regs.end(), 0);
    std::fill(Preds.begin(), Preds.end(), 0);
    std::fill(Steps.begin(), Steps.end(), 0);
    for (unsigned Tid = 0; Tid < NumThreads; ++Tid)
      if (LocalDirty[Tid]) {
        std::fill(Local[Tid].begin(), Local[Tid].end(), 0);
        LocalDirty[Tid] = 0;
      }
    ++Epoch;
  }

  /// Appends the block's thread results, block-major.
  void appendThreads() {
    for (unsigned Tid = 0; Tid < NumThreads; ++Tid) {
      ThreadResult R;
      const auto Base = Regs.begin() + static_cast<size_t>(Tid) * 256;
      R.Regs.assign(Base, Base + 256);
      R.Preds.resize(7);
      for (unsigned I = 0; I < 7; ++I)
        R.Preds[I] = Preds[static_cast<size_t>(Tid) * 7 + I] != 0;
      R.Steps = Steps[Tid];
      Out.Threads.push_back(std::move(R));
    }
  }

  /// Records one shared-memory access for the watch. Bytes follow the
  /// Wrap policy's per-byte modulo so the footprint matches what the
  /// access touched. Counts one conflict per conflicting access, not per
  /// byte.
  void noteSharedAccess(unsigned Tid, uint64_t Addr, unsigned Bytes,
                        bool IsStore) {
    if (!WatchShared || SharedCells.empty())
      return;
    bool Conflict = false;
    for (unsigned I = 0; I < Bytes; ++I) {
      SharedCell &Cell = SharedCells[(Addr + I) % SharedCells.size()];
      const bool OtherWriter = Cell.WriterEpoch == Epoch &&
                               Cell.Writer != SharedCell::kNoTid &&
                               Cell.Writer != Tid;
      if (IsStore) {
        if (OtherWriter || (Cell.ReaderEpoch == Epoch &&
                            Cell.Reader != SharedCell::kNoTid &&
                            Cell.Reader != Tid))
          Conflict = true;
        Cell.Writer = OtherWriter ? SharedCell::kManyTids : Tid;
        Cell.WriterEpoch = Epoch;
      } else {
        if (OtherWriter)
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
      ++Out.SharedConflicts;
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

  uint64_t load(RegionKind Region, unsigned Tid, uint64_t Addr,
                unsigned Bytes, MemFault &Fault) {
    const std::vector<uint8_t> &R = Region == RegionKind::Local ? Local[Tid]
                                    : Region == RegionKind::Shared
                                        ? Shared.Bytes
                                        : Global.Bytes;
    return loadMem(R, Addr, Bytes, Oob, Out.MemWraps, Fault);
  }
  void store(RegionKind Region, unsigned Tid, uint64_t Addr, unsigned Bytes,
             uint64_t Value, MemFault &Fault) {
    if (Region == RegionKind::Local) {
      storeMem(Local[Tid], Addr, Bytes, Value, Oob, Out.MemWraps, Fault);
      LocalDirty[Tid] = 1;
      return;
    }
    Arena &A = Region == RegionKind::Shared ? Shared : Global;
    storeMem(A.Bytes, Addr, Bytes, Value, Oob, Out.MemWraps, Fault);
    A.markStore(Addr, Bytes, Oob);
  }
};

// --- The kernel, classified once per launch --------------------------------

/// One instruction of the launched kernel and what the launch derived
/// from it.
struct Row {
  const Inst *I;
  Pre P;
  int64_t Target; ///< Flat pc of the static target, or -1.
  bool Malformed; ///< Operands do not fit the opcode's row.
};

std::vector<Row> predecodeKernel(const ir::FlatKernel &Flat) {
  DCB_SPAN("vm.predecode");
  std::vector<Row> Code;
  Code.reserve(Flat.size());
  for (size_t Pc = 0; Pc < Flat.size(); ++Pc) {
    const Inst *I = Flat.Insts[Pc];
    const Pre P = predecode(I->Asm);
    Code.push_back(
        {I, P, Flat.targetPc(Pc), !malformedOperands(I->Asm, P).empty()});
  }
  return Code;
}

// --- Warp scheduling -------------------------------------------------------

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
  uint32_t Base = 0;  ///< First thread id of the warp.
  unsigned Lanes = 0; ///< Live lane count (last warp may be partial).
  unsigned Index = 0;
  std::vector<DivEntry> Stack;
  std::vector<uint32_t> CallStack;
};

/// Parks \p Mask lanes into the innermost armed entry of \p Kind.
/// Returns false when none is armed (a malformed program).
bool parkLanes(WarpState &W, uint32_t Mask, uint8_t Kind) {
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
bool popWarpState(WarpState &W) {
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

/// Runs one block of a launch: the warp scheduler over the classified
/// kernel, and per-lane evaluation of every data instruction.
class Engine {
public:
  Engine(const std::vector<Row> &Code, BlockState &B) : Code(Code), B(B) {}

  Expected<bool> runBlock();

private:
  const std::vector<Row> &Code;
  BlockState &B;
  MemFault Fault;
  bool FaultStore = false;

  Expected<bool> stepWarp(WarpState &W);
  Expected<bool> execData(const Row &R, uint32_t Mask, uint32_t Base,
                          unsigned Lanes);
  Expected<bool> execLane(const Instruction &Asm, const Pre &P, unsigned Tid);

  uint64_t load(RegionKind Region, unsigned Tid, uint64_t Addr,
                unsigned Bytes) {
    return B.load(Region, Tid, Addr, Bytes, Fault);
  }
  void store(RegionKind Region, unsigned Tid, uint64_t Addr, unsigned Bytes,
             uint64_t Value) {
    B.store(Region, Tid, Addr, Bytes, Value, Fault);
    if (Fault.Faulted)
      FaultStore = true;
  }

  /// Constant banks always wrap regardless of policy, so operand
  /// evaluation can never fault mid-expression.
  uint64_t constant(unsigned Tid, const Operand &Op, unsigned Bytes) {
    auto It = B.Banks.ConstBanks.find(static_cast<unsigned>(Op.Value[0]));
    if (It == B.Banks.ConstBanks.end() || It->second.empty())
      return 0;
    uint64_t Addr = Op.Value[1];
    if (Op.HasRegister)
      Addr += B.reg(Tid, Op.Value[2]);
    return loadMem(It->second, Addr, Bytes, OobPolicy::Wrap,
                   B.Out.MemWraps, Fault);
  }

  // --- Operand evaluation ------------------------------------------------

  /// The bits an operand holds, before unary operators.
  uint32_t raw32(unsigned Tid, const Operand &Op) {
    switch (Op.Kind) {
    case OperandKind::Register:
      return B.reg(Tid, Op.Value[0]);
    case OperandKind::IntImm:
      return static_cast<uint32_t>(Op.Value[0]);
    case OperandKind::FloatImm:
      return fromFloat(static_cast<float>(Op.FValue));
    case OperandKind::ConstMem:
      return static_cast<uint32_t>(constant(Tid, Op, 4));
    default:
      return 0;
    }
  }

  /// Unary operators on register-like sources act bitwise here (constant
  /// reads skip them); float reads re-interpret in valueF32.
  uint32_t value32(unsigned Tid, const Operand &Op) {
    uint32_t V = raw32(Tid, Op);
    if (Op.Kind == OperandKind::ConstMem)
      return V;
    if (Op.Complemented)
      V = ~V;
    if (Op.Negated && Op.Kind == OperandKind::Register)
      V = 0u - V; // Two's-complement negation, defined for INT32_MIN.
    return V;
  }

  float valueF32(unsigned Tid, const Operand &Op) {
    float F = Op.Kind == OperandKind::FloatImm
                  ? static_cast<float>(Op.FValue)
                  : asFloat(raw32(Tid, Op));
    if (Op.Absolute)
      F = std::fabs(F);
    if (Op.Negated && Op.Kind != OperandKind::FloatImm)
      F = -F;
    return F;
  }

  double valueF64(unsigned Tid, const Operand &Op) {
    double D;
    if (Op.Kind == OperandKind::FloatImm) {
      D = Op.FValue;
    } else if (Op.Kind == OperandKind::Register) {
      D = asDouble(B.reg64(Tid, Op.Value[0]));
    } else {
      D = static_cast<double>(valueF32(Tid, Op));
    }
    if (Op.Absolute)
      D = std::fabs(D);
    if (Op.Negated && Op.Kind != OperandKind::FloatImm)
      D = -D;
    return D;
  }

  bool predValue(unsigned Tid, const Operand &Op) const {
    bool V = B.pred(Tid, Op.Value[0]);
    return Op.LogicalNot ? !V : V;
  }

  uint64_t memAddress(unsigned Tid, const Operand &Op) const {
    assert(Op.Kind == OperandKind::Memory && "not a memory operand");
    return B.reg(Tid, Op.Value[0]) + static_cast<uint64_t>(Op.Value[1]);
  }
};

/// Runs every warp of the block to completion. Warps execute in index
/// order, each until it finishes or parks at a barrier; when no warp is
/// runnable, all parked warps are released together. Deterministic by
/// construction, and deadlock-free: an exited warp counts as arrived.
Expected<bool> Engine::runBlock() {
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
        Expected<bool> S = stepWarp(W);
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

/// Issues one instruction for warp \p W (or performs one bookkeeping pop).
Expected<bool> Engine::stepWarp(WarpState &W) {
  if (W.Active == 0) {
    if (!popWarpState(W))
      W.Phase = WarpState::Done;
    return true;
  }
  if (W.Pc >= Code.size()) {
    // Falling off the end retires the active lanes, like EXIT.
    W.Active = 0;
    return true;
  }

  ++W.Issues;
  ++B.Out.Issues;
  if (W.Issues > static_cast<uint64_t>(B.MaxStepsPerThread) * W.Lanes)
    return Failure("vm: warp " + std::to_string(W.Index) +
                   " exceeded the step limit (runaway loop?)");

  const size_t Pc = W.Pc;
  const Row &R = Code[Pc];
  const Instruction &Asm = R.I->Asm;

  uint32_t Taken = 0;
  B.Out.LaneSteps += __builtin_popcount(W.Active);
  if (Asm.GuardPredicate == 7 && !Asm.GuardNegated) {
    // Unguarded (the common case): every active lane takes it; only the
    // per-lane issue counts need the walk.
    Taken = W.Active;
    for (uint32_t Bits = W.Active; Bits; Bits &= Bits - 1)
      ++B.Steps[W.Base + static_cast<unsigned>(__builtin_ctz(Bits))];
  } else {
    for (uint32_t Bits = W.Active; Bits; Bits &= Bits - 1) {
      unsigned L = static_cast<unsigned>(__builtin_ctz(Bits));
      ++B.Steps[W.Base + L];
      if (B.pred(W.Base + L, Asm.GuardPredicate) != Asm.GuardNegated)
        Taken |= 1u << L;
    }
  }

  W.Pc = static_cast<uint32_t>(Pc + 1); // Fall-through; cases override.

  switch (R.P.Kind) {
  case OpKind::Bra: {
    if (!Taken)
      break;
    if (R.Target < 0)
      return vmUnsupported(Asm, "indirect branch");
    if (Taken == W.Active) {
      W.Pc = static_cast<uint32_t>(R.Target);
      break;
    }
    // Divergent: run the taken side first, park the rest.
    W.Stack.push_back({DivEntry::Pending, static_cast<uint32_t>(Pc + 1),
                       W.Active & ~Taken});
    W.Active = Taken;
    W.Pc = static_cast<uint32_t>(R.Target);
    break;
  }
  case OpKind::Cal:
    if (!Taken)
      break;
    if (Taken != W.Active)
      return vmUnsupported(Asm, "divergent CAL");
    if (R.Target < 0)
      return vmUnsupported(Asm, "indirect call");
    W.CallStack.push_back(static_cast<uint32_t>(Pc + 1));
    W.Pc = static_cast<uint32_t>(R.Target);
    break;
  case OpKind::Ret:
    if (!Taken)
      break;
    if (Taken != W.Active)
      return vmUnsupported(Asm, "divergent RET");
    if (W.CallStack.empty())
      return vmUnsupported(Asm, "RET with an empty call stack");
    W.Pc = W.CallStack.back();
    W.CallStack.pop_back();
    break;
  case OpKind::Ssy:
    if (!Taken)
      break;
    if (Taken != W.Active)
      return vmUnsupported(Asm, "divergent SSY");
    if (R.Target < 0)
      return vmUnsupported(Asm, "SSY without a target");
    W.Stack.push_back(
        {DivEntry::Rejoin, static_cast<uint32_t>(R.Target), 0});
    break;
  case OpKind::Pbk:
    if (!Taken)
      break;
    if (Taken != W.Active)
      return vmUnsupported(Asm, "divergent PBK");
    if (R.Target < 0)
      return vmUnsupported(Asm, "PBK without a target");
    W.Stack.push_back({DivEntry::Break, static_cast<uint32_t>(R.Target), 0});
    break;
  case OpKind::Sync:
    if (Taken && !parkLanes(W, Taken, DivEntry::Rejoin))
      return vmUnsupported(Asm, "SYNC without an armed SSY");
    break;
  case OpKind::Brk:
    if (Taken && !parkLanes(W, Taken, DivEntry::Break))
      return vmUnsupported(Asm, "BRK without an armed PBK");
    break;
  case OpKind::Exit:
    W.Active &= ~Taken;
    break;
  case OpKind::Bar:
    // BAR.SYNC: the whole warp (guard-false lanes included — the warp is
    // the scheduling unit) waits until every live warp of the block
    // arrives. runBlock releases them together.
    if (Taken) {
      W.Phase = WarpState::AtBarrier;
      ++B.Out.Barriers;
    }
    break;
  case OpKind::Nop:
    if (R.P.RejoinS && Taken && !parkLanes(W, Taken, DivEntry::Rejoin))
      return vmUnsupported(Asm, "NOP.S without an armed SSY");
    break;
  case OpKind::Fence:
    break;
  default:
    if (Taken) {
      Expected<bool> Ok = execData(R, Taken, W.Base, W.Lanes);
      if (!Ok)
        return Ok.takeError();
    }
    break;
  }
  return true;
}

Expected<bool> Engine::execData(const Row &R, uint32_t Mask, uint32_t Base,
                                unsigned Lanes) {
  const Instruction &Asm = R.I->Asm;
  const auto &Ops = Asm.Operands;
  const Pre &P = R.P;

  if (R.Malformed)
    return vmUnsupported(Asm, malformedOperands(Asm, P));

  // VOTE reads every issued lane's predicate before writing any.
  if (P.Kind == OpKind::Vote) {
    bool All = true, Any = false;
    for (uint32_t Bits = Mask; Bits; Bits &= Bits - 1) {
      bool S = predValue(Base + static_cast<unsigned>(__builtin_ctz(Bits)),
                         Ops[1]);
      All = All && S;
      Any = Any || S;
    }
    const bool Out = P.Vote == VoteKind::Any  ? Any
                     : P.Vote == VoteKind::Eq ? All || !Any
                                              : All;
    for (uint32_t Bits = Mask; Bits; Bits &= Bits - 1)
      B.setPred(Base + static_cast<unsigned>(__builtin_ctz(Bits)),
                Ops[0].Value[0], Out);
    return true;
  }
  // SHFL: each issued lane reads the source register of the lane its
  // selector names; a source outside the warp or the issue mask reads the
  // lane's own value and clears the predicate.
  if (P.Kind == OpKind::Shfl) {
    if (P.Shfl == ShflKind::None)
      return vmUnsupported(Asm, "unhandled SHFL mode");
    uint32_t Vals[32] = {0};
    int64_t Sels[32] = {0};
    for (uint32_t Bits = Mask; Bits; Bits &= Bits - 1) {
      unsigned L = static_cast<unsigned>(__builtin_ctz(Bits));
      Vals[L] = B.reg(Base + L, Ops[2].Value[0]);
      Sels[L] = value32(Base + L, Ops[3]);
    }
    for (uint32_t Bits = Mask; Bits; Bits &= Bits - 1) {
      unsigned L = static_cast<unsigned>(__builtin_ctz(Bits));
      const int64_t Self = static_cast<int64_t>(L);
      const int64_t S = P.Shfl == ShflKind::Idx    ? Sels[L]
                        : P.Shfl == ShflKind::Up   ? Self - Sels[L]
                        : P.Shfl == ShflKind::Down ? Self + Sels[L]
                                                   : Self ^ (Sels[L] & 31);
      const bool Valid = S >= 0 && S < static_cast<int64_t>(Lanes) &&
                         ((Mask >> S) & 1) != 0;
      B.setReg(Base + L, Ops[1].Value[0], Valid ? Vals[S] : Vals[L]);
      B.setPred(Base + L, Ops[0].Value[0], Valid);
    }
    return true;
  }

  for (uint32_t Bits = Mask; Bits; Bits &= Bits - 1) {
    unsigned Tid = Base + static_cast<unsigned>(__builtin_ctz(Bits));
    Expected<bool> Ok = execLane(Asm, P, Tid);
    if (!Ok)
      return Ok.takeError();
    if (Fault.Faulted)
      return vmUnsupported(Asm, oobDescription(Fault, FaultStore));
  }
  return true;
}

Expected<bool> Engine::execLane(const Instruction &Asm, const Pre &P,
                                unsigned Tid) {
  const auto &Ops = Asm.Operands;
  const int64_t Dst = Ops.empty() ? -1 : Ops[0].Value[0];

  switch (P.Kind) {
  case OpKind::Mov:
    B.setReg(Tid, Dst, value32(Tid, Ops[1]));
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
    B.setReg(Tid, Dst, V);
    break;
  }
  case OpKind::IAdd:
    // Register negation is already folded inside value32.
    B.setReg(Tid, Dst, value32(Tid, Ops[1]) + value32(Tid, Ops[2]));
    break;
  case OpKind::IMul: {
    uint64_t Product = static_cast<uint64_t>(value32(Tid, Ops[1])) *
                       value32(Tid, Ops[2]);
    B.setReg(Tid, Dst,
             P.Hi ? static_cast<uint32_t>(Product >> 32)
                  : static_cast<uint32_t>(Product));
    break;
  }
  case OpKind::IMad: {
    uint32_t V = value32(Tid, Ops[1]) * value32(Tid, Ops[2]) +
                 value32(Tid, Ops[3]);
    B.setReg(Tid, Dst, V);
    break;
  }
  case OpKind::Xmad:
    B.setReg(Tid, Dst,
             scalar::xmad(value32(Tid, Ops[1]), value32(Tid, Ops[2]),
                          value32(Tid, Ops[3]), P.H1A, P.H1B));
    break;
  case OpKind::IAdd3:
    B.setReg(Tid, Dst,
             value32(Tid, Ops[1]) + value32(Tid, Ops[2]) +
                 value32(Tid, Ops[3]));
    break;
  case OpKind::Bfe:
    B.setReg(Tid, Dst,
             scalar::bfe(value32(Tid, Ops[1]), value32(Tid, Ops[2]), P.U32));
    break;
  case OpKind::Bfi:
    B.setReg(Tid, Dst,
             scalar::bfi(value32(Tid, Ops[1]), value32(Tid, Ops[2]),
                         value32(Tid, Ops[3])));
    break;
  case OpKind::Popc:
    B.setReg(Tid, Dst,
             static_cast<uint32_t>(__builtin_popcount(value32(Tid, Ops[1]))));
    break;
  case OpKind::Lop3:
    B.setReg(Tid, Dst,
             scalar::lop3(value32(Tid, Ops[1]), value32(Tid, Ops[2]),
                          value32(Tid, Ops[3]), value32(Tid, Ops[4])));
    break;
  case OpKind::Imnmx: {
    int32_t A = static_cast<int32_t>(value32(Tid, Ops[1]));
    int32_t C = static_cast<int32_t>(value32(Tid, Ops[2]));
    bool TakeMin = predValue(Tid, Ops[3]);
    int32_t Min = A < C ? A : C, Max = A > C ? A : C;
    B.setReg(Tid, Dst, static_cast<uint32_t>(TakeMin ? Min : Max));
    break;
  }
  case OpKind::FAdd:
    B.setReg(Tid, Dst,
             scalar::fadd(valueF32(Tid, Ops[1]), valueF32(Tid, Ops[2])));
    break;
  case OpKind::FMul:
    B.setReg(Tid, Dst,
             scalar::fmul(valueF32(Tid, Ops[1]), valueF32(Tid, Ops[2])));
    break;
  case OpKind::Ffma:
    B.setReg(Tid, Dst,
             scalar::ffma(valueF32(Tid, Ops[1]), valueF32(Tid, Ops[2]),
                          valueF32(Tid, Ops[3])));
    break;
  case OpKind::Fmnmx:
    B.setReg(Tid, Dst,
             scalar::fmnmx(valueF32(Tid, Ops[1]), valueF32(Tid, Ops[2]),
                           predValue(Tid, Ops[3])));
    break;
  case OpKind::Dfma:
    B.setReg64(Tid, Dst,
               scalar::dfma(valueF64(Tid, Ops[1]), valueF64(Tid, Ops[2]),
                            valueF64(Tid, Ops[3])));
    break;
  case OpKind::Rro:
    // Range reduction: modeled as the identity (MUFU consumes it).
    B.setReg(Tid, Dst, fromFloat(valueF32(Tid, Ops[1])));
    break;
  case OpKind::DAdd:
    B.setReg64(Tid, Dst,
               scalar::dadd(valueF64(Tid, Ops[1]), valueF64(Tid, Ops[2])));
    break;
  case OpKind::DMul:
    B.setReg64(Tid, Dst,
               scalar::dmul(valueF64(Tid, Ops[1]), valueF64(Tid, Ops[2])));
    break;
  case OpKind::Mufu:
    B.setReg(Tid, Dst, scalar::mufu(P.Mufu, valueF32(Tid, Ops[1])));
    break;
  case OpKind::F2F:
    // Modifiers are <dst>.<src>.
    if (P.F2F == F2FKind::F32F64)
      B.setReg(Tid, Dst,
               fromFloat(static_cast<float>(valueF64(Tid, Ops[1]))));
    else if (P.F2F == F2FKind::F64F32)
      B.setReg64(Tid, Dst,
                 fromDouble(static_cast<double>(valueF32(Tid, Ops[1]))));
    else
      return vmUnsupported(Asm, "unhandled F2F format pair");
    break;
  case OpKind::F2I:
    B.setReg(Tid, Dst, scalar::f2i(valueF32(Tid, Ops[1])));
    break;
  case OpKind::I2F: {
    uint32_t Raw = value32(Tid, Ops[1]);
    float F = P.I2FUnsigned ? static_cast<float>(Raw)
                            : static_cast<float>(static_cast<int32_t>(Raw));
    B.setReg(Tid, Dst, fromFloat(F));
    break;
  }
  case OpKind::Setp: {
    if (!P.HasMods2)
      return vmUnsupported(Asm, "missing comparison or logic modifier");
    bool Test;
    if (P.FloatSetp)
      Test = scalar::compareF(P.Cmp, valueF32(Tid, Ops[2]),
                              valueF32(Tid, Ops[3]));
    else
      Test = scalar::compareI(P.Cmp,
                              static_cast<int32_t>(value32(Tid, Ops[2])),
                              static_cast<int32_t>(value32(Tid, Ops[3])));
    bool Combined = scalar::logic(P.L1, Test, predValue(Tid, Ops[4]));
    B.setPred(Tid, Dst, Combined);
    B.setPred(Tid, Ops[1].Value[0], !Combined);
    break;
  }
  case OpKind::Psetp: {
    if (!P.HasMods2)
      return vmUnsupported(Asm, "missing logic modifier");
    bool V = scalar::logic(P.L2,
                           scalar::logic(P.L1, predValue(Tid, Ops[2]),
                                         predValue(Tid, Ops[3])),
                           predValue(Tid, Ops[4]));
    B.setPred(Tid, Dst, V);
    B.setPred(Tid, Ops[1].Value[0], !V);
    break;
  }
  case OpKind::Sel:
    B.setReg(Tid, Dst,
             predValue(Tid, Ops[3]) ? value32(Tid, Ops[1])
                                    : value32(Tid, Ops[2]));
    break;
  case OpKind::Lop: {
    uint32_t A = value32(Tid, Ops[1]);
    uint32_t C = value32(Tid, Ops[2]);
    uint32_t V = P.L1 == LogicKind::Or    ? (A | C)
                 : P.L1 == LogicKind::Xor ? (A ^ C)
                                          : (A & C);
    B.setReg(Tid, Dst, V);
    break;
  }
  case OpKind::Shl:
    B.setReg(Tid, Dst, value32(Tid, Ops[1]) << (value32(Tid, Ops[2]) & 31));
    break;
  case OpKind::Shr: {
    uint32_t Amount = value32(Tid, Ops[2]) & 31;
    if (P.U32)
      B.setReg(Tid, Dst, value32(Tid, Ops[1]) >> Amount);
    else
      B.setReg(Tid, Dst,
               static_cast<uint32_t>(
                   static_cast<int32_t>(value32(Tid, Ops[1])) >> Amount));
    break;
  }
  case OpKind::Load: {
    uint64_t Addr = memAddress(Tid, Ops[1]);
    if (P.Region == RegionKind::Shared)
      B.noteSharedAccess(Tid, Addr, P.MemBytes, /*IsStore=*/false);
    if (P.MemBytes <= 4)
      B.setReg(Tid, Dst,
               static_cast<uint32_t>(load(P.Region, Tid, Addr, P.MemBytes)));
    else if (P.MemBytes == 8)
      B.setReg64(Tid, Dst, load(P.Region, Tid, Addr, 8));
    else
      for (unsigned I = 0; I < 4; ++I)
        B.setReg(Tid, Dst + I,
                 static_cast<uint32_t>(load(P.Region, Tid, Addr + 4 * I, 4)));
    break;
  }
  case OpKind::Store: {
    uint64_t Addr = memAddress(Tid, Ops[0]);
    if (P.Region == RegionKind::Shared)
      B.noteSharedAccess(Tid, Addr, P.MemBytes, /*IsStore=*/true);
    if (P.MemBytes <= 4)
      store(P.Region, Tid, Addr, P.MemBytes, B.reg(Tid, Ops[1].Value[0]));
    else if (P.MemBytes == 8)
      store(P.Region, Tid, Addr, 8, B.reg64(Tid, Ops[1].Value[0]));
    else
      for (unsigned I = 0; I < 4; ++I)
        store(P.Region, Tid, Addr + 4 * I, 4,
              B.reg(Tid, Ops[1].Value[0] + I));
    break;
  }
  case OpKind::Ldc: {
    uint64_t V = constant(Tid, Ops[1], P.MemBytes);
    if (P.MemBytes == 8)
      B.setReg64(Tid, Dst, V);
    else
      B.setReg(Tid, Dst, static_cast<uint32_t>(V));
    break;
  }
  case OpKind::Atom: {
    uint64_t Addr = memAddress(Tid, Ops[1]);
    uint32_t Old =
        static_cast<uint32_t>(load(RegionKind::Global, Tid, Addr, 4));
    if (Fault.Faulted) // Report the load fault, not the store's.
      break;
    uint32_t Src = B.reg(Tid, Ops[2].Value[0]);
    store(RegionKind::Global, Tid, Addr, 4,
          scalar::atomApply(P.Atom, Old, Src));
    B.setReg(Tid, Dst, Old);
    break;
  }
  case OpKind::Tex:
    B.setReg(Tid, Dst,
             scalar::texHash(value32(Tid, Ops[1]), Ops[2].Value[0],
                             Ops[3].Value[0]));
    break;
  default:
    // Unknown opcodes; control kinds never reach here, the scheduler owns
    // them.
    return vmUnsupported(Asm, "unimplemented opcode " + Asm.opcode());
  }
  return true;
}

/// Runs every block of a validated launch in index order on one block
/// state. After each block, the bytes of its stored-to pages that differ
/// from the launch image land in the result image, in block order, so
/// later blocks win conflicting bytes; then those pages are restored, so
/// every block starts from the launch image. Mem.Shared ends as the last
/// block's arena. The first failing block fails the launch and leaves
/// \p Mem untouched.
Expected<GridResult> runGrid(const std::vector<Row> &Code, Memory &Mem,
                             const LaunchConfig &Config) {
  const unsigned NumBlocks = Config.NumBlocks;
  GridResult Out;
  Out.Threads.reserve(static_cast<size_t>(NumBlocks) * Config.NumThreads);
  BlockState B(Mem, Config, Out);
  std::vector<uint8_t> Merged = Mem.Global;
  for (unsigned Idx = 0; Idx < NumBlocks; ++Idx) {
    B.startBlock(Idx);
    Expected<bool> R = Engine(Code, B).runBlock();
    if (!R)
      return R.takeError();
    B.appendThreads();
    B.Global.mergeInto(Merged, Mem.Global);
    B.Global.restore(Mem.Global);
    if (Idx + 1 < NumBlocks)
      B.Shared.restore(Mem.Shared);
  }
  Mem.Global = std::move(Merged);
  Mem.Shared = std::move(B.Shared.Bytes);

  telemetry::counter("vm.issues").add(Out.Issues);
  telemetry::counter("vm.lane_steps").add(Out.LaneSteps);
  telemetry::counter("vm.mem_wraps").add(Out.MemWraps);
  telemetry::counter("vm.barriers").add(Out.Barriers);
  telemetry::counter("vm.blocks").add(NumBlocks);
  telemetry::counter("vm.shared_conflicts").add(Out.SharedConflicts);
  return Out;
}

} // namespace

Expected<GridResult> RefVm::run(const Kernel &K, Memory &Mem,
                                const LaunchConfig &Config) {
  Expected<bool> Valid = validateLaunch(Mem, Config);
  if (!Valid)
    return Valid.takeError();

  const ir::FlatKernel Flat = ir::flattenKernel(K);
  const std::vector<Row> Code = predecodeKernel(Flat);
  DCB_SPAN("vm.grid_run");
  return runGrid(Code, Mem, Config);
}

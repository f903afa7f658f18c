//===- analysis/TypeInference.cpp -----------------------------------------===//

#include "analysis/TypeInference.h"

#include "analysis/Dataflow.h"
#include "support/Telemetry.h"
#include "vm/Dispatch.h"

using namespace dcb;
using namespace dcb::analysis;
using sass::Operand;
using sass::OperandKind;

namespace {

struct Metrics {
  telemetry::Counter &Kernels = telemetry::counter("analysis.types.kernels");
  telemetry::Counter &Visits =
      telemetry::counter("analysis.types.block_visits");
};
Metrics &metrics() {
  static Metrics M;
  return M;
}

/// The mask an operand contributes when read. Constant-memory contents are
/// launch data, so they read as unknown; RZ reads as unknown (it is the
/// literal zero, equally valid under every interpretation).
TypeMask operandMask(const std::vector<TypeMask> &Types, const Operand &Op) {
  switch (Op.Kind) {
  case OperandKind::Register:
    return Op.Value[0] >= 0 &&
                   Op.Value[0] < static_cast<int64_t>(kNumRegSlots)
               ? Types[static_cast<size_t>(Op.Value[0])]
               : 0;
  case OperandKind::IntImm:
    return kTypeI32;
  case OperandKind::FloatImm:
    return kTypeF32;
  default:
    return 0;
  }
}

TypeMask regionPtrBit(vm::RegionKind Region) {
  switch (Region) {
  case vm::RegionKind::Shared:
    return kTypePtrShared;
  case vm::RegionKind::Local:
    return kTypePtrLocal;
  case vm::RegionKind::Global:
    break;
  }
  return kTypePtrGlobal;
}

/// What the instruction's register definitions hold afterwards, from its
/// opcode row. One mask for all register defs: every multi-def form (SHFL)
/// writes exactly one general register; predicates carry no mask.
TypeMask defMask(const sass::Instruction &Asm, const vm::Pre &P,
                 const std::vector<TypeMask> &Types) {
  const vm::OpInfo &Row = vm::opInfo(Asm);
  const auto &Ops = Asm.Operands;
  TypeMask Carried = 0;
  for (size_t Idx = 0; Idx < 8; ++Idx) {
    if (!(Row.Carry >> Idx & 1))
      continue;
    if (Idx < Ops.size())
      Carried |= operandMask(Types, Ops[Idx]);
    else if (Row.Result == vm::ValType::Copy)
      return 0; // A copy with a missing source defines unknown.
  }
  switch (Row.Result) {
  case vm::ValType::Copy:
    // MOV, SEL and SHFL's data register pass their sources through.
    return Carried;
  case vm::ValType::Int:
    // Pointer arithmetic: base + offset stays a pointer to the same space.
    return kTypeI32 | (Carried & kTypePtrAny);
  case vm::ValType::F32:
    return kTypeF32;
  case vm::ValType::F64:
    return kTypeF64;
  case vm::ValType::Format:
    // F2FKind names are <dst><src>.
    return P.F2F == vm::F2FKind::F32F64   ? kTypeF32
           : P.F2F == vm::F2FKind::F64F32 ? kTypeF64
                                          : 0;
  default:
    // Loads, LDC (launch data), predicate producers, control flow and
    // anything unclassified define unknown.
    return 0;
  }
}

} // namespace

bool analysis::typeConflict(TypeMask M) {
  if ((M & kTypeFloatAny) && (M & (kTypeI32 | kTypePtrAny)))
    return true;
  if ((M & kTypeF32) && (M & kTypeF64))
    return true;
  return __builtin_popcount(M & kTypePtrAny) >= 2;
}

std::string analysis::typeMaskName(TypeMask M) {
  if (!M)
    return "unknown";
  static const struct {
    TypeMask Bit;
    const char *Name;
  } Bits[] = {
      {kTypeI32, "i32"},
      {kTypeF32, "f32"},
      {kTypeF64, "f64"},
      {kTypePtrGlobal, "ptr(global)"},
      {kTypePtrShared, "ptr(shared)"},
      {kTypePtrLocal, "ptr(local)"},
      {kTypePtrConst, "ptr(const)"},
  };
  std::string Out;
  for (const auto &B : Bits) {
    if (!(M & B.Bit))
      continue;
    if (!Out.empty())
      Out += '|';
    Out += B.Name;
  }
  return Out;
}

void analysis::applyTypeTransfer(const ir::Inst &I,
                                 std::vector<TypeMask> &Types) {
  const sass::Instruction &Asm = I.Asm;
  const vm::Pre P = vm::predecode(Asm);
  const auto &Ops = Asm.Operands;

  // Use-site refinements first: dereferencing a register is evidence it
  // holds a pointer into the access's space, and a register-indexed
  // constant-memory operand is evidence of a constant-bank offset. (For
  // LD R0, [R0] the refinement lands before the definition kills it.)
  for (const Operand &Op : Ops) {
    if (Op.Kind == OperandKind::Memory && Op.Value[0] >= 0 &&
        Op.Value[0] < static_cast<int64_t>(kNumRegSlots))
      Types[static_cast<size_t>(Op.Value[0])] |= regionPtrBit(P.Region);
    if (Op.Kind == OperandKind::ConstMem && Op.HasRegister &&
        Op.Value[2] >= 0 &&
        Op.Value[2] < static_cast<int64_t>(kNumRegSlots))
      Types[static_cast<size_t>(Op.Value[2])] |= kTypePtrConst;
  }

  // Definitions. An unguarded def overwrites (the old value is gone); a
  // guarded def may not execute, so the new mask joins the old one.
  const TypeMask Mask = defMask(Asm, P, Types);
  const bool Guarded = Asm.hasGuard();
  visitRegs(Asm, [&](int Slot, unsigned Width, bool IsDef) {
    if (!IsDef || !isRegSlot(static_cast<unsigned>(Slot)))
      return;
    for (unsigned Off = 0; Off < Width; ++Off) {
      unsigned S = static_cast<unsigned>(Slot) + Off;
      if (S >= kNumRegSlots)
        break;
      Types[S] = Guarded ? static_cast<TypeMask>(Types[S] | Mask) : Mask;
    }
  });
}

TypeInference analysis::inferTypes(const ir::Kernel &K) {
  DCB_SPAN("analysis.types");
  metrics().Kernels.add(1);

  TypeInference T;
  if (K.Blocks.empty())
    return T;

  // The transfer is input-dependent (MOV/SEL/SHFL copy source masks), so
  // this is not a gen/kill problem. All transfers are monotone joins, so
  // iteration ascends from bottom and terminates.
  const std::vector<TypeMask> Bottom(kNumRegSlots, 0);
  T.Iterations =
      solveForward(
          K, Cfg::build(K), Bottom, Bottom, T.In, T.Out,
          [](std::vector<TypeMask> &Into, const std::vector<TypeMask> &From) {
            for (size_t S = 0; S < kNumRegSlots; ++S)
              Into[S] |= From[S];
          },
          [&K](int B, std::vector<TypeMask> &Types) {
            for (const ir::Inst &I : K.Blocks[B].Insts)
              applyTypeTransfer(I, Types);
          })
          .Iterations;
  metrics().Visits.add(T.Iterations);
  return T;
}

void TypeInference::forEachTypeBefore(
    const ir::Kernel &K, int B,
    const std::function<void(int, const std::vector<TypeMask> &)> &Visit)
    const {
  std::vector<TypeMask> Types = In[B];
  const std::vector<ir::Inst> &Insts = K.Blocks[B].Insts;
  for (size_t I = 0; I < Insts.size(); ++I) {
    Visit(static_cast<int>(I), Types);
    applyTypeTransfer(Insts[I], Types);
  }
}

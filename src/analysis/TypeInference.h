//===- analysis/TypeInference.h - Register type recovery --------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward type inference over the flat register slot space of RegModel.h:
/// what does each general register *hold* at each program point, not just
/// whether it is live. CuLifter (PAPERS.md) identifies this as the missing
/// substrate for serious binary tools over a unified GPU register file;
/// the typed checkers (TypedCheckers.h) spend the facts.
///
/// The lattice is a bit mask per register slot:
///
///           unknown (0)
///      <  { i32, f32, f64, ptr(global), ptr(shared), ptr(local),
///           ptr(const) }          (single evidence bit)
///      <  unions of bits          (join = bitwise OR)
///
/// A mask whose bits demand incompatible interpretations (float and
/// integer/pointer, two distinct pointer spaces, f32 and f64) is a
/// *conflict* — the top of the lattice as far as consumers care;
/// `typeConflict` classifies it and TYP003 fires when such a value is
/// dereferenced.
///
/// Facts are seeded from opcode semantics exactly as the VM classifies
/// them (`vm::predecode`, the single source of truth both engines share):
/// FADD/FMUL/FFMA/... define f32, DADD/DFMA define f64 pairs,
/// IADD/ISETP/SHL/... define i32, LD/ST refine their address base to
/// pointer-to-space, MOV/SEL/SHFL pass operand types through, and
/// IADD/IADD3/IMAD propagate pointer bits through address arithmetic.
///
/// The transfer function is input-dependent (pass-through ops copy source
/// masks), so this is not a gen/kill problem; the pass runs on
/// Dataflow.h's solveForward with a bitwise-OR join — a monotone FIFO
/// worklist seeded in reverse postorder, so the fixpoint (and the
/// iteration count) is deterministic and independent of any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ANALYSIS_TYPEINFERENCE_H
#define DCB_ANALYSIS_TYPEINFERENCE_H

#include "analysis/RegModel.h"
#include "ir/Ir.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dcb {
namespace analysis {

/// One register slot's inferred type: a union of evidence bits.
/// 0 is unknown (lattice bottom); join is bitwise OR.
using TypeMask = uint8_t;

enum : uint8_t {
  kTypeI32 = 1u << 0,       ///< Integer arithmetic result.
  kTypeF32 = 1u << 1,       ///< Single-precision float.
  kTypeF64 = 1u << 2,       ///< Double-precision float (register pair).
  kTypePtrGlobal = 1u << 3, ///< Address into the global region.
  kTypePtrShared = 1u << 4, ///< Address into the shared region.
  kTypePtrLocal = 1u << 5,  ///< Address into the local region.
  kTypePtrConst = 1u << 6,  ///< Constant-bank offset (LDC index).
};

constexpr TypeMask kTypePtrAny =
    kTypePtrGlobal | kTypePtrShared | kTypePtrLocal | kTypePtrConst;
constexpr TypeMask kTypeFloatAny = kTypeF32 | kTypeF64;

/// True when the mask's bits demand incompatible interpretations: float
/// evidence combined with integer or pointer evidence, two distinct
/// pointer spaces, or both float widths at once.
bool typeConflict(TypeMask M);

/// "unknown", "i32", "f32|ptr(global)", ... — deterministic rendering in
/// fixed bit order, used by `dcb analyze --types` and the golden tests.
std::string typeMaskName(TypeMask M);

/// Per-kernel result: block-boundary type vectors over the general
/// register slots (predicates are booleans by construction and carry no
/// mask). Instruction-granularity facts come from forEachTypeBefore.
struct TypeInference {
  std::vector<std::vector<TypeMask>> In;  ///< [block][reg slot].
  std::vector<std::vector<TypeMask>> Out; ///< [block][reg slot].
  unsigned Iterations = 0; ///< Solver block visits (determinism tests).

  /// Walks block \p B forward re-applying transfer functions and calls
  /// \p Visit(InstIdx, TypesBefore) for every instruction, first to last.
  /// \p TypesBefore is the type vector immediately before the instruction
  /// executes (address operands are judged against it).
  void forEachTypeBefore(
      const ir::Kernel &K, int B,
      const std::function<void(int, const std::vector<TypeMask> &)> &Visit)
      const;
};

/// Runs the pass over one kernel. Deterministic: same kernel, same facts,
/// same iteration count, whatever thread runs it.
TypeInference inferTypes(const ir::Kernel &K);

/// The per-instruction forward transfer, exposed so checkers replay it at
/// instruction granularity: use-site pointer refinements, then defs
/// (unguarded defs overwrite, guarded defs join).
void applyTypeTransfer(const ir::Inst &I, std::vector<TypeMask> &Types);

} // namespace analysis
} // namespace dcb

#endif // DCB_ANALYSIS_TYPEINFERENCE_H

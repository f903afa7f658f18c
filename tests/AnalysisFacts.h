//===- tests/AnalysisFacts.h - Typed-analysis fingerprints ------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fingerprints what the typed analyses conclude on each arch's suite, as
/// hash64 values over every kernel:
///
///   types  inferTypes' block-boundary masks and solver visits, plus the
///          toJson of checkTypes;
///   s1-s5  the toJson of checkBounds and checkRaces under five launch
///          shapes:
///     s1  2 blocks x 32 threads, warp 32 (the `dcb analyze` default);
///     s2  1 block x 4 threads;
///     s3  7 blocks x 64 threads, warp 8;
///     s4  3 blocks x 100 threads, warp 5;
///     s5  64 blocks x 128 threads: 8192 contexts, above the 4096 cap, so
///         the checkers take the non-exhaustive path.
///
/// One line per arch. tests/analysis_facts.golden pins the rendering, so a
/// change that moves one type mask, solver visit or finding fails
/// analysis_typed_test. The header depends only on public library APIs,
/// so the golden file can be regenerated in another checkout.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_TESTS_ANALYSISFACTS_H
#define DCB_TESTS_ANALYSISFACTS_H

#include "VmFacts.h"

#include "analysis/TypeInference.h"
#include "analysis/TypedCheckers.h"

namespace dcb {
namespace analysisfacts {

struct Shape {
  const char *Name;
  unsigned Blocks, Threads, WarpSize;
};

inline constexpr Shape Shapes[] = {
    {"s1", 2, 32, 32}, {"s2", 1, 4, 32},   {"s3", 7, 64, 8},
    {"s4", 3, 100, 5}, {"s5", 64, 128, 32},
};

/// hash64 of \p K's type facts and TYP report.
inline uint64_t hashTypes(const ir::Kernel &K) {
  const analysis::TypeInference T = analysis::inferTypes(K);
  Hasher H;
  H.update(K.Name);
  H.updateU64(T.Iterations);
  for (const auto *Side : {&T.In, &T.Out})
    for (const std::vector<analysis::TypeMask> &Masks : *Side)
      H.update(Masks.data(), Masks.size());
  H.update(analysis::checkTypes(K).toJson(K.Name));
  return H.digest64();
}

/// hash64 of \p K's MEM and RAC reports under \p S.
inline uint64_t hashChecks(const ir::Kernel &K, const Shape &S) {
  analysis::LaunchShape Shape;
  Shape.NumBlocks = S.Blocks;
  Shape.NumThreads = S.Threads;
  Shape.WarpSize = S.WarpSize;
  Hasher H;
  H.update(analysis::checkBounds(K, Shape).toJson(K.Name));
  H.update(analysis::checkRaces(K, Shape).toJson(K.Name));
  return H.digest64();
}

/// "sm_35 types=... s1=... s2=... s3=... s4=... s5=...", or
/// "sm_35 error: ...".
inline std::string renderAnalysisFacts(Arch A) {
  const std::string Name = archName(A);
  Expected<ir::Program> P = vmfacts::suiteProgram(A);
  if (!P)
    return Name + " error: " + P.message();
  Hasher Types;
  for (const ir::Kernel &K : P->Kernels)
    Types.updateU64(hashTypes(K));
  std::string Out = Name + " types=" + vmfacts::hex64(Types.digest64());
  for (const Shape &S : Shapes) {
    Hasher H;
    for (const ir::Kernel &K : P->Kernels)
      H.updateU64(hashChecks(K, S));
    Out += std::string(" ") + S.Name + "=" + vmfacts::hex64(H.digest64());
  }
  return Out;
}

} // namespace analysisfacts
} // namespace dcb

#endif // DCB_TESTS_ANALYSISFACTS_H

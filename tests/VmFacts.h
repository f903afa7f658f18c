//===- tests/VmFacts.h - VM execution fingerprints --------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fingerprints what the VM computes on each arch's suite, as hash64
/// values of every kernel's full GridResult under five launch shapes:
///
///   s1  2 blocks x 32 threads, seed 1 (the `dcb exec` default);
///   s2  32 blocks x 32 threads, seed 1;
///   s3  7 blocks x 64 threads, seed 1, OobPolicy::Fault, shared watch;
///   s4  5 blocks x 32 threads, warp size 8, seed 9;
///   s5  3 blocks x 100 threads, warp size 5, seed 1, OobPolicy::Fault.
///
/// Each run covers per-thread registers, predicates and step counts, the
/// launch counters, and the final global and shared images over
/// vm::seededMemory, or the error text when the launch fails. One line per
/// arch, plus one line for a 120-seed rotation over the sm_50 suite (seed
/// S runs kernel S mod N at the default shape). tests/vm_facts.golden pins
/// the rendering, so a change to the VM that moves one register, counter
/// or byte fails vm_test. The header depends only on public library APIs,
/// so the golden file can be regenerated in another checkout.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_TESTS_VMFACTS_H
#define DCB_TESTS_VMFACTS_H

#include "analyzer/Listing.h"
#include "ir/Builder.h"
#include "support/Hash.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "vm/Differ.h"
#include "vm/Vm.h"
#include "workloads/Suite.h"

#include <cstdio>
#include <string>

namespace dcb {
namespace vmfacts {

struct Shape {
  const char *Name;
  unsigned Blocks, Threads, WarpSize;
  uint64_t Seed;
  vm::OobPolicy Oob;
  bool WatchShared;
};

inline constexpr Shape Shapes[] = {
    {"s1", 2, 32, 32, 1, vm::OobPolicy::Wrap, false},
    {"s2", 32, 32, 32, 1, vm::OobPolicy::Wrap, false},
    {"s3", 7, 64, 32, 1, vm::OobPolicy::Fault, true},
    {"s4", 5, 32, 8, 9, vm::OobPolicy::Wrap, false},
    {"s5", 3, 100, 5, 1, vm::OobPolicy::Fault, false},
};

inline std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// hash64 of one launch of \p K under \p S: the kernel name, then the
/// error text or every field of the GridResult and both memory images.
inline uint64_t hashRun(const ir::Kernel &K, const Shape &S) {
  vm::Memory Mem = vm::seededMemory(S.Seed, S.Threads);
  vm::LaunchConfig Config;
  Config.NumThreads = S.Threads;
  Config.NumBlocks = S.Blocks;
  Config.WarpSize = S.WarpSize;
  Config.Oob = S.Oob;
  Config.WatchShared = S.WatchShared;
  Expected<vm::GridResult> R = vm::RefVm().run(K, Mem, Config);

  Hasher H;
  H.update(K.Name);
  if (!R) {
    H.update("error: " + R.message());
    return H.digest64();
  }
  H.updateU64(R->Threads.size());
  for (const vm::ThreadResult &T : R->Threads) {
    for (uint32_t Reg : T.Regs)
      H.updateU64(Reg);
    for (bool P : T.Preds)
      H.updateU64(P);
    H.updateU64(T.Steps);
  }
  for (uint64_t Counter : {R->Issues, R->LaneSteps, R->MemWraps, R->Barriers,
                           R->SharedConflicts})
    H.updateU64(Counter);
  H.update(Mem.Global.data(), Mem.Global.size());
  H.update(Mem.Shared.data(), Mem.Shared.size());
  return H.digest64();
}

/// The arch's suite lifted the way `dcb exec` lifts a cubin.
inline Expected<ir::Program> suiteProgram(Arch A) {
  vendor::NvccSim Nvcc(A);
  Expected<elf::Cubin> Cubin = Nvcc.compile(workloads::buildSuite(A));
  if (!Cubin)
    return Cubin.takeError();
  Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
  if (!Text)
    return Text.takeError();
  Expected<analyzer::Listing> L = analyzer::parseListing(*Text);
  if (!L)
    return L.takeError();
  return ir::buildProgram(*L);
}

/// "sm_35 s1=... s2=... s3=... s4=... s5=...", or "sm_35 error: ...".
inline std::string renderVmFacts(Arch A) {
  const std::string Name = archName(A);
  Expected<ir::Program> P = suiteProgram(A);
  if (!P)
    return Name + " error: " + P.message();
  std::string Out = Name;
  for (const Shape &S : Shapes) {
    Hasher H;
    for (const ir::Kernel &K : P->Kernels)
      H.updateU64(hashRun(K, S));
    Out += std::string(" ") + S.Name + "=" + hex64(H.digest64());
  }
  return Out;
}

/// "sm_50 rotation=...": seeds 1..120, seed S on kernel S mod N, each at
/// the default `dcb exec` shape over that seed's image.
inline std::string renderRotation() {
  Expected<ir::Program> P = suiteProgram(Arch::SM50);
  if (!P)
    return "sm_50 error: " + P.message();
  Hasher H;
  for (uint64_t Seed = 1; Seed <= 120; ++Seed) {
    Shape S = Shapes[0];
    S.Seed = Seed;
    H.updateU64(hashRun(P->Kernels[Seed % P->Kernels.size()], S));
  }
  return "sm_50 rotation=" + hex64(H.digest64());
}

} // namespace vmfacts
} // namespace dcb

#endif // DCB_TESTS_VMFACTS_H

//===- vm/Differ.cpp - Differential harness -------------------------------===//

#include "vm/Differ.h"

#include "support/Rng.h"
#include "support/Telemetry.h"

#include <cstring>

using namespace dcb;
using namespace dcb::vm;

namespace {

/// FNV-1a, the checksum every summary exposes.
uint64_t fnv1a(uint64_t Hash, const uint8_t *Data, size_t Len) {
  for (size_t I = 0; I < Len; ++I) {
    Hash ^= Data[I];
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

uint64_t fnvBytes(const std::vector<uint8_t> &Bytes) {
  return fnv1a(0xcbf29ce484222325ull, Bytes.data(), Bytes.size());
}

void put32(std::vector<uint8_t> &Bank, size_t Off, uint32_t V) {
  std::memcpy(Bank.data() + Off, &V, 4);
}

} // namespace

Memory vm::seededMemory(uint64_t Seed, unsigned NumThreads) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 0x6a09e667f3bcc909ull);
  Memory Mem; // 64 KiB global, 16 KiB shared, zeroed.

  // Global, low half: small non-negative integers — safe as node flags,
  // edge ranges and loop-carried counters (bfs reads [ptr] and [ptr+4] as
  // an edge range, so values must keep index loops short).
  const size_t Half = Mem.Global.size() / 2;
  for (size_t Off = 0; Off < Half; Off += 4)
    put32(Mem.Global, Off, static_cast<uint32_t>(R.below(16)));
  // High half: small floats in [-2, +2] for the FP kernels.
  for (size_t Off = Half; Off < Mem.Global.size(); Off += 4) {
    float F = static_cast<float>(R.below(4097)) / 1024.0f - 2.0f;
    uint32_t Bits;
    std::memcpy(&Bits, &F, 4);
    put32(Mem.Global, Off, Bits);
  }
  // Shared: small floats (the tile/stencil kernels mix LDS into FP math).
  for (size_t Off = 0; Off < Mem.Shared.size(); Off += 4) {
    float F = static_cast<float>(R.below(2049)) / 1024.0f - 1.0f;
    uint32_t Bits;
    std::memcpy(&Bits, &F, 4);
    put32(Mem.Shared, Off, Bits);
  }

  // Constant bank 0: the launch-parameter block the suite's preamble and
  // loadBase() read. Slots double as loop bounds in some kernels (lud's
  // row bound is the bfs visited-array pointer), so the "pointer" values
  // are kept small and 4-aligned — valid as both.
  std::vector<uint8_t> Bank0(256, 0);
  for (size_t Off = 0x44; Off < Bank0.size(); ++Off)
    Bank0[Off] = static_cast<uint8_t>(R.below(256));
  auto LowPtr = [&R] {
    return static_cast<uint32_t>(R.below(128) * 16); // 0..2032, 16-aligned.
  };
  auto HighPtr = [&R] {
    return static_cast<uint32_t>(32768 + R.below(1024) * 16);
  };
  put32(Bank0, 0x04, LowPtr());         // Generic data pointer.
  put32(Bank0, 0x08, LowPtr());         // Edge-range pointer (bfs).
  put32(Bank0, 0x0c, LowPtr());         // Edge-list pointer.
  put32(Bank0, 0x10, static_cast<uint32_t>(R.below(64) * 4)); // Pointer AND
                                                              // loop bound.
  put32(Bank0, 0x14, 1); // Scalar block: bounds, scale factors, search
  put32(Bank0, 0x18, 2); // keys. Small ints keep every loop short; read
  put32(Bank0, 0x1c, 3); // as floats they are harmless denormals.
  put32(Bank0, 0x20, 4);
  put32(Bank0, 0x24, 5);
  put32(Bank0, 0x28, NumThreads);       // NTID.X by convention.
  put32(Bank0, 0x2c, 1);
  put32(Bank0, 0x30, HighPtr());        // Float matrix/vector pointers.
  put32(Bank0, 0x34, HighPtr());
  put32(Bank0, 0x38, 6);                // Tile-loop bound (matrixMul).
  put32(Bank0, 0x3c, HighPtr());
  put32(Bank0, 0x40, 0);                // Device dispatch slot (never a
                                        // valid target; the VM reports the
                                        // indirect branch instead).
  Mem.ConstBanks[0] = std::move(Bank0);

  // Bank 1: simpleTemplates reads a wide constant at c[0x1][0x100].
  std::vector<uint8_t> Bank1(0x110, 0);
  for (uint8_t &B : Bank1)
    B = static_cast<uint8_t>(R.below(256));
  Mem.ConstBanks[1] = std::move(Bank1);

  // Bank 3: the LDC showcase indexes c[0x3][tid].
  std::vector<uint8_t> Bank3(256, 0);
  for (uint8_t &B : Bank3)
    B = static_cast<uint8_t>(R.below(256));
  Mem.ConstBanks[3] = std::move(Bank3);

  return Mem;
}

ExecSummary vm::execKernel(const ir::Kernel &K, uint64_t Seed,
                           const ExecOptions &Opts) {
  ExecSummary S;
  S.Kernel = K.Name;

  Memory Mem = seededMemory(Seed, Opts.NumThreads);
  LaunchConfig Config;
  Config.NumThreads = Opts.NumThreads;
  Config.NumBlocks = Opts.NumBlocks;
  Config.WarpSize = Opts.WarpSize;
  Config.Oob = Opts.Oob;
  Config.WatchShared = Opts.WatchShared;

  Expected<GridResult> R = RefVm().run(K, Mem, Config);
  if (!R) {
    S.Failed = true;
    S.Error = R.message();
    return S;
  }

  S.Issues = R->Issues;
  S.LaneSteps = R->LaneSteps;
  S.MemWraps = R->MemWraps;
  S.Barriers = R->Barriers;
  S.SharedConflicts = R->SharedConflicts;
  S.GlobalCrc = fnvBytes(Mem.Global);
  S.SharedCrc = fnvBytes(Mem.Shared);

  uint64_t Hash = 0xcbf29ce484222325ull;
  for (const ThreadResult &T : R->Threads) {
    Hash = fnv1a(Hash,
                 reinterpret_cast<const uint8_t *>(T.Regs.data()),
                 T.Regs.size() * sizeof(uint32_t));
    for (unsigned I = 0; I < T.Preds.size(); ++I) {
      uint8_t P = T.Preds[I] ? 1 : 0;
      Hash = fnv1a(Hash, &P, 1);
    }
  }
  S.RegsCrc = Hash;
  return S;
}

DiffResult vm::diffPrograms(const ir::Program &Orig,
                            const ir::Program &Transformed,
                            const ExecOptions &Opts) {
  DCB_SPAN("vm.diffexec");
  DiffResult Out;

  for (const ir::Kernel &KA : Orig.Kernels) {
    KernelDiff D;
    D.Kernel = KA.Name;

    const ir::Kernel *KB = nullptr;
    for (const ir::Kernel &Candidate : Transformed.Kernels)
      if (Candidate.Name == KA.Name) {
        KB = &Candidate;
        break;
      }
    if (!KB) {
      D.Verdict = DiffVerdict::Mismatch;
      D.Detail = "kernel missing from the transformed binary";
      Out.Kernels.push_back(std::move(D));
      ++Out.Mismatched;
      continue;
    }

    unsigned SeedsSkipped = 0;
    for (unsigned I = 0; I < Opts.Seeds && D.Detail.empty(); ++I) {
      const uint64_t Seed = Opts.FirstSeed + I;
      ExecSummary SA = execKernel(KA, Seed, Opts);
      ExecSummary SB = execKernel(*KB, Seed, Opts);

      if (SA.Failed || SB.Failed) {
        if (SA.Failed && SB.Failed && SA.Error == SB.Error) {
          ++SeedsSkipped; // Unsupported in both, identically: not a diff.
          continue;
        }
        D.Verdict = DiffVerdict::Mismatch;
        D.Detail = "seed " + std::to_string(Seed) + ": original " +
                   (SA.Failed ? "failed: " + SA.Error : "succeeded") +
                   "; transformed " +
                   (SB.Failed ? "failed: " + SB.Error : "succeeded");
        break;
      }

      if (SA.GlobalCrc != SB.GlobalCrc || SA.SharedCrc != SB.SharedCrc) {
        D.Verdict = DiffVerdict::Mismatch;
        D.Detail = "seed " + std::to_string(Seed) + ": final memory differs" +
                   (SA.GlobalCrc != SB.GlobalCrc ? " (global)" : " (shared)");
        break;
      }
      if (Opts.CompareRegs && SA.RegsCrc != SB.RegsCrc) {
        D.Verdict = DiffVerdict::Mismatch;
        D.Detail =
            "seed " + std::to_string(Seed) + ": final registers differ";
        break;
      }
    }

    if (D.Verdict != DiffVerdict::Mismatch && Opts.Seeds &&
        SeedsSkipped == Opts.Seeds) {
      D.Verdict = DiffVerdict::Skipped;
      D.Detail = "unsupported by the VM (identical error in both binaries)";
    }

    switch (D.Verdict) {
    case DiffVerdict::Match:
      ++Out.Matched;
      break;
    case DiffVerdict::Skipped:
      ++Out.Skipped;
      break;
    case DiffVerdict::Mismatch:
      ++Out.Mismatched;
      break;
    }
    Out.Kernels.push_back(std::move(D));
  }

  // Kernels that only exist in the transformed binary are just as wrong.
  for (const ir::Kernel &KB : Transformed.Kernels) {
    bool Known = false;
    for (const ir::Kernel &KA : Orig.Kernels)
      if (KA.Name == KB.Name) {
        Known = true;
        break;
      }
    if (!Known) {
      KernelDiff D;
      D.Kernel = KB.Name;
      D.Verdict = DiffVerdict::Mismatch;
      D.Detail = "kernel missing from the original binary";
      Out.Kernels.push_back(std::move(D));
      ++Out.Mismatched;
    }
  }

  return Out;
}

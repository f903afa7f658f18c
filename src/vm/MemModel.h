//===- vm/MemModel.h - VM memory regions and access policy ------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VM's memory model: the Memory container (global, shared and
/// constant banks), the out-of-bounds policy, and the access helpers every
/// load/store goes through.
///
/// Historically out-of-region addresses wrapped modulo the region size,
/// silently — convenient for synthetic kernels, a footgun for differential
/// testing (an OOB bug in a transformed binary can alias back onto valid
/// data and compare equal). The policy makes that explicit: Wrap keeps the
/// legacy byte-by-byte modulo semantics but counts every wrapping access,
/// Fault turns them into VM errors. In-bounds accesses take a memcpy fast
/// path in both modes.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_VM_MEMMODEL_H
#define DCB_VM_MEMMODEL_H

#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

namespace dcb {
namespace vm {

/// Shared machine memory. Const banks are never written by the VM; global
/// and shared are per-block arenas during a grid run (see docs/VM.md).
struct Memory {
  std::vector<uint8_t> Global;
  std::vector<uint8_t> Shared;
  std::map<unsigned, std::vector<uint8_t>> ConstBanks;

  explicit Memory(size_t GlobalSize = 1 << 16, size_t SharedSize = 1 << 14)
      : Global(GlobalSize, 0), Shared(SharedSize, 0) {}
};

/// What an out-of-region access does.
enum class OobPolicy : uint8_t {
  Wrap,  ///< Legacy: every byte wraps modulo the region size (counted).
  Fault, ///< The access becomes a VM error naming address and region.
};

/// Result of one load/store attempt under OobPolicy::Fault.
struct MemFault {
  bool Faulted = false;
  uint64_t Addr = 0;
  unsigned Bytes = 0;
  size_t RegionSize = 0;
};

/// Loads \p Bytes little-endian from \p R; wider requests (LDC.128) read
/// only the first 8. Empty regions read as zero (missing const banks
/// behaved that way long before the policy existed). \p Wraps counts
/// accesses that left the region.
inline uint64_t loadMem(const std::vector<uint8_t> &R, uint64_t Addr,
                        unsigned Bytes, OobPolicy Policy, uint64_t &Wraps,
                        MemFault &Fault) {
  if (R.empty())
    return 0;
  if (Bytes > 8)
    Bytes = 8;
  // Addr can be anywhere in the 64-bit space (a negative 32-bit offset
  // zero-extends to ~2^64), so the in-bounds test must not compute
  // Addr + Bytes.
  if (Addr <= R.size() && Bytes <= R.size() - Addr) {
    uint64_t Value = 0;
    std::memcpy(&Value, R.data() + Addr, Bytes);
    return Value;
  }
  if (Policy == OobPolicy::Fault) {
    Fault.Faulted = true;
    Fault.Addr = Addr;
    Fault.Bytes = Bytes;
    Fault.RegionSize = R.size();
    return 0;
  }
  ++Wraps;
  uint64_t Value = 0;
  for (unsigned I = 0; I < Bytes; ++I)
    Value |= static_cast<uint64_t>(R[(Addr + I) % R.size()]) << (8 * I);
  return Value;
}

/// Stores \p Bytes (<= 8) little-endian into \p R; same policy rules as
/// loadMem. Stores to empty regions are dropped.
inline void storeMem(std::vector<uint8_t> &R, uint64_t Addr, unsigned Bytes,
                     uint64_t Value, OobPolicy Policy, uint64_t &Wraps,
                     MemFault &Fault) {
  if (R.empty())
    return;
  if (Addr <= R.size() && Bytes <= R.size() - Addr) {
    std::memcpy(R.data() + Addr, &Value, Bytes);
    return;
  }
  if (Policy == OobPolicy::Fault) {
    Fault.Faulted = true;
    Fault.Addr = Addr;
    Fault.Bytes = Bytes;
    Fault.RegionSize = R.size();
    return;
  }
  ++Wraps;
  for (unsigned I = 0; I < Bytes; ++I)
    R[(Addr + I) % R.size()] = static_cast<uint8_t>(Value >> (8 * I));
}

} // namespace vm
} // namespace dcb

#endif // DCB_VM_MEMMODEL_H

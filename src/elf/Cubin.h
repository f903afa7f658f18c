//===- elf/Cubin.h - GPU ELF executable container ---------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal GPU ELF ("cubin") reader/writer. The vendor compiler simulator
/// links each kernel's machine code into a `.text.<kernel>` section of an
/// ELF64 image; the disassembler simulator, the bit flipper and the binary
/// instrumentation passes all operate on these images, mirroring how the
/// paper's tools edit NVIDIA's GPU ELF according to the file-format notes
/// they published on Zenodo.
///
/// The container is a real little-endian ELF64: a standard header
/// (EM_CUDA = 190, with the compute capability in e_flags), a section header
/// table, `.shstrtab`/`.strtab`/`.symtab`, one `.text.<name>` section per
/// kernel with a matching STT_FUNC symbol, and one `.nv.info.<name>` section
/// carrying per-kernel metadata (register count, shared memory size).
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ELF_CUBIN_H
#define DCB_ELF_CUBIN_H

#include "support/Arch.h"
#include "support/Errors.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dcb {
namespace elf {

/// One GPU kernel inside a cubin.
struct KernelSection {
  std::string Name;
  std::vector<uint8_t> Code; ///< Raw instruction words, little-endian.

  // Metadata carried in .nv.info.<name>.
  uint32_t NumRegisters = 8;
  uint32_t SharedMemBytes = 0;
  uint32_t LocalMemBytes = 0;

  /// Contents of the kernel's constant bank 0 (launch parameters etc.).
  std::vector<uint8_t> Constant0;
};

/// An in-memory GPU ELF executable.
class Cubin {
public:
  Cubin() = default;
  explicit Cubin(Arch A) : TargetArch(A) {}

  Arch arch() const { return TargetArch; }

  std::vector<KernelSection> &kernels() { return Kernels; }
  const std::vector<KernelSection> &kernels() const { return Kernels; }

  /// Returns the kernel named \p Name, or nullptr.
  KernelSection *findKernel(const std::string &Name);
  const KernelSection *findKernel(const std::string &Name) const;

  void addKernel(KernelSection Kernel) {
    Kernels.push_back(std::move(Kernel));
  }

  /// Serializes to a complete ELF64 image.
  std::vector<uint8_t> serialize() const;

  /// Parses an ELF64 image produced by serialize() (or an edited copy).
  static Expected<Cubin> deserialize(const std::vector<uint8_t> &Image);

private:
  Arch TargetArch = Arch::SM35;
  std::vector<KernelSection> Kernels;
};

/// Locates the file-offset range of `.text.<kernelName>` inside a serialized
/// image, allowing in-place patching without a full rebuild — this is what
/// the bit flipper uses to inject variants into an executable.
/// Returns false if the section is missing.
bool findTextSection(const std::vector<uint8_t> &Image,
                     const std::string &KernelName, size_t &Offset,
                     size_t &Size);

/// Overwrites bytes of `.text.<kernelName>` at \p ByteOffset within the
/// section. Fails when out of range.
Error patchTextSection(std::vector<uint8_t> &Image,
                       const std::string &KernelName, size_t ByteOffset,
                       const std::vector<uint8_t> &Bytes);

} // namespace elf
} // namespace dcb

#endif // DCB_ELF_CUBIN_H

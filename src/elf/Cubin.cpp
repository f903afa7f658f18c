//===- elf/Cubin.cpp ------------------------------------------------------===//

#include "elf/Cubin.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string_view>

using namespace dcb;
using namespace dcb::elf;

namespace {

// ELF constants (subset).
constexpr uint16_t EM_CUDA = 190;
constexpr uint32_t SHT_NULL = 0;
constexpr uint32_t SHT_PROGBITS = 1;
constexpr uint32_t SHT_SYMTAB = 2;
constexpr uint32_t SHT_STRTAB = 3;
constexpr uint64_t SHF_ALLOC = 0x2;
constexpr uint64_t SHF_EXECINSTR = 0x4;
constexpr uint8_t STT_FUNC = 2;
constexpr uint8_t STB_GLOBAL = 1;

constexpr size_t EhdrSize = 64;
constexpr size_t ShdrSize = 64;
constexpr size_t SymSize = 24;

/// Stores the low \p Bytes bytes of \p V at \p P, little-endian.
void putLE(uint8_t *P, uint64_t V, unsigned Bytes) {
  for (unsigned I = 0; I < Bytes; ++I)
    P[I] = static_cast<uint8_t>(V >> (8 * I));
}

/// Bounds-checked little-endian reader.
class ByteReader {
public:
  explicit ByteReader(const std::vector<uint8_t> &In) : In(In) {}

  bool inRange(size_t Offset, size_t Size) const {
    return Offset + Size >= Offset && Offset + Size <= In.size();
  }
  uint16_t u16(size_t Offset) const { return read<uint16_t>(Offset); }
  uint32_t u32(size_t Offset) const { return read<uint32_t>(Offset); }
  uint64_t u64(size_t Offset) const { return read<uint64_t>(Offset); }

  /// The NUL-terminated string at \p Offset, cut at the end of the input.
  std::string_view cstr(size_t Offset) const {
    if (Offset >= In.size())
      return std::string_view();
    const char *Begin = reinterpret_cast<const char *>(In.data()) + Offset;
    const void *Nul = std::memchr(Begin, 0, In.size() - Offset);
    return std::string_view(Begin, Nul ? static_cast<const char *>(Nul) - Begin
                                       : In.size() - Offset);
  }

private:
  template <typename T> T read(size_t Offset) const {
    assert(inRange(Offset, sizeof(T)) && "read out of bounds");
    T V = 0;
    for (size_t I = 0; I < sizeof(T); ++I)
      V |= static_cast<T>(In[Offset + I]) << (8 * I);
    return V;
  }

  const std::vector<uint8_t> &In;
};

/// Accumulates a string table with deduplication. The index is open
/// addressing over offsets into the table's own bytes, so adding a string
/// allocates nothing but the bytes.
class StringTable {
public:
  StringTable() : Slots(64, 0) { Data.push_back(0); }

  /// Adds the concatenation \p Prefix + \p Name; returns its offset.
  uint32_t add(std::string_view Prefix, std::string_view Name = {}) {
    uint64_t H = 0xcbf29ce484222325ull;
    for (std::string_view Part : {Prefix, Name})
      for (char C : Part)
        H = (H ^ static_cast<uint8_t>(C)) * 0x100000001b3ull;
    const size_t Len = Prefix.size() + Name.size();
    size_t Mask = Slots.size() - 1, I = H & Mask;
    for (; Slots[I] != 0; I = (I + 1) & Mask) {
      const char *S = reinterpret_cast<const char *>(Data.data()) + Slots[I] - 1;
      if (std::strlen(S) == Len && Prefix == std::string_view(S, Prefix.size()) &&
          Name == std::string_view(S + Prefix.size(), Name.size()))
        return Slots[I] - 1;
    }
    const uint32_t Offset = static_cast<uint32_t>(Data.size());
    Data.insert(Data.end(), Prefix.begin(), Prefix.end());
    Data.insert(Data.end(), Name.begin(), Name.end());
    Data.push_back(0);
    Slots[I] = Offset + 1;
    ++Count;
    if (Count * 2 > Slots.size())
      grow();
    return Offset;
  }

  const std::vector<uint8_t> &bytes() const { return Data; }

private:
  /// Doubles the index, re-placing every string by its hash.
  void grow() {
    std::vector<uint32_t> Old(Slots.size() * 2, 0);
    Old.swap(Slots);
    const size_t Mask = Slots.size() - 1;
    for (uint32_t Slot : Old) {
      if (Slot == 0)
        continue;
      uint64_t H = 0xcbf29ce484222325ull;
      for (const char *S = reinterpret_cast<const char *>(Data.data()) + Slot - 1;
           *S; ++S)
        H = (H ^ static_cast<uint8_t>(*S)) * 0x100000001b3ull;
      size_t I = H & Mask;
      while (Slots[I] != 0)
        I = (I + 1) & Mask;
      Slots[I] = Slot;
    }
  }

  std::vector<uint8_t> Data;
  std::vector<uint32_t> Slots; ///< 0 or offset + 1.
  size_t Count = 0;
};

struct SectionDesc {
  uint32_t NameOff = 0;
  uint32_t Type = SHT_NULL;
  uint64_t Flags = 0;
  uint64_t Offset = 0;
  uint64_t Size = 0;
  uint32_t Link = 0;
  uint32_t Info = 0;
  uint64_t Align = 1;
  uint64_t EntSize = 0;
  /// The Size bytes, owned by the cubin or by serialize().
  const uint8_t *Contents = nullptr;
};

uint32_t archToFlags(Arch A) { return static_cast<uint32_t>(A) + 0x20; }

std::optional<Arch> archFromFlags(uint32_t Flags) {
  if (Flags < 0x20 || Flags > 0x28)
    return std::nullopt;
  return static_cast<Arch>(Flags - 0x20);
}

/// A kernel's .nv.info payload: register count, shared and local bytes.
constexpr size_t NvInfoSize = 12;

} // namespace

KernelSection *Cubin::findKernel(const std::string &Name) {
  for (KernelSection &Kernel : Kernels)
    if (Kernel.Name == Name)
      return &Kernel;
  return nullptr;
}

const KernelSection *Cubin::findKernel(const std::string &Name) const {
  return const_cast<Cubin *>(this)->findKernel(Name);
}

std::vector<uint8_t> Cubin::serialize() const {
  StringTable ShStrings;
  StringTable SymStrings;

  std::vector<SectionDesc> Sections;
  Sections.reserve(4 + 3 * Kernels.size());
  Sections.emplace_back(); // SHT_NULL section 0.

  // Section 1: .shstrtab (its contents are set last).
  SectionDesc ShStrTab;
  ShStrTab.NameOff = ShStrings.add(".shstrtab");
  ShStrTab.Type = SHT_STRTAB;
  Sections.push_back(ShStrTab);
  const size_t ShStrIdx = 1;

  // Section 2: .strtab.
  SectionDesc StrTab;
  StrTab.NameOff = ShStrings.add(".strtab");
  StrTab.Type = SHT_STRTAB;
  Sections.push_back(StrTab);
  const size_t StrIdx = 2;

  // Section 3: .symtab, a null symbol and then one per kernel.
  SectionDesc SymTab;
  SymTab.NameOff = ShStrings.add(".symtab");
  SymTab.Type = SHT_SYMTAB;
  SymTab.Link = static_cast<uint32_t>(StrIdx);
  SymTab.EntSize = SymSize;
  SymTab.Align = 8;
  Sections.push_back(SymTab);
  const size_t SymIdx = 3;
  std::vector<uint8_t> SymBytes((1 + Kernels.size()) * SymSize, 0);

  // Kernel sections.
  std::vector<uint8_t> NvInfos(Kernels.size() * NvInfoSize);
  for (size_t K = 0; K < Kernels.size(); ++K) {
    const KernelSection &Kernel = Kernels[K];
    SectionDesc Text;
    Text.NameOff = ShStrings.add(".text.", Kernel.Name);
    Text.Type = SHT_PROGBITS;
    Text.Flags = SHF_ALLOC | SHF_EXECINSTR;
    Text.Align = 16;
    Text.Contents = Kernel.Code.data();
    Text.Size = Kernel.Code.size();
    Sections.push_back(Text);
    uint16_t TextIdx = static_cast<uint16_t>(Sections.size() - 1);

    uint8_t *Info = NvInfos.data() + K * NvInfoSize;
    putLE(Info, Kernel.NumRegisters, 4);
    putLE(Info + 4, Kernel.SharedMemBytes, 4);
    putLE(Info + 8, Kernel.LocalMemBytes, 4);
    SectionDesc InfoSec;
    InfoSec.NameOff = ShStrings.add(".nv.info.", Kernel.Name);
    InfoSec.Type = SHT_PROGBITS;
    InfoSec.Align = 4;
    InfoSec.Contents = Info;
    InfoSec.Size = NvInfoSize;
    Sections.push_back(InfoSec);

    SectionDesc Const0;
    Const0.NameOff = ShStrings.add(".nv.constant0.", Kernel.Name);
    Const0.Type = SHT_PROGBITS;
    Const0.Flags = SHF_ALLOC;
    Const0.Align = 4;
    Const0.Contents = Kernel.Constant0.data();
    Const0.Size = Kernel.Constant0.size();
    Sections.push_back(Const0);

    // Symbol for the kernel entry: name, info, other, section, value, size.
    uint8_t *Sym = SymBytes.data() + (K + 1) * SymSize;
    putLE(Sym, SymStrings.add(Kernel.Name), 4);
    Sym[4] = static_cast<uint8_t>((STB_GLOBAL << 4) | STT_FUNC);
    putLE(Sym + 6, TextIdx, 2);
    putLE(Sym + 16, Kernel.Code.size(), 8);
  }

  auto setContents = [&Sections](size_t Idx, const std::vector<uint8_t> &V) {
    Sections[Idx].Contents = V.data();
    Sections[Idx].Size = V.size();
  };
  setContents(SymIdx, SymBytes);
  Sections[SymIdx].Info = 1; // First global symbol index.
  setContents(StrIdx, SymStrings.bytes());
  setContents(ShStrIdx, ShStrings.bytes());

  // Lay out: header, section contents, then the section header table.
  size_t Offset = EhdrSize;
  for (SectionDesc &S : Sections) {
    if (S.Type == SHT_NULL)
      continue;
    Offset = (Offset + S.Align - 1) & ~(S.Align - 1);
    S.Offset = Offset;
    Offset += S.Size;
  }
  const size_t ShOff = (Offset + 7) & ~size_t(7);
  std::vector<uint8_t> Image(ShOff + Sections.size() * ShdrSize, 0);
  uint8_t *Out = Image.data();

  // ELF header.
  const uint8_t Ident[16] = {0x7f, 'E', 'L', 'F', 2 /*64-bit*/,
                             1 /*little*/, 1 /*version*/};
  std::memcpy(Out, Ident, sizeof(Ident));
  putLE(Out + 16, 2, 2);       // e_type = ET_EXEC
  putLE(Out + 18, EM_CUDA, 2); // e_machine
  putLE(Out + 20, 1, 4);       // e_version
  putLE(Out + 40, ShOff, 8);   // e_shoff (e_entry, e_phoff stay 0)
  putLE(Out + 48, archToFlags(TargetArch), 4); // The compute capability.
  putLE(Out + 52, EhdrSize, 2);
  putLE(Out + 58, ShdrSize, 2); // (e_phentsize, e_phnum stay 0)
  putLE(Out + 60, Sections.size(), 2);
  putLE(Out + 62, ShStrIdx, 2);

  for (size_t I = 0; I < Sections.size(); ++I) {
    const SectionDesc &S = Sections[I];
    if (S.Size)
      std::memcpy(Out + S.Offset, S.Contents, S.Size);
    uint8_t *H = Out + ShOff + I * ShdrSize;
    putLE(H, S.NameOff, 4);
    putLE(H + 4, S.Type, 4);
    putLE(H + 8, S.Flags, 8);
    putLE(H + 24, S.Offset, 8); // (sh_addr stays 0)
    putLE(H + 32, S.Size, 8);
    putLE(H + 40, S.Link, 4);
    putLE(H + 44, S.Info, 4);
    putLE(H + 48, S.Align, 8);
    putLE(H + 56, S.EntSize, 8);
  }
  return Image;
}

Expected<Cubin> Cubin::deserialize(const std::vector<uint8_t> &Image) {
  ByteReader R(Image);
  if (!R.inRange(0, EhdrSize))
    return Failure("cubin: file too small for an ELF header");
  if (Image[0] != 0x7f || Image[1] != 'E' || Image[2] != 'L' ||
      Image[3] != 'F')
    return Failure("cubin: bad ELF magic");
  if (Image[4] != 2 || Image[5] != 1)
    return Failure("cubin: not a little-endian ELF64");
  if (R.u16(18) != EM_CUDA)
    return Failure("cubin: not a CUDA ELF (unexpected machine)");

  std::optional<Arch> A = archFromFlags(R.u32(48));
  if (!A)
    return Failure("cubin: unknown compute capability in e_flags");

  uint64_t ShOff = R.u64(40);
  uint16_t ShNum = R.u16(60);
  uint16_t ShStrIdx = R.u16(62);
  if (!R.inRange(ShOff, static_cast<size_t>(ShNum) * ShdrSize))
    return Failure("cubin: section header table out of range");
  if (ShStrIdx >= ShNum)
    return Failure("cubin: bad section-name table index");

  struct RawSection {
    std::string_view Name;
    uint32_t Type;
    uint64_t Offset, Size;
  };
  std::vector<RawSection> Raw(ShNum);

  uint64_t ShStrOff = R.u64(ShOff + ShStrIdx * ShdrSize + 24);
  for (uint16_t I = 0; I < ShNum; ++I) {
    size_t Base = ShOff + I * ShdrSize;
    uint32_t NameOff = R.u32(Base);
    Raw[I].Type = R.u32(Base + 4);
    Raw[I].Offset = R.u64(Base + 24);
    Raw[I].Size = R.u64(Base + 32);
    if (Raw[I].Type != SHT_NULL &&
        !R.inRange(Raw[I].Offset, Raw[I].Size))
      return Failure("cubin: section " + std::to_string(I) +
                     " is out of range. Contents truncated");
    Raw[I].Name = R.cstr(ShStrOff + NameOff);
  }

  Cubin Result(*A);
  auto sectionBytes = [&](const RawSection &S) {
    return std::vector<uint8_t>(Image.begin() + S.Offset,
                                Image.begin() + S.Offset + S.Size);
  };
  // Sections sorted by name, stably so the first of a name wins: a
  // kernel's info and constant sections are found without a scan each.
  std::vector<const RawSection *> ByName(Raw.size());
  for (size_t I = 0; I < Raw.size(); ++I)
    ByName[I] = &Raw[I];
  std::stable_sort(ByName.begin(), ByName.end(),
                   [](const RawSection *L, const RawSection *R) {
                     return L->Name < R->Name;
                   });
  std::string Key;
  auto findRaw = [&](std::string_view Prefix,
                     std::string_view Name) -> const RawSection * {
    Key.assign(Prefix).append(Name);
    auto It = std::lower_bound(
        ByName.begin(), ByName.end(), std::string_view(Key),
        [](const RawSection *S, std::string_view N) { return S->Name < N; });
    return It != ByName.end() && (*It)->Name == Key ? *It : nullptr;
  };

  Result.Kernels.reserve(ShNum / 3);
  for (const RawSection &S : Raw) {
    constexpr std::string_view Prefix = ".text.";
    if (S.Name.substr(0, Prefix.size()) != Prefix)
      continue;
    KernelSection Kernel;
    Kernel.Name = std::string(S.Name.substr(Prefix.size()));
    Kernel.Code = sectionBytes(S);

    if (const RawSection *Info = findRaw(".nv.info.", Kernel.Name)) {
      if (Info->Size >= NvInfoSize) {
        Kernel.NumRegisters = R.u32(Info->Offset);
        Kernel.SharedMemBytes = R.u32(Info->Offset + 4);
        Kernel.LocalMemBytes = R.u32(Info->Offset + 8);
      }
    }
    if (const RawSection *C0 = findRaw(".nv.constant0.", Kernel.Name))
      Kernel.Constant0 = sectionBytes(*C0);
    Result.addKernel(std::move(Kernel));
  }
  return Result;
}

bool elf::findTextSection(const std::vector<uint8_t> &Image,
                          const std::string &KernelName, size_t &Offset,
                          size_t &Size) {
  ByteReader R(Image);
  if (Image.size() < EhdrSize || Image[0] != 0x7f)
    return false;
  uint64_t ShOff = R.u64(40);
  uint16_t ShNum = R.u16(60);
  uint16_t ShStrIdx = R.u16(62);
  if (!R.inRange(ShOff, static_cast<size_t>(ShNum) * ShdrSize) ||
      ShStrIdx >= ShNum)
    return false;
  uint64_t ShStrOff = R.u64(ShOff + ShStrIdx * ShdrSize + 24);
  const std::string Wanted = ".text." + KernelName;
  for (uint16_t I = 0; I < ShNum; ++I) {
    size_t Base = ShOff + I * ShdrSize;
    if (R.cstr(ShStrOff + R.u32(Base)) != Wanted)
      continue;
    Offset = R.u64(Base + 24);
    Size = R.u64(Base + 32);
    return R.inRange(Offset, Size);
  }
  return false;
}

Error elf::patchTextSection(std::vector<uint8_t> &Image,
                            const std::string &KernelName, size_t ByteOffset,
                            const std::vector<uint8_t> &Bytes) {
  size_t Offset = 0, Size = 0;
  if (!findTextSection(Image, KernelName, Offset, Size))
    return Error::failure("cubin: no .text section for kernel '" +
                          KernelName + "'");
  if (ByteOffset + Bytes.size() > Size)
    return Error::failure("cubin: patch range exceeds .text." + KernelName);
  std::memcpy(Image.data() + Offset + ByteOffset, Bytes.data(), Bytes.size());
  return Error::success();
}

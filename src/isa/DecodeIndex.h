//===- isa/DecodeIndex.h - Opcode-dispatch index for decode -----*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decode-side twin of the assembler's FrozenIndex: a per-arch dispatch
/// table built once from the hidden spec, so ArchSpec::match is one table
/// lookup plus a short masked-compare list instead of a scan of every form.
///
/// The selector is the set of opcode bits every form fixes (the AND of the
/// forms' opcode masks), at most MaxSelectorBits of them, the highest kept.
/// The low instruction word's selector bits index a first-level table of
/// 2^k buckets (CSR layout). Because every form fixes every selector bit, a
/// word can only match the forms whose OpcodeValue carries the same
/// selector value, so each form lands in exactly one bucket and a miss in
/// the bucket is a definitive "no form matches". Forms that share no fixed
/// bit give a single bucket: the linear scan.
///
/// Entries within a bucket keep the original Instrs order, making the
/// index's first match identical to the linear scan's — including on
/// deliberately ambiguous hand-built specs.
///
/// The index borrows InstrSpec pointers from the vector it was built from:
/// it is a view, valid only while that vector is alive and unmodified.
///
/// FIREWALL: like Spec.h, nothing under src/analyzer, src/asmgen, src/ir,
/// src/transform or src/vm may include this header.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ISA_DECODEINDEX_H
#define DCB_ISA_DECODEINDEX_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dcb {
namespace isa {

struct InstrSpec;

class DecodeIndex {
public:
  /// Upper bound on first-level table size: 2^12 buckets.
  static constexpr unsigned MaxSelectorBits = 12;

  /// An unbuilt index; built() is false and nothing may be matched.
  DecodeIndex() = default;
  explicit DecodeIndex(const std::vector<InstrSpec> &Instrs);

  bool built() const { return !BucketStart.empty(); }

  /// Returns the first form (in original table order) whose opcode pattern
  /// matches the low 64 bits \p Low, or nullptr. Only the low word carries
  /// opcode bits on every supported generation (128-bit Volta included).
  const InstrSpec *match(uint64_t Low) const {
    size_t B = bucketOf(Low);
    for (uint32_t I = BucketStart[B], E = BucketStart[B + 1]; I != E; ++I)
      if ((Low & Entries[I].Mask) == Entries[I].Value)
        return Entries[I].Spec;
    return nullptr;
  }

  /// match() plus the number of masked-compare entries inspected — the
  /// telemetry variant feeding the `isa.decode.bucket_scan` histogram.
  struct Counted {
    const InstrSpec *Spec = nullptr;
    uint32_t ScanLen = 0;
  };
  Counted matchCounted(uint64_t Low) const {
    size_t B = bucketOf(Low);
    uint32_t Start = BucketStart[B], E = BucketStart[B + 1];
    for (uint32_t I = Start; I != E; ++I)
      if ((Low & Entries[I].Mask) == Entries[I].Value)
        return {Entries[I].Spec, I - Start + 1};
    return {nullptr, E - Start};
  }

  // --- Introspection (tests, docs, bench reports, the index linter) -------
  unsigned numSelectorBits() const {
    return static_cast<unsigned>(SelBits.size());
  }
  size_t numBuckets() const { return BucketStart.size() - 1; }
  /// Longest masked-compare list any word can hit.
  size_t maxBucketLen() const;

  /// Selector bit positions, ascending. Empty for a 1-bucket index.
  const std::vector<uint8_t> &selectorBits() const { return SelBits; }

  /// The bucket a low word dispatches to.
  size_t bucketIndexOf(uint64_t Low) const { return bucketOf(Low); }

  /// One bucket entry exposed for auditing, in scan order.
  struct EntryView {
    uint64_t Value = 0;
    uint64_t Mask = 0;
    const InstrSpec *Spec = nullptr;
  };
  std::vector<EntryView> bucketEntries(size_t Bucket) const;

private:
  struct Entry {
    uint64_t Value = 0;
    uint64_t Mask = 0;
    const InstrSpec *Spec = nullptr;
  };

  /// One maximal run of adjacent selector bits, pre-positioned so the
  /// gather is a single shift-and-mask. Opcode bits cluster in practice,
  /// so a whole index is typically one or two runs — the reason bucketOf
  /// is not a per-bit loop.
  struct Gather {
    uint8_t Shift = 0;
    uint64_t Mask = 0;
  };

  size_t bucketOf(uint64_t Low) const {
    size_t Idx = 0;
    for (const Gather &G : Gathers)
      Idx |= (Low >> G.Shift) & G.Mask;
    return Idx;
  }

  std::vector<uint8_t> SelBits;      ///< Selector bit positions, ascending.
  std::vector<Gather> Gathers;       ///< Run-compressed form of SelBits.
  std::vector<uint32_t> BucketStart; ///< CSR: 2^k + 1 offsets into Entries.
  std::vector<Entry> Entries;
};

} // namespace isa
} // namespace dcb

#endif // DCB_ISA_DECODEINDEX_H

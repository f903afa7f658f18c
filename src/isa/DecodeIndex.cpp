//===- isa/DecodeIndex.cpp ------------------------------------------------===//

#include "isa/DecodeIndex.h"

#include "isa/Spec.h"

#include <algorithm>

using namespace dcb;
using namespace dcb::isa;

DecodeIndex::DecodeIndex(const std::vector<InstrSpec> &Instrs) {
  // The selector: the bits every form fixes (none for an empty spec), the
  // highest MaxSelectorBits of them when there are more.
  uint64_t Fixed = Instrs.empty() ? 0 : ~uint64_t(0);
  for (const InstrSpec &Spec : Instrs)
    Fixed &= Spec.OpcodeMask;
  for (unsigned Bit = 0; Bit < 64; ++Bit)
    if ((Fixed >> Bit) & 1)
      SelBits.push_back(static_cast<uint8_t>(Bit));
  if (SelBits.size() > MaxSelectorBits)
    SelBits.erase(SelBits.begin(), SelBits.end() - MaxSelectorBits);

  // Index bit I is the I-th lowest selector bit. Maximal runs of adjacent
  // positions compress into single shift-and-mask gathers — the hot-path
  // bucketOf does one shift/AND/OR per run instead of one per bit.
  for (size_t I = 0; I < SelBits.size();) {
    size_t RunLen = 1;
    while (I + RunLen < SelBits.size() &&
           SelBits[I + RunLen] == SelBits[I] + RunLen)
      ++RunLen;
    Gather G;
    G.Shift = static_cast<uint8_t>(SelBits[I] - I);
    G.Mask = ((uint64_t(1) << RunLen) - 1) << I;
    Gathers.push_back(G);
    I += RunLen;
  }

  // CSR table by counting sort: every form fixes every selector bit, so it
  // belongs to the one bucket its OpcodeValue dispatches to. Entries are
  // placed in Instrs order, so the index's first match reproduces the
  // linear scan's exactly.
  const size_t NumBuckets = size_t(1) << SelBits.size();
  BucketStart.assign(NumBuckets + 1, 0);
  for (const InstrSpec &Spec : Instrs)
    ++BucketStart[bucketOf(Spec.OpcodeValue) + 1];
  for (size_t B = 0; B < NumBuckets; ++B)
    BucketStart[B + 1] += BucketStart[B];
  std::vector<uint32_t> Next(BucketStart.begin(), BucketStart.end() - 1);
  Entries.resize(Instrs.size());
  for (const InstrSpec &Spec : Instrs)
    Entries[Next[bucketOf(Spec.OpcodeValue)]++] = {Spec.OpcodeValue,
                                                   Spec.OpcodeMask, &Spec};
}

size_t DecodeIndex::maxBucketLen() const {
  size_t Max = 0;
  for (size_t B = 0; B + 1 < BucketStart.size(); ++B)
    Max = std::max<size_t>(Max, BucketStart[B + 1] - BucketStart[B]);
  return Max;
}

std::vector<DecodeIndex::EntryView>
DecodeIndex::bucketEntries(size_t Bucket) const {
  std::vector<EntryView> Views;
  if (Bucket + 1 >= BucketStart.size())
    return Views;
  for (uint32_t I = BucketStart[Bucket], E = BucketStart[Bucket + 1]; I != E;
       ++I)
    Views.push_back({Entries[I].Value, Entries[I].Mask, Entries[I].Spec});
  return Views;
}

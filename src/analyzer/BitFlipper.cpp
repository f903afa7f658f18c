//===- analyzer/BitFlipper.cpp --------------------------------------------===//

#include "analyzer/BitFlipper.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_map>

using namespace dcb;
using namespace dcb::analyzer;

namespace {

/// Registry twins of the per-round RoundStats fields, plus round latency.
/// RoundStats stays the API-visible record; these feed the global `--stats`
/// view and let tests check that the two bookkeepings agree.
struct FlipTelemetry {
  telemetry::Counter &Rounds = telemetry::counter("bitflip.rounds");
  telemetry::Counter &VariantsTried =
      telemetry::counter("bitflip.variants_tried");
  telemetry::Counter &Accepted = telemetry::counter("bitflip.accepted");
  telemetry::Counter &Rejected = telemetry::counter("bitflip.rejected");
  telemetry::Counter &Crashes = telemetry::counter("bitflip.crashes");
  telemetry::Counter &CacheHits = telemetry::counter("bitflip.cache_hits");
  telemetry::Counter &NewOperations =
      telemetry::counter("bitflip.new_operations");
  telemetry::Histogram &RoundNs = telemetry::histogram("bitflip.round_ns");
} FlipTel;

using KernelEntry = std::map<std::string, std::vector<uint8_t>>::value_type;

/// Dedup-cache key for one variant: the patch site (kernel entry and
/// address) plus the patched word, up to 128 bits as two halves.
struct VariantKey {
  const KernelEntry *Kernel;
  uint64_t Addr;
  uint64_t Lo;
  uint64_t Hi;

  bool operator==(const VariantKey &) const = default;
};

/// The variants trialled so far in a run: an open-addressed table of
/// VariantKeys (linear probing, power-of-two capacity, at most half full),
/// so a fresh variant takes a slot instead of a heap node. A null Kernel
/// marks an empty slot.
class VariantSet {
public:
  /// Makes room for \p Keys keys in all without growing.
  void reserve(size_t Keys) {
    if (2 * Keys > Slots.size())
      rehash(std::bit_ceil(2 * Keys));
  }

  /// Adds \p K; false when it was already present.
  bool insert(const VariantKey &K) {
    assert(K.Kernel && "a variant names its kernel");
    if (2 * (Size + 1) > Slots.size())
      rehash(std::max<size_t>(1024, 2 * Slots.size()));
    VariantKey &Slot = find(K);
    if (Slot.Kernel)
      return false;
    Slot = K;
    ++Size;
    return true;
  }

private:
  std::vector<VariantKey> Slots;
  size_t Size = 0;

  static size_t hash(const VariantKey &K) {
    uint64_t H = reinterpret_cast<uintptr_t>(K.Kernel);
    for (uint64_t Part : {K.Addr, K.Lo, K.Hi}) {
      H = (H ^ Part) * 0x9e3779b97f4a7c15ull;
      H ^= H >> 32;
    }
    return static_cast<size_t>(H);
  }

  /// The slot holding \p K, or the empty slot where it belongs.
  VariantKey &find(const VariantKey &K) {
    const size_t Mask = Slots.size() - 1;
    for (size_t I = hash(K) & Mask;; I = (I + 1) & Mask)
      if (!Slots[I].Kernel || Slots[I] == K)
        return Slots[I];
  }

  void rehash(size_t Capacity) {
    std::vector<VariantKey> Old(Capacity); // Zeroed: every slot empty.
    Old.swap(Slots);
    for (const VariantKey &K : Old)
      if (K.Kernel)
        find(K) = K;
  }
};

} // namespace

struct BitFlipper::Trial {
  enum Outcome { Crash, Reject, Accept };
  Outcome Result = Reject;
  ListingInst Pair; ///< Valid when Result == Accept.
};

BitFlipper::Trial BitFlipper::runTrial(const std::string &KernelName,
                                       std::vector<uint8_t> &Code,
                                       uint64_t Addr, const BitString &Word,
                                       unsigned FlipBit) const {
  Trial T;
  const unsigned PatchBytes = Word.size() / 8;
  // Addr comes from the database file, so Addr + PatchBytes may wrap.
  if (PatchBytes > Code.size() || Addr > Code.size() - PatchBytes)
    return T; // Rejected: the exemplar does not fit this kernel.

  // Patch in place and restore on every exit path — \p Code is a reusable
  // scratch buffer, not a throwaway copy. The word's bytes are
  // little-endian, so its bit FlipBit is bit FlipBit % 8 of byte
  // FlipBit / 8.
  uint8_t Saved[16];
  assert(PatchBytes <= sizeof(Saved) && "word wider than 128 bits");
  assert(FlipBit < Word.size() && "flip outside the word");
  std::copy_n(Code.begin() + Addr, PatchBytes, Saved);
  Word.toBytes(Code.data() + Addr);
  Code[Addr + FlipBit / 8] ^= uint8_t(1u << (FlipBit % 8));

  if (WindowDec) {
    // Print-free fast path: consume the decoded instruction directly,
    // skipping the listing print -> parse round trip. The decoder fails on
    // exactly the words the text path would fail on (decode error, or a
    // rendering that would not re-parse), so outcomes are identical.
    Expected<WindowDecode> D = WindowDec(KernelName, Code, Addr);
    std::copy_n(Saved, PatchBytes, Code.begin() + Addr);
    if (!D) {
      T.Result = Trial::Crash;
      return T;
    }
    if (!D->HasPair || D->Pair.Address != Addr)
      return T; // Rejected: a SCHI position, no instruction to learn from.
    T.Result = Trial::Accept;
    T.Pair = std::move(D->Pair);
    return T;
  }

  Expected<std::string> Text = WindowDisasm
                                   ? WindowDisasm(KernelName, Code, Addr)
                                   : Disassembler(KernelName, Code);
  std::copy_n(Saved, PatchBytes, Code.begin() + Addr);

  if (!Text) {
    // The closed-source disassembler "crashed" on the variant; discard it
    // (paper §III-B).
    T.Result = Trial::Crash;
    return T;
  }

  // The listing parser needs the architecture header line.
  std::string Full = std::string("code for ") +
                     archName(Analyzer.database().arch()) + "\n" + *Text;
  Expected<Listing> L = parseListing(Full);
  if (!L) {
    T.Result = Trial::Crash;
    return T;
  }

  for (ListingKernel &Kernel : L->Kernels) {
    for (ListingInst &Pair : Kernel.Insts) {
      if (Pair.Address != Addr)
        continue;
      T.Result = Trial::Accept;
      T.Pair = std::move(Pair);
      return T;
    }
  }
  return T; // Rejected: decoded, but no instruction at the patched address.
}

std::vector<BitFlipper::RoundStats> BitFlipper::run(
    const std::map<std::string, std::vector<uint8_t>> &KernelCode,
    const Options &Opts) {
  std::vector<RoundStats> Rounds;
  EncodingDatabase::Stats Last = Analyzer.database().stats();

  // Patchable copies of each kernel's code, created on first use and
  // restored after every trial, so no variant pays a whole-kernel copy.
  std::unordered_map<const KernelEntry *, std::vector<uint8_t>> Scratch;

  // Variants already trialled this run. Rounds re-enumerate every
  // exemplar, but a variant's trial outcome cannot change within a run,
  // so re-disassembling it would be pure waste.
  VariantSet Tried;

  for (unsigned Round = 0; Round < Opts.MaxRounds; ++Round) {
    telemetry::ScopedSpan RoundSpan("bitflip.round");
    const uint64_t RoundStart = telemetry::nowNs();
    RoundStats Stats;

    // Snapshot the exemplars first: analyzing variants mutates the
    // operation map we are iterating conceptually. The flipper only reads
    // the map, so it keeps the analyzer's id index alive.
    const EncodingDatabase &Db = Analyzer.database();
    struct Exemplar {
      const KernelEntry *Kernel;
      uint64_t Addr;
      BitString Word;
      BitString SkipBits;
    };
    std::vector<Exemplar> Exemplars;
    size_t Variants = 0;
    for (const auto &[Key, Op] : Db.operations()) {
      auto Kernel = KernelCode.find(Op.ExemplarKernel);
      if (Op.ExemplarWord.empty() || Kernel == KernelCode.end())
        continue;
      Exemplar E;
      E.Kernel = &*Kernel;
      E.Addr = Op.ExemplarAddr;
      E.Word = Op.ExemplarWord;
      if (Opts.SkipConsistentBits)
        E.SkipBits = Op.Opcode.Bits;
      Variants += std::min(FlipBits, E.Word.size());
      Exemplars.push_back(std::move(E));
    }
    // Round 1's variants are nearly all fresh; later rounds mostly repeat.
    if (Round == 0)
      Tried.reserve(Variants);

    // Trial every variant in the canonical (exemplar index, bit index)
    // order and merge its outcome right away; the dedup cache filters
    // repeats before any work is done.
    for (const Exemplar &E : Exemplars) {
      std::vector<uint8_t> *Code = nullptr; // The kernel's scratch copy.
      unsigned Limit = std::min(FlipBits, E.Word.size());
      for (unsigned Bit = 0; Bit < Limit; ++Bit) {
        if (!E.SkipBits.empty() && E.SkipBits.get(Bit))
          continue;
        ++Stats.VariantsTried;
        VariantKey Key{E.Kernel, E.Addr, E.Word.word(0), E.Word.word(1)};
        Key.Lo ^= uint64_t(1) << Bit;
        if (!Tried.insert(Key)) {
          ++Stats.CacheHits;
          continue;
        }
        if (!Code) {
          auto [It, Fresh] = Scratch.try_emplace(E.Kernel);
          if (Fresh)
            It->second = E.Kernel->second;
          Code = &It->second;
        }
        Trial T = runTrial(E.Kernel->first, *Code, E.Addr, E.Word, Bit);
        switch (T.Result) {
        case Trial::Crash:
          ++Stats.Crashes;
          break;
        case Trial::Reject:
          ++Stats.Rejected;
          break;
        case Trial::Accept: {
          size_t Before = Db.operations().size();
          Analyzer.analyzeInst(T.Pair, E.Kernel->first);
          if (Db.operations().size() > Before)
            ++Stats.NewOperations;
          ++Stats.Accepted;
          break;
        }
        }
      }
    }
    assert(Stats.VariantsTried == Stats.Crashes + Stats.Accepted +
                                      Stats.Rejected + Stats.CacheHits &&
           "RoundStats do not account for every variant");

#ifndef NDEBUG
    const uint64_t TriedBefore = FlipTel.VariantsTried.value();
    const uint64_t OutcomesBefore = FlipTel.Crashes.value() +
                                    FlipTel.Accepted.value() +
                                    FlipTel.Rejected.value() +
                                    FlipTel.CacheHits.value();
#endif
    // Mirror the round's tallies into the registry (one add per field per
    // round, never per variant).
    FlipTel.Rounds.add();
    FlipTel.VariantsTried.add(Stats.VariantsTried);
    FlipTel.Accepted.add(Stats.Accepted);
    FlipTel.Rejected.add(Stats.Rejected);
    FlipTel.Crashes.add(Stats.Crashes);
    FlipTel.CacheHits.add(Stats.CacheHits);
    FlipTel.NewOperations.add(Stats.NewOperations);
    FlipTel.RoundNs.record(telemetry::nowNs() - RoundStart);
#ifndef NDEBUG
    // The registry deltas must preserve the RoundStats invariant: every
    // variant tried this round is accounted for by exactly one outcome.
    assert(FlipTel.VariantsTried.value() - TriedBefore ==
               FlipTel.Crashes.value() + FlipTel.Accepted.value() +
                   FlipTel.Rejected.value() + FlipTel.CacheHits.value() -
                   OutcomesBefore &&
           "registry counters diverged from RoundStats");
#endif

    Stats.After = Db.stats();
    Rounds.push_back(Stats);
    if (Stats.After == Last)
      break; // Converged: nothing new was learned this round.
    Last = Stats.After;
  }
  return Rounds;
}

//===- analyzer/BitFlipper.cpp --------------------------------------------===//

#include "analyzer/BitFlipper.h"

#include "support/TaskPool.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

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

struct VariantKeyHash {
  size_t operator()(const VariantKey &K) const {
    uint64_t H = reinterpret_cast<uintptr_t>(K.Kernel);
    for (uint64_t Part : {K.Addr, K.Lo, K.Hi}) {
      H = (H ^ Part) * 0x9e3779b97f4a7c15ull;
      H ^= H >> 32;
    }
    return static_cast<size_t>(H);
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
  if (Addr + PatchBytes > Code.size())
    return T; // Rejected: the exemplar does not fit this kernel.

  // Patch in place and restore on every exit path — \p Code is a reusable
  // per-lane scratch buffer, not a throwaway copy. The word's bytes are
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

  TaskPool Pool(Opts.NumThreads);

  // Per-lane patchable copies of each kernel's code, created on first use
  // and restored after every trial, so no variant pays a whole-kernel copy.
  std::vector<std::unordered_map<const KernelEntry *, std::vector<uint8_t>>>
      LaneCode(Pool.numThreads());

  // Variants already trialled this run. Rounds re-enumerate every
  // exemplar, but a variant's trial outcome cannot change within a run,
  // so re-disassembling it would be pure waste.
  std::unordered_set<VariantKey, VariantKeyHash> Tried;

  for (unsigned Round = 0; Round < Opts.MaxRounds; ++Round) {
    telemetry::ScopedSpan RoundSpan("bitflip.round");
    const uint64_t RoundStart = telemetry::nowNs();
    RoundStats Stats;

    // Snapshot the exemplars first: analyzing variants mutates the
    // operation map we are iterating conceptually.
    struct Exemplar {
      const KernelEntry *Kernel;
      uint64_t Addr;
      BitString Word;
      std::vector<bool> SkipBits;
    };
    std::vector<Exemplar> Exemplars;
    for (const auto &[Key, Op] : Analyzer.database().operations()) {
      auto Kernel = KernelCode.find(Op.ExemplarKernel);
      if (Op.ExemplarWord.empty() || Kernel == KernelCode.end())
        continue;
      Exemplar E;
      E.Kernel = &*Kernel;
      E.Addr = Op.ExemplarAddr;
      E.Word = Op.ExemplarWord;
      if (Opts.SkipConsistentBits)
        E.SkipBits = Op.Opcode.Bits;
      Exemplars.push_back(std::move(E));
    }

    // Enumerate this round's variant jobs in the canonical
    // (exemplar index, bit index) order; the dedup cache filters repeats
    // before any work is queued.
    struct Job {
      const Exemplar *E;
      unsigned Bit;
    };
    std::vector<Job> Jobs;
    for (const Exemplar &E : Exemplars) {
      const unsigned Bits = E.Word.size();
      const uint64_t Lo = E.Word.field(0, std::min(64u, Bits));
      const uint64_t Hi = Bits > 64 ? E.Word.field(64, Bits - 64) : 0;
      unsigned Limit = std::min(Opts.MaxFlipBit, Bits);
      for (unsigned Bit = 0; Bit < Limit; ++Bit) {
        if (!E.SkipBits.empty() && E.SkipBits[Bit])
          continue;
        ++Stats.VariantsTried;
        VariantKey Key{E.Kernel, E.Addr, Lo, Hi};
        (Bit < 64 ? Key.Lo : Key.Hi) ^= uint64_t(1) << (Bit % 64);
        if (!Tried.insert(Key).second) {
          ++Stats.CacheHits;
          continue;
        }
        Jobs.push_back(Job{&E, Bit});
      }
    }

    // Fan the side-effect-free trials across the pool. Each lane owns its
    // scratch buffers; nothing else is written concurrently.
    std::vector<Trial> Trials(Jobs.size());
    {
      telemetry::ScopedSpan TrialsSpan("bitflip.trials");
      Pool.parallelFor(Jobs.size(), [&](unsigned Lane, size_t Idx) {
        const Exemplar &E = *Jobs[Idx].E;
        auto [It, Fresh] = LaneCode[Lane].try_emplace(E.Kernel);
        if (Fresh)
          It->second = E.Kernel->second;
        Trials[Idx] = runTrial(E.Kernel->first, It->second, E.Addr, E.Word,
                               Jobs[Idx].Bit);
      });
    }

    // Merge serially in job order: the learned database is bit-for-bit
    // independent of NumThreads and of the pool's scheduling.
    telemetry::ScopedSpan MergeSpan("bitflip.merge");
    for (size_t Idx = 0; Idx < Trials.size(); ++Idx) {
      Trial &T = Trials[Idx];
      switch (T.Result) {
      case Trial::Crash:
        ++Stats.Crashes;
        break;
      case Trial::Reject:
        ++Stats.Rejected;
        break;
      case Trial::Accept: {
        size_t Before = Analyzer.database().operations().size();
        Analyzer.analyzeInst(T.Pair, Jobs[Idx].E->Kernel->first);
        if (Analyzer.database().operations().size() > Before)
          ++Stats.NewOperations;
        ++Stats.Accepted;
        break;
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

    Stats.After = Analyzer.database().stats();
    Rounds.push_back(Stats);
    if (Stats.After == Last)
      break; // Converged: nothing new was learned this round.
    Last = Stats.After;
  }
  return Rounds;
}

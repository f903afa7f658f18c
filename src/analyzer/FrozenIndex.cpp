//===- analyzer/FrozenIndex.cpp - Database freeze step --------------------===//

#include "analyzer/FrozenIndex.h"

#include "analyzer/IsaAnalyzer.h"
#include "analyzer/ModifierTypes.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>

using namespace dcb;
using namespace dcb::analyzer;

PackedPattern analyzer::packPattern(const PatternRec &Rec) {
  PackedPattern P;
  static_assert(PackedPattern::MaxWords == BitString::NumWords,
                "packed patterns cover exactly the widest word");
  // A started-but-empty pattern still applies as a no-op.
  P.NumWords = std::max(1u, (Rec.Bits.size() + 63) / 64);
  for (unsigned W = 0; W < PackedPattern::MaxWords; ++W) {
    P.Mask[W] = Rec.Bits.word(W);
    P.Value[W] = Rec.Binary.word(W) & P.Mask[W];
  }
  return P;
}

FrozenIndex::FrozenIndex(const std::map<std::string, OperationRec> &Ops) {
  SymbolTable &Syms = SymbolTable::global();
  Map.reserve(Ops.size());
  for (const auto &[Key, Op] : Ops) {
    (void)Key;
    // A mnemonic the full table refuses names no instruction; skip it.
    const OperationKeyId Id = operationKeyId(Op.Mnemonic, Op.Signature);
    if (Id.Mnemonic == InvalidSymbolId)
      continue;
    FrozenOperation Frozen;
    Frozen.Opcode = packPattern(Op.Opcode);
    const Flow OpFlow = flowOf(Id.Mnemonic);

    Frozen.Mods.reserve(Op.Mods.size());
    for (const auto &[NameOcc, Rec] : Op.Mods) {
      FrozenMod M;
      M.Name = Syms.intern(NameOcc.first);
      M.Type = Syms.intern(modifierType(NameOcc.first));
      M.Occurrence = NameOcc.second;
      M.Pattern = packPattern(Rec);
      Frozen.Mods.push_back(M);
    }

    Frozen.Operands.reserve(Op.Operands.size());
    for (const OperandRec &Operand : Op.Operands) {
      FrozenOperand F;
      F.SigChar = Operand.SigChar;
      for (const auto &[Ch, Rec] : Operand.Unaries) {
        int Slot = FrozenOperand::unarySlot(Ch);
        assert(Slot >= 0 && "unknown unary operator in learned records");
        if (Slot >= 0)
          F.Unaries[Slot] = packPattern(Rec);
      }
      F.Tokens.reserve(Operand.Tokens.size());
      for (const auto &[Name, Rec] : Operand.Tokens)
        F.Tokens.emplace_back(Syms.intern(Name), packPattern(Rec));
      F.Mods.reserve(Operand.Mods.size());
      for (const auto &[Name, Rec] : Operand.Mods)
        F.Mods.emplace_back(Syms.intern(Name), packPattern(Rec));
      F.CompWindows.reserve(Operand.Comps.size());
      for (size_t C = 0; C < Operand.Comps.size(); ++C)
        F.CompWindows.push_back(Operand.Comps[C].collectWindows(
            interpKindsFor(Operand.SigChar, static_cast<unsigned>(C),
                           OpFlow)));
      Frozen.Operands.push_back(std::move(F));
    }

    Frozen.GuardWindows = Op.Guard.collectWindows({InterpKind::Plain});

    Map.emplace(Id, std::move(Frozen));
  }
}

// --- EncodingDatabase freeze plumbing --------------------------------------
//
// Lives here rather than in Database.cpp so the (de)serialization unit does
// not pull in the index; the database header only forward-declares
// FrozenIndex.

EncodingDatabase::EncodingDatabase(Arch A)
    : A(A), WordBits(archWordBits(A)) {}

EncodingDatabase::~EncodingDatabase() = default;

EncodingDatabase::EncodingDatabase(const EncodingDatabase &O)
    : A(O.A), WordBits(O.WordBits), Ops(O.Ops) {}

EncodingDatabase::EncodingDatabase(EncodingDatabase &&O) noexcept
    : A(O.A), WordBits(O.WordBits), Ops(std::move(O.Ops)) {
  O.thaw();
}

EncodingDatabase &EncodingDatabase::operator=(const EncodingDatabase &O) {
  if (this != &O) {
    thaw();
    A = O.A;
    WordBits = O.WordBits;
    Ops = O.Ops;
  }
  return *this;
}

EncodingDatabase &EncodingDatabase::operator=(EncodingDatabase &&O) noexcept {
  if (this != &O) {
    thaw();
    A = O.A;
    WordBits = O.WordBits;
    Ops = std::move(O.Ops);
    O.thaw();
  }
  return *this;
}

const FrozenIndex &EncodingDatabase::freeze() const {
  if (const FrozenIndex *Existing = FrozenPtr.load(std::memory_order_acquire))
    return *Existing;
  std::lock_guard<std::mutex> Lock(FreezeM);
  if (!FrozenStore) {
    DCB_SPAN("db.freeze");
    uint64_t Start = telemetry::nowNs();
    FrozenStore = std::make_unique<FrozenIndex>(Ops);
    telemetry::histogram("db.freeze_ns").record(telemetry::nowNs() - Start);
    telemetry::gauge("db.frozen_index.operations")
        .set(static_cast<int64_t>(FrozenStore->size()));
  }
  FrozenPtr.store(FrozenStore.get(), std::memory_order_release);
  return *FrozenStore;
}

void EncodingDatabase::thaw() {
  if (!IdIndex.empty())
    IdIndex.clear();
  dropFrozen();
}

void EncodingDatabase::dropFrozen() {
  // Learning calls this once per instruction; skip the lock in the common
  // never-frozen case. (Thawing concurrently with freeze() or with readers
  // is already a documented data race on Ops itself.)
  if (!FrozenPtr.load(std::memory_order_relaxed) && !FrozenStore)
    return;
  std::lock_guard<std::mutex> Lock(FreezeM);
  FrozenPtr.store(nullptr, std::memory_order_release);
  FrozenStore.reset();
}

//===- analyzer/IsaAnalyzer.h - Algorithms 1 & 2 ----------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ISA Analyzer: consumes {assembly, binary} pairs and maintains the
/// list of known operation encodings. This is the paper's Algorithm 1
/// (AnalyzeInst: opcode bits, guard, modifiers) and Algorithm 2
/// (AnalyzeOperand: unary operators and value-component window search).
///
/// FIREWALL: this library never sees the hidden tables in src/isa — its
/// only inputs are disassembler listings.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ANALYZER_ISAANALYZER_H
#define DCB_ANALYZER_ISAANALYZER_H

#include "analyzer/Listing.h"
#include "analyzer/Records.h"
#include "analyzer/Signature.h"
#include "support/Arch.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace dcb {
namespace analyzer {

class FrozenIndex;

/// The set of learned operation encodings for one architecture.
///
/// Two access regimes:
///  - *learning*: records are accumulated in the operations() map, keyed
///    by operation string for the serialized artifact's sake. The analyzer
///    finds an instruction's record through an id index beside the map
///    (OperationKeyId -> record), built on first use;
///  - *serving*: freeze() derives an id-indexed FrozenIndex (integer keys,
///    precomputed windows) that assembly lanes share read-only.
/// Mutable operations() access discards both indexes; freezing is cheap
/// relative to one learning round, so freeze-after-learn is the expected
/// rhythm. Do not mutate the database while other threads assemble with it.
class EncodingDatabase {
public:
  explicit EncodingDatabase(Arch A = Arch::SM35);
  ~EncodingDatabase();

  /// Copies and moves transfer the learned records only; the indexes are
  /// views tied to one database instance and are rebuilt on demand.
  EncodingDatabase(const EncodingDatabase &O);
  EncodingDatabase(EncodingDatabase &&O) noexcept;
  EncodingDatabase &operator=(const EncodingDatabase &O);
  EncodingDatabase &operator=(EncodingDatabase &&O) noexcept;

  Arch arch() const { return A; }
  unsigned wordBits() const { return WordBits; }

  std::map<std::string, OperationRec> &operations() {
    thaw();
    return Ops;
  }
  const std::map<std::string, OperationRec> &operations() const {
    return Ops;
  }

  const OperationRec *lookup(const std::string &Key) const {
    auto It = Ops.find(Key);
    return It == Ops.end() ? nullptr : &It->second;
  }

  /// Builds (or returns) the id-indexed lookup structure. Thread-safe;
  /// concurrent callers share one build.
  const FrozenIndex &freeze() const;

  /// The frozen index, or nullptr when the database is not frozen. A
  /// lock-free read, safe to call per assembled instruction.
  const FrozenIndex *frozen() const {
    return FrozenPtr.load(std::memory_order_acquire);
  }

  /// Aggregate statistics (drive the convergence loop and the benches).
  struct Stats {
    size_t NumOperations = 0;
    size_t NumModifiers = 0;      ///< Across all operations.
    size_t NumUnaries = 0;
    size_t NumTokens = 0;
    size_t NumInstances = 0;
    bool operator==(const Stats &O) const {
      return NumOperations == O.NumOperations &&
             NumModifiers == O.NumModifiers && NumUnaries == O.NumUnaries &&
             NumTokens == O.NumTokens;
    }
  };
  Stats stats() const;

  /// Serializes the learned encodings to a text artifact (the shape of the
  /// paper's Zenodo opcode/operand releases).
  std::string serialize() const;

  /// Reloads a database written by serialize().
  static Expected<EncodingDatabase> deserialize(const std::string &Text);

  /// Drops the frozen index and the id index (if any). Called
  /// automatically when mutable access is handed out.
  void thaw();

private:
  friend class IsaAnalyzer;

  Arch A;
  unsigned WordBits;
  std::map<std::string, OperationRec> Ops;

  /// The learning side's id index: every record by the OperationKeyId of
  /// its mnemonic and signature, with its mnemonic's flow (which fixes its
  /// interpretation kinds). Empty until recordFor builds it; points into
  /// Ops, whose nodes are stable.
  struct IdEntry {
    OperationRec *Rec = nullptr;
    Flow OpFlow = Flow::Sequential;
  };
  std::unordered_map<OperationKeyId, IdEntry, OperationKeyIdHash> IdIndex;

  /// Algorithm 1's record lookup: the entry for \p Inst's operation,
  /// creating an empty record (and setting \p Created) when there is none.
  /// Drops the frozen index, since the caller mutates the record.
  IdEntry &recordFor(const sass::Instruction &Inst, bool &Created);

  /// Drops the frozen index only.
  void dropFrozen();

  /// Freeze state. FrozenPtr mirrors FrozenStore.get() so frozen() is a
  /// single atomic load on the assembly hot path; FreezeM serializes
  /// build/teardown.
  mutable std::atomic<const FrozenIndex *> FrozenPtr{nullptr};
  mutable std::unique_ptr<FrozenIndex> FrozenStore;
  mutable std::mutex FreezeM;
};

/// The analyzer itself.
class IsaAnalyzer {
public:
  explicit IsaAnalyzer(Arch A) : Db(A) {}
  explicit IsaAnalyzer(EncodingDatabase Existing) : Db(std::move(Existing)) {}

  EncodingDatabase &database() { return Db; }
  const EncodingDatabase &database() const { return Db; }

  /// Algorithm 1 entry point: analyzes one {assembly, binary} pair.
  /// \p KernelName tags the exemplar used later by the bit flipper.
  void analyzeInst(const ListingInst &Pair, const std::string &KernelName);

  /// Feeds every instruction of a parsed listing. Returns an error when
  /// the listing's architecture does not match the database.
  Error analyzeListing(const Listing &L);

private:
  EncodingDatabase Db;

  void analyzeOperand(OperandRec &Rec, const sass::Operand &Op,
                      const BitString &Binary, uint64_t Addr, Flow OpFlow);
};

} // namespace analyzer
} // namespace dcb

#endif // DCB_ANALYZER_ISAANALYZER_H

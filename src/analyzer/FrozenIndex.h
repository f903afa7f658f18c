//===- analyzer/FrozenIndex.h - Id-indexed learned encodings ----*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled form of an EncodingDatabase — Algorithm 3's compile step,
/// done once: every `std::map<std::string, …>` the learning side
/// accumulates is re-indexed by interned SymbolId, and every derived
/// quantity that is constant per record — packed patterns, component
/// windows, modifier type ids, unary slots — is computed here and nowhere
/// else. The in-process assembler runs these tables directly, and the
/// assembler generator prints them as the literals of a generated
/// assembler. Built by EncodingDatabase::freeze() after learning finishes
/// and shared read-only across assembly lanes; any later mutation of the
/// database discards it (see EncodingDatabase::operations()).
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ANALYZER_FROZENINDEX_H
#define DCB_ANALYZER_FROZENINDEX_H

#include "analyzer/Records.h"
#include "analyzer/Signature.h"
#include "support/SymbolTable.h"

#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dcb {
namespace analyzer {

/// A (value, mask) bit pattern over up to 128 bits, as little-endian 64-bit
/// words: the compiled form of one PatternRec. The frozen index applies it
/// with whole-word stores, generated assemblers print it as a literal
/// (`gen::GenPattern`), and the database linter compares pairs of them.
/// NumWords is how many words apply; in the index, 0 marks an absent
/// pattern. Literals and the linter set only Value and Mask.
struct PackedPattern {
  static constexpr unsigned MaxWords = 2; ///< Up to 128-bit words (Volta).
  uint64_t Value[MaxWords] = {0, 0};
  uint64_t Mask[MaxWords] = {0, 0};
  unsigned NumWords = 0;

  explicit operator bool() const { return NumWords != 0; }

  bool emptyMask() const { return Mask[0] == 0 && Mask[1] == 0; }

  /// True when some word satisfies both patterns (they agree on every
  /// commonly constrained bit).
  static bool compatible(const PackedPattern &A, const PackedPattern &B) {
    for (unsigned W = 0; W < MaxWords; ++W)
      if (((A.Value[W] ^ B.Value[W]) & (A.Mask[W] & B.Mask[W])) != 0)
        return false;
    return true;
  }

  /// True when every word matching B also matches A: A's constraints are a
  /// subset of B's and the values agree there.
  static bool subsumes(const PackedPattern &A, const PackedPattern &B) {
    for (unsigned W = 0; W < MaxWords; ++W) {
      if ((A.Mask[W] & ~B.Mask[W]) != 0)
        return false;
      if (((A.Value[W] ^ B.Value[W]) & A.Mask[W]) != 0)
        return false;
    }
    return true;
  }
};

/// Packs every still-consistent bit of \p Rec.
PackedPattern packPattern(const PatternRec &Rec);

/// One opcode-attached modifier record, resolved to ids. Type is the
/// interned modifierType() of the name — needed to replay the
/// same-type-occurrence matching of §III-A without string work.
struct FrozenMod {
  SymbolId Name = InvalidSymbolId;
  SymbolId Type = InvalidSymbolId;
  unsigned Occurrence = 0;
  PackedPattern Pattern;
};

/// One operand's id-indexed tables plus precomputed component windows.
struct FrozenOperand {
  /// Slot of a unary-operator char in Unaries: its position in UnaryOps,
  /// so slot order is record order. -1 for non-unary chars.
  static int unarySlot(char Ch) {
    size_t Slot = UnaryOps.find(Ch);
    return Slot == std::string_view::npos ? -1 : static_cast<int>(Slot);
  }

  char SigChar = '?';
  /// Indexed by unarySlot.
  PackedPattern Unaries[4];
  std::vector<std::pair<SymbolId, PackedPattern>> Tokens;
  std::vector<std::pair<SymbolId, PackedPattern>> Mods;
  /// CompWindows[c] = surviving windows of component c under the
  /// interpretation kinds fixed by (SigChar, c, mnemonic).
  std::vector<std::vector<WindowRef>> CompWindows;

  const PackedPattern *findToken(SymbolId Id) const {
    for (const auto &[Sym, Rec] : Tokens)
      if (Sym == Id)
        return &Rec;
    return nullptr;
  }
  const PackedPattern *findMod(SymbolId Id) const {
    for (const auto &[Sym, Rec] : Mods)
      if (Sym == Id)
        return &Rec;
    return nullptr;
  }
};

/// One operation, fully resolved for assembly.
struct FrozenOperation {
  PackedPattern Opcode;
  std::vector<FrozenMod> Mods;
  std::vector<FrozenOperand> Operands;
  std::vector<WindowRef> GuardWindows;

  /// The type id of modifier name \p Id, or InvalidSymbolId when no
  /// occurrence of that name was learned for this operation.
  SymbolId modType(SymbolId Id) const {
    for (const FrozenMod &M : Mods)
      if (M.Name == Id)
        return M.Type;
    return InvalidSymbolId;
  }
  const PackedPattern *findMod(SymbolId Id, unsigned Occurrence) const {
    for (const FrozenMod &M : Mods)
      if (M.Name == Id && M.Occurrence == Occurrence)
        return &M.Pattern;
    return nullptr;
  }
};

/// The whole database, keyed by integer operation key.
class FrozenIndex {
public:
  explicit FrozenIndex(const std::map<std::string, OperationRec> &Ops);

  const FrozenOperation *lookup(const OperationKeyId &Key) const {
    auto It = Map.find(Key);
    return It == Map.end() ? nullptr : &It->second;
  }

  size_t size() const { return Map.size(); }

private:
  std::unordered_map<OperationKeyId, FrozenOperation, OperationKeyIdHash> Map;
};

} // namespace analyzer
} // namespace dcb

#endif // DCB_ANALYZER_FROZENINDEX_H

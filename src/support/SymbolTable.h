//===- support/SymbolTable.h - Bounded, lock-free-read interner -*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe string interner mapping spellings (mnemonics, modifier and
/// token names) to dense SymbolIds. sass::Instruction stores its opcode,
/// modifiers, operand modifiers and special-register names as these ids, so
/// every stage from decode to emission compares integers instead of
/// strings; only the printer and error messages turn ids back into text.
///
/// Ids are dense, stable for the lifetime of the process, and identical
/// across threads (two threads interning the same spelling concurrently get
/// the same id). Ids are *not* stable across processes — nothing serialized
/// may contain one; persisted artifacts always store spellings.
///
/// Hits take no lock: a lookup probes an open-addressing table of atomic
/// slots that are written once, under the insert mutex, after the spelling
/// they point at. The table is bounded in both symbols and bytes, because
/// the SASS parser interns text that `dcb serve` reads from the network;
/// once full, intern() refuses new spellings and the parser reports an
/// error. A whole learn of every architecture interns about 150 spellings
/// in under 1 KB, far below either bound.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SUPPORT_SYMBOLTABLE_H
#define DCB_SUPPORT_SYMBOLTABLE_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>

namespace dcb {

/// Dense identifier of one interned spelling.
using SymbolId = uint32_t;

/// The id no spelling ever receives; returned by SymbolTable::find on miss
/// and by SymbolTable::intern when the table is full.
constexpr SymbolId InvalidSymbolId = ~SymbolId(0);

class SymbolTable {
public:
  /// Most spellings one table holds.
  static constexpr uint32_t MaxSymbols = 1u << 14;
  /// Most spelling bytes one table holds.
  static constexpr uint32_t MaxBytes = 1u << 19;

  SymbolTable();
  SymbolTable(const SymbolTable &) = delete;
  SymbolTable &operator=(const SymbolTable &) = delete;

  /// The process-wide table the SASS parser and the assembly pipeline
  /// share. A single table keeps ids comparable across databases.
  static SymbolTable &global();

  /// Returns the id of \p Spelling, interning it if new, or InvalidSymbolId
  /// when it is new and the table is full.
  SymbolId intern(std::string_view Spelling);

  /// Returns the id of \p Spelling, or InvalidSymbolId if it was never
  /// interned. Never mutates the table.
  SymbolId find(std::string_view Spelling) const;

  /// The spelling of \p Id, which must come from this table; the empty
  /// spelling for InvalidSymbolId.
  std::string_view spelling(SymbolId Id) const {
    if (Id == InvalidSymbolId)
      return std::string_view();
    assert(Id < size() && "spelling of a foreign SymbolId");
    return std::string_view(Entries[Id].Data, Entries[Id].Len);
  }

  /// Number of interned spellings.
  size_t size() const { return Count.load(std::memory_order_acquire); }

private:
  /// Twice MaxSymbols, so probes stay short at the bound.
  static constexpr uint32_t NumSlots = 2 * MaxSymbols;

  struct Entry {
    const char *Data;
    uint32_t Len;
  };

  /// The slot holding \p Spelling (hashed to \p Hash), or the empty slot
  /// where it would go. Each slot is 0 or id + 1.
  uint32_t probe(std::string_view Spelling, uint64_t Hash,
                 uint32_t &Value) const;

  std::unique_ptr<std::atomic<uint32_t>[]> Slots;
  std::unique_ptr<Entry[]> Entries;
  std::unique_ptr<char[]> Arena;
  std::atomic<uint32_t> Count{0};
  uint32_t UsedBytes = 0; ///< Guarded by InsertM.
  std::mutex InsertM;
};

} // namespace dcb

#endif // DCB_SUPPORT_SYMBOLTABLE_H

//===- support/SymbolTable.cpp --------------------------------------------===//

#include "support/SymbolTable.h"

#include <cstring>

using namespace dcb;

namespace {

/// FNV-1a: spellings are a few bytes long.
uint64_t hashSpelling(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : S) {
    H ^= static_cast<uint8_t>(C);
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace

// The arena and entries are allocated but not written, so only the pages
// that spellings reach become resident.
SymbolTable::SymbolTable()
    : Slots(std::make_unique<std::atomic<uint32_t>[]>(NumSlots)),
      Entries(new Entry[MaxSymbols]), Arena(new char[MaxBytes]) {}

SymbolTable &SymbolTable::global() {
  static SymbolTable Table;
  return Table;
}

uint32_t SymbolTable::probe(std::string_view Spelling, uint64_t Hash,
                            uint32_t &Value) const {
  uint32_t Slot = static_cast<uint32_t>(Hash) & (NumSlots - 1);
  while (true) {
    // Acquire pairs with the release store in intern(): a reader that sees
    // the id also sees its entry and arena bytes.
    Value = Slots[Slot].load(std::memory_order_acquire);
    if (Value == 0)
      return Slot;
    const Entry &E = Entries[Value - 1];
    if (E.Len == Spelling.size() &&
        std::memcmp(E.Data, Spelling.data(), E.Len) == 0)
      return Slot;
    Slot = (Slot + 1) & (NumSlots - 1);
  }
}

SymbolId SymbolTable::intern(std::string_view Spelling) {
  const uint64_t Hash = hashSpelling(Spelling);
  uint32_t Value;
  probe(Spelling, Hash, Value);
  if (Value != 0)
    return Value - 1;
  std::lock_guard<std::mutex> Lock(InsertM);
  // Re-probe: another thread may have interned it before the lock.
  uint32_t Slot = probe(Spelling, Hash, Value);
  if (Value != 0)
    return Value - 1;
  const uint32_t Id = Count.load(std::memory_order_relaxed);
  if (Id == MaxSymbols || Spelling.size() > MaxBytes - UsedBytes)
    return InvalidSymbolId;
  char *Data = Arena.get() + UsedBytes;
  if (!Spelling.empty())
    std::memcpy(Data, Spelling.data(), Spelling.size());
  UsedBytes += static_cast<uint32_t>(Spelling.size());
  Entries[Id] = Entry{Data, static_cast<uint32_t>(Spelling.size())};
  Count.store(Id + 1, std::memory_order_release);
  Slots[Slot].store(Id + 1, std::memory_order_release);
  return Id;
}

SymbolId SymbolTable::find(std::string_view Spelling) const {
  uint32_t Value;
  probe(Spelling, hashSpelling(Spelling), Value);
  return Value - 1; // 0 - 1 is InvalidSymbolId.
}

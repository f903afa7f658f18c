//===- analyzer/ModifierTypes.cpp -----------------------------------------===//

#include "analyzer/ModifierTypes.h"

using namespace dcb;

std::string_view analyzer::modifierType(std::string_view Name) {
  struct Entry {
    std::string_view Name;
    std::string_view Type;
  };
  static const Entry Table[] = {
      // Logic steps (PSETP takes two of these in order).
      {"AND", "LOGIC"},
      {"OR", "LOGIC"},
      {"XOR", "LOGIC"},
      // Comparisons.
      {"LT", "CMP"},
      {"EQ", "CMP"},
      {"LE", "CMP"},
      {"GT", "CMP"},
      {"NE", "CMP"},
      {"GE", "CMP"},
      // Rounding.
      {"RM", "RND"},
      {"RP", "RND"},
      {"RZ", "RND"},
      // Numeric formats (cast instructions take two in order).
      {"F16", "FMT"},
      {"F32", "FMT"},
      {"F64", "FMT"},
      {"U8", "XFMT"},
      {"S8", "XFMT"},
      {"U16", "XFMT"},
      {"S16", "XFMT"},
      {"U32", "XFMT"},
      {"S32", "XFMT"},
      {"U64", "XFMT"},
      {"S64", "XFMT"},
      // Memory widths share the XFMT spellings plus the pure sizes.
      {"64", "SIZE"},
      {"128", "SIZE"},
      // Caches, shuffles, transcendentals, atomics, barriers.
      {"CA", "CACHE"},
      {"CG", "CACHE"},
      {"CS", "CACHE"},
      {"IDX", "SHFL"},
      {"UP", "SHFL"},
      {"DOWN", "SHFL"},
      {"BFLY", "SHFL"},
      {"COS", "MUFU"},
      {"SIN", "MUFU"},
      {"EX2", "MUFU"},
      {"LG2", "MUFU"},
      {"RCP", "MUFU"},
      {"RSQ", "MUFU"},
      {"ADD", "ATOMOP"},
      {"MIN", "ATOMOP"},
      {"MAX", "ATOMOP"},
      {"EXCH", "ATOMOP"},
      {"SYNC", "BARMODE"},
      {"ARV", "BARMODE"},
      {"CTA", "MEMBARLVL"},
      {"GL", "MEMBARLVL"},
      {"SYS", "MEMBARLVL"},
  };
  for (const Entry &E : Table)
    if (Name == E.Name)
      return E.Type;
  return Name; // Unknown modifiers form singleton types.
}

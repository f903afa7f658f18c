//===- asmgen/GenRuntime.cpp ----------------------------------------------===//

#include "asmgen/GenRuntime.h"

#include "analyzer/ModifierTypes.h"
#include "sass/Parser.h"
#include "sass/Printer.h"
#include "support/StringUtils.h"

#include <istream>
#include <mutex>
#include <ostream>
#include <unordered_map>

using namespace dcb;
using namespace dcb::gen;
using namespace dcb::analyzer;

namespace {

/// A literal pattern, sized to the word it applies to.
PackedPattern sized(const GenPattern &P, unsigned NumWords) {
  PackedPattern Out = P;
  Out.NumWords = NumWords;
  return Out;
}

/// An id-keyed feature list from a literal table (operand tokens and
/// modifiers).
std::vector<std::pair<SymbolId, PackedPattern>>
internFeatures(const GenFeature *List, unsigned N, unsigned NumWords) {
  SymbolTable &Syms = SymbolTable::global();
  std::vector<std::pair<SymbolId, PackedPattern>> Out;
  Out.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Out.emplace_back(Syms.intern(List[I].Name),
                     sized(List[I].Pattern, NumWords));
  return Out;
}

/// Windows [Begin, End) of a literal window table, which is nullptr when
/// the table holds none.
std::vector<WindowRef> windowsOf(const WindowRef *Windows, unsigned Begin,
                                 unsigned End) {
  if (Begin == End)
    return {};
  return std::vector<WindowRef>(Windows + Begin, Windows + End);
}

/// Resolves one operation's literal tables into the form the shared
/// executor runs: the inverse of the generator's printing step.
FrozenOperation resolve(const GenOperation &Op, unsigned WordBits) {
  SymbolTable &Syms = SymbolTable::global();
  const unsigned NumWords = WordBits > 64 ? 2 : 1;
  FrozenOperation Frozen;
  Frozen.Opcode = sized(Op.Opcode, NumWords);
  Frozen.Mods.reserve(Op.NumMods);
  for (unsigned I = 0; I < Op.NumMods; ++I) {
    FrozenMod M;
    M.Name = Syms.intern(Op.Mods[I].Name);
    M.Type = Syms.intern(modifierType(Op.Mods[I].Name));
    M.Occurrence = Op.Mods[I].Occurrence;
    M.Pattern = sized(Op.Mods[I].Pattern, NumWords);
    Frozen.Mods.push_back(M);
  }
  Frozen.Operands.resize(Op.NumOperands);
  for (unsigned I = 0; I < Op.NumOperands; ++I) {
    const GenOperand &Lit = Op.Operands[I];
    FrozenOperand &F = Frozen.Operands[I];
    F.SigChar = Lit.SigChar;
    for (unsigned U = 0; U < Lit.NumUnaries; ++U) {
      int Slot = FrozenOperand::unarySlot(Lit.Unaries[U].Name[0]);
      if (Slot >= 0)
        F.Unaries[Slot] = sized(Lit.Unaries[U].Pattern, NumWords);
    }
    F.Tokens = internFeatures(Lit.Tokens, Lit.NumTokens, NumWords);
    F.Mods = internFeatures(Lit.Mods, Lit.NumMods, NumWords);
    F.CompWindows.reserve(Lit.NumComps);
    for (unsigned C = 0; C < Lit.NumComps; ++C)
      F.CompWindows.push_back(
          windowsOf(Lit.Windows, Lit.CompBounds[C], Lit.CompBounds[C + 1]));
  }
  Frozen.GuardWindows = windowsOf(Op.GuardWindows, 0, Op.NumGuardWindows);
  return Frozen;
}

} // namespace

Expected<BitString> gen::assembleWith(const GenOperation &Op,
                                      const sass::Instruction &Inst,
                                      uint64_t Pc, unsigned WordBits) {
  // Generated tables are static literals, so each resolves once.
  static std::mutex M;
  static std::unordered_map<const GenOperation *, FrozenOperation> Resolved;
  const FrozenOperation *Frozen;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto [It, New] = Resolved.try_emplace(&Op);
    if (New)
      It->second = resolve(Op, WordBits);
    Frozen = &It->second;
  }
  Expected<BitString> Word =
      asmgen::assembleOperation(*Frozen, Inst, Pc, WordBits);
  if (!Word)
    return Failure("generated assembler: " + Word.message() + " in '" +
                   sass::printInstruction(Inst) + "'");
  return Word;
}

int gen::runAssemblerMain(AssembleFn Assemble, std::istream &In,
                          std::ostream &Out, std::ostream &Err) {
  std::string Line;
  int Failures = 0;
  while (std::getline(In, Line)) {
    std::string_view Trimmed = trim(Line);
    if (Trimmed.empty() || startsWith(Trimmed, "#"))
      continue;
    size_t Space = Trimmed.find(' ');
    if (Space == std::string_view::npos) {
      Err << "error: expected '<hex-address> <instruction>': " << Line
          << "\n";
      ++Failures;
      continue;
    }
    std::optional<uint64_t> Addr = parseUInt(Trimmed.substr(0, Space));
    if (!Addr) {
      Err << "error: bad address in: " << Line << "\n";
      ++Failures;
      continue;
    }
    Expected<sass::Instruction> Inst =
        sass::parseInstruction(Trimmed.substr(Space + 1));
    if (!Inst) {
      Err << "error: " << Inst.message() << "\n";
      ++Failures;
      continue;
    }
    Expected<BitString> Word = Assemble(*Inst, *Addr);
    if (!Word) {
      Err << "error: " << Word.message() << "\n";
      ++Failures;
      continue;
    }
    Out << "0x" << Word->toHex() << "\n";
  }
  return Failures == 0 ? 0 : 1;
}

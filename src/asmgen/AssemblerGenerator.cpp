//===- asmgen/AssemblerGenerator.cpp --------------------------------------===//

#include "asmgen/AssemblerGenerator.h"

#include "analyzer/FrozenIndex.h"
#include "support/StringUtils.h"

#include <cassert>
#include <sstream>

using namespace dcb;
using namespace dcb::asmgen;
using namespace dcb::analyzer;

namespace {

/// Escapes a string for inclusion in a C++ string literal.
std::string escape(std::string_view S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  return Out;
}

/// Prints a pattern as a GenPattern literal "{{v0, v1}, {m0, m1}}".
void printPattern(std::ostream &Out, const PackedPattern &P) {
  Out << "{{" << toHexString(P.Value[0]) << "ull, " << toHexString(P.Value[1])
      << "ull}, {" << toHexString(P.Mask[0]) << "ull, "
      << toHexString(P.Mask[1]) << "ull}}";
}

/// One GenFeature literal: a name, its same-type occurrence index (opcode
/// modifiers only) and its pattern.
struct FeatureRow {
  std::string_view Name;
  unsigned Occurrence;
  const PackedPattern *Pattern;
};

/// Prints a GenFeature array; returns "nullptr" when empty, otherwise the
/// array's identifier.
std::string printFeatures(std::ostream &Out, std::string Ident,
                          const std::vector<FeatureRow> &Rows) {
  if (Rows.empty())
    return "nullptr";
  Out << "const GenFeature " << Ident << "[] = {\n";
  for (const FeatureRow &Row : Rows) {
    Out << "    {\"" << escape(Row.Name) << "\", " << Row.Occurrence << ", ";
    printPattern(Out, *Row.Pattern);
    Out << "},\n";
  }
  Out << "};\n";
  return Ident;
}

/// The rows of an id-keyed feature list (operand tokens and modifiers).
std::vector<FeatureRow>
rowsOf(const std::vector<std::pair<SymbolId, PackedPattern>> &Features) {
  const SymbolTable &Syms = SymbolTable::global();
  std::vector<FeatureRow> Rows;
  Rows.reserve(Features.size());
  for (const auto &[Sym, Pattern] : Features)
    Rows.push_back({Syms.spelling(Sym), 0, &Pattern});
  return Rows;
}

/// Prints the entries of a WindowRef array.
void printWindows(std::ostream &Out, const std::vector<WindowRef> &Windows) {
  for (const WindowRef &W : Windows)
    Out << "{" << unsigned(W.Kind) << "," << unsigned(W.Lo) << ","
        << unsigned(W.Size) << "},";
}

} // namespace

std::string asmgen::generateAssemblerSource(const EncodingDatabase &Db) {
  const FrozenIndex &Idx = Db.freeze();
  const SymbolTable &Syms = SymbolTable::global();
  std::ostringstream Out;
  const unsigned WordBits = Db.wordBits();

  Out << "//===-- Generated assembler for " << archName(Db.arch())
      << " --- DO NOT EDIT ---------------===//\n"
      << "//\n"
      << "// Emitted by dcb::asmgen::AssemblerGenerator from a learned\n"
      << "// encoding database (" << Db.operations().size()
      << " operations). Input: SASS assembly; output: binary words.\n"
      << "//\n"
      << "//===-------------------------------------------------------"
         "---------------===//\n\n"
      << "#include \"analyzer/Signature.h\"\n"
      << "#include \"asmgen/GenRuntime.h\"\n\n"
      << "namespace {\n\n"
      << "using dcb::asmgen::WindowRef;\n"
      << "using dcb::gen::GenFeature;\n"
      << "using dcb::gen::GenOperand;\n"
      << "using dcb::gen::GenOperation;\n\n";

  // Per-operation static tables: each frozen operation printed as literals.
  unsigned Index = 0;
  std::vector<std::pair<std::string, std::string>> Dispatch; // key, ident
  for (const auto &[Key, Rec] : Db.operations()) {
    const FrozenOperation *Op =
        Idx.lookup(operationKeyId(Rec.Mnemonic, Rec.Signature));
    assert(Op && "every learned operation has a distinct frozen key");
    std::string Id = "Op" + std::to_string(Index++);
    Out << "// --- " << Key << " (" << Rec.Instances << " instances) ---\n";

    std::vector<FeatureRow> ModRows;
    ModRows.reserve(Op->Mods.size());
    for (const FrozenMod &M : Op->Mods)
      ModRows.push_back({Syms.spelling(M.Name), M.Occurrence, &M.Pattern});
    std::string ModsId = printFeatures(Out, Id + "_Mods", ModRows);

    std::string GuardId = "nullptr";
    if (!Op->GuardWindows.empty()) {
      GuardId = Id + "_Guard";
      Out << "const WindowRef " << GuardId << "[] = {";
      printWindows(Out, Op->GuardWindows);
      Out << "};\n";
    }

    // Operands: feature tables, then component windows concatenated with
    // bounds, then one GenOperand row each.
    std::string OperandsId = "nullptr";
    if (!Op->Operands.empty()) {
      std::ostringstream Rows;
      for (size_t I = 0; I < Op->Operands.size(); ++I) {
        const FrozenOperand &F = Op->Operands[I];
        std::string Base = Id + "_A" + std::to_string(I);

        std::vector<FeatureRow> UnaryRows;
        for (size_t Slot = 0; Slot < UnaryOps.size(); ++Slot)
          if (F.Unaries[Slot])
            UnaryRows.push_back(
                {UnaryOps.substr(Slot, 1), 0, &F.Unaries[Slot]});
        std::string UnariesId = printFeatures(Out, Base + "_U", UnaryRows);
        std::string TokensId =
            printFeatures(Out, Base + "_T", rowsOf(F.Tokens));
        std::string OpModsId =
            printFeatures(Out, Base + "_M", rowsOf(F.Mods));

        std::string Bounds = "0,";
        size_t NumWindows = 0;
        for (const std::vector<WindowRef> &Windows : F.CompWindows) {
          NumWindows += Windows.size();
          Bounds += std::to_string(NumWindows) + ",";
        }
        std::string WindowsId = "nullptr";
        if (NumWindows != 0) {
          WindowsId = Base + "_W";
          Out << "const WindowRef " << WindowsId << "[] = {";
          for (const std::vector<WindowRef> &Windows : F.CompWindows)
            printWindows(Out, Windows);
          Out << "};\n";
        }
        Out << "const unsigned " << Base << "_B[] = {" << Bounds << "};\n";

        Rows << "    {'" << F.SigChar << "', " << UnariesId << ", "
             << UnaryRows.size() << ", " << TokensId << ", "
             << F.Tokens.size() << ", " << OpModsId << ", " << F.Mods.size()
             << ", " << WindowsId << ", " << Base << "_B, "
             << F.CompWindows.size() << "},\n";
      }
      OperandsId = Id + "_Operands";
      Out << "const GenOperand " << OperandsId << "[] = {\n"
          << Rows.str() << "};\n";
    }

    Out << "const GenOperation " << Id << " = {\"" << escape(Key) << "\", ";
    printPattern(Out, Op->Opcode);
    Out << ", " << GuardId << ", " << Op->GuardWindows.size() << ", "
        << OperandsId << ", " << Op->Operands.size() << ", " << ModsId << ", "
        << Op->Mods.size() << "};\n\n";
    Dispatch.emplace_back(Key, Id);
  }

  Out << "} // namespace\n\n"
      << "namespace dcb {\nnamespace gen {\n\n"
      << "/// Assembles one SASS instruction at byte address Pc for "
      << archName(Db.arch()) << ".\n"
      << "Expected<BitString> assemble(const sass::Instruction &Inst, "
         "uint64_t Pc) {\n"
      << "  const std::string Key = dcb::analyzer::operationKey(Inst);\n";
  for (const auto &[Key, Id] : Dispatch)
    Out << "  if (Key == \"" << escape(Key) << "\")\n"
        << "    return assembleWith(" << Id << ", Inst, Pc, " << WordBits
        << ");\n";
  Out << "  return Failure(\"generated assembler (" << archName(Db.arch())
      << "): unknown operation \" + Key);\n"
      << "}\n\n"
      << "} // namespace gen\n} // namespace dcb\n"
      << "\n#include <iostream>\n\n"
      << "int main() {\n"
      << "  return dcb::gen::runAssemblerMain(&dcb::gen::assemble, std::cin, "
         "std::cout, std::cerr);\n"
      << "}\n";
  return Out.str();
}

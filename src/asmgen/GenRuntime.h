//===- asmgen/GenRuntime.h - Runtime for generated assemblers ---*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small support runtime that generated assemblers (the C++ sources
/// emitted by AssemblerGenerator, Algorithm 3) compile against. A
/// generated assembler is a frozen database printed as C++: one block of
/// literal tables per operation, holding the FrozenOperation's packed
/// patterns and component windows. This header provides the typed tables
/// those literals instantiate and the helper that runs one block, which
/// resolves the tables back into a FrozenOperation and hands it to the one
/// executor the in-process assembler uses too (asmgen/AsmCore.h).
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ASMGEN_GENRUNTIME_H
#define DCB_ASMGEN_GENRUNTIME_H

#include "asmgen/AsmCore.h"
#include "sass/Ast.h"
#include "support/BitString.h"
#include "support/Errors.h"

#include <iosfwd>

namespace dcb {
namespace gen {

/// A (value, consistency-mask) pair over up to 128 bits: the compiled form
/// of one PatternRec. Generated literals spell only Value and Mask; the
/// runtime sizes NumWords from the word width.
using GenPattern = analyzer::PackedPattern;

/// One named feature (modifier, unary operator, or token) with its pattern.
struct GenFeature {
  const char *Name;  ///< Modifier/token spelling; single char for unaries.
  unsigned Occurrence; ///< Same-type occurrence index (opcode mods only).
  GenPattern Pattern;
};

/// One operand's compiled tables.
struct GenOperand {
  char SigChar;
  const GenFeature *Unaries;
  unsigned NumUnaries;
  const GenFeature *Tokens;
  unsigned NumTokens;
  const GenFeature *Mods;
  unsigned NumMods;
  /// Component windows, all components concatenated; CompBounds[i] is the
  /// first window index of component i (CompBounds has NumComps+1 entries).
  const asmgen::WindowRef *Windows;
  const unsigned *CompBounds;
  unsigned NumComps;
};

/// One operation's compiled tables.
struct GenOperation {
  const char *Key; ///< "MNEMONIC/signature".
  GenPattern Opcode;
  const asmgen::WindowRef *GuardWindows;
  unsigned NumGuardWindows;
  const GenOperand *Operands;
  unsigned NumOperands;
  const GenFeature *Mods;
  unsigned NumMods;
};

/// Executes one operation block — the body every generated if-block
/// delegates to after selecting its tables. The first call for \p Op
/// interns its names and classifies its modifier types into a
/// FrozenOperation, kept for the life of the process (generated tables are
/// static literals); every call then runs asmgen::assembleOperation.
Expected<BitString> assembleWith(const GenOperation &Op,
                                 const sass::Instruction &Inst, uint64_t Pc,
                                 unsigned WordBits);

/// The signature of a generated entry point.
using AssembleFn = Expected<BitString> (*)(const sass::Instruction &Inst,
                                           uint64_t Pc);

/// Driver shared by generated main() functions: reads lines of the form
/// "<hex-address> <sass instruction>" from \p In and writes one hex word
/// per line to \p Out. Returns a process exit code (0 on full success).
int runAssemblerMain(AssembleFn Assemble, std::istream &In,
                     std::ostream &Out, std::ostream &Err);

} // namespace gen
} // namespace dcb

#endif // DCB_ASMGEN_GENRUNTIME_H

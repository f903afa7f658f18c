//===- asmgen/AsmCore.h - The one assembly executor -------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 3's apply step, stated once. A learned database is compiled
/// exactly once, by EncodingDatabase::freeze(), into FrozenOperations;
/// this executor turns one instruction plus its FrozenOperation into a
/// word. The in-process assembler (TableAssembler) runs it on a frozen
/// index, and generated assemblers (GenRuntime) run it on their literal
/// tables resolved back into the same form.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ASMGEN_ASMCORE_H
#define DCB_ASMGEN_ASMCORE_H

#include "analyzer/FrozenIndex.h"
#include "sass/Ast.h"
#include "support/BitString.h"
#include "support/Errors.h"

namespace dcb {
namespace asmgen {

/// One surviving component window: interpretation kind + field position.
/// Defined next to the records it is computed from (analyzer/Records.h);
/// the alias keeps the generated assemblers' `asmgen::WindowRef` spelling.
using WindowRef = analyzer::WindowRef;

/// Assembles \p Inst at byte address \p Pc into a \p WordBits-wide word
/// with the compiled tables of its operation: opcode bits, then modifiers
/// matched by (name, same-type occurrence), then each operand's modifiers,
/// unary operators, token or value components, then the guard.
///
/// Mirroring the paper's generated assemblers, anything unexpected — an
/// unknown modifier, unary or token, or a value that fits no learned
/// field — is an error. Its message names the problem only; each caller
/// adds its own prefix and the instruction text. The success path does no
/// string work and no heap allocation beyond the word itself.
Expected<BitString> assembleOperation(const analyzer::FrozenOperation &Op,
                                      const sass::Instruction &Inst,
                                      uint64_t Pc, unsigned WordBits);

} // namespace asmgen
} // namespace dcb

#endif // DCB_ASMGEN_ASMCORE_H

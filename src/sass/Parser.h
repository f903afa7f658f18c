//===- sass/Parser.h - SASS assembly parser ---------------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written recursive-descent parser for SASS assembly text. This plays
/// the role of the paper's Flex/Bison front-end: it turns one line of
/// assembly into the ASSEM structure (sass::Instruction) the analyzer and
/// the generated assemblers consume.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SASS_PARSER_H
#define DCB_SASS_PARSER_H

#include "sass/Ast.h"
#include "support/Errors.h"

#include <string_view>
#include <vector>

namespace dcb {
namespace sass {

/// Parses a single instruction, e.g. "@!P1 IADD R1, R2, 0x10;".
/// The trailing ';' is optional. Returns a failure with a description of
/// the first syntax error otherwise.
Expected<Instruction> parseInstruction(std::string_view Text);

/// The same, parsing into \p Inst, which must be default-constructed (as a
/// fresh emplace_back() leaves it), so a caller that stores records in
/// place copies none.
Error parseInstruction(std::string_view Text, Instruction &Inst);

/// Parses a whole program: one instruction per non-empty line. Lines whose
/// first non-space characters are "//" or "#" are skipped as comments;
/// /* ... */ trailing comments on a line are ignored.
Expected<std::vector<Instruction>> parseProgram(std::string_view Text);

} // namespace sass
} // namespace dcb

#endif // DCB_SASS_PARSER_H

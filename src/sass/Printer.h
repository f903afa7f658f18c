//===- sass/Printer.h - SASS assembly printer -------------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders sass::Instruction back to canonical assembly text. The vendor
/// disassembler simulator uses this printer, so printing followed by parsing
/// is an exact round trip — the one-to-one text/binary mapping the paper's
/// analyzer depends on.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SASS_PRINTER_H
#define DCB_SASS_PRINTER_H

#include "sass/Ast.h"

#include <string>

namespace dcb {
namespace sass {

/// Renders one operand.
std::string printOperand(const Operand &Op);

/// Renders one instruction including guard and trailing ';', appending to
/// \p Out: the disassembler prints a whole kernel into one buffer.
void printInstruction(const Instruction &Inst, std::string &Out);
std::string printInstruction(const Instruction &Inst);

} // namespace sass
} // namespace dcb

#endif // DCB_SASS_PRINTER_H

//===- analyzer/ModifierTypes.h - Known modifier types ----------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The curated modifier-type table. The paper relies on knowing "the type
/// of these modifiers" to handle instructions that take multiple modifiers
/// of the same type in a meaningful order (PSETP.AND.OR vs PSETP.OR.AND,
/// F2F.F32.F64 vs F2F.F64.F32, §III-A). Modifier *names* come from the
/// disassembler listing; grouping names into types is prior knowledge the
/// framework carries, just like the paper's implementation.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ANALYZER_MODIFIERTYPES_H
#define DCB_ANALYZER_MODIFIERTYPES_H

#include <string_view>

namespace dcb {
namespace analyzer {

/// Returns the type name of a modifier (e.g. "LOGIC" for AND/OR/XOR).
/// Unknown modifiers are their own singleton type: the result then views
/// \p Name itself.
std::string_view modifierType(std::string_view Name);

} // namespace analyzer
} // namespace dcb

#endif // DCB_ANALYZER_MODIFIERTYPES_H

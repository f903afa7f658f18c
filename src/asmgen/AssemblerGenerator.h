//===- asmgen/AssemblerGenerator.h - Emit assembler C++ ---------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Assembler Generator (paper Algorithm 3 / Fig. 7): prints a learned
/// EncodingDatabase as standalone C++ source. It compiles nothing itself:
/// it freezes the database (EncodingDatabase::freeze(), the one compile
/// step) and prints each frozen operation as one conditional block holding
/// its packed opcode bits, modifier/unary/token patterns and operand field
/// windows as literals, plus a main() that turns SASS text into binary —
/// the paper's asm2bin tool.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ASMGEN_ASSEMBLERGENERATOR_H
#define DCB_ASMGEN_ASSEMBLERGENERATOR_H

#include "analyzer/IsaAnalyzer.h"

#include <string>

namespace dcb {
namespace asmgen {

/// Generates the complete C++ source of an assembler for \p Db: the entry
/// point `dcb::gen::assemble` and a main() driver reading
/// "<hex-address> <sass>" lines from stdin.
std::string generateAssemblerSource(const analyzer::EncodingDatabase &Db);

} // namespace asmgen
} // namespace dcb

#endif // DCB_ASMGEN_ASSEMBLERGENERATOR_H

//===- asmgen/TableAssembler.h - Assemble via learned records ---*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assembles SASS to binary in process: looks each instruction's operation
/// up in the database's frozen index and runs the shared executor
/// (asmgen/AsmCore.h) — the same executor generated assemblers (Algorithm
/// 3) run on their printed tables. Used wherever the framework needs
/// in-process assembly (reassembly verification, binary instrumentation,
/// the IR back-end).
///
/// Mirroring the paper's generated assemblers, anything unexpected — an
/// unknown operation, modifier, token, or a value that fits no learned
/// field — produces an error.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ASMGEN_TABLEASSEMBLER_H
#define DCB_ASMGEN_TABLEASSEMBLER_H

#include "analyzer/IsaAnalyzer.h"
#include "sass/Ast.h"
#include "support/BitString.h"
#include "support/Errors.h"
#include "support/TaskPool.h"

#include <vector>

namespace dcb {
namespace asmgen {

/// Assembles one instruction at byte address \p Pc through the database's
/// frozen index, freezing it first if needed (EncodingDatabase::freeze()).
Expected<BitString> assembleInstruction(const analyzer::EncodingDatabase &Db,
                                        const sass::Instruction &Inst,
                                        uint64_t Pc);

/// One unit of batch assembly: an instruction and its byte address.
struct AsmJob {
  const sass::Instruction *Inst = nullptr;
  uint64_t Pc = 0;
};

/// Assembles a whole program: freezes \p Db once, fans the jobs across
/// Options.NumThreads lanes, and merges per-index results in order.
/// Results[i] corresponds to Jobs[i] — successes and failures alike — and
/// the output is byte-identical for every thread count and chunk size.
std::vector<Expected<BitString>>
assembleProgram(const analyzer::EncodingDatabase &Db,
                const std::vector<AsmJob> &Jobs,
                const BatchOptions &Options = BatchOptions());

/// Assembles every instruction of a parsed listing kernel and checks the
/// result against the listing's binary column. Returns the number of
/// instructions that reassembled byte-identically; mismatching or failing
/// instructions are appended to \p Mismatches (as printed assembly).
unsigned reassembleKernel(const analyzer::EncodingDatabase &Db,
                          const analyzer::ListingKernel &Kernel,
                          std::vector<std::string> *Mismatches = nullptr);

} // namespace asmgen
} // namespace dcb

#endif // DCB_ASMGEN_TABLEASSEMBLER_H

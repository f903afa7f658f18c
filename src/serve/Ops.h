//===- serve/Ops.h - Request operations shared with the CLI -----*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operations the daemon serves — disassemble, assemble, lint, exec —
/// as pure functions from input bytes to an OpResult whose Output field is
/// *exactly* the byte stream the corresponding one-shot `dcb` subcommand
/// writes to stdout. The CLI subcommands call these too, so served and
/// one-shot results are byte-identical by construction, not by parallel
/// maintenance (tests and the serve bench assert it anyway).
///
/// Ops never touch process state: no stdout/stderr, no exit(); failures
/// come back as Expected errors (the transport decides whether that is a
/// die() or an {"status":"error"} response).
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SERVE_OPS_H
#define DCB_SERVE_OPS_H

#include "analysis/TypedCheckers.h"
#include "analyzer/IsaAnalyzer.h"
#include "serve/Cache.h"
#include "support/Errors.h"
#include "support/TaskPool.h"
#include "vendor/CuobjdumpSim.h"
#include "vm/Differ.h"

#include <string>
#include <vector>

namespace dcb {
namespace ir {
struct Program;
}

namespace serve {

/// Loads \p Raw as either a serialized cubin (disassembling it first) or
/// listing text, and lifts it to IR; the CLI's loadProgramFile reads a
/// file into it. \p Name labels diagnostics.
Expected<ir::Program> loadProgramBytes(const std::string &Raw,
                                       const std::string &Name);

/// `dcb disasm`: the listing for a serialized ELF image.
Expected<OpResult> opDisasm(const std::vector<uint8_t> &Image,
                            const vendor::DisasmOptions &Options);

/// `dcb asm`: one "0x<hex>\n" line per assembled instruction in listing
/// order (Output); per-instruction failures become "error: <msg>" lines
/// in Errors, in encounter order, without aborting the batch.
Expected<OpResult> opAsm(const analyzer::EncodingDatabase &Db,
                         const std::string &ListingText,
                         const BatchOptions &Batch);

/// `dcb exec`: one summary line per kernel; Exit is 1 when any kernel
/// failed. \p Kernel is a kernel name or "all".
Expected<OpResult> opExec(const std::string &FileBytes,
                          const std::string &FileName,
                          const std::string &Kernel,
                          const vm::ExecOptions &Options);

/// `dcb lint --json` over one program (cubin or listing): the dcb-lint-v1
/// document for \p TargetName; Exit is 1 when any error-severity finding
/// exists.
Expected<OpResult> opLint(const std::string &FileBytes,
                          const std::string &TargetName);

/// Severity threshold below which findings do not fail the exit code
/// (`--fail-on`): Error exits non-zero only on errors (the default),
/// Warning on any finding, Never always exits 0. Output bytes are
/// unaffected.
enum class FailOn { Error, Warning, Never };

/// The exit code \p R gives under threshold \p Fail: 1 when it holds a
/// finding at or above the threshold, else 0.
int exitCodeFor(const analysis::Report &R, FailOn Fail);

/// Options for the typed-analysis op (`dcb analyze --types|--bounds|
/// --races`).
struct AnalyzeOptions {
  std::string Mode = "types"; ///< "types" | "bounds" | "races".
  FailOn Fail = FailOn::Error;
  analysis::LaunchShape Shape; ///< Launch/memory shape for bounds/races.
};

/// `dcb analyze --types|--bounds|--races ... --json`: the dcb-analysis-v1
/// document (type facts for "types"; TYP/MEM/RAC findings per mode). A
/// clean program still yields a complete document with an empty findings
/// array — never blank output.
Expected<OpResult> opAnalyze(const std::string &FileBytes,
                             const std::string &TargetName,
                             const AnalyzeOptions &Options);

} // namespace serve
} // namespace dcb

#endif // DCB_SERVE_OPS_H

//===- analysis/DbLint.h - Encoding-database linter -------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Audits a set of operation encoding patterns for internal consistency:
/// two operations whose (value, mask) opcode patterns can match the same
/// word, an operation whose pattern is strictly more general than
/// another's (a shadow — usually an undertrained duplicate), an operation
/// with no consistent opcode bits at all, and modifier patterns that
/// contradict their operation's opcode bits.
///
/// The rules run over a neutral `LintOperation` model so two producers can
/// share them: the learned `analyzer::EncodingDatabase` (converted here)
/// and the hidden ground-truth ISA tables (converted on the vendor side by
/// `vendor::lintIsaTables`, which keeps `isa/` includes out of the
/// analyzer firewall).
///
/// Rules: ENC001 ambiguous pair, ENC002 shadowed operation, ENC003 empty
/// opcode mask, ENC004 modifier/opcode bit conflict. docs/ANALYSIS.md has
/// the full catalog including the ground-truth-only ENC005..ENC007 and
/// the decode-index IDX rules.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ANALYSIS_DBLINT_H
#define DCB_ANALYSIS_DBLINT_H

#include "analysis/Findings.h"
#include "analyzer/FrozenIndex.h"
#include "analyzer/IsaAnalyzer.h"

#include <string>
#include <vector>

namespace dcb {
namespace analysis {

/// One modifier's pattern plus the bits where it contradicts the opcode.
struct LintModifier {
  std::string Name;
  analyzer::PackedPattern Pattern;
};

/// The neutral per-operation model the ENC rules consume.
struct LintOperation {
  std::string Name; ///< "IADD/rri" — mnemonic + signature or form tag.
  unsigned WordBits = 64;
  analyzer::PackedPattern Opcode;
  std::vector<LintModifier> Mods;
};

/// Converts a learned database into the lint model.
std::vector<LintOperation>
lintModelOf(const analyzer::EncodingDatabase &Db);

/// Runs ENC001..ENC004 over \p Ops. \p Origin labels findings ("database",
/// "sm_50 tables").
Report lintOperations(const std::vector<LintOperation> &Ops,
                      const std::string &Origin);

/// Convenience: model conversion + lintOperations for a learned database.
Report lintDatabase(const analyzer::EncodingDatabase &Db);

} // namespace analysis
} // namespace dcb

#endif // DCB_ANALYSIS_DBLINT_H

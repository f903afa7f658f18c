//===- analysis/Findings.h - Diagnostic records for analyses ----*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diagnostic currency of the static-analysis layer: every checker
/// (CFG validation, SCHI hazards, the post-transform verifier, the
/// encoding-database linter) reports `Finding`s collected into a `Report`.
/// A finding carries a stable rule id (catalogued in docs/ANALYSIS.md), a
/// severity, and as much provenance as the producing pass has: kernel /
/// block / instruction / original byte address for program findings, an
/// object name (operation key, form tag) for database findings.
///
/// Reports render as human-readable text and as the `dcb-lint-v1` JSON
/// document consumed by CI artifacts.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ANALYSIS_FINDINGS_H
#define DCB_ANALYSIS_FINDINGS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dcb {
namespace analysis {

enum class Severity {
  Error,   ///< The artifact is wrong; tools must not trust it.
  Warning, ///< Suspicious but possibly legitimate; advisory only.
};

inline const char *severityName(Severity S) {
  return S == Severity::Error ? "error" : "warning";
}

/// One diagnostic. Fields without a meaningful value keep their defaults
/// (-1 indices, kNoAddress, empty strings) and are omitted from renderings.
struct Finding {
  std::string Rule; ///< Stable id, e.g. "HAZ001" (docs/ANALYSIS.md).
  Severity Sev = Severity::Error;
  std::string Message;

  // --- Program provenance -------------------------------------------------
  std::string Kernel;
  int Block = -1;
  int Inst = -1;
  static constexpr uint64_t kNoAddress = ~uint64_t(0);
  uint64_t Address = kNoAddress; ///< Original byte address, when known.

  // --- Database provenance ------------------------------------------------
  std::string Object; ///< Operation key / form tag / bucket id.
};

/// An ordered collection of findings with a summary and two renderers.
struct Report {
  std::vector<Finding> Findings;

  void add(Finding F) { Findings.push_back(std::move(F)); }
  void append(const Report &O) {
    Findings.insert(Findings.end(), O.Findings.begin(), O.Findings.end());
  }

  size_t errorCount() const;
  size_t warningCount() const;

  /// True when no error-severity finding is present (warnings allowed).
  bool clean() const { return errorCount() == 0; }

  /// "RULE error kernel:BB2:5 @0x48: message" lines plus a summary line.
  std::string toText() const;

  /// The `dcb-lint-v1` JSON document. \p Target labels what was linted
  /// (file name, arch, "database"); empty is allowed.
  std::string toJson(const std::string &Target) const;
};

/// Renders the findings array + counts as a JSON *fragment* (no enclosing
/// schema object) so composite documents can embed several reports.
std::string findingsJsonFragment(const Report &R);

} // namespace analysis
} // namespace dcb

#endif // DCB_ANALYSIS_FINDINGS_H

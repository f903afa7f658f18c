//===- analyzer/BitFlipper.h - Data-set enrichment --------------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bit flipper of §III-B: "takes the binary instruction of every known
/// operation as input, and outputs variants of each one, which we can
/// inject into an executable in order to extract more assembly code. Each
/// variant is identical to the instruction it is based on, except that a
/// single distinct bit has been flipped."
///
/// The disassembler is an opaque callback (in production: the closed-source
/// cuobjdump binary; here: the vendor simulator, wired in by the caller so
/// this library stays on the analyzer side of the firewall). The flipper
/// patches each variant into the executable's kernel code at the exemplar's
/// address, disassembles, and feeds whatever comes back — a new instance of
/// the operation, or an entirely new operation — back into the analyzer.
/// Disassembler crashes on invalid variants are expected and tolerated.
/// Rounds repeat "until the results converge".
///
/// This is the system's hottest loop, so it is engineered accordingly:
///
///  - variant trials (patch → disassemble → parse → extract the pair at the
///    patched address) run one at a time in (exemplar, bit) order, each
///    merged into the analyzer as soon as it finishes;
///  - a per-run dedup cache keyed on (kernel, address, word) skips variants
///    already trialled in an earlier round — their outcome cannot change.
///    The key is integers only: the kernel's KernelCode entry, the address
///    and the word's two 64-bit halves, so a repeat costs no string work;
///  - patches go into one reusable scratch copy per kernel with
///    save/restore of the patched word, instead of copying whole kernels
///    per variant;
///  - when the caller provides a WindowDisassembler, only the one-word
///    window at the patched address is disassembled instead of the whole
///    kernel (sound here because every other word already disassembled
///    cleanly in the original listing);
///  - when the caller provides a WindowDecoder, the trial consumes the
///    decoded instruction directly and skips the print -> parse round trip
///    entirely — the print-free fast path. Because the decoder fails on
///    exactly the words whose printed rendering would not re-parse, the
///    learned database is bit-for-bit identical to the text paths'.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ANALYZER_BITFLIPPER_H
#define DCB_ANALYZER_BITFLIPPER_H

#include "analyzer/IsaAnalyzer.h"

#include <functional>
#include <map>
#include <vector>

namespace dcb {
namespace analyzer {

/// Disassembles one kernel's code bytes, returning listing text in the
/// standard format (without the "code for" header) or failing like the
/// real tool does on garbage.
using KernelDisassembler = std::function<Expected<std::string>(
    const std::string &KernelName, const std::vector<uint8_t> &Code)>;

/// Disassembles only the instruction word at byte offset \p Addr of a
/// kernel's code, returning a listing in the same format restricted to that
/// one line — the flipper's fast path (vendor::disassembleInstructionAt in
/// this repo). Optional: without it the flipper disassembles whole kernels.
using WindowDisassembler = std::function<Expected<std::string>(
    const std::string &KernelName, const std::vector<uint8_t> &Code,
    uint64_t Addr)>;

/// Structured result of decoding the one-word window at the patched
/// address: either the decoded instruction pair, or nothing (a SCHI
/// position — the tool succeeded but printed no instruction there).
struct WindowDecode {
  bool HasPair = false;
  ListingInst Pair; ///< Valid when HasPair.
};

/// Decodes only the instruction word at byte offset \p Addr of a kernel's
/// code into structured form, failing exactly when the text disassembler
/// would (vendor::decodeInstructionAt in this repo). Optional: the
/// flipper's fastest path, preferred over both text callbacks when set.
using WindowDecoder = std::function<Expected<WindowDecode>(
    const std::string &KernelName, const std::vector<uint8_t> &Code,
    uint64_t Addr)>;

class BitFlipper {
public:
  struct Options {
    unsigned MaxRounds = 4;
    /// When set, bits that are still consistent across every instance of
    /// an operation (the current opcode estimate) are not flipped. This is
    /// the paper's fast mode ("narrow the range of bits that are flipped -
    /// skipping over most of the opcode bits"); disabling it explores all
    /// bits at the cost of many more disassembler crashes.
    bool SkipConsistentBits = false;
  };

  /// Flips stay in the low 64 bits of a word: Volta's upper control bits
  /// are skipped, matching the paper's 64-bit focus.
  static constexpr unsigned FlipBits = 64;

  struct RoundStats {
    unsigned VariantsTried = 0;
    unsigned Crashes = 0;   ///< Disassembler refused the variant.
    unsigned Accepted = 0;  ///< Variant produced a decodable pair.
    unsigned Rejected = 0;  ///< Disassembled, but no usable pair at Addr
                            ///< (SCHI position or out-of-range patch).
    unsigned CacheHits = 0; ///< Variant already trialled in a prior round.
    unsigned NewOperations = 0;
    EncodingDatabase::Stats After;
    // Invariant: VariantsTried == Crashes + Accepted + Rejected + CacheHits.
  };

  BitFlipper(IsaAnalyzer &Analyzer, KernelDisassembler Disassembler,
             WindowDisassembler WindowDisasm = nullptr,
             WindowDecoder WindowDec = nullptr)
      : Analyzer(Analyzer), Disassembler(std::move(Disassembler)),
        WindowDisasm(std::move(WindowDisasm)),
        WindowDec(std::move(WindowDec)) {}

  /// Runs flip rounds until convergence (no new operations, modifiers,
  /// unary operators or tokens) or Options::MaxRounds.
  /// \p KernelCode maps kernel names to their original code bytes; every
  /// operation exemplar must come from one of these kernels.
  std::vector<RoundStats> run(
      const std::map<std::string, std::vector<uint8_t>> &KernelCode,
      const Options &Opts);
  std::vector<RoundStats>
  run(const std::map<std::string, std::vector<uint8_t>> &KernelCode) {
    return run(KernelCode, Options());
  }

private:
  IsaAnalyzer &Analyzer;
  KernelDisassembler Disassembler;
  WindowDisassembler WindowDisasm;
  WindowDecoder WindowDec;

  /// One variant's outcome, merged into the analyzer by run().
  struct Trial;

  /// Patches \p Word with bit \p FlipBit flipped into \p Code at \p Addr
  /// (restoring the original word before returning), disassembles, and
  /// extracts the pair at the patched address. Touches no analyzer state.
  Trial runTrial(const std::string &KernelName, std::vector<uint8_t> &Code,
                 uint64_t Addr, const BitString &Word, unsigned FlipBit) const;
};

} // namespace analyzer
} // namespace dcb

#endif // DCB_ANALYZER_BITFLIPPER_H

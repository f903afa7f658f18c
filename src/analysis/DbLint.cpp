//===- analysis/DbLint.cpp ------------------------------------------------===//

#include "analysis/DbLint.h"

#include "support/Telemetry.h"

using namespace dcb;
using namespace dcb::analysis;
using dcb::analyzer::PackedPattern;

namespace {

struct Metrics {
  telemetry::Counter &Operations =
      telemetry::counter("analysis.dblint.operations");
  telemetry::Counter &Found = telemetry::counter("analysis.dblint.findings");
};
Metrics &metrics() {
  static Metrics M;
  return M;
}

Finding dbFinding(const char *Rule, std::string Object,
                  std::string Message) {
  Finding F;
  F.Rule = Rule;
  F.Object = std::move(Object);
  F.Message = std::move(Message);
  return F;
}

} // namespace

std::vector<LintOperation>
analysis::lintModelOf(const analyzer::EncodingDatabase &Db) {
  std::vector<LintOperation> Ops;
  Ops.reserve(Db.operations().size());
  for (const auto &[Key, Rec] : Db.operations()) {
    LintOperation Op;
    Op.Name = Key;
    Op.WordBits = Rec.WordBits;
    Op.Opcode = analyzer::packPattern(Rec.Opcode);
    for (const auto &[NameOcc, Pattern] : Rec.Mods) {
      LintModifier M;
      M.Name = NameOcc.first;
      if (NameOcc.second > 0)
        M.Name += "#" + std::to_string(NameOcc.second);
      M.Pattern = analyzer::packPattern(Pattern);
      Op.Mods.push_back(std::move(M));
    }
    Ops.push_back(std::move(Op));
  }
  return Ops;
}

Report analysis::lintOperations(const std::vector<LintOperation> &Ops,
                                const std::string &Origin) {
  DCB_SPAN("analysis.dblint");
  metrics().Operations.add(Ops.size());

  Report R;
  for (const LintOperation &Op : Ops) {
    if (Op.Opcode.emptyMask())
      R.add(dbFinding("ENC003", Op.Name,
                      Origin + ": operation has no consistent opcode bits; "
                               "every word would match"));
    for (const LintModifier &M : Op.Mods) {
      uint64_t Conflict[PackedPattern::MaxWords];
      bool Any = false;
      for (unsigned W = 0; W < PackedPattern::MaxWords; ++W) {
        Conflict[W] = Op.Opcode.Mask[W] & M.Pattern.Mask[W] &
                      (Op.Opcode.Value[W] ^ M.Pattern.Value[W]);
        Any |= Conflict[W] != 0;
      }
      if (Any)
        R.add(dbFinding(
            "ENC004", Op.Name + "." + M.Name,
            Origin +
                ": modifier pattern contradicts the operation's opcode "
                "bits it was learned from"));
    }
  }

  for (size_t I = 0; I < Ops.size(); ++I) {
    const LintOperation &A = Ops[I];
    if (A.Opcode.emptyMask())
      continue; // Already ENC003; pairwise checks would only add noise.
    for (size_t J = I + 1; J < Ops.size(); ++J) {
      const LintOperation &B = Ops[J];
      if (B.Opcode.emptyMask() || A.WordBits != B.WordBits)
        continue;
      const bool AB = PackedPattern::subsumes(A.Opcode, B.Opcode);
      const bool BA = PackedPattern::subsumes(B.Opcode, A.Opcode);
      if (AB || BA) {
        const LintOperation &General = AB ? A : B;
        const LintOperation &Specific = AB ? B : A;
        R.add(dbFinding("ENC002", General.Name,
                        Origin + ": pattern subsumes '" + Specific.Name +
                            "'" + (AB && BA ? " (patterns identical)" : "") +
                            "; every word of the more constrained "
                            "operation also matches this one"));
      } else if (PackedPattern::compatible(A.Opcode, B.Opcode)) {
        R.add(dbFinding("ENC001", A.Name,
                        Origin + ": opcode pattern is ambiguous with '" +
                            B.Name + "': some word matches both"));
      }
    }
  }
  metrics().Found.add(R.Findings.size());
  return R;
}

Report analysis::lintDatabase(const analyzer::EncodingDatabase &Db) {
  return lintOperations(lintModelOf(Db), "database");
}

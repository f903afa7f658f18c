//===- analysis/Findings.cpp ----------------------------------------------===//

#include "analysis/Findings.h"

#include "support/StringUtils.h"

using namespace dcb;
using namespace dcb::analysis;

size_t Report::errorCount() const {
  size_t N = 0;
  for (const Finding &F : Findings)
    N += F.Sev == Severity::Error;
  return N;
}

size_t Report::warningCount() const {
  return Findings.size() - errorCount();
}

std::string Report::toText() const {
  std::string Out;
  for (const Finding &F : Findings) {
    Out += F.Rule;
    Out += ' ';
    Out += severityName(F.Sev);
    if (!F.Kernel.empty()) {
      Out += ' ';
      Out += F.Kernel;
      if (F.Block >= 0) {
        Out += ":BB" + std::to_string(F.Block);
        if (F.Inst >= 0)
          Out += ":" + std::to_string(F.Inst);
      }
    }
    if (!F.Object.empty())
      Out += " [" + F.Object + "]";
    if (F.Address != Finding::kNoAddress)
      Out += " @" + toHexString(F.Address);
    Out += ": " + F.Message + "\n";
  }
  Out += "lint: " + std::to_string(errorCount()) + " error(s), " +
         std::to_string(warningCount()) + " warning(s)\n";
  return Out;
}

std::string analysis::findingsJsonFragment(const Report &R) {
  std::string Out = "\"findings\": [";
  for (size_t I = 0; I < R.Findings.size(); ++I) {
    const Finding &F = R.Findings[I];
    if (I)
      Out += ',';
    Out += "\n  {\"rule\": \"";
    appendJsonEscaped(Out, F.Rule);
    Out += "\", \"severity\": \"";
    Out += severityName(F.Sev);
    Out += "\", \"message\": \"";
    appendJsonEscaped(Out, F.Message);
    Out += '"';
    if (!F.Kernel.empty()) {
      Out += ", \"kernel\": \"";
      appendJsonEscaped(Out, F.Kernel);
      Out += '"';
    }
    if (F.Block >= 0)
      Out += ", \"block\": " + std::to_string(F.Block);
    if (F.Inst >= 0)
      Out += ", \"inst\": " + std::to_string(F.Inst);
    if (F.Address != Finding::kNoAddress) {
      Out += ", \"address\": \"";
      appendJsonEscaped(Out, toHexString(F.Address));
      Out += '"';
    }
    if (!F.Object.empty()) {
      Out += ", \"object\": \"";
      appendJsonEscaped(Out, F.Object);
      Out += '"';
    }
    Out += '}';
  }
  Out += "\n],\n\"errors\": " + std::to_string(R.errorCount()) +
         ",\n\"warnings\": " + std::to_string(R.warningCount());
  return Out;
}

std::string Report::toJson(const std::string &Target) const {
  std::string Out = "{\n\"schema\": \"dcb-lint-v1\",\n\"target\": \"";
  appendJsonEscaped(Out, Target);
  Out += "\",\n";
  Out += findingsJsonFragment(*this);
  Out += "\n}\n";
  return Out;
}

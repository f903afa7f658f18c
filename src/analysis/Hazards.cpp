//===- analysis/Hazards.cpp -----------------------------------------------===//

#include "analysis/Hazards.h"

#include "support/Telemetry.h"
#include "vm/OpTable.h"

using namespace dcb;
using namespace dcb::analysis;

namespace {

struct Metrics {
  telemetry::Counter &Kernels = telemetry::counter("analysis.hazards.kernels");
  telemetry::Counter &Found = telemetry::counter("analysis.hazards.findings");
};
Metrics &metrics() {
  static Metrics M;
  return M;
}

/// Memory operations and control flow can never legally dual-issue on
/// Kepler under the public model (the opcode row's dualIssue()). Everything
/// else (ALU-style fixed latency) is given the benefit of the doubt — the
/// checker must not flag streams the vendor scheduler can produce.
bool dualIssueIllegal(const sass::Instruction &Asm) {
  return !vm::opInfo(Asm).dualIssue();
}

/// Flat (block, inst) position for linear-order iteration.
struct Pos {
  int Block;
  int Inst;
};

std::vector<Pos> linearOrder(const ir::Kernel &K) {
  std::vector<Pos> Order;
  Order.reserve(K.instructionCount());
  for (size_t B = 0; B < K.Blocks.size(); ++B)
    for (size_t I = 0; I < K.Blocks[B].Insts.size(); ++I)
      Order.push_back({static_cast<int>(B), static_cast<int>(I)});
  return Order;
}

struct Checker {
  const ir::Kernel &K;
  Report R;

  const ir::Inst &at(Pos P) const {
    return K.Blocks[P.Block].Insts[P.Inst];
  }

  void flag(const char *Rule, Severity Sev, Pos P, std::string Message) {
    Finding F;
    F.Rule = Rule;
    F.Sev = Sev;
    const ir::Inst &I = at(P);
    F.Message = std::string(I.Asm.opcode()) + " " + I.Ctrl.str() + ": " +
                std::move(Message);
    F.Kernel = K.Name;
    F.Block = P.Block;
    F.Inst = P.Inst;
    if (!I.isInserted())
      F.Address = I.OrigAddress;
    R.add(std::move(F));
  }

  void checkKepler() {
    std::vector<Pos> Order = linearOrder(K);
    for (size_t N = 0; N < Order.size(); ++N) {
      Pos P = Order[N];
      const sass::CtrlInfo &C = at(P).Ctrl;
      if (C.DualIssue && C.Stall != 0)
        flag("HAZ001", Severity::Error, P,
             "dual-issue requires a stall of 0, got " +
                 std::to_string(C.Stall));
      if (!C.DualIssue && C.Stall == 0)
        flag("HAZ001", Severity::Error, P,
             "stall 0 without dual-issue is not encodable on Kepler");
      if (C.Stall > 32)
        flag("HAZ001", Severity::Error, P,
             "stall " + std::to_string(C.Stall) +
                 " exceeds the Kepler maximum of 32");
      if (C.Yield || C.WriteBarrier != 7 || C.ReadBarrier != 7 ||
          C.WaitMask != 0 || C.Reuse != 0)
        flag("HAZ003", Severity::Error, P,
             "barrier/yield/reuse fields are not encodable in Kepler "
             "dispatch slots");
      if (C.DualIssue) {
        if (N + 1 >= Order.size()) {
          flag("HAZ005", Severity::Error, P,
               "dual-issue on the last instruction has no partner");
        } else {
          const ir::Inst &Partner = at(Order[N + 1]);
          if (dualIssueIllegal(at(P).Asm))
            flag("HAZ005", Severity::Error, P,
                 "memory/control instructions cannot dual-issue");
          else if (dualIssueIllegal(Partner.Asm))
            flag("HAZ005", Severity::Error, P,
                 "dual-issue partner " + std::string(Partner.Asm.opcode()) +
                     " cannot share an issue slot");
        }
      }
    }
  }

  void checkMaxwell() {
    unsigned SetSeen = 0; // Barriers some earlier instruction armed.
    for (Pos P : linearOrder(K)) {
      const sass::CtrlInfo &C = at(P).Ctrl;
      if (C.Stall > 15)
        flag("HAZ001", Severity::Error, P,
             "stall " + std::to_string(C.Stall) +
                 " exceeds the Maxwell/Pascal maximum of 15");
      auto barrierOk = [](unsigned B) { return B <= 5 || B == 7; };
      if (!barrierOk(C.WriteBarrier))
        flag("HAZ002", Severity::Error, P,
             "write barrier " + std::to_string(C.WriteBarrier) +
                 " is not one of 0..5 or 7");
      if (!barrierOk(C.ReadBarrier))
        flag("HAZ002", Severity::Error, P,
             "read barrier " + std::to_string(C.ReadBarrier) +
                 " is not one of 0..5 or 7");
      if (C.WaitMask > 63)
        flag("HAZ002", Severity::Error, P,
             "wait mask " + std::to_string(C.WaitMask) +
                 " has bits beyond the six barriers");
      if (C.Reuse > 15)
        flag("HAZ002", Severity::Error, P,
             "reuse flags " + std::to_string(C.Reuse) + " exceed 4 bits");
      if (C.DualIssue)
        flag("HAZ003", Severity::Error, P,
             "Kepler dual-issue has no Maxwell/Pascal encoding");
      if (C.Stall >= 12 && !C.Yield)
        flag("HAZ007", Severity::Error, P,
             "stall >= 12 requires the yield flag");

      unsigned Unset = C.WaitMask & 63 & ~SetSeen;
      if (Unset != 0)
        flag("HAZ004", Severity::Error, P,
             "waits on barrier(s) no earlier instruction set (mask " +
                 std::to_string(Unset) + ")");
      if (C.WriteBarrier <= 5)
        SetSeen |= 1u << C.WriteBarrier;
      if (C.ReadBarrier <= 5)
        SetSeen |= 1u << C.ReadBarrier;
    }
  }
};

} // namespace

Report analysis::checkHazards(const ir::Kernel &K) {
  DCB_SPAN("analysis.hazards");
  metrics().Kernels.add(1);

  Checker C{K, {}};
  switch (archSchiKind(K.A)) {
  case SchiKind::None:
    break; // Hardware scheduling: nothing to validate.
  case SchiKind::Kepler30:
  case SchiKind::Kepler35:
    C.checkKepler();
    break;
  case SchiKind::Maxwell:
  case SchiKind::Embedded:
    C.checkMaxwell();
    break;
  }
  metrics().Found.add(C.R.Findings.size());
  return std::move(C.R);
}

Report analysis::checkHazards(const ir::Program &P) {
  Report R;
  for (const ir::Kernel &K : P.Kernels)
    R.append(checkHazards(K));
  return R;
}

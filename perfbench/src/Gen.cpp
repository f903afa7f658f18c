//===- perfbench/src/Gen.cpp ----------------------------------------------===//

#include "Gen.h"

#include "serve/Json.h"
#include "vendor/CuobjdumpSim.h"

#include <cmath>

namespace dcb {
namespace perfbench {

//===-- Rewrite corpus ----------------------------------------------------===//

namespace {

CorpusCubin makeCubin(Rng &R, const SuiteArch &S, size_t NumKernels,
                      size_t CubinIdx) {
  const std::vector<elf::KernelSection> &Pool = S.Cubin.kernels();
  elf::Cubin C(S.A);
  CorpusCubin Out;
  Out.A = S.A;
  for (size_t K = 0; K < NumKernels; ++K) {
    elf::KernelSection Kernel = Pool[R.below(Pool.size())];
    Kernel.Name += tagged("_", CubinIdx) + tagged("_", K);
    Out.Words += wordCount(S.A, Kernel.Code);
    C.addKernel(std::move(Kernel));
  }
  Out.Kernels = NumKernels;
  Out.Image = C.serialize();
  return Out;
}

} // namespace

std::vector<CorpusCubin> makeRewriteCorpus(uint64_t Seed) {
  Rng R(Seed);
  std::vector<CorpusCubin> Out;
  // Every architecture gets the same kernel count, split into two cubins
  // of 8..160 kernels, so batch sizes fall on both sides of any grain
  // cutoff while the pass size stays fixed across seeds.
  for (const SuiteArch &S : suites()) {
    size_t First = R.range(8, KernelsPerArch - 8);
    Out.push_back(makeCubin(R, S, First, Out.size()));
    Out.push_back(makeCubin(R, S, KernelsPerArch - First, Out.size()));
  }
  return Out;
}

//===-- Serve request stream ----------------------------------------------===//

const char *serveOpLabel(ServeOp O) {
  switch (O) {
  case ServeOp::Disasm:
    return "disasm";
  case ServeOp::Asm:
    return "asm";
  case ServeOp::Exec:
    return "exec";
  case ServeOp::AnalyzeTypes:
    return "analyze-types";
  case ServeOp::AnalyzeBounds:
    return "analyze-bounds";
  case ServeOp::AnalyzeRaces:
    return "analyze-races";
  case ServeOp::Lint:
    return "lint";
  }
  return "?";
}

double serveOpTargetPct(ServeOp O) {
  switch (O) {
  case ServeOp::Disasm:
    return 35;
  case ServeOp::Asm:
    return 15;
  case ServeOp::Exec:
    return 20;
  case ServeOp::AnalyzeTypes:
  case ServeOp::AnalyzeBounds:
  case ServeOp::AnalyzeRaces:
    return 20.0 / 3;
  case ServeOp::Lint:
    return 10;
  }
  return 0;
}

namespace {

/// Ops of the hot and warm sets in exact mix proportions (per 20 lines:
/// 7 disasm, 3 asm, 4 exec, 4 analyze, 2 lint), so that picking among
/// them uniformly keeps the overall op mix on target. Analyze slots take
/// the three modes in turn.
constexpr ServeOp StratifiedOps[20] = {
    ServeOp::Disasm, ServeOp::Disasm,       ServeOp::Disasm,
    ServeOp::Disasm, ServeOp::Disasm,       ServeOp::Disasm,
    ServeOp::Disasm, ServeOp::Asm,          ServeOp::Asm,
    ServeOp::Asm,    ServeOp::Exec,         ServeOp::Exec,
    ServeOp::Exec,   ServeOp::Exec,         ServeOp::AnalyzeTypes,
    ServeOp::AnalyzeTypes, ServeOp::AnalyzeTypes, ServeOp::AnalyzeTypes,
    ServeOp::Lint,   ServeOp::Lint};

} // namespace

ServeStream::ServeStream(uint64_t Seed) : Pick(Seed) {
  const ServeOp Modes[3] = {ServeOp::AnalyzeTypes, ServeOp::AnalyzeBounds,
                            ServeOp::AnalyzeRaces};
  unsigned AnalyzeTurn = 0;
  auto Stratum = [&](size_t I) {
    ServeOp O = StratifiedOps[I % 20];
    return O == ServeOp::AnalyzeTypes ? Modes[AnalyzeTurn++ % 3] : O;
  };
  for (size_t I = 0; I < NumHot; ++I)
    Hot.push_back(makeContent(Stratum(I)));
  for (size_t I = 0; I < NumWarm; ++I)
    Warm.push_back(makeContent(Stratum(I)));
}

ServeOp ServeStream::drawOp() {
  uint64_t P = Pick.below(300);
  if (P < 105)
    return ServeOp::Disasm;
  if (P < 150)
    return ServeOp::Asm;
  if (P < 210)
    return ServeOp::Exec;
  if (P < 230)
    return ServeOp::AnalyzeTypes;
  if (P < 250)
    return ServeOp::AnalyzeBounds;
  if (P < 270)
    return ServeOp::AnalyzeRaces;
  return ServeOp::Lint;
}

uint32_t ServeStream::makeContent(ServeOp Op) {
  std::vector<Arch> Archs = benchArchs();
  Arch A = Op == ServeOp::Asm ? Arch::SM35 : Archs[Pick.below(Archs.size())];
  const SuiteArch &S = suiteFor(A);
  uint32_t Idx = static_cast<uint32_t>(Contents.size());

  elf::Cubin C(A);
  size_t NumKernels = Pick.range(1, 4);
  for (size_t K = 0; K < NumKernels; ++K) {
    const elf::KernelSection *Src;
    if (Op == ServeOp::Exec) {
      const std::string &Name = S.ExecClean[Pick.below(S.ExecClean.size())];
      Src = S.Cubin.findKernel(Name);
    } else {
      Src = &S.Cubin.kernels()[Pick.below(S.Cubin.kernels().size())];
    }
    elf::KernelSection Kernel = *Src;
    Kernel.Name += tagged("_c", Idx) + tagged("_", K);
    C.addKernel(std::move(Kernel));
  }
  std::vector<uint8_t> Image = C.serialize();
  std::string Payload(Image.begin(), Image.end());
  if (Op == ServeOp::Asm) {
    Expected<std::string> Text = vendor::disassembleCubin(C);
    if (!Text)
      fatal("serve input listing: " + Text.message());
    Payload = std::move(*Text);
  }

  ServeContent Content;
  Content.Op = Op;
  Content.A = A;
  switch (Op) {
  case ServeOp::AnalyzeTypes:
  case ServeOp::AnalyzeBounds:
  case ServeOp::AnalyzeRaces:
    Content.Body = std::string(",\"mode\":\"") +
                   (Op == ServeOp::AnalyzeTypes    ? "types"
                    : Op == ServeOp::AnalyzeBounds ? "bounds"
                                                   : "races") +
                   "\",\"fail_on\":\"never\",\"name\":\"prog\"";
    break;
  case ServeOp::Lint:
    Content.Body = ",\"name\":\"prog\"";
    break;
  default:
    break;
  }
  Content.Body += ",\"data_b64\":\"" + serve::json::base64Encode(Payload) +
                  "\"}";
  Contents.push_back(std::move(Content));
  return Idx;
}

std::vector<ServeRequest> ServeStream::take(size_t N) {
  std::vector<ServeRequest> Out;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    ServeRequest R;
    uint64_t P = Pick.below(100);
    if (P < HotPct) {
      R.Class = ReqClass::Hot;
      uint64_t H = Pick.below(Hot.size());
      R.Content = Hot[H];
      R.Id = tagged("h", H);
    } else if (P < HotPct + RepeatPct) {
      R.Class = ReqClass::Repeat;
      R.Content = Warm[Pick.below(Warm.size())];
      R.Id = tagged("r", Seq++);
    } else {
      R.Class = ReqClass::Fresh;
      R.Content = makeContent(drawOp());
      R.Id = tagged("f", Seq++);
    }
    Out.push_back(std::move(R));
  }
  return Out;
}

std::string ServeStream::line(const ServeRequest &R) const {
  const ServeContent &C = Contents[R.Content];
  std::string Op = serveOpLabel(C.Op);
  Op = Op.substr(0, Op.find('-'));
  std::string Out;
  Out.reserve(C.Body.size() + 48);
  Out += "{\"op\":\"" + Op + "\",\"id\":\"" + R.Id + "\"";
  Out += C.Body;
  return Out;
}

std::vector<std::string> ServeStream::warmupLines() const {
  std::vector<std::string> Out;
  for (size_t I = 0; I < Warm.size(); ++I)
    Out.push_back(line({Warm[I], ReqClass::Repeat, tagged("w", I)}));
  for (int Round = 0; Round < 2; ++Round)
    for (size_t I = 0; I < Hot.size(); ++I)
      Out.push_back(line({Hot[I], ReqClass::Hot, tagged("h", I)}));
  return Out;
}

uint64_t Arrivals::nextGapNs(double Rate) {
  // 53 random bits give a uniform in (0, 1].
  double U = (static_cast<double>(R.next() >> 11) + 1.0) / 9007199254740992.0;
  return static_cast<uint64_t>(-std::log(U) / Rate * 1e9);
}

} // namespace perfbench
} // namespace dcb

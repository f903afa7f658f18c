//===- perfbench/tests/GenTest.cpp - Seeded input generator tests ---------===//
//
// The benchmark's own tests of its input generators: the same seed gives
// byte-identical inputs, a different seed gives different ones, and the
// generated shares (ops, hit classes, corpus shape) land on their targets.
// Exits non-zero on the first failed check.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

using namespace dcb;
using namespace dcb::perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const char *What) {
  std::printf("%s: %s\n", Ok ? "ok  " : "FAIL", What);
  Failures += !Ok;
}

bool sameCorpus(const std::vector<CorpusCubin> &A,
                const std::vector<CorpusCubin> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].A != B[I].A || A[I].Image != B[I].Image)
      return false;
  return true;
}

std::vector<std::string> lines(uint64_t Seed, size_t N) {
  ServeStream S(Seed);
  std::vector<std::string> Out = S.warmupLines();
  for (const ServeRequest &R : S.take(N))
    Out.push_back(S.line(R));
  return Out;
}

void testCorpus() {
  std::vector<CorpusCubin> A = makeRewriteCorpus(7), B = makeRewriteCorpus(7),
                           C = makeRewriteCorpus(8);
  expect(sameCorpus(A, B), "rewrite corpus: same seed, identical bytes");
  expect(!sameCorpus(A, C), "rewrite corpus: different seed, different bytes");

  std::set<Arch> Archs;
  bool SizesOk = true;
  std::map<Arch, size_t> PerArch;
  for (const CorpusCubin &Cubin : A) {
    Archs.insert(Cubin.A);
    SizesOk &= Cubin.Kernels >= 8 && Cubin.Kernels <= 160;
    PerArch[Cubin.A] += Cubin.Kernels;
    Expected<elf::Cubin> Parsed = elf::Cubin::deserialize(Cubin.Image);
    SizesOk &= Parsed && Parsed->kernels().size() == Cubin.Kernels;
  }
  expect(Archs.size() == benchArchs().size(), "rewrite corpus: every arch");
  expect(SizesOk, "rewrite corpus: 8..160 kernels per cubin, images parse");
  bool Fixed = true;
  for (const auto &[Arch, N] : PerArch)
    Fixed &= N == KernelsPerArch;
  expect(Fixed, "rewrite corpus: fixed kernel count per arch");
}

void testServeStream() {
  std::vector<std::string> A = lines(3, 2000), B = lines(3, 2000),
                           C = lines(4, 2000);
  expect(A == B, "serve stream: same seed, identical request lines");
  expect(A != C, "serve stream: different seed, different request lines");

  Arrivals X(3), Y(3), Z(4);
  bool SameGaps = true, DiffGaps = false;
  double Sum = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    uint64_t G = X.nextGapNs(1000);
    SameGaps &= G == Y.nextGapNs(1000);
    DiffGaps |= G != Z.nextGapNs(1000);
    Sum += static_cast<double>(G);
  }
  expect(SameGaps && DiffGaps, "arrivals: seeded");
  expect(std::fabs(Sum / N / 1e6 - 1.0) < 0.03,
         "arrivals: mean gap 1 ms at 1000 req/s");

  ServeStream S(11);
  std::vector<ServeRequest> Reqs = S.take(N);
  size_t Op[NumServeOps] = {}, Class[3] = {};
  std::set<std::string> HotLines;
  for (const ServeRequest &R : Reqs) {
    ++Op[static_cast<unsigned>(S.contents()[R.Content].Op)];
    ++Class[static_cast<unsigned>(R.Class)];
    if (R.Class == ReqClass::Hot)
      HotLines.insert(S.line(R));
  }
  bool MixOk = true;
  for (unsigned O = 0; O < NumServeOps; ++O) {
    double Pct = 100.0 * Op[O] / N;
    double Target = serveOpTargetPct(static_cast<ServeOp>(O));
    std::printf("      %-16s %5.1f%% (target %4.1f%%)\n",
                serveOpLabel(static_cast<ServeOp>(O)), Pct, Target);
    MixOk &= std::fabs(Pct - Target) < 2.0;
  }
  expect(MixOk, "serve stream: op mix within 2 points of target");
  double Hot = 100.0 * Class[0] / N, Repeat = 100.0 * Class[1] / N,
         Fresh = 100.0 * Class[2] / N;
  std::printf("      hot %.1f%%, repeat %.1f%%, fresh %.1f%%\n", Hot, Repeat,
              Fresh);
  expect(std::fabs(Hot - HotPct) < 1.5 && std::fabs(Repeat - RepeatPct) < 1.5 &&
             std::fabs(Fresh - (100 - HotPct - RepeatPct)) < 1.5,
         "serve stream: hit classes within 1.5 points of 30/30/40");
  expect(HotLines.size() == ServeStream::NumHot,
         "serve stream: hot requests repeat a fixed set of lines");
  std::set<uint32_t> FreshContents;
  size_t FreshCount = 0;
  for (const ServeRequest &R : Reqs)
    if (R.Class == ReqClass::Fresh) {
      FreshContents.insert(R.Content);
      ++FreshCount;
    }
  expect(FreshContents.size() == FreshCount,
         "serve stream: every fresh request carries new content");
  bool AsmIsKepler = true;
  for (const ServeContent &C : S.contents())
    if (C.Op == ServeOp::Asm)
      AsmIsKepler &= C.A == Arch::SM35;
  expect(AsmIsKepler, "serve stream: asm requests carry sm_35 listings");
}

} // namespace

int main() {
  testCorpus();
  testServeStream();
  std::printf("%s\n", Failures ? "FAILED" : "all generator checks passed");
  return Failures ? 1 : 0;
}

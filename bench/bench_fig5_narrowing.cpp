//===- bench/bench_fig5_narrowing.cpp - Paper Fig. 5 -----------------------===//
//
// Fig. 5 walks through the operand bit-sequence search: the first FFMA
// instance (operand R9) yields candidate windows; the second (operand R5)
// narrows them until only the true field survives. The report replays that
// walkthrough; the benchmarks time the component narrowing primitive on
// 64- and 128-bit words for the register, integer and float kind lists.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "analyzer/Records.h"

#include <benchmark/benchmark.h>

using namespace dcb;
using namespace dcb::analyzer;

namespace {

void report() {
  std::printf("=== Fig. 5: looking for the bits controlled by the first "
              "operand ===\n");

  // Instance 1: FFMA R9, ... — plant the value 9 at the true field (bit 2)
  // and at two decoys, as in the figure.
  BitString First(64);
  First.setField(2, 8, 9);
  First.setField(19, 5, 9);
  First.setField(59, 4, 9);
  ComponentRec Comp;
  CompValue V;
  V.IsReg = true;
  V.Int = 9;
  Comp.narrow(First, V, {InterpKind::Plain});

  auto show = [&](const char *When) {
    std::printf("%s:", When);
    for (auto [B, S] : Comp.windows(InterpKind::Plain))
      if (B == 2 || B == 19 || B == 59)
        std::printf("  bit %u size %u", B, S);
    std::printf("\n");
  };
  show("after FFMA with R9 (value 1001b)");

  // Instance 2: FFMA R5, ... — the decoys no longer hold the value.
  BitString Second(64);
  Second.setField(2, 8, 5);
  Second.setField(19, 5, 16);
  Second.setField(59, 4, 3);
  V.Int = 5;
  Comp.narrow(Second, V, {InterpKind::Plain});
  show("after FFMA with R5 (value  101b)");

  bool TrueFieldSurvives = false, DecoysDead = true;
  for (auto [B, S] : Comp.windows(InterpKind::Plain)) {
    if (B == 2)
      TrueFieldSurvives = true;
    if (B == 19 || B == 59)
      DecoysDead = false;
  }
  std::printf("true field at bit 2 survives: %s; decoys eliminated: %s\n\n",
              TrueFieldSurvives ? "yes" : "NO", DecoysDead ? "yes" : "NO");
}

/// The analyzer's kind lists by bench argument: 0 = a register ({Plain}),
/// 1 = an integer literal ({Plain, Signed}), 2 = a float literal
/// ({Float32Hi, Float64Hi}).
const std::vector<InterpKind> &benchKinds(int64_t List) {
  return interpKindsFor(List == 0 ? 'r' : List == 1 ? 'i' : 'f', 0, "FFMA");
}

/// A component value for kind list \p List and its word of \p Bits bits
/// with the value planted at its true field: bits 2..9 for the integer
/// lists, the top 20 bits of the float at bits 20..39 for the float list.
std::pair<CompValue, BitString> benchInstance(int64_t List, unsigned Bits,
                                              int64_t Value) {
  CompValue V;
  BitString Word(Bits);
  if (List == 2) {
    V.Float = static_cast<double>(Value) + 0.5;
    uint64_t Top;
    interpEncode(InterpKind::Float32Hi, V, 20, Top);
    Word.setField(20, 20, Top);
  } else {
    V.IsReg = List == 0;
    V.Int = Value;
    Word.setField(2, 8, static_cast<uint64_t>(Value));
  }
  return {V, Word};
}

void BM_NarrowOneInstance(benchmark::State &State) {
  const auto &Kinds = benchKinds(State.range(1));
  auto [V, Word] = benchInstance(State.range(1),
                                 static_cast<unsigned>(State.range(0)), 9);
  for (auto _ : State) {
    ComponentRec Comp;
    Comp.narrow(Word, V, Kinds);
    benchmark::DoNotOptimize(Comp);
  }
}

void BM_NarrowConvergedComponent(benchmark::State &State) {
  // Steady-state narrowing (already-converged component): the common case
  // when analyzing a large listing.
  const auto &Kinds = benchKinds(State.range(1));
  const unsigned Bits = static_cast<unsigned>(State.range(0));
  ComponentRec Comp;
  for (int64_t Value : {9, 5, 200, 13, 1}) {
    auto [V, Word] = benchInstance(State.range(1), Bits, Value);
    Comp.narrow(Word, V, Kinds);
  }
  auto [V, Word] = benchInstance(State.range(1), Bits, 77);
  for (auto _ : State) {
    Comp.narrow(Word, V, Kinds);
    benchmark::DoNotOptimize(Comp);
  }
}

void BM_AnalyzeInstFullPipeline(benchmark::State &State) {
  using namespace dcb::bench;
  const ArchData &Data = archData(Arch::SM35);
  const ListingInst &Pair = Data.Listing.Kernels.front().Insts.front();
  for (auto _ : State) {
    IsaAnalyzer Analyzer(Arch::SM35);
    Analyzer.analyzeInst(Pair, "bench");
    benchmark::DoNotOptimize(Analyzer);
  }
}

} // namespace

BENCHMARK(BM_NarrowOneInstance)
    ->ArgsProduct({{64, 128}, {0, 1, 2}})
    ->ArgNames({"bits", "kinds"});
BENCHMARK(BM_NarrowConvergedComponent)
    ->ArgsProduct({{64, 128}, {0, 1, 2}})
    ->ArgNames({"bits", "kinds"});
BENCHMARK(BM_AnalyzeInstFullPipeline);

int main(int argc, char **argv) {
  report();
  dcb::bench::addTelemetryContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

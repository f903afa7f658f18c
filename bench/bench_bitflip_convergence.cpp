//===- bench/bench_bitflip_convergence.cpp - §III-B enrichment -------------===//
//
// §III-B: the bit flipper generates single-bit variants of every known
// operation, injects them into an executable, and re-extracts assembly;
// crashes of the closed-source disassembler are expected and tolerated;
// the process repeats "until the results converge". The report shows the
// per-round discovery curve (strictly growing knowledge, then a fixpoint),
// the crash/accept/reject split and the dedup-cache hit rate, the paper's
// fast mode that skips consistent (opcode-estimate) bits, and the wall
// clock of the engine's three trial tiers (same database from each). The
// benchmarks time one flip round and a whole convergence per tier.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>

using namespace dcb;
using namespace dcb::bench;

namespace {

/// Which callback tier a configuration exercises. FullKernel is how the
/// engine's predecessor spent a variant (disassemble + parse the whole
/// kernel); Window narrows that to one listing line; Decoder drops the
/// print -> parse round trip entirely (structured sass::Instructions).
enum class TrialMode { FullKernel, Window, Decoder };

analyzer::BitFlipper makeModeFlipper(analyzer::IsaAnalyzer &Analyzer,
                                     Arch A, TrialMode Mode) {
  return analyzer::BitFlipper(
      Analyzer, makeDisassembler(A),
      Mode == TrialMode::Window ? makeWindowDisassembler(A)
                                : analyzer::WindowDisassembler(),
      Mode == TrialMode::Decoder ? makeWindowDecoder(A)
                                 : analyzer::WindowDecoder());
}

/// Runs a full convergence and returns wall-clock milliseconds.
double runConvergence(Arch A, TrialMode Mode, std::string *SerializedOut) {
  const ArchData &Data = archData(A);
  analyzer::IsaAnalyzer Analyzer(A);
  (void)Analyzer.analyzeListing(Data.Listing);
  analyzer::BitFlipper Flipper = makeModeFlipper(Analyzer, A, Mode);
  analyzer::BitFlipper::Options Opts;
  Opts.MaxRounds = 6;
  auto Start = std::chrono::steady_clock::now();
  Flipper.run(Data.KernelCode, Opts);
  std::chrono::duration<double, std::milli> Elapsed =
      std::chrono::steady_clock::now() - Start;
  if (SerializedOut)
    *SerializedOut = Analyzer.database().serialize();
  return Elapsed.count();
}

void report() {
  std::printf("=== Bit-flip convergence (§III-B) ===\n");
  for (Arch A : {Arch::SM20, Arch::SM35, Arch::SM61}) {
    const ArchData &Data = archData(A);
    analyzer::IsaAnalyzer Analyzer(A);
    (void)Analyzer.analyzeListing(Data.Listing);
    auto Before = Analyzer.database().stats();

    analyzer::BitFlipper Flipper = makeFlipper(Analyzer, A);
    analyzer::BitFlipper::Options Opts;
    Opts.MaxRounds = 6;
    auto Rounds = Flipper.run(Data.KernelCode, Opts);

    std::printf("--- %s (suite: %zu ops, %zu mods, %zu unaries, %zu "
                "tokens) ---\n",
                archName(A), Before.NumOperations, Before.NumModifiers,
                Before.NumUnaries, Before.NumTokens);
    std::printf("%-6s %9s %8s %9s %9s %7s %7s %6s %8s %8s\n", "round",
                "variants", "crashes", "accepted", "rejected", "hits",
                "newops", "mods", "unaries", "tokens");
    unsigned TotalVariants = 0, TotalHits = 0;
    for (size_t R = 0; R < Rounds.size(); ++R) {
      std::printf("%-6zu %9u %8u %9u %9u %7u %7u %6zu %8zu %8zu\n", R + 1,
                  Rounds[R].VariantsTried, Rounds[R].Crashes,
                  Rounds[R].Accepted, Rounds[R].Rejected,
                  Rounds[R].CacheHits, Rounds[R].NewOperations,
                  Rounds[R].After.NumModifiers, Rounds[R].After.NumUnaries,
                  Rounds[R].After.NumTokens);
      TotalVariants += Rounds[R].VariantsTried;
      TotalHits += Rounds[R].CacheHits;
    }
    std::printf("converged after %zu round(s); dedup cache absorbed "
                "%u/%u variants (%.1f%%)\n",
                Rounds.size(), TotalHits, TotalVariants,
                TotalVariants ? 100.0 * TotalHits / TotalVariants : 0.0);

    // Fast mode: skip bits still consistent across every instance.
    analyzer::IsaAnalyzer Fast(A);
    (void)Fast.analyzeListing(Data.Listing);
    analyzer::BitFlipper FastFlipper = makeFlipper(Fast, A);
    analyzer::BitFlipper::Options FastOpts;
    FastOpts.MaxRounds = 6;
    FastOpts.SkipConsistentBits = true;
    auto FastRounds = FastFlipper.run(Data.KernelCode, FastOpts);
    unsigned FastVariants = 0, FastCrashes = 0;
    for (const auto &R : FastRounds) {
      FastVariants += R.VariantsTried;
      FastCrashes += R.Crashes;
    }
    unsigned FullVariants = 0, FullCrashes = 0;
    for (const auto &R : Rounds) {
      FullVariants += R.VariantsTried;
      FullCrashes += R.Crashes;
    }
    std::printf("fast mode (narrowed flip range): %u variants / %u "
                "crashes vs full %u / %u — fewer disassembler crashes, "
                "as the paper reports\n",
                FastVariants, FastCrashes, FullVariants, FullCrashes);

    // Engine wall clock, three tiers, identical database each time.
    // "full-kernel" is how the engine's predecessor spent a variant; the
    // window fast path narrows the disassembly; the decoder path also
    // skips print -> parse.
    std::string FullDb, WindowDb, DecodeDb;
    double FullMs = runConvergence(A, TrialMode::FullKernel, &FullDb);
    double WindowMs = runConvergence(A, TrialMode::Window, &WindowDb);
    double DecodeMs = runConvergence(A, TrialMode::Decoder, &DecodeDb);
    std::printf("wall clock: full-kernel %.1f ms | window %.1f ms (%.2fx) "
                "| decoder %.1f ms (%.2fx, %.2fx vs window)\n",
                FullMs, WindowMs, WindowMs > 0 ? FullMs / WindowMs : 0.0,
                DecodeMs, DecodeMs > 0 ? FullMs / DecodeMs : 0.0,
                DecodeMs > 0 ? WindowMs / DecodeMs : 0.0);
    if (FullDb != WindowDb || WindowDb != DecodeDb) {
      std::printf("TIER MISMATCH: the three trial tiers learned different "
                  "databases on %s\n",
                  archName(A));
      std::abort();
    }
    std::printf("databases byte-identical across all three: yes\n\n");
  }
}

void BM_OneFlipRound(benchmark::State &State) {
  Arch A = static_cast<Arch>(State.range(0));
  TrialMode Mode = static_cast<TrialMode>(State.range(1));
  const ArchData &Data = archData(A);
  for (auto _ : State) {
    State.PauseTiming(); // Suite analysis is setup, not the flip loop.
    analyzer::IsaAnalyzer Analyzer(A);
    (void)Analyzer.analyzeListing(Data.Listing);
    analyzer::BitFlipper Flipper = makeModeFlipper(Analyzer, A, Mode);
    analyzer::BitFlipper::Options Opts;
    Opts.MaxRounds = 1;
    State.ResumeTiming();
    auto Rounds = Flipper.run(Data.KernelCode, Opts);
    benchmark::DoNotOptimize(Rounds);
  }
}

void BM_FlipToConvergence(benchmark::State &State) {
  Arch A = static_cast<Arch>(State.range(0));
  TrialMode Mode = static_cast<TrialMode>(State.range(1));
  const ArchData &Data = archData(A);
  for (auto _ : State) {
    State.PauseTiming();
    analyzer::IsaAnalyzer Analyzer(A);
    (void)Analyzer.analyzeListing(Data.Listing);
    analyzer::BitFlipper Flipper = makeModeFlipper(Analyzer, A, Mode);
    analyzer::BitFlipper::Options Opts;
    Opts.MaxRounds = 6;
    State.ResumeTiming();
    auto Rounds = Flipper.run(Data.KernelCode, Opts);
    benchmark::DoNotOptimize(Rounds);
  }
}

} // namespace

// mode:0 is the engine's predecessor (whole-kernel disassembly per
// variant); mode:1 is the one-word window; mode:2 adds the print-free
// structured decode. The databases produced are identical in every row.
BENCHMARK(BM_OneFlipRound)
    ->Args({static_cast<int>(Arch::SM35), 0})
    ->Args({static_cast<int>(Arch::SM35), 1})
    ->Args({static_cast<int>(Arch::SM35), 2})
    ->ArgNames({"arch", "mode"})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_FlipToConvergence)
    ->Args({static_cast<int>(Arch::SM35), 0})
    ->Args({static_cast<int>(Arch::SM35), 1})
    ->Args({static_cast<int>(Arch::SM35), 2})
    ->ArgNames({"arch", "mode"})
    ->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  report();
  dcb::bench::addTelemetryContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

//===- bench/BenchCommon.h - Shared benchmark plumbing ----------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table/per-figure benchmark binaries: cached
/// suite compilation, listing parsing and database learning per
/// architecture, so the timed sections measure the phase under test and
/// not the setup.
///
/// Every bench binary follows the same pattern: a report section that
/// regenerates the corresponding table/figure of the paper (shape
/// validation), followed by google-benchmark timings.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_BENCH_BENCHCOMMON_H
#define DCB_BENCH_BENCHCOMMON_H

#include "analyzer/BitFlipper.h"
#include "analyzer/IsaAnalyzer.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "workloads/Suite.h"

#include <map>
#include <memory>

namespace dcb {
namespace bench {

/// Embeds the current telemetry counter snapshot into the benchmark JSON
/// context as "dcb_telemetry_snapshot" (defined in BenchContext.cpp).
/// Call it from main() after the report section and before
/// benchmark::Initialize, so AddCustomContext lands ahead of the reporter.
void addTelemetryContext();

/// Everything derived from one architecture's suite build.
struct ArchData {
  Arch A;
  elf::Cubin Cubin{Arch::SM35};
  std::string ListingText;
  analyzer::Listing Listing;
  std::map<std::string, std::vector<uint8_t>> KernelCode;
  analyzer::EncodingDatabase SuiteDb{Arch::SM35};   ///< Suite only.
  analyzer::EncodingDatabase FlippedDb{Arch::SM35}; ///< Suite + flipping.
};

inline analyzer::KernelDisassembler makeDisassembler(Arch A) {
  return [A](const std::string &Name, const std::vector<uint8_t> &Code) {
    return vendor::disassembleKernelCode(A, Name, Code);
  };
}

/// The flipper's single-word fast path (see BitFlipper.h).
inline analyzer::WindowDisassembler makeWindowDisassembler(Arch A) {
  return [A](const std::string &Name, const std::vector<uint8_t> &Code,
             uint64_t Addr) {
    return vendor::disassembleInstructionAt(A, Name, Code, Addr);
  };
}

/// The flipper's print-free structured fast path (see BitFlipper.h).
inline analyzer::WindowDecoder makeWindowDecoder(Arch A) {
  return [A](const std::string &Name, const std::vector<uint8_t> &Code,
             uint64_t Addr) -> Expected<analyzer::WindowDecode> {
    Expected<vendor::DecodedWord> W =
        vendor::decodeInstructionAt(A, Name, Code, Addr);
    if (!W)
      return std::move(W).takeError();
    analyzer::WindowDecode D;
    if (!W->IsSchi) {
      D.HasPair = true;
      D.Pair.Address = W->Address;
      D.Pair.Inst = std::move(W->Inst);
      D.Pair.Binary = std::move(W->Word);
    }
    return D;
  };
}

/// A flipper wired with every callback tier: the full-kernel disassembler,
/// the one-word window, and the print-free structured decoder (which wins).
inline analyzer::BitFlipper makeFlipper(analyzer::IsaAnalyzer &Analyzer,
                                        Arch A) {
  return analyzer::BitFlipper(Analyzer, makeDisassembler(A),
                              makeWindowDisassembler(A),
                              makeWindowDecoder(A));
}

/// Builds (and caches) the full pipeline state for \p A.
inline const ArchData &archData(Arch A) {
  static std::map<Arch, std::unique_ptr<ArchData>> Cache;
  auto It = Cache.find(A);
  if (It != Cache.end())
    return *It->second;

  auto Data = std::make_unique<ArchData>();
  Data->A = A;
  vendor::NvccSim Nvcc(A);
  Expected<elf::Cubin> Cubin = Nvcc.compile(workloads::buildSuite(A));
  if (!Cubin) {
    std::fprintf(stderr, "bench setup: %s\n", Cubin.message().c_str());
    std::abort();
  }
  Data->Cubin = Cubin.takeValue();
  Expected<std::string> Text = vendor::disassembleCubin(Data->Cubin);
  if (!Text) {
    std::fprintf(stderr, "bench setup: %s\n", Text.message().c_str());
    std::abort();
  }
  Data->ListingText = Text.takeValue();
  Expected<analyzer::Listing> L = analyzer::parseListing(Data->ListingText);
  if (!L) {
    std::fprintf(stderr, "bench setup: %s\n", L.message().c_str());
    std::abort();
  }
  Data->Listing = L.takeValue();
  for (const elf::KernelSection &Kernel : Data->Cubin.kernels())
    Data->KernelCode[Kernel.Name] = Kernel.Code;

  analyzer::IsaAnalyzer Analyzer(A);
  if (Error E = Analyzer.analyzeListing(Data->Listing)) {
    std::fprintf(stderr, "bench setup: %s\n", E.message().c_str());
    std::abort();
  }
  Data->SuiteDb = Analyzer.database();

  analyzer::BitFlipper Flipper = makeFlipper(Analyzer, A);
  Flipper.run(Data->KernelCode);
  Data->FlippedDb = Analyzer.database();

  auto [Slot, Inserted] = Cache.emplace(A, std::move(Data));
  (void)Inserted;
  return *Slot->second;
}

inline std::vector<Arch> allArchs() {
  unsigned Count = 0;
  const Arch *Archs = supportedArchs(Count);
  return std::vector<Arch>(Archs, Archs + Count);
}

} // namespace bench
} // namespace dcb

#endif // DCB_BENCH_BENCHCOMMON_H

//===- tests/LearnedDb.h - Learned-database fingerprints ---------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fingerprints what the artifact workflow learns on each arch: hash64 of
/// the serialized database after Algorithms 1-2 over the suite listing,
/// again after bit flipping with default options (wired like `dcb flip`:
/// whole-kernel, one-word and print-free callbacks), and of the C++
/// assembler source generated from the flipped database. One line per
/// arch. tests/learned_db.golden pins the rendering, so a change to the
/// learning loop that moves a single learned bit fails analyzer_test. The
/// header is self-contained so that the golden file can be regenerated in
/// another checkout; analyzer_test also takes its flipper wiring from it.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_TESTS_LEARNEDDB_H
#define DCB_TESTS_LEARNEDDB_H

#include "analyzer/BitFlipper.h"
#include "analyzer/IsaAnalyzer.h"
#include "analyzer/Listing.h"
#include "asmgen/AssemblerGenerator.h"
#include "support/Hash.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "workloads/Suite.h"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace dcb {
namespace learneddb {

/// The flipper's three disassembler tiers on the vendor tool, wired as
/// `dcb flip` wires them: whole kernel, one word as text, one word decoded.
inline analyzer::KernelDisassembler makeDisassembler(Arch A) {
  return [A](const std::string &Name, const std::vector<uint8_t> &Code) {
    return vendor::disassembleKernelCode(A, Name, Code);
  };
}

inline analyzer::WindowDisassembler makeWindowDisassembler(Arch A) {
  return [A](const std::string &Name, const std::vector<uint8_t> &Code,
             uint64_t Addr) {
    return vendor::disassembleInstructionAt(A, Name, Code, Addr);
  };
}

inline analyzer::WindowDecoder makeWindowDecoder(Arch A) {
  return [A](const std::string &Name, const std::vector<uint8_t> &Code,
             uint64_t Addr) -> Expected<analyzer::WindowDecode> {
    Expected<vendor::DecodedWord> W =
        vendor::decodeInstructionAt(A, Name, Code, Addr);
    if (!W)
      return W.takeError();
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

inline std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// "sm_35 analyze=... flip=... genasm=...", or "sm_35 error: ..." when a
/// pipeline step fails.
inline std::string renderLearnedDb(Arch A) {
  const std::string Name = archName(A);
  vendor::NvccSim Nvcc(A);
  Expected<elf::Cubin> Cubin = Nvcc.compile(workloads::buildSuite(A));
  if (!Cubin)
    return Name + " error: " + Cubin.message();
  Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
  if (!Text)
    return Name + " error: " + Text.message();
  Expected<analyzer::Listing> L = analyzer::parseListing(*Text);
  if (!L)
    return Name + " error: " + L.message();
  std::map<std::string, std::vector<uint8_t>> KernelCode;
  for (const elf::KernelSection &Kernel : Cubin->kernels())
    KernelCode[Kernel.Name] = Kernel.Code;

  analyzer::IsaAnalyzer Analyzer(A);
  if (Error E = Analyzer.analyzeListing(*L))
    return Name + " error: " + E.message();
  const uint64_t Analyzed = hash64(Analyzer.database().serialize());

  analyzer::BitFlipper Flipper(Analyzer, makeDisassembler(A),
                               makeWindowDisassembler(A),
                               makeWindowDecoder(A));
  Flipper.run(KernelCode);
  const uint64_t Flipped = hash64(Analyzer.database().serialize());
  const uint64_t Generated =
      hash64(asmgen::generateAssemblerSource(Analyzer.database()));
  return Name + " analyze=" + hex64(Analyzed) + " flip=" + hex64(Flipped) +
         " genasm=" + hex64(Generated);
}

} // namespace learneddb
} // namespace dcb

#endif // DCB_TESTS_LEARNEDDB_H

//===- serve/Ops.cpp ------------------------------------------------------===//

#include "serve/Ops.h"

#include "analysis/Cfg.h"
#include "analysis/Findings.h"
#include "analysis/Hazards.h"
#include "analysis/RegModel.h"
#include "analysis/TypeInference.h"
#include "asmgen/TableAssembler.h"
#include "elf/Cubin.h"
#include "ir/Builder.h"
#include "support/Json.h"
#include "vm/MemModel.h"

#include <cinttypes>
#include <cstdio>

using namespace dcb;
using namespace dcb::serve;

Expected<ir::Program> dcb::serve::loadProgramBytes(const std::string &Raw,
                                                   const std::string &Name) {
  std::string ListingText;
  Expected<elf::Cubin> Cubin =
      elf::Cubin::deserialize(std::vector<uint8_t>(Raw.begin(), Raw.end()));
  if (Cubin) {
    Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
    if (!Text)
      return Text.takeError();
    ListingText = std::move(*Text);
  } else {
    ListingText = Raw;
  }
  Expected<analyzer::Listing> L = analyzer::parseListing(ListingText);
  if (!L)
    return Failure(Name + ": not a cubin, and not a listing either: " +
                   L.message());
  Expected<ir::Program> P = ir::buildProgram(*L);
  if (!P)
    return P.takeError();
  return P;
}

Expected<OpResult>
dcb::serve::opDisasm(const std::vector<uint8_t> &Image,
                     const vendor::DisasmOptions &Options) {
  Expected<std::string> Text = vendor::disassembleImage(Image, Options);
  if (!Text)
    return Text.takeError();
  OpResult R;
  R.Output = std::move(*Text);
  return R;
}

Expected<OpResult> dcb::serve::opAsm(const analyzer::EncodingDatabase &Db,
                                     const std::string &ListingText,
                                     const BatchOptions &Batch) {
  Expected<analyzer::Listing> L = analyzer::parseListing(ListingText);
  if (!L)
    return L.takeError();

  // Whole-listing batch; results come back in listing order, so the
  // output is identical for every thread count.
  std::vector<asmgen::AsmJob> Jobs;
  for (const analyzer::ListingKernel &Kernel : L->Kernels)
    for (const analyzer::ListingInst &Pair : Kernel.Insts)
      Jobs.push_back({&Pair.Inst, Pair.Address});
  std::vector<Expected<BitString>> Words =
      asmgen::assembleProgram(Db, Jobs, Batch);

  OpResult R;
  for (Expected<BitString> &Word : Words) {
    if (!Word) {
      R.Errors.push_back("error: " + Word.message());
      continue;
    }
    R.Output += "0x" + Word->toHex() + "\n";
  }
  return R;
}

Expected<OpResult> dcb::serve::opExec(const std::string &FileBytes,
                                      const std::string &FileName,
                                      const std::string &Kernel,
                                      const vm::ExecOptions &Options) {
  Expected<ir::Program> P = loadProgramBytes(FileBytes, FileName);
  if (!P)
    return P.takeError();

  std::vector<const ir::Kernel *> Kernels;
  if (Kernel == "all") {
    for (const ir::Kernel &K : P->Kernels)
      Kernels.push_back(&K);
  } else {
    const ir::Kernel *K = P->findKernel(Kernel);
    if (!K)
      return Failure("no kernel named " + Kernel);
    Kernels.push_back(K);
  }

  OpResult R;
  char Line[512];
  for (const ir::Kernel *K : Kernels) {
    vm::ExecSummary S = vm::execKernel(*K, Options.FirstSeed, Options);
    if (S.Failed) {
      R.Output += S.Kernel + ": error: " + S.Error + "\n";
      R.Exit = 1;
      continue;
    }
    std::snprintf(Line, sizeof(Line),
                  "%s: issues=%" PRIu64 " steps=%" PRIu64 " wraps=%" PRIu64
                  " barriers=%" PRIu64 " global=%016" PRIx64
                  " regs=%016" PRIx64,
                  S.Kernel.c_str(), S.Issues, S.LaneSteps, S.MemWraps,
                  S.Barriers, S.GlobalCrc, S.RegsCrc);
    R.Output += Line;
    // Only present when asked for, so pre-watch outputs stay byte-stable.
    if (Options.WatchShared) {
      std::snprintf(Line, sizeof(Line), " shared_conflicts=%" PRIu64,
                    S.SharedConflicts);
      R.Output += Line;
    }
    R.Output += "\n";
  }
  return R;
}

Expected<OpResult> dcb::serve::opLint(const std::string &FileBytes,
                                      const std::string &TargetName) {
  Expected<ir::Program> P = loadProgramBytes(FileBytes, TargetName);
  if (!P)
    return P.takeError();
  analysis::Report R;
  for (const ir::Kernel &K : P->Kernels) {
    R.append(analysis::validateCfg(K));
    R.append(analysis::checkHazards(K));
  }
  OpResult Out;
  Out.Output = R.toJson(TargetName);
  Out.Exit = R.clean() ? 0 : 1;
  return Out;
}

namespace {

/// Per-kernel fragment of the dcb-analysis-v1 document: name/arch always,
/// plus the solver's type facts in --types mode (non-bottom register
/// masks at each block exit, in fixed slot order).
std::string kernelFragment(const ir::Kernel &K, const std::string &Mode) {
  std::string Out = "{\"name\": ";
  json::appendString(Out, K.Name);
  Out += ", \"arch\": \"" + std::string(archName(K.A)) + "\"";
  if (Mode != "types")
    return Out + "}";

  const analysis::TypeInference T = analysis::inferTypes(K);
  Out += ", \"iterations\": " + std::to_string(T.Iterations);
  Out += ", \"blocks\": [";
  for (size_t B = 0; B < K.Blocks.size(); ++B) {
    if (B)
      Out += ", ";
    Out += "{\"out\": {";
    bool First = true;
    for (unsigned S = 0; S < analysis::kNumRegSlots; ++S) {
      if (!T.Out[B][S])
        continue;
      if (!First)
        Out += ", ";
      First = false;
      Out += "\"" + analysis::slotName(S) + "\": \"" +
             analysis::typeMaskName(T.Out[B][S]) + "\"";
    }
    Out += "}}";
  }
  Out += "]";
  return Out + "}";
}

} // namespace

Expected<OpResult> dcb::serve::opAnalyze(const std::string &FileBytes,
                                         const std::string &TargetName,
                                         const AnalyzeOptions &Options) {
  if (Options.Mode != "types" && Options.Mode != "bounds" &&
      Options.Mode != "races")
    return Failure("analyze mode must be types, bounds or races");
  if (Options.Mode != "types")
    if (Error E = analysis::validateLaunchShape(Options.Shape))
      return E;
  Expected<ir::Program> P = loadProgramBytes(FileBytes, TargetName);
  if (!P)
    return P.takeError();

  std::string Kernels;
  analysis::Report R;
  for (const ir::Kernel &K : P->Kernels) {
    if (!Kernels.empty())
      Kernels += ", ";
    Kernels += kernelFragment(K, Options.Mode);
    if (Options.Mode == "types")
      R.append(analysis::checkTypes(K));
    else if (Options.Mode == "bounds")
      R.append(analysis::checkBounds(K, Options.Shape));
    else
      R.append(analysis::checkRaces(K, Options.Shape));
  }

  std::string Doc = "{\n\"schema\": \"dcb-analysis-v1\",\n\"target\": ";
  json::appendString(Doc, TargetName);
  Doc += ",\n\"mode\": \"" + Options.Mode + "\",\n";
  if (Options.Mode != "types") {
    const analysis::LaunchShape &S = Options.Shape;
    Doc += "\"shape\": {\"threads\": " + std::to_string(S.NumThreads) +
           ", \"blocks\": " + std::to_string(S.NumBlocks) +
           ", \"warp_size\": " + std::to_string(S.WarpSize) +
           ", \"global\": " + std::to_string(vm::kGlobalBytes) +
           ", \"shared\": " + std::to_string(vm::kSharedBytes) +
           ", \"local\": " + std::to_string(vm::kLocalBytes) + "},\n";
  }
  Doc += "\"kernels\": [" + Kernels + "],\n";
  Doc += analysis::findingsJsonFragment(R);
  Doc += "\n}\n";

  OpResult Out;
  Out.Output = std::move(Doc);
  switch (Options.Fail) {
  case FailOn::Error:
    Out.Exit = R.errorCount() > 0 ? 1 : 0;
    break;
  case FailOn::Warning:
    Out.Exit = R.Findings.empty() ? 0 : 1;
    break;
  case FailOn::Never:
    Out.Exit = 0;
    break;
  }
  return Out;
}

//===- asmgen/TableAssembler.cpp ------------------------------------------===//

#include "asmgen/TableAssembler.h"

#include "analyzer/FrozenIndex.h"
#include "analyzer/Signature.h"
#include "asmgen/AsmCore.h"
#include "sass/Printer.h"
#include "support/Telemetry.h"

using namespace dcb;
using namespace dcb::asmgen;
using namespace dcb::analyzer;

namespace {

/// Looks the instruction's operation up by integer key and runs the shared
/// executor. Failures gain this assembler's prefix here, so the success
/// path does no string work at all.
Expected<BitString> assembleWithIndex(const EncodingDatabase &Db,
                                      const FrozenIndex &Idx,
                                      const sass::Instruction &Inst,
                                      uint64_t Pc) {
  const FrozenOperation *Op = Idx.lookup(operationKeyId(Inst));
  Expected<BitString> Word =
      Op ? assembleOperation(*Op, Inst, Pc, Db.wordBits())
         : Failure("unknown operation " + operationKey(Inst));
  if (!Word)
    return Failure("assemble (" + std::string(archName(Db.arch())) + "): " +
                   Word.message() + " in '" + sass::printInstruction(Inst) +
                   "'");
  return Word;
}

} // namespace

Expected<BitString> asmgen::assembleInstruction(const EncodingDatabase &Db,
                                                const sass::Instruction &Inst,
                                                uint64_t Pc) {
  return assembleWithIndex(Db, Db.freeze(), Inst, Pc);
}

std::vector<Expected<BitString>>
asmgen::assembleProgram(const EncodingDatabase &Db,
                        const std::vector<AsmJob> &Jobs,
                        const BatchOptions &Options) {
  DCB_SPAN("asmgen.assembleProgram");
  static telemetry::Counter &AsmJobs =
      telemetry::counter("asmgen.assemble.jobs");
  static telemetry::Histogram &AsmBatchSize =
      telemetry::histogram("asmgen.assemble.batch_size");
  AsmJobs.add(Jobs.size());
  AsmBatchSize.record(Jobs.size());
  const FrozenIndex &Idx = Db.freeze();
  // Expected<> has no empty state; fill the slots with placeholder
  // successes, each overwritten exactly once by its own index.
  std::vector<Expected<BitString>> Results(
      Jobs.size(), Expected<BitString>(BitString()));
  TaskPool Pool(Options.NumThreads);
  parallelForChunked(
      Pool, Jobs.size(), kBatchChunkSize,
      [&](size_t I) {
        Results[I] = assembleWithIndex(Db, Idx, *Jobs[I].Inst, Jobs[I].Pc);
      },
      "asmgen.assemble.chunk");
  return Results;
}

unsigned asmgen::reassembleKernel(const EncodingDatabase &Db,
                                  const ListingKernel &Kernel,
                                  std::vector<std::string> *Mismatches) {
  Db.freeze();
  unsigned Identical = 0;
  for (const ListingInst &Pair : Kernel.Insts) {
    Expected<BitString> Word =
        assembleInstruction(Db, Pair.Inst, Pair.Address);
    if (Word.hasValue() && *Word == Pair.Binary) {
      ++Identical;
      continue;
    }
    if (Mismatches) {
      std::string Note = sass::printInstruction(Pair.Inst);
      Note += Word.hasValue() ? " [wrong bits]" : " [" + Word.message() + "]";
      Mismatches->push_back(std::move(Note));
    }
  }
  return Identical;
}

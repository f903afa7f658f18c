//===- ir/Layout.cpp ------------------------------------------------------===//

#include "ir/Layout.h"

#include "asmgen/TableAssembler.h"
#include "elf/Cubin.h"
#include "sass/CtrlInfo.h"
#include "sass/Parser.h"
#include "sass/Printer.h"

#include <cassert>

using namespace dcb;
using namespace dcb::ir;

Expected<std::vector<uint8_t>> ir::emitKernel(
    const analyzer::EncodingDatabase &Db, const Kernel &K) {
  assert(Db.arch() == K.A && "database/kernel architecture mismatch");
  const SchiKind Schi = archSchiKind(K.A);
  const unsigned WordBytes = archWordBits(K.A) / 8;

  // 1. Flatten blocks into pointers and pad the tail so complete SCHI
  //    groups form.
  static const Inst Padding = [] {
    Inst Nop;
    Nop.Asm = *sass::parseInstruction("NOP;");
    return Nop;
  }();
  const size_t Padded = sass::paddedInstCount(Schi, K.instructionCount());
  std::vector<const Inst *> Insts;
  Insts.reserve(Padded);
  std::vector<size_t> BlockStart(K.Blocks.size());
  for (size_t BlockIdx = 0; BlockIdx < K.Blocks.size(); ++BlockIdx) {
    BlockStart[BlockIdx] = Insts.size();
    for (const Inst &Entry : K.Blocks[BlockIdx].Insts)
      Insts.push_back(&Entry);
  }
  Insts.resize(Padded, &Padding);

  // 2. Assign addresses.
  std::vector<uint64_t> Addrs(Insts.size());
  for (size_t I = 0; I < Insts.size(); ++I)
    Addrs[I] = sass::instAddress(Schi, WordBytes, I);

  // 3. Check every block reference before assembling anything.
  for (const Inst *Entry : Insts) {
    if (Entry->TargetBlock < 0)
      continue;
    if (static_cast<size_t>(Entry->TargetBlock) >= K.Blocks.size())
      return Failure("ir: dangling block reference in kernel " + K.Name);
    if (BlockStart[Entry->TargetBlock] >= Insts.size())
      return Failure("ir: branch to empty tail block in kernel " + K.Name);
  }

  // 4. Assemble with the learned encodings and lay out the code. A
  //    branch is assembled from a copy whose target literal is regenerated
  //    from its block reference.
  //    The phony BINCODE opcode (paper §A.H) carries raw binary words that
  //    bypass the assembler: "BINCODE 0xlow;" or "BINCODE 0xlow, 0xhigh;".
  static const SymbolId Bincode = sass::internKnown("BINCODE");
  std::vector<BitString> Words(Insts.size());
  sass::Instruction Branch;
  for (size_t I = 0; I < Insts.size(); ++I) {
    const sass::Instruction *Asm = &Insts[I]->Asm;
    if (Insts[I]->TargetBlock >= 0) {
      Branch = *Asm;
      Branch.Operands.back() = sass::Operand::makeIntImm(
          static_cast<int64_t>(Addrs[BlockStart[Insts[I]->TargetBlock]]));
      Asm = &Branch;
    }
    if (Asm->opcodeSym() == Bincode) {
      const auto &Operands = Asm->Operands;
      if (Operands.empty() || Operands.size() > 2 ||
          Operands[0].Kind != sass::OperandKind::IntImm)
        return Failure("ir: malformed BINCODE in kernel " + K.Name);
      BitString Raw(archWordBits(K.A));
      Raw.setField(0, std::min(64u, Raw.size()),
                   static_cast<uint64_t>(Operands[0].Value[0]));
      if (Operands.size() == 2) {
        if (Raw.size() < 128)
          return Failure("ir: BINCODE high word on a 64-bit architecture");
        Raw.setField(64, 64, static_cast<uint64_t>(Operands[1].Value[0]));
      }
      Words[I] = std::move(Raw);
      continue;
    }
    Expected<BitString> Word =
        asmgen::assembleInstruction(Db, *Asm, Addrs[I]);
    if (!Word)
      return Failure("ir: " + Word.message());
    Words[I] = Word.takeValue();
  }

  return sass::layoutCode(Schi, std::move(Words),
                          [&Insts](size_t I) -> const sass::CtrlInfo & {
                            return Insts[I]->Ctrl;
                          });
}

Expected<std::vector<uint8_t>> ir::emitProgram(
    const analyzer::EncodingDatabase &Db, const Program &P,
    const std::vector<uint8_t> &OriginalImage) {
  Expected<elf::Cubin> Cubin = elf::Cubin::deserialize(OriginalImage);
  if (!Cubin)
    return Cubin.takeError();
  for (const Kernel &K : P.Kernels) {
    elf::KernelSection *Section = Cubin->findKernel(K.Name);
    if (!Section)
      return Failure("ir: kernel " + K.Name + " missing from the cubin");
    Expected<std::vector<uint8_t>> Code = emitKernel(Db, K);
    if (!Code)
      return Code.takeError();
    Section->Code = Code.takeValue();
    Section->SharedMemBytes =
        std::max(Section->SharedMemBytes, K.SharedMemBytes);
  }
  return Cubin->serialize();
}

//===- ir/Builder.cpp -----------------------------------------------------===//

#include "ir/Builder.h"

#include "sass/Printer.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace dcb;
using namespace dcb::ir;
using analyzer::ListingInst;
using analyzer::ListingKernel;

namespace {

/// The opcodes the successor rules name, as ids.
struct FlowSyms {
  SymbolId Bra = sass::internKnown("BRA");
  SymbolId Brk = sass::internKnown("BRK");
  SymbolId Exit = sass::internKnown("EXIT");
  SymbolId Ret = sass::internKnown("RET");
  SymbolId Ssy = sass::internKnown("SSY");
  SymbolId Pbk = sass::internKnown("PBK");
};

const FlowSyms &flowSyms() {
  static const FlowSyms Syms;
  return Syms;
}

} // namespace

std::vector<sass::CtrlInfo>
ir::splitSchedulingInfo(Arch A, const ListingKernel &Listing) {
  const SchiKind Kind = archSchiKind(A);
  const unsigned WordBytes = archWordBits(A) / 8;
  const unsigned Group = schiGroupSize(Kind);

  std::vector<sass::CtrlInfo> Result(Listing.Insts.size());
  if (Kind == SchiKind::None)
    return Result; // Hardware scheduling: nothing to split.
  for (size_t I = 0; I < Listing.Insts.size(); ++I) {
    const ListingInst &Inst = Listing.Insts[I];
    const uint64_t WordIdx = Inst.Address / WordBytes;
    if (Kind == SchiKind::Embedded) {
      Result[I] = sass::unpackCtrl(Kind, Inst.Binary, WordIdx);
      continue;
    }
    // A disassembled listing holds group G's SCHI word at Schis[G]; a
    // listing that lacks it there keeps the defaults.
    const uint64_t GroupIdx = WordIdx / Group;
    if (GroupIdx < Listing.Schis.size() &&
        Listing.Schis[GroupIdx].Address == GroupIdx * Group * WordBytes)
      Result[I] = sass::unpackCtrl(Kind, Listing.Schis[GroupIdx].Word, WordIdx);
  }
  return Result;
}

Expected<Kernel> ir::buildKernel(Arch A, const ListingKernel &Listing) {
  Kernel K;
  K.Name = Listing.Name;
  K.A = A;

  const std::vector<ListingInst> &Insts = Listing.Insts;
  const size_t N = Insts.size();
  if (N == 0)
    return K;

  // 1. Addresses ascend strictly and avoid SCHI words, so a branch target
  //    is found by binary search.
  const SchiKind Kind = archSchiKind(A);
  const unsigned WordBytes = archWordBits(A) / 8;
  for (size_t I = 0; I < N; ++I) {
    const uint64_t Address = Insts[I].Address;
    if (sass::isSchiWord(Kind, Address / WordBytes))
      return Failure("ir: instruction at " + toHexString(Address) +
                     " in kernel " + Listing.Name +
                     " is where a SCHI word belongs");
    if (I > 0 && Address <= Insts[I - 1].Address)
      return Failure("ir: instruction at " + toHexString(Address) +
                     " in kernel " + Listing.Name + " does not follow " +
                     toHexString(Insts[I - 1].Address));
  }
  auto indexOf = [&Insts](uint64_t Address) {
    auto It = std::lower_bound(
        Insts.begin(), Insts.end(), Address,
        [](const ListingInst &L, uint64_t A) { return L.Address < A; });
    return It != Insts.end() && It->Address == Address
               ? static_cast<size_t>(It - Insts.begin())
               : Insts.size();
  };

  // 2. Block leaders: the entry, every literal branch target, and every
  //    instruction following a terminator. Target[I] is the index of
  //    instruction I's branch target, or N.
  std::vector<uint8_t> Leader(N, 0);
  std::vector<size_t> Target(N, N);
  Leader[0] = 1;
  for (size_t I = 0; I < N; ++I) {
    const sass::Instruction &Inst = Insts[I].Inst;
    if (sass::hasLiteralTarget(Inst)) {
      const uint64_t Address = static_cast<uint64_t>(Inst.Operands[0].Value[0]);
      Target[I] = indexOf(Address);
      if (Target[I] == N)
        return Failure("ir: branch target " + toHexString(Address) +
                       " is not an instruction address in kernel " +
                       Listing.Name);
      Leader[Target[I]] = 1;
    }
    if (sass::isTerminator(Inst) && I + 1 < N)
      Leader[I + 1] = 1;
  }

  // 3. Blocks in address order; BlockOf[I] numbers instruction I's block.
  std::vector<int> BlockOf(N);
  int NumBlocks = 0;
  for (size_t I = 0; I < N; ++I) {
    NumBlocks += Leader[I];
    BlockOf[I] = NumBlocks - 1;
  }
  K.Blocks.resize(static_cast<size_t>(NumBlocks));
  for (size_t I = 0, Begin = 0; I < N; ++I)
    if (I + 1 == N || Leader[I + 1]) {
      K.Blocks[static_cast<size_t>(BlockOf[I])].Insts.reserve(I + 1 - Begin);
      Begin = I + 1;
    }
  std::vector<sass::CtrlInfo> Ctrl = splitSchedulingInfo(A, Listing);
  for (size_t I = 0; I < N; ++I) {
    Inst &Entry =
        K.Blocks[static_cast<size_t>(BlockOf[I])].Insts.emplace_back();
    Entry.Asm = Insts[I].Inst;
    Entry.Ctrl = Ctrl[I];
    Entry.OrigAddress = Insts[I].Address;
    if (Target[I] != N)
      Entry.TargetBlock = BlockOf[Target[I]];
  }

  // 4. Successor edges, SSY reconvergence and PBK break-target tracking
  //    (Fig. 4). Both are processed linearly: SSY/PBK arm an address for
  //    subsequent SYNC/BRK until the armed point is reached.
  const FlowSyms &Syms = flowSyms();
  int CurrentReconverge = -1;
  int CurrentBreak = -1;
  for (size_t BlockIdx = 0; BlockIdx < K.Blocks.size(); ++BlockIdx) {
    Block &B = K.Blocks[BlockIdx];
    if (B.empty())
      continue;

    // Armed points expire once we reach them.
    if (CurrentReconverge == static_cast<int>(BlockIdx))
      CurrentReconverge = -1;
    if (CurrentBreak == static_cast<int>(BlockIdx))
      CurrentBreak = -1;
    for (const Inst &Entry : B.Insts) {
      if (Entry.Asm.opcodeSym() == Syms.Ssy)
        CurrentReconverge = Entry.TargetBlock;
      if (Entry.Asm.opcodeSym() == Syms.Pbk)
        CurrentBreak = Entry.TargetBlock;
    }
    B.ReconvergeBlock = CurrentReconverge;

    const Inst &Last = B.Insts.back();
    const SymbolId LastOp = Last.Asm.opcodeSym();
    const bool HasNext = BlockIdx + 1 < K.Blocks.size();
    if (LastOp == Syms.Brk) {
      if (CurrentBreak >= 0)
        B.Succs.push_back(CurrentBreak);
      if (Last.Asm.hasGuard() && HasNext)
        B.Succs.push_back(static_cast<int>(BlockIdx) + 1);
    } else if (LastOp == Syms.Exit || LastOp == Syms.Ret) {
      if (Last.Asm.hasGuard() && HasNext)
        B.Succs.push_back(static_cast<int>(BlockIdx) + 1);
    } else if (LastOp == Syms.Bra) {
      if (Last.TargetBlock >= 0)
        B.Succs.push_back(Last.TargetBlock);
      if (Last.Asm.hasGuard() && HasNext)
        B.Succs.push_back(static_cast<int>(BlockIdx) + 1);
    } else if (sass::isReconvergenceJump(Last.Asm)) {
      // Threads parking here resume at the SSY target; a guarded
      // reconvergence lets the rest of the warp fall through. An
      // *unguarded* jump with a known target has no fall-through edge.
      if (CurrentReconverge >= 0) {
        B.Succs.push_back(CurrentReconverge);
        if (Last.Asm.hasGuard() && HasNext)
          B.Succs.push_back(static_cast<int>(BlockIdx) + 1);
      } else if (HasNext) {
        // No armed SSY in sight: fall through conservatively.
        B.Succs.push_back(static_cast<int>(BlockIdx) + 1);
      }
    } else if (HasNext) {
      B.Succs.push_back(static_cast<int>(BlockIdx) + 1);
    }
    // Deduplicate.
    std::sort(B.Succs.begin(), B.Succs.end());
    B.Succs.erase(std::unique(B.Succs.begin(), B.Succs.end()),
                  B.Succs.end());
  }
  return K;
}

Expected<Program> ir::buildProgram(const analyzer::Listing &Listing) {
  Program P;
  P.A = Listing.A;
  for (const ListingKernel &Kernel : Listing.Kernels) {
    Expected<ir::Kernel> K = buildKernel(Listing.A, Kernel);
    if (!K)
      return K.takeError();
    P.Kernels.push_back(K.takeValue());
  }
  return P;
}

std::string ir::printKernel(const Kernel &K) {
  std::string Out = "kernel " + K.Name + " (" +
                    std::string(archName(K.A)) + ")\n";
  const bool ShowCtrl = archSchiKind(K.A) != SchiKind::None;
  for (size_t BlockIdx = 0; BlockIdx < K.Blocks.size(); ++BlockIdx) {
    const Block &B = K.Blocks[BlockIdx];
    Out += "BB" + std::to_string(BlockIdx) + ":";
    if (!B.Succs.empty()) {
      Out += "  // succs:";
      for (int Succ : B.Succs)
        Out += " BB" + std::to_string(Succ);
    }
    if (B.ReconvergeBlock >= 0)
      Out += "  reconverge: BB" + std::to_string(B.ReconvergeBlock);
    Out += '\n';
    for (const Inst &Entry : B.Insts) {
      Out += "    ";
      if (ShowCtrl)
        Out += Entry.Ctrl.str() + " ";
      if (Entry.TargetBlock >= 0) {
        // Print with a symbolic target instead of the literal address.
        sass::Instruction Copy = Entry.Asm;
        Copy.Operands.clear();
        sass::printInstruction(Copy, Out);
        Out.pop_back(); // drop ';'
        Out += " BB" + std::to_string(Entry.TargetBlock) + ";";
      } else {
        sass::printInstruction(Entry.Asm, Out);
      }
      Out += '\n';
    }
  }
  return Out;
}

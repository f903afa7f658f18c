//===- ir/Builder.cpp -----------------------------------------------------===//

#include "ir/Builder.h"

#include "analyzer/Records.h"
#include "sass/Printer.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace dcb;
using namespace dcb::ir;
using analyzer::ListingInst;
using analyzer::ListingKernel;

namespace {

/// Is this instruction a reconvergence command (SYNC on Maxwell+, any
/// instruction carrying the .S modifier on Fermi/Kepler)?
bool isReconvergence(const sass::Instruction &Inst) {
  if (Inst.opcode() == "SYNC")
    return true;
  for (const std::string &Mod : Inst.Modifiers)
    if (Mod == "S")
      return true;
  return false;
}

/// Does the reconvergence instruction *jump* to the armed SSY target?
/// Only SYNC and NOP.S transfer control (matching the interpreter); a .S
/// marker on an ordinary instruction labels the reconvergence point but
/// the instruction executes and falls through.
bool isReconvergenceJump(const sass::Instruction &Inst) {
  return Inst.opcode() == "SYNC" ||
         (Inst.opcode() == "NOP" && isReconvergence(Inst));
}

/// Does this instruction end a basic block?
bool isTerminator(const sass::Instruction &Inst) {
  if (Inst.opcode() == "BRA" || Inst.opcode() == "EXIT" ||
      Inst.opcode() == "RET" || Inst.opcode() == "BRK")
    return true;
  return isReconvergence(Inst);
}

/// Does the instruction carry a literal branch-target operand?
bool hasAddressTarget(const sass::Instruction &Inst) {
  return analyzer::isControlFlowMnemonic(Inst.opcode()) &&
         Inst.Operands.size() == 1 &&
         Inst.Operands[0].Kind == sass::OperandKind::IntImm;
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

  if (Listing.Insts.empty())
    return K;

  // 1. Find block leaders: the entry, every literal branch target, and
  //    every instruction following a terminator.
  const SchiKind Kind = archSchiKind(A);
  const unsigned WordBytes = archWordBits(A) / 8;
  std::set<uint64_t> Leaders;
  Leaders.insert(Listing.Insts.front().Address);
  std::map<uint64_t, size_t> ByAddress;
  for (size_t I = 0; I < Listing.Insts.size(); ++I) {
    const uint64_t Address = Listing.Insts[I].Address;
    if (sass::isSchiWord(Kind, Address / WordBytes))
      return Failure("ir: instruction at " + toHexString(Address) +
                     " in kernel " + Listing.Name +
                     " is where a SCHI word belongs");
    ByAddress[Address] = I;
  }
  std::vector<sass::CtrlInfo> Ctrl = splitSchedulingInfo(A, Listing);

  for (size_t I = 0; I < Listing.Insts.size(); ++I) {
    const sass::Instruction &Inst = Listing.Insts[I].Inst;
    if (hasAddressTarget(Inst)) {
      uint64_t Target = static_cast<uint64_t>(Inst.Operands[0].Value[0]);
      if (!ByAddress.count(Target))
        return Failure("ir: branch target " + toHexString(Target) +
                       " is not an instruction address in kernel " +
                       Listing.Name);
      Leaders.insert(Target);
    }
    if (isTerminator(Inst) && I + 1 < Listing.Insts.size())
      Leaders.insert(Listing.Insts[I + 1].Address);
  }

  // 2. Create blocks in address order.
  std::map<uint64_t, int> BlockOfAddress; // leader address -> block index
  for (uint64_t Leader : Leaders) {
    BlockOfAddress[Leader] = static_cast<int>(K.Blocks.size());
    K.Blocks.emplace_back();
  }
  auto blockContaining = [&](uint64_t Address) {
    auto It = BlockOfAddress.upper_bound(Address);
    assert(It != BlockOfAddress.begin() && "address before entry");
    return std::prev(It)->second;
  };

  for (size_t I = 0; I < Listing.Insts.size(); ++I) {
    Inst Entry;
    Entry.Asm = Listing.Insts[I].Inst;
    Entry.Ctrl = Ctrl[I];
    Entry.OrigAddress = Listing.Insts[I].Address;
    if (hasAddressTarget(Entry.Asm))
      Entry.TargetBlock = BlockOfAddress.at(
          static_cast<uint64_t>(Entry.Asm.Operands[0].Value[0]));
    K.Blocks[blockContaining(Entry.OrigAddress)].Insts.push_back(
        std::move(Entry));
  }

  // 3. Successor edges, SSY reconvergence and PBK break-target tracking
  //    (Fig. 4). Both are processed linearly: SSY/PBK arm an address for
  //    subsequent SYNC/BRK until the armed point is reached.
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
      if (Entry.Asm.opcode() == "SSY")
        CurrentReconverge = Entry.TargetBlock;
      if (Entry.Asm.opcode() == "PBK")
        CurrentBreak = Entry.TargetBlock;
    }
    B.ReconvergeBlock = CurrentReconverge;

    const Inst &Last = B.Insts.back();
    const bool HasNext = BlockIdx + 1 < K.Blocks.size();
    if (Last.Asm.opcode() == "BRK") {
      if (CurrentBreak >= 0)
        B.Succs.push_back(CurrentBreak);
      if (Last.Asm.hasGuard() && HasNext)
        B.Succs.push_back(static_cast<int>(BlockIdx) + 1);
    } else if (Last.Asm.opcode() == "EXIT" || Last.Asm.opcode() == "RET") {
      if (Last.Asm.hasGuard() && HasNext)
        B.Succs.push_back(static_cast<int>(BlockIdx) + 1);
    } else if (Last.Asm.opcode() == "BRA") {
      if (Last.TargetBlock >= 0)
        B.Succs.push_back(Last.TargetBlock);
      if (Last.Asm.hasGuard() && HasNext)
        B.Succs.push_back(static_cast<int>(BlockIdx) + 1);
    } else if (isReconvergenceJump(Last.Asm)) {
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
        std::string Text = sass::printInstruction(Copy);
        Text.pop_back(); // drop ';'
        Out += Text + " BB" + std::to_string(Entry.TargetBlock) + ";";
      } else {
        Out += sass::printInstruction(Entry.Asm);
      }
      Out += '\n';
    }
  }
  return Out;
}

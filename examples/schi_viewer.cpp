//===- examples/schi_viewer.cpp - Figs. 9/10 scheduling viewer -------------===//
//
// The SCHI splitter in action. NVIDIA's disassembler prints scheduling
// words as opaque hex ("offers no indication of its meaning"); this tool
// reproduces the paper's Figs. 9 and 10 by breaking each SCHI word into its
// per-instruction values and in-lining them: dispatch stalls and dual-issue
// flags on Kepler, stalls + write/read barriers + wait masks on
// Maxwell/Pascal.
//
// Usage: schi_viewer [sm_30|sm_35|sm_50|sm_52|sm_60|sm_61]
//
//===----------------------------------------------------------------------===//

#include "analyzer/Listing.h"
#include "ir/Builder.h"
#include "sass/Printer.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"

#include <cstdio>

using namespace dcb;

int main(int Argc, char **Argv) {
  Arch A = Arch::SM35;
  if (Argc > 1) {
    std::optional<Arch> Parsed = archFromName(Argv[1]);
    if (!Parsed || archSchiKind(*Parsed) == SchiKind::None) {
      std::fprintf(stderr,
                   "usage: %s [sm_30|sm_35|sm_50|sm_52|sm_60|sm_61]\n",
                   Argv[0]);
      return 1;
    }
    A = *Parsed;
  }

  // A memory-heavy kernel so the scheduling words have real content.
  vendor::KernelBuilder K("memops", A);
  K.ins("S2R R0, SR_TID.X;");
  K.ins("SHL R4, R0, 0x2;");
  K.ins("MOV R5, c[0x0][0x4];");
  K.ins("IADD R5, R5, R4;");
  K.ins("LDG.E R6, [R5];");
  K.ins("IADD R7, R6, 0x1;"); // waits on the load
  K.ins("STG.E [R5], R7;");
  K.ins("MOV R7, 0x5;");      // anti-dependence on the store
  K.ins("LDG.E R8, [R5+0x4];");
  K.ins("FFMA R9, R8, R8, R8;");
  K.ins("STG.E [R5+0x8], R9;");
  K.exit();

  vendor::NvccSim Nvcc(A);
  Expected<vendor::CompiledKernel> Compiled = Nvcc.compileKernel(K);
  if (!Compiled) {
    std::fprintf(stderr, "%s\n", Compiled.message().c_str());
    return 1;
  }
  Expected<std::string> Text =
      vendor::disassembleKernelCode(A, "memops", Compiled->Section.Code);
  std::printf("=== what the vendor disassembler shows (%s) ===\n%s\n",
              archName(A), Text->c_str());

  Expected<analyzer::Listing> L = analyzer::parseListing(
      "code for " + std::string(archName(A)) + "\n" + *Text);
  if (!L) {
    std::fprintf(stderr, "%s\n", L.message().c_str());
    return 1;
  }
  const analyzer::ListingKernel &Kernel = L->Kernels.front();
  std::vector<sass::CtrlInfo> Ctrl = ir::splitSchedulingInfo(A, Kernel);

  std::printf("=== with SCHI values split and in-lined ===\n");
  std::printf("(notation: [Bwwwwww:Rr:Ww:Y:Snn] = wait mask, read barrier, "
              "write barrier, yield, stall)\n\n");
  for (size_t I = 0; I < Kernel.Insts.size(); ++I)
    std::printf("  /*%04llx*/ %-26s %s\n",
                static_cast<unsigned long long>(Kernel.Insts[I].Address),
                Ctrl[I].str().c_str(),
                sass::printInstruction(Kernel.Insts[I].Inst).c_str());

  // Narrate the interesting entries, Fig. 9/10 style.
  std::printf("\n=== narration ===\n");
  for (size_t I = 0; I < Kernel.Insts.size(); ++I) {
    const sass::CtrlInfo &Info = Ctrl[I];
    std::string Notes;
    if (Info.DualIssue)
      Notes += "may dual-issue with the next instruction; ";
    if (Info.WriteBarrier != 7)
      Notes += "sets write barrier #" + std::to_string(Info.WriteBarrier) +
               " (a consumer of its result must wait); ";
    if (Info.ReadBarrier != 7)
      Notes += "sets read barrier #" + std::to_string(Info.ReadBarrier) +
               " (an overwriter of its sources must wait); ";
    if (Info.WaitMask) {
      Notes += "waits for barrier(s)";
      for (unsigned B = 0; B < 6; ++B)
        if (Info.WaitMask & (1u << B))
          Notes += " #" + std::to_string(B);
      Notes += "; ";
    }
    if (Info.Stall > 1)
      Notes += "then stalls " + std::to_string(Info.Stall) + " cycles";
    if (Notes.empty())
      continue;
    std::printf("  %-24s %s\n",
                sass::printInstruction(Kernel.Insts[I].Inst)
                    .substr(0, 24)
                    .c_str(),
                Notes.c_str());
  }
  return 0;
}

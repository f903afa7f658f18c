//===- perfbench/src/Suite.cpp - The fixed suite and work files -----------===//

#include "Bench.h"

#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "vm/Differ.h"
#include "serve/Ops.h"
#include "workloads/Suite.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace dcb {
namespace perfbench {

void fatal(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

std::vector<Arch> benchArchs() {
  unsigned Count = 0;
  const Arch *All = supportedArchs(Count);
  return std::vector<Arch>(All, All + Count);
}

size_t wordCount(Arch A, const std::vector<uint8_t> &Code) {
  return Code.size() / (archWordBits(A) / 8);
}

const std::vector<SuiteArch> &suites() {
  static const std::vector<SuiteArch> All = [] {
    std::vector<SuiteArch> Out;
    for (Arch A : benchArchs()) {
      SuiteArch S;
      S.A = A;
      Expected<elf::Cubin> C =
          vendor::NvccSim(A).compile(workloads::buildSuite(A));
      if (!C)
        fatal("suite compile: " + C.message());
      S.Cubin = C.takeValue();
      S.Image = S.Cubin.serialize();
      for (const elf::KernelSection &K : S.Cubin.kernels())
        S.Words += wordCount(A, K.Code);
      // Which kernels the VM runs to completion is a property of the
      // suite; exec requests draw only from these.
      Expected<ir::Program> P = serve::loadProgramBytes(
          std::string(S.Image.begin(), S.Image.end()), archName(A));
      if (!P)
        fatal("suite lift: " + P.message());
      for (const ir::Kernel &K : P->Kernels)
        if (!vm::execKernel(K, 1, vm::ExecOptions()).Failed)
          S.ExecClean.push_back(K.Name);
      Out.push_back(std::move(S));
    }
    return Out;
  }();
  return All;
}

const SuiteArch &suiteFor(Arch A) {
  for (const SuiteArch &S : suites())
    if (S.A == A)
      return S;
  fatal(std::string("no suite for ") + archName(A));
}

void writeFileOrDie(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Bytes;
  if (!Out)
    fatal("cannot write " + Path);
}

std::string readFileOrDie(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    fatal("cannot read " + Path);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

std::string dbPath(const RunConfig &Cfg, Arch A) {
  return Cfg.WorkDir + "/" + archName(A) + ".db";
}
std::string cubinPath(const RunConfig &Cfg, Arch A) {
  return Cfg.WorkDir + "/" + archName(A) + ".cubin";
}
std::string listingPath(const RunConfig &Cfg, Arch A) {
  return Cfg.WorkDir + "/" + archName(A) + ".lst";
}

void writeSuiteFiles(const RunConfig &Cfg) {
  static bool Written = false;
  if (Written)
    return;
  Written = true;
  for (const SuiteArch &S : suites()) {
    writeFileOrDie(dbPath(Cfg, S.A), learnDatabase(S).serialize());
    writeFileOrDie(cubinPath(Cfg, S.A),
                   std::string(S.Image.begin(), S.Image.end()));
    Expected<std::string> Text = vendor::disassembleCubin(S.Cubin);
    if (!Text)
      fatal("suite listing: " + Text.message());
    writeFileOrDie(listingPath(Cfg, S.A), *Text);
  }
}

} // namespace perfbench
} // namespace dcb

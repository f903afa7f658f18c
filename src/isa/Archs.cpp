//===- isa/Archs.cpp - Architecture registry ------------------------------===//

#include "isa/Spec.h"
#include "isa/Tables.h"

#include <array>
#include <cassert>
#include <memory>

using namespace dcb;
using namespace dcb::isa;

namespace {

std::unique_ptr<ArchSpec> buildSpec(Arch A) {
  auto Spec = std::make_unique<ArchSpec>();
  Spec->A = A;
  switch (archFamily(A)) {
  case EncodingFamily::Fermi:
    buildFermiFamily(*Spec);
    break;
  case EncodingFamily::Kepler2:
    buildKepler2Family(*Spec);
    break;
  case EncodingFamily::Maxwell:
    buildMaxwellFamily(*Spec);
    break;
  case EncodingFamily::Volta:
    buildVoltaFamily(*Spec);
    break;
  }
  assert(!Spec->checkNoAmbiguity() && "ambiguous opcode patterns");
  // Every spelling the decoder writes (mnemonics, modifier choices and the
  // special-register names) is interned once, here, so decoded
  // instructions carry ids without touching the table.
  for (InstrSpec &Form : Spec->Instrs) {
    Form.MnemonicSym = sass::internKnown(Form.Mnemonic);
    for (ModifierGroup &Group : Form.ModGroups)
      for (ModifierChoice &Choice : Group.Choices)
        if (!Choice.Name.empty())
          Choice.Sym = sass::internKnown(Choice.Name);
  }
  (void)specialRegSym(0);
  // Built-in specs are immutable from here on, so every consumer shares
  // the one decode index without a first-use race.
  Spec->buildDecodeIndex();
  return Spec;
}

} // namespace

const ArchSpec &isa::getArchSpec(Arch A) {
  // Lazily built and immutable afterwards; function-local statics give us
  // thread-safe initialization without static constructors.
  static const std::array<std::unique_ptr<ArchSpec>, 9> Specs = [] {
    std::array<std::unique_ptr<ArchSpec>, 9> Result;
    const Arch All[] = {Arch::SM20, Arch::SM21, Arch::SM30,
                        Arch::SM35, Arch::SM50, Arch::SM52,
                        Arch::SM60, Arch::SM61, Arch::SM70};
    for (Arch Each : All)
      Result[static_cast<size_t>(Each)] = buildSpec(Each);
    return Result;
  }();
  return *Specs[static_cast<size_t>(A)];
}

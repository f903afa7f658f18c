//===- analyzer/IsaAnalyzer.cpp -------------------------------------------===//

#include "analyzer/IsaAnalyzer.h"

#include "analyzer/ModifierTypes.h"
#include "analyzer/Signature.h"

#include <cassert>

using namespace dcb;
using namespace dcb::analyzer;

void IsaAnalyzer::analyzeInst(const ListingInst &Pair,
                              const std::string &KernelName) {
  const sass::Instruction &Inst = Pair.Inst;
  const BitString &Binary = Pair.Binary;
  assert(Binary.size() == Db.wordBits() && "word width mismatch");

  std::string Key = operationKey(Inst);
  auto [It, Inserted] = Db.operations().try_emplace(Key);
  OperationRec &Op = It->second;
  if (Inserted) {
    Op.Mnemonic = Inst.opcode();
    Op.Signature = operandSignature(Inst);
    Op.WordBits = Db.wordBits();
    Op.Operands.resize(Inst.Operands.size());
    for (size_t I = 0; I < Inst.Operands.size(); ++I)
      Op.Operands[I].SigChar = operandSignatureChar(Inst.Operands[I]);
    Op.ExemplarKernel = KernelName;
    Op.ExemplarAddr = Pair.Address;
    Op.ExemplarWord = Binary;
  }
  ++Op.Instances;

  // Opcode bits: assume every bit matters, then narrow on inconsistency
  // (Algorithm 1, lines 4-11).
  Op.Opcode.observe(Binary);

  // The conditional guard is a 4-bit component present in every
  // instruction; its value defaults to the null predicate PT (7).
  CompValue GuardValue;
  GuardValue.Int =
      (Inst.GuardNegated ? 8 : 0) | static_cast<int64_t>(Inst.GuardPredicate);
  GuardValue.InstAddr = Pair.Address;
  GuardValue.WordBytes = Db.wordBits() / 8;
  static const std::vector<InterpKind> GuardKinds = {InterpKind::Plain};
  Op.Guard.narrow(Binary, GuardValue, GuardKinds);

  // Modifiers, keyed by (name, occurrence among same-type modifiers) so
  // ordered repeats bind to distinct records (Algorithm 1, lines 12-19).
  std::map<std::string, unsigned> TypeCounts;
  for (const std::string &Mod : Inst.Modifiers) {
    unsigned Occurrence = TypeCounts[modifierType(Mod)]++;
    Op.Mods[{Mod, Occurrence}].observe(Binary);
  }

  // Operands (Algorithm 2).
  for (size_t I = 0; I < Inst.Operands.size(); ++I)
    analyzeOperand(Op.Operands[I], Inst.Operands[I], Binary, Pair.Address,
                   Inst.opcode(), static_cast<unsigned>(I));
}

void IsaAnalyzer::analyzeOperand(OperandRec &Rec, const sass::Operand &Op,
                                 const BitString &Binary, uint64_t Addr,
                                 const std::string &Mnemonic,
                                 unsigned OperandIdx) {
  (void)OperandIdx;
  using sass::OperandKind;

  // Unary operators: consistency records per operator (Algorithm 2,
  // lines 8-15).
  if (Op.Negated && Op.Kind != OperandKind::IntImm)
    Rec.Unaries['-'].observe(Binary);
  if (Op.Complemented)
    Rec.Unaries['~'].observe(Binary);
  if (Op.Absolute)
    Rec.Unaries['|'].observe(Binary);
  if (Op.LogicalNot)
    Rec.Unaries['!'].observe(Binary);

  // Operand-attached modifiers (e.g. the Maxwell register-reuse flag).
  for (const std::string &Mod : Op.Mods)
    Rec.Mods[Mod].observe(Binary);

  // Named tokens learn their encodings by consistency, exactly like
  // modifiers: special registers (this is how Table III is produced),
  // texture shapes and channel combinations.
  switch (Op.Kind) {
  case OperandKind::SpecialReg:
    Rec.Tokens[Op.Text].observe(Binary);
    return;
  case OperandKind::TexShape: {
    Rec.Tokens[sass::texShapeName(
                   static_cast<sass::TexShapeKind>(Op.Value[0]))]
        .observe(Binary);
    return;
  }
  case OperandKind::TexChannel: {
    static const char Names[4] = {'R', 'G', 'B', 'A'};
    std::string Token;
    for (unsigned I = 0; I < 4; ++I)
      if (Op.Value[0] & (1 << I))
        Token.push_back(Names[I]);
    Rec.Tokens[Token].observe(Binary);
    return;
  }
  default:
    break;
  }

  // Value components: window search per interpretation (Fig. 5).
  unsigned NumComps = componentCountFor(Rec.SigChar);
  if (Rec.Comps.size() < NumComps)
    Rec.Comps.resize(NumComps);

  for (unsigned Comp = 0; Comp < NumComps; ++Comp) {
    CompValue Value;
    Value.InstAddr = Addr;
    Value.WordBytes = Binary.size() / 8;
    switch (Op.Kind) {
    case OperandKind::Register:
      Value.Int = Op.Value[0];
      Value.IsReg = true;
      break;
    case OperandKind::Predicate:
    case OperandKind::Barrier:
    case OperandKind::BitSet:
      Value.Int = Op.Value[0];
      break;
    case OperandKind::IntImm: {
      int64_t V = Op.Value[0];
      if (Op.Negated && V > 0)
        V = -V;
      Value.Int = V;
      break;
    }
    case OperandKind::FloatImm:
      Value.Float = Op.FValue;
      break;
    case OperandKind::Memory:
      if (Comp == 0) {
        Value.Int = Op.Value[0];
        Value.IsReg = true;
      } else {
        Value.Int = Op.Value[1];
      }
      break;
    case OperandKind::ConstMem:
      if (Comp == 0) {
        Value.Int = Op.Value[0]; // bank
      } else if (Comp == 1) {
        Value.Int = Op.Value[1]; // offset
      } else {
        Value.Int = Op.Value[2]; // register
        Value.IsReg = true;
      }
      break;
    default:
      continue;
    }
    Rec.Comps[Comp].narrow(Binary, Value,
                           interpKindsFor(Rec.SigChar, Comp, Mnemonic));
  }
}

Error IsaAnalyzer::analyzeListing(const Listing &L) {
  if (L.A != Db.arch())
    return Error::failure(
        std::string("analyzer: listing is for ") + archName(L.A) +
        " but the database targets " + archName(Db.arch()));
  for (const ListingKernel &Kernel : L.Kernels)
    for (const ListingInst &Pair : Kernel.Insts)
      analyzeInst(Pair, Kernel.Name);
  return Error::success();
}

EncodingDatabase::Stats EncodingDatabase::stats() const {
  Stats S;
  S.NumOperations = Ops.size();
  for (const auto &[Key, Op] : Ops) {
    S.NumModifiers += Op.Mods.size();
    S.NumInstances += Op.Instances;
    for (const OperandRec &Operand : Op.Operands) {
      S.NumUnaries += Operand.Unaries.size();
      S.NumTokens += Operand.Tokens.size();
      S.NumModifiers += Operand.Mods.size();
    }
  }
  return S;
}

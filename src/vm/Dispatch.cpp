//===- vm/Dispatch.cpp ----------------------------------------------------===//

#include "vm/Dispatch.h"

#include <initializer_list>
#include <string_view>
#include <utility>

using namespace dcb;
using namespace dcb::vm;
using sass::Instruction;

namespace {

/// The value \p Spelling names among \p Choices, else \p Default.
template <class E>
E pick(std::string_view Spelling, E Default,
       std::initializer_list<std::pair<const char *, E>> Choices) {
  for (const auto &[Name, Value] : Choices)
    if (Spelling == Name)
      return Value;
  return Default;
}

LogicKind logicKind(std::string_view Op) {
  return pick(Op, LogicKind::And,
              {{"OR", LogicKind::Or}, {"XOR", LogicKind::Xor}});
}

/// First width-selecting modifier wins, as the text path always read them.
uint8_t memBytes(const Instruction &Asm) {
  for (size_t I = 0; I < Asm.Modifiers.size(); ++I) {
    std::string_view Mod = Asm.modifier(I);
    if (Mod == "64")
      return 8;
    if (Mod == "128")
      return 16;
    if (Mod == "U8" || Mod == "S8")
      return 1;
    if (Mod == "U16" || Mod == "S16")
      return 2;
  }
  return 4;
}

bool hasMod(const Instruction &Asm, std::string_view Name) {
  for (size_t I = 0; I < Asm.Modifiers.size(); ++I)
    if (Asm.modifier(I) == Name)
      return true;
  return false;
}

} // namespace

Pre vm::predecode(const Instruction &Asm) {
  const OpInfo &Row = opInfo(Asm);
  Pre P;
  P.Kind = Row.Kind;
  P.Region = Row.Region;
  const size_t NumMods = Asm.Modifiers.size();
  const std::string_view Mod0 = NumMods < 1 ? "" : Asm.modifier(0);
  const std::string_view Mod1 = NumMods < 2 ? "" : Asm.modifier(1);
  P.HasMods2 = NumMods >= 2;

  switch (P.Kind) {
  case OpKind::S2R:
    // Predecode runs over never-executed instructions too; only classify
    // the source when it is actually there.
    P.Sr = pick(Asm.Operands.size() >= 2 ? Asm.Operands[1].text() : "",
                SrKind::Zero,
                {{"SR_TID.X", SrKind::TidX},
                 {"SR_CTAID.X", SrKind::CtaidX},
                 {"SR_NTID.X", SrKind::NtidX},
                 {"SR_LANEID", SrKind::LaneId},
                 {"SR_CLOCK_LO", SrKind::ClockLo}});
    break;
  case OpKind::IMul:
    P.Hi = hasMod(Asm, "HI");
    break;
  case OpKind::Xmad:
    P.H1A = hasMod(Asm, "H1A");
    P.H1B = hasMod(Asm, "H1B");
    break;
  case OpKind::Bfe:
  case OpKind::Shr:
    P.U32 = hasMod(Asm, "U32");
    break;
  case OpKind::Vote:
    P.Vote = pick(Mod0, VoteKind::All,
                  {{"ANY", VoteKind::Any}, {"EQ", VoteKind::Eq}});
    break;
  case OpKind::Mufu:
    P.Mufu = pick(Mod0, MufuKind::Zero,
                  {{"COS", MufuKind::Cos},
                   {"SIN", MufuKind::Sin},
                   {"EX2", MufuKind::Ex2},
                   {"LG2", MufuKind::Lg2},
                   {"RCP", MufuKind::Rcp},
                   {"RSQ", MufuKind::Rsq}});
    break;
  case OpKind::F2F:
    if (Mod0 == "F32" && Mod1 == "F64")
      P.F2F = F2FKind::F32F64;
    else if (Mod0 == "F64" && Mod1 == "F32")
      P.F2F = F2FKind::F64F32;
    break;
  case OpKind::I2F:
    P.I2FUnsigned = !Mod0.empty() && Mod0[0] == 'U';
    break;
  case OpKind::Setp:
    P.FloatSetp = Row.Src == ValType::F32;
    P.Cmp = pick(Mod0, CmpKind::GE,
                 {{"LT", CmpKind::LT},
                  {"EQ", CmpKind::EQ},
                  {"LE", CmpKind::LE},
                  {"GT", CmpKind::GT},
                  {"NE", CmpKind::NE}});
    P.L1 = logicKind(Mod1);
    break;
  case OpKind::Psetp:
    P.L1 = logicKind(Mod0);
    P.L2 = logicKind(Mod1);
    break;
  case OpKind::Lop:
    P.L1 = logicKind(Mod0);
    break;
  case OpKind::Load:
  case OpKind::Store:
  case OpKind::Ldc:
    P.MemBytes = memBytes(Asm);
    break;
  case OpKind::Atom:
    P.Atom = pick(Mod0, AtomKind::None,
                  {{"ADD", AtomKind::Add},
                   {"MIN", AtomKind::Min},
                   {"MAX", AtomKind::Max},
                   {"EXCH", AtomKind::Exch},
                   {"AND", AtomKind::And},
                   {"OR", AtomKind::Or},
                   {"XOR", AtomKind::Xor}});
    break;
  case OpKind::Shfl:
    P.Shfl = pick(Mod0, ShflKind::None,
                  {{"IDX", ShflKind::Idx},
                   {"UP", ShflKind::Up},
                   {"DOWN", ShflKind::Down},
                   {"BFLY", ShflKind::Bfly}});
    break;
  case OpKind::Bar:
    // Only BAR.SYNC blocks; BAR.ARV (arrive-only) and the RED forms stay
    // no-ops under this memory model.
    if (Mod0 != "SYNC")
      P.Kind = OpKind::Fence;
    break;
  case OpKind::Nop:
    // The ".S" reconvergence modifier on NOP behaves like SYNC.
    P.RejoinS = hasMod(Asm, "S");
    break;
  default:
    break;
  }
  return P;
}

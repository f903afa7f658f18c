//===- vm/Semantics.h - Per-kind transfer functions over a domain -*- C++ -*-=//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What each data OpKind computes, written once as a template over a value
/// domain. The MEM/RAC checkers instantiate it over per-launch-context
/// Known/Unknown values (analysis/TypedCheckers.cpp). The VM evaluates
/// instructions on its own (vm/Vm.cpp) over the same scalar expressions,
/// and is the ground truth these transfer functions are tested against.
///
/// The code here never asks which domain it serves. What lives in the
/// domain: how operands are stored and read, guard joins, memory
/// contents, the cross-lane VOTE/SHFL, launch-specific S2R values, and what
/// an input with no semantics does. A domain provides:
///
///   using Lane;                         one execution context
///   bool forLanes(Body)                 Body(Lane) -> bool per issued lane,
///                                       stopping at the first false
///   lift(Fn, Vals...)                   Fn over values (an abstract domain
///                                       propagates Unknown)
///   select(Cond, Then, Else)            Then() or Else(), lazily
///   u32 / f32 / f64 / pred(L, K)        operand K as an integer, float,
///                                       double or predicate
///   reg(L, K, Off), reg64(L, K), imm(K) raw register(s) of operand K (+Off);
///                                       literal of K
///   address(L, K), special(L, Sr)       memory operand K; S2R source
///   setReg / setReg64 / setPred(L, K, V), setRegAt(L, K, Off, V)
///   load(L, Region, Addr, Bytes), store(L, Region, Addr, Bytes, V)
///   constant(L, K, Bytes), offset(Addr, Bytes)
///   noteShared(L, Addr, Bytes, IsStore), memOk(IsStore)
///   vote(Kind), shfl(Kind), unsupported(Why), unimplemented()
///
//===----------------------------------------------------------------------===//

#ifndef DCB_VM_SEMANTICS_H
#define DCB_VM_SEMANTICS_H

#include "vm/Dispatch.h"

#include <type_traits>

namespace dcb {
namespace vm {

/// Runs \p Body over every lane of \p Dom; a Body without a result never
/// stops the loop.
template <class D, class Fn> bool lanes(D &Dom, Fn &&Body) {
  return Dom.forLanes([&](typename D::Lane L) {
    if constexpr (std::is_void_v<decltype(Body(L))>) {
      Body(L);
      return true;
    } else {
      return Body(L);
    }
  });
}

/// Executes one data instruction, classified as \p P, in \p Dom. Returns
/// false when the domain rejected it (a memory fault, or an input with no
/// semantics); the domain holds the reason.
template <class D> bool transfer(D &Dom, const Pre &P) {
  using Lane = typename D::Lane;
  // Operand 0 := Fn(operands Srcs...), read as integers / floats / doubles.
  auto intOp = [&](auto Fn, auto... Srcs) {
    return lanes(Dom, [&](Lane L) {
      Dom.setReg(L, 0, Dom.lift(Fn, Dom.u32(L, Srcs)...));
    });
  };
  auto f32Op = [&](auto Fn, auto... Srcs) {
    return lanes(Dom, [&](Lane L) {
      Dom.setReg(L, 0, Dom.lift(Fn, Dom.f32(L, Srcs)...));
    });
  };
  auto f64Op = [&](auto Fn, auto... Srcs) {
    return lanes(Dom, [&](Lane L) {
      Dom.setReg64(L, 0, Dom.lift(Fn, Dom.f64(L, Srcs)...));
    });
  };
  // Predicate results: operand 0 := V, operand 1 := !V.
  auto setPredPair = [&](Lane L, auto V) {
    Dom.setPred(L, 0, V);
    Dom.setPred(L, 1, Dom.lift([](bool B) { return !B; }, V));
  };

  switch (P.Kind) {
  case OpKind::Mov:
    return lanes(Dom, [&](Lane L) { Dom.setReg(L, 0, Dom.u32(L, 1)); });
  case OpKind::S2R:
    return lanes(Dom, [&](Lane L) { Dom.setReg(L, 0, Dom.special(L, P.Sr)); });
  case OpKind::IAdd:
    return intOp([](uint32_t A, uint32_t B) { return A + B; }, 1, 2);
  case OpKind::IMul:
    return intOp(
        [Hi = P.Hi](uint32_t A, uint32_t B) { return scalar::imul(A, B, Hi); },
        1, 2);
  case OpKind::IMad:
    return intOp(
        [](uint32_t A, uint32_t B, uint32_t C) { return A * B + C; }, 1, 2,
        3);
  case OpKind::Xmad:
    return intOp(
        [&P](uint32_t A, uint32_t B, uint32_t C) {
          return scalar::xmad(A, B, C, P.H1A, P.H1B);
        },
        1, 2, 3);
  case OpKind::IAdd3:
    return intOp(
        [](uint32_t A, uint32_t B, uint32_t C) { return A + B + C; }, 1, 2,
        3);
  case OpKind::Bfe:
    return intOp(
        [U = P.U32](uint32_t A, uint32_t B) { return scalar::bfe(A, B, U); },
        1, 2);
  case OpKind::Bfi:
    return intOp(scalar::bfi, 1, 2, 3);
  case OpKind::Popc:
    return intOp(scalar::popc, 1);
  case OpKind::Lop3:
    return intOp(scalar::lop3, 1, 2, 3, 4);
  case OpKind::Imnmx:
    return lanes(Dom, [&](Lane L) {
      Dom.setReg(L, 0, Dom.lift(scalar::imnmx, Dom.u32(L, 1), Dom.u32(L, 2),
                                Dom.pred(L, 3)));
    });
  case OpKind::FAdd:
    return f32Op(scalar::fadd, 1, 2);
  case OpKind::FMul:
    return f32Op(scalar::fmul, 1, 2);
  case OpKind::Ffma:
    return f32Op(scalar::ffma, 1, 2, 3);
  case OpKind::Fmnmx:
    return lanes(Dom, [&](Lane L) {
      Dom.setReg(L, 0, Dom.lift(scalar::fmnmx, Dom.f32(L, 1), Dom.f32(L, 2),
                                Dom.pred(L, 3)));
    });
  case OpKind::Dfma:
    return f64Op(scalar::dfma, 1, 2, 3);
  case OpKind::Rro:
    // Range reduction: modeled as the identity (MUFU consumes it).
    return f32Op(scalar::fromFloat, 1);
  case OpKind::DAdd:
    return f64Op(scalar::dadd, 1, 2);
  case OpKind::DMul:
    return f64Op(scalar::dmul, 1, 2);
  case OpKind::Mufu:
    return f32Op([Fn = P.Mufu](float X) { return scalar::mufu(Fn, X); }, 1);
  case OpKind::F2F:
    // Modifiers are <dst>.<src>.
    if (P.F2F == F2FKind::F32F64)
      return lanes(Dom, [&](Lane L) {
        Dom.setReg(L, 0, Dom.lift(scalar::f64to32, Dom.f64(L, 1)));
      });
    if (P.F2F == F2FKind::F64F32)
      return lanes(Dom, [&](Lane L) {
        Dom.setReg64(L, 0, Dom.lift(scalar::f32to64, Dom.f32(L, 1)));
      });
    return Dom.unsupported("unhandled F2F format pair");
  case OpKind::F2I:
    return f32Op(scalar::f2i, 1);
  case OpKind::I2F:
    return intOp(
        [U = P.I2FUnsigned](uint32_t Raw) { return scalar::i2f(Raw, U); }, 1);
  case OpKind::Setp:
    if (!P.HasMods2)
      return Dom.unsupported("missing comparison or logic modifier");
    return lanes(Dom, [&](Lane L) {
      auto Test =
          P.FloatSetp
              ? Dom.lift([C = P.Cmp](float A, float B) {
                  return scalar::compareF(C, A, B);
                }, Dom.f32(L, 2), Dom.f32(L, 3))
              : Dom.lift([C = P.Cmp](uint32_t A, uint32_t B) {
                  return scalar::compareI(C, static_cast<int32_t>(A),
                                          static_cast<int32_t>(B));
                }, Dom.u32(L, 2), Dom.u32(L, 3));
      setPredPair(L, Dom.lift([Op = P.L1](bool T, bool C) {
        return scalar::logic(Op, T, C);
      }, Test, Dom.pred(L, 4)));
    });
  case OpKind::Psetp:
    if (!P.HasMods2)
      return Dom.unsupported("missing logic modifier");
    return lanes(Dom, [&](Lane L) {
      setPredPair(L, Dom.lift([&P](bool A, bool B, bool C) {
        return scalar::logic(P.L2, scalar::logic(P.L1, A, B), C);
      }, Dom.pred(L, 2), Dom.pred(L, 3), Dom.pred(L, 4)));
    });
  case OpKind::Sel:
    return lanes(Dom, [&](Lane L) {
      Dom.setReg(L, 0,
                 Dom.select(
                     Dom.pred(L, 3), [&] { return Dom.u32(L, 1); },
                     [&] { return Dom.u32(L, 2); }));
    });
  case OpKind::Lop:
    return intOp(
        [Op = P.L1](uint32_t A, uint32_t B) { return scalar::lop(Op, A, B); },
        1, 2);
  case OpKind::Shl:
    return intOp(scalar::shl, 1, 2);
  case OpKind::Shr:
    return intOp(
        [U = P.U32](uint32_t A, uint32_t B) { return scalar::shr(A, B, U); },
        1, 2);
  case OpKind::Load:
    return lanes(Dom, [&](Lane L) {
      auto Addr = Dom.address(L, 1);
      if (P.Region == RegionKind::Shared)
        Dom.noteShared(L, Addr, P.MemBytes, /*IsStore=*/false);
      if (P.MemBytes <= 4)
        Dom.setReg(L, 0, Dom.load(L, P.Region, Addr, P.MemBytes));
      else if (P.MemBytes == 8)
        Dom.setReg64(L, 0, Dom.load(L, P.Region, Addr, 8));
      else
        for (unsigned K = 0; K < 4; ++K)
          Dom.setRegAt(L, 0, K,
                       Dom.load(L, P.Region, Dom.offset(Addr, 4 * K), 4));
      return Dom.memOk(/*IsStore=*/false);
    });
  case OpKind::Store:
    return lanes(Dom, [&](Lane L) {
      auto Addr = Dom.address(L, 0);
      if (P.Region == RegionKind::Shared)
        Dom.noteShared(L, Addr, P.MemBytes, /*IsStore=*/true);
      if (P.MemBytes <= 4)
        Dom.store(L, P.Region, Addr, P.MemBytes, Dom.reg(L, 1, 0));
      else if (P.MemBytes == 8)
        Dom.store(L, P.Region, Addr, 8, Dom.reg64(L, 1));
      else
        for (unsigned K = 0; K < 4; ++K)
          Dom.store(L, P.Region, Dom.offset(Addr, 4 * K), 4, Dom.reg(L, 1, K));
      return Dom.memOk(/*IsStore=*/true);
    });
  case OpKind::Ldc:
    return lanes(Dom, [&](Lane L) {
      if (P.MemBytes == 8)
        Dom.setReg64(L, 0, Dom.constant(L, 1, 8));
      else
        Dom.setReg(L, 0, Dom.constant(L, 1, P.MemBytes));
    });
  case OpKind::Atom:
    // Global memory only; the load's fault is reported, not the store's.
    return lanes(Dom, [&](Lane L) {
      auto Addr = Dom.address(L, 1);
      auto Old = Dom.load(L, RegionKind::Global, Addr, 4);
      if (!Dom.memOk(/*IsStore=*/false))
        return false;
      Dom.store(L, RegionKind::Global, Addr, 4,
                Dom.lift([K = P.Atom](uint32_t O, uint32_t S) {
                  return scalar::atomApply(K, O, S);
                }, Old, Dom.reg(L, 2, 0)));
      Dom.setReg(L, 0, Old);
      return Dom.memOk(/*IsStore=*/true);
    });
  case OpKind::Tex:
    return lanes(Dom, [&](Lane L) {
      Dom.setReg(L, 0,
                 Dom.lift([Shape = Dom.imm(2), Channel = Dom.imm(3)](
                              uint32_t Coord) {
                   return scalar::texHash(Coord, Shape, Channel);
                 }, Dom.u32(L, 1)));
    });
  case OpKind::Vote:
    return Dom.vote(P.Vote);
  case OpKind::Shfl:
    if (P.Shfl == ShflKind::None)
      return Dom.unsupported("unhandled SHFL mode");
    return Dom.shfl(P.Shfl);
  case OpKind::Unknown:
    return Dom.unimplemented();
  default:
    // Control kinds belong to the warp scheduler (and, for the abstract
    // replay, to the CFG); they compute nothing.
    return true;
  }
}

} // namespace vm
} // namespace dcb

#endif // DCB_VM_SEMANTICS_H

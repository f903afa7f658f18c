//===- analysis/Dataflow.h - Bit-set worklist dataflow solver ---*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reusable core of the analysis layer: a dense bit set over the
/// register slot space and the two worklist solvers over the Cfg.
/// Liveness (Liveness.h) instantiates the backward gen/kill solver; type
/// inference (TypeInference.h) and the MEM/RAC per-context replay
/// (TypedCheckers.cpp) run on the forward solver, over any state with a
/// join.
///
/// Determinism: the worklist is seeded in a fixed traversal order
/// (postorder for backward problems, reverse postorder for forward ones)
/// and processed FIFO, so iteration counts and results are reproducible —
/// tests assert that.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ANALYSIS_DATAFLOW_H
#define DCB_ANALYSIS_DATAFLOW_H

#include "analysis/Cfg.h"
#include "analysis/RegModel.h"

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <vector>

namespace dcb {
namespace analysis {

/// A dense bit set over at most kNumSlots bits, stored inline (no heap
/// allocation, so per-block and per-point copies are cheap). Sized once
/// per problem; bits at or above size() are never set.
class BitSet {
  static constexpr size_t kWords = (kNumSlots + 63) / 64;

public:
  BitSet() = default;
  explicit BitSet(size_t NumBits) : NumBits(NumBits) {
    assert(NumBits <= kWords * 64 && "BitSet universe exceeds kNumSlots");
  }

  size_t size() const { return NumBits; }

  void set(size_t I) { W[I / 64] |= uint64_t(1) << (I % 64); }
  void reset(size_t I) { W[I / 64] &= ~(uint64_t(1) << (I % 64)); }
  bool test(size_t I) const {
    return (W[I / 64] >> (I % 64)) & 1;
  }
  void clear() { W = {}; }

  /// this |= O; returns true when any bit changed.
  bool unionWith(const BitSet &O) {
    uint64_t Changed = 0;
    for (size_t I = 0; I < kWords; ++I) {
      Changed |= O.W[I] & ~W[I];
      W[I] |= O.W[I];
    }
    return Changed != 0;
  }

  /// this &= ~O.
  void subtract(const BitSet &O) {
    for (size_t I = 0; I < kWords; ++I)
      W[I] &= ~O.W[I];
  }

  /// True when this and O share a set bit.
  bool intersects(const BitSet &O) const {
    for (size_t I = 0; I < kWords; ++I)
      if (W[I] & O.W[I])
        return true;
    return false;
  }

  size_t count() const {
    size_t N = 0;
    for (uint64_t Word : W)
      N += std::popcount(Word);
    return N;
  }

  /// Population count restricted to bits [Lo, Hi): the two end words are
  /// masked, the words between them counted whole.
  size_t countRange(size_t Lo, size_t Hi) const {
    if (Lo >= Hi)
      return 0;
    const size_t First = Lo / 64, Last = (Hi - 1) / 64;
    const uint64_t LoMask = ~uint64_t(0) << (Lo % 64);
    const uint64_t HiMask = ~uint64_t(0) >> (63 - (Hi - 1) % 64);
    if (First == Last)
      return std::popcount(W[First] & LoMask & HiMask);
    size_t N = std::popcount(W[First] & LoMask);
    for (size_t I = First + 1; I < Last; ++I)
      N += std::popcount(W[I]);
    return N + std::popcount(W[Last] & HiMask);
  }

  template <typename Fn> void forEach(Fn Visit) const {
    for (size_t WI = 0; WI < kWords; ++WI) {
      uint64_t Word = W[WI];
      while (Word) {
        unsigned Bit = static_cast<unsigned>(std::countr_zero(Word));
        Visit(WI * 64 + Bit);
        Word &= Word - 1;
      }
    }
  }

  bool operator==(const BitSet &O) const = default;

private:
  size_t NumBits = 0;
  std::array<uint64_t, kWords> W{};
};

/// Result bookkeeping shared by both solvers.
struct SolveStats {
  unsigned Iterations = 0; ///< Total block visits until the fixed point.
};

/// Solves the backward may-problem
///   Out[B] = union of In[S] over S in Succs(B)
///   In[B]  = Gen[B] | (Out[B] & ~Kill[B])
/// with a FIFO worklist seeded in postorder (successors first), which for
/// liveness converges in one pass over loop-free code. \p In and \p Out
/// must be pre-sized to numBlocks() sets of equal width.
template <typename KernelT>
SolveStats solveBackwardMay(const KernelT &K, const Cfg &C,
                            const std::vector<BitSet> &Gen,
                            const std::vector<BitSet> &Kill,
                            std::vector<BitSet> &In,
                            std::vector<BitSet> &Out) {
  SolveStats Stats;
  const size_t N = C.numBlocks();
  std::deque<int> Worklist;
  std::vector<bool> Queued(N, false);
  // Postorder = reverse of Rpo (with unreachable blocks first, which is
  // harmless: they converge independently).
  for (auto It = C.Rpo.rbegin(); It != C.Rpo.rend(); ++It) {
    Worklist.push_back(*It);
    Queued[*It] = true;
  }
  while (!Worklist.empty()) {
    int B = Worklist.front();
    Worklist.pop_front();
    Queued[B] = false;
    ++Stats.Iterations;

    Out[B].clear();
    for (int S : K.Blocks[B].Succs)
      if (S >= 0 && static_cast<size_t>(S) < N)
        Out[B].unionWith(In[S]);

    BitSet NewIn = Out[B];
    NewIn.subtract(Kill[B]);
    NewIn.unionWith(Gen[B]);
    if (NewIn != In[B]) {
      In[B] = std::move(NewIn);
      for (int P : C.Preds[B]) {
        if (!Queued[P]) {
          Queued[P] = true;
          Worklist.push_back(P);
        }
      }
    }
  }
  return Stats;
}

/// Solves a forward problem over any state with a join:
///   In[B]  = (B is the entry ? Entry : Bottom) joined with Out[P] over P
///            in Preds(B)
///   Out[B] = Transfer(B, In[B])
/// \p Join(Into, From) joins From into Into; \p Transfer(B, State) applies
/// block B to State in place. The FIFO worklist is seeded in reverse
/// postorder and a block's successors are requeued when its Out changes,
/// so the fixpoint and the visit count are deterministic. \p In and \p Out
/// are resized to numBlocks() copies of \p Bottom.
template <typename KernelT, typename State, typename JoinFn,
          typename TransferFn>
SolveStats solveForward(const KernelT &K, const Cfg &C, const State &Entry,
                        const State &Bottom, std::vector<State> &In,
                        std::vector<State> &Out, JoinFn Join,
                        TransferFn Transfer) {
  SolveStats Stats;
  const size_t N = C.numBlocks();
  In.assign(N, Bottom);
  Out.assign(N, Bottom);
  std::deque<int> Worklist;
  std::vector<bool> Queued(N, false);
  for (int B : C.Rpo) {
    Worklist.push_back(B);
    Queued[B] = true;
  }
  while (!Worklist.empty()) {
    int B = Worklist.front();
    Worklist.pop_front();
    Queued[B] = false;
    ++Stats.Iterations;

    State NewOut = B == 0 ? Entry : Bottom;
    for (int P : C.Preds[B])
      Join(NewOut, Out[P]);
    In[B] = NewOut;
    Transfer(B, NewOut);
    if (NewOut != Out[B]) {
      Out[B] = std::move(NewOut);
      for (int S : K.Blocks[B].Succs) {
        if (S >= 0 && static_cast<size_t>(S) < N && !Queued[S]) {
          Queued[S] = true;
          Worklist.push_back(S);
        }
      }
    }
  }
  return Stats;
}

} // namespace analysis
} // namespace dcb

#endif // DCB_ANALYSIS_DATAFLOW_H

//===- analyzer/Signature.h - Operand-type signatures -----------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operations are keyed by mnemonic plus an operand-type signature, because
/// "if two instructions are both named IADD, but one of them adds two
/// registers whereas the other adds a register to an integer literal, then
/// we treat them as two distinct operations due to the different encoding"
/// (paper §III-A). The signature is derived purely from assembly syntax.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ANALYZER_SIGNATURE_H
#define DCB_ANALYZER_SIGNATURE_H

#include "sass/Ast.h"
#include "support/SymbolTable.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace dcb {
namespace analyzer {

/// One character per operand:
///   r register, p predicate, s special register, i integer literal,
///   f float literal, m memory, c constant memory, C constant memory with
///   register, t texture shape, h texture channel, b barrier resource,
///   z bit set.
char operandSignatureChar(const sass::Operand &Op);

/// Every character operandSignatureChar returns, in the order listed above.
/// EncodingDatabase::deserialize rejects any other, so every packed
/// signature char is 7-bit and non-NUL (see OperationKeyId).
inline constexpr std::string_view OperandSignatureChars = "rpsifmcCthbz";

/// Signature of a whole instruction's operand list.
std::string operandSignature(const sass::Instruction &Inst);

/// The lookup key for an operation: "MNEMONIC/sig".
std::string operationKey(const sass::Instruction &Inst);

/// The integer form of operationKey: the interned mnemonic plus the
/// operand-type signature packed into a word, 8 bits a char, zero-padded
/// (no signature char is NUL, so lengths stay distinguishable). An
/// instruction has at most sass::MaxOperands operands, so every signature
/// fits. Two instructions compare equal here iff their operationKey
/// strings compare equal.
struct OperationKeyId {
  SymbolId Mnemonic = InvalidSymbolId;
  uint64_t Sig = 0;

  bool operator==(const OperationKeyId &O) const {
    return Mnemonic == O.Mnemonic && Sig == O.Sig;
  }
  bool operator!=(const OperationKeyId &O) const { return !(*this == O); }
};

struct OperationKeyIdHash {
  size_t operator()(const OperationKeyId &K) const {
    uint64_t H = K.Sig + 0x9e3779b97f4a7c15ull * (uint64_t(K.Mnemonic) + 1);
    H ^= H >> 29;
    H *= 0xbf58476d1ce4e5b9ull;
    H ^= H >> 32;
    return static_cast<size_t>(H);
  }
};

/// Integer key of an instruction, from its interned opcode symbol.
OperationKeyId operationKeyId(const sass::Instruction &Inst);

/// Integer key from the spellings a learned record stores — the freeze
/// step's side of the same mapping. \p Signature holds at most
/// sass::MaxOperands chars (EncodingDatabase::deserialize refuses longer
/// ones). A mnemonic the full symbol table refuses keys as
/// InvalidSymbolId, which no instruction carries.
OperationKeyId operationKeyId(const std::string &Mnemonic,
                              const std::string &Signature);

} // namespace analyzer
} // namespace dcb

#endif // DCB_ANALYZER_SIGNATURE_H

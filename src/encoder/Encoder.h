//===- encoder/Encoder.h - Oracle SASS encoder / decoder --------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ground-truth encoder (assembly AST -> binary word) and decoder
/// (binary word -> assembly AST) driven by the hidden ISA tables. These are
/// the internals of the simulated vendor toolchain: nvcc-sim encodes with
/// encodeInstruction, cuobjdump-sim decodes with decodeInstruction. The
/// decoder fails on words that match no opcode pattern, reproducing the real
/// disassembler's crash-on-garbage behaviour the paper's bit flipper has to
/// work around.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_ENCODER_ENCODER_H
#define DCB_ENCODER_ENCODER_H

#include "isa/Spec.h"
#include "sass/Ast.h"
#include "support/BitString.h"
#include "support/Errors.h"

#include <string_view>

namespace dcb {
namespace encoder {

/// Encodes one instruction at byte address \p Pc (needed for PC-relative
/// branch targets, which the assembly writes as absolute addresses).
Expected<BitString> encodeInstruction(const isa::ArchSpec &Spec,
                                      const sass::Instruction &Inst,
                                      uint64_t Pc);

/// Decodes one instruction word at byte address \p Pc. Fails ("crashes")
/// when the word matches no known opcode pattern or contains an invalid
/// operand or modifier encoding — including encodings whose assembly
/// rendering would not re-parse (non-finite float immediates, empty
/// texture channel masks), so a successful decode always round-trips
/// through print and parse. A failure's message starts with
/// \p ErrorPrefix, so a caller that labels it pays for one message.
Expected<sass::Instruction> decodeInstruction(const isa::ArchSpec &Spec,
                                              const BitString &Word,
                                              uint64_t Pc,
                                              std::string_view ErrorPrefix = {});

} // namespace encoder
} // namespace dcb

#endif // DCB_ENCODER_ENCODER_H

//===- serve/Json.h - serve::json, the old name of support/Json -*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON module lives in support/Json.h as dcb::json. This alias keeps
/// code that still spells serve::json (perfbench) compiling.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SERVE_JSON_H
#define DCB_SERVE_JSON_H

#include "support/Json.h"

namespace dcb {
namespace serve {
namespace json = dcb::json;
} // namespace serve
} // namespace dcb

#endif // DCB_SERVE_JSON_H

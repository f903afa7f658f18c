//===- tests/serve_test.cpp - Daemon, cache, protocol ---------------------===//
//
// The serve subsystem end to end: JSON line protocol, content-addressed
// result cache (hit/miss/eviction determinism, options-fingerprint
// sensitivity), byte-identity of served responses against the one-shot
// ops, bounded-queue back-pressure, and concurrent clients against an
// in-process server.
//
//===----------------------------------------------------------------------===//

#include "analyzer/IsaAnalyzer.h"
#include "serve/Cache.h"
#include "serve/Client.h"
#include "serve/Ops.h"
#include "serve/Persist.h"
#include "serve/RequestLog.h"
#include "serve/Server.h"
#include "support/FileIo.h"
#include "support/Json.h"
#include "support/Telemetry.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace dcb;
using namespace dcb::serve;

namespace {

std::vector<uint8_t> suiteImage(Arch A) {
  vendor::NvccSim Nvcc(A);
  Expected<std::vector<uint8_t>> Image =
      Nvcc.compileToImage(workloads::buildSuite(A));
  EXPECT_TRUE(Image.hasValue()) << Image.message();
  return *Image;
}

analyzer::EncodingDatabase learnSuite(Arch A) {
  vendor::NvccSim Nvcc(A);
  Expected<elf::Cubin> Cubin = Nvcc.compile(workloads::buildSuite(A));
  EXPECT_TRUE(Cubin.hasValue()) << Cubin.message();
  Expected<std::string> Text = vendor::disassembleCubin(*Cubin);
  EXPECT_TRUE(Text.hasValue()) << Text.message();
  Expected<analyzer::Listing> L = analyzer::parseListing(*Text);
  EXPECT_TRUE(L.hasValue()) << L.message();
  analyzer::IsaAnalyzer Analyzer(A);
  EXPECT_FALSE(Analyzer.analyzeListing(*L));
  return Analyzer.database();
}

/// Starts an in-process server on an ephemeral port and returns it.
std::unique_ptr<Server> startServer(ServerOptions Opts,
                                    std::optional<analyzer::EncodingDatabase>
                                        Db = std::nullopt) {
  auto S = std::make_unique<Server>(Opts, std::move(Db));
  Error E = S->start();
  EXPECT_FALSE(E) << E.message();
  EXPECT_NE(S->port(), 0);
  return S;
}

std::string requestFor(const std::string &Op,
                       const std::vector<uint8_t> &Image,
                       const std::string &Extra = "") {
  std::string Req = "{\"op\":\"" + Op + "\",\"data_b64\":\"" +
                    json::base64Encode(Image) + "\"" + Extra + "}";
  return Req;
}

json::Value roundTripOk(Client &C, const std::string &Req) {
  Expected<std::string> Resp = C.roundTrip(Req);
  EXPECT_TRUE(Resp.hasValue()) << Resp.message();
  Expected<json::Value> V = json::parse(*Resp);
  EXPECT_TRUE(V.hasValue()) << V.message() << " in " << *Resp;
  return *V;
}

} // namespace

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

TEST(ServeJson, ParsesScalarsAndNesting) {
  Expected<json::Value> V = json::parse(
      R"({"op":"exec","jobs":4,"ref":true,"pi":3.5,"n":null,)"
      R"("arr":[1,"two",{"three":3}],"esc":"a\"b\\c\ndA",)"
      R"("std":"\r\b\f\/\u00e9\ud83d\ude00"})");
  ASSERT_TRUE(V.hasValue()) << V.message();
  EXPECT_EQ(V->str("op"), "exec");
  EXPECT_EQ(V->num("jobs"), 4u);
  EXPECT_TRUE(V->boolean("ref"));
  EXPECT_EQ(V->field("n")->K, json::Value::Kind::Null);
  ASSERT_EQ(V->field("arr")->Arr.size(), 3u);
  EXPECT_EQ(V->field("arr")->Arr[1].Str, "two");
  EXPECT_EQ(V->field("arr")->Arr[2].num("three"), 3u);
  EXPECT_EQ(V->str("esc"), "a\"b\\c\ndA");
  // Every standard escape, a code point past the BMP as a surrogate pair.
  EXPECT_EQ(V->str("std"), "\r\b\f/\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(ServeJson, DefaultsOnAbsentOrMistypedFields) {
  Expected<json::Value> V = json::parse(R"({"s":7})");
  ASSERT_TRUE(V.hasValue());
  EXPECT_EQ(V->str("s", "dflt"), "dflt"); // Wrong type -> default.
  EXPECT_EQ(V->str("missing", "dflt"), "dflt");
  EXPECT_EQ(V->num("missing", 9), 9u);
  EXPECT_EQ(V->field("missing"), nullptr);
  // Numbers past 2^64 saturate instead of taking the undefined cast.
  Expected<json::Value> Big = json::parse(R"({"n":1e30})");
  ASSERT_TRUE(Big.hasValue());
  EXPECT_EQ(Big->num("n"), UINT64_MAX);
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_FALSE(json::parse("").hasValue());
  EXPECT_FALSE(json::parse("{").hasValue());
  EXPECT_FALSE(json::parse("{}garbage").hasValue());
  EXPECT_FALSE(json::parse(R"({"a":01})").hasValue());
  EXPECT_FALSE(json::parse(R"({"a":"unterminated})").hasValue());
  EXPECT_FALSE(json::parse("[1,2,]").hasValue());
  // Half a surrogate pair names no character.
  EXPECT_FALSE(json::parse(R"(["\ud83d"])").hasValue());
  EXPECT_FALSE(json::parse(R"(["\ude00"])").hasValue());
  EXPECT_FALSE(json::parse(R"(["\ud83dx"])").hasValue());
  // Depth bomb: 64 nested arrays exceed the 32-deep bound.
  std::string Deep(64, '[');
  Deep += std::string(64, ']');
  EXPECT_FALSE(json::parse(Deep).hasValue());
  // Numbers are exactly RFC 8259's: no '+' sign, digits on both sides of
  // a '.', and nothing more than strtod would take.
  for (const char *Bad : {"+5", ".5", "1.", "1.e5"})
    EXPECT_FALSE(json::parse(std::string("{\"x\":") + Bad + "}").hasValue())
        << Bad;
  for (const char *Good : {"-0", "0.5", "1e5", "1E+5", "-1.5e-3"})
    EXPECT_TRUE(json::parse(std::string("{\"x\":") + Good + "}").hasValue())
        << Good;
}

TEST(ServeJson, StringEscapingRoundTrips) {
  std::string Raw = "line1\nline2\ttab \"quoted\" back\\slash \x01 cr\r end";
  std::string Doc = "{\"k\":";
  json::appendString(Doc, Raw);
  Doc += "}";
  // Control bytes other than newline and tab are spelled \u00XX, CR too.
  EXPECT_NE(Doc.find("\\u0001 cr\\u000d end"), std::string::npos) << Doc;
  Expected<json::Value> V = json::parse(Doc);
  ASSERT_TRUE(V.hasValue()) << V.message();
  EXPECT_EQ(V->str("k"), Raw);
}

TEST(ServeJson, IntegerLiteralsAreExact) {
  // A double cannot tell 2^53 from 2^53 + 1; integer literals keep their
  // exact value up to 2^64 - 1 and down to -2^63.
  Expected<json::Value> V = json::parse(
      R"({"a":9007199254740993,"max":18446744073709551615,)"
      R"("min":-9223372036854775808,"big":18446744073709551616,)"
      R"("frac":7.9,"neg":-1,"exp":1e3})");
  ASSERT_TRUE(V.hasValue()) << V.message();
  EXPECT_EQ(V->num("a"), 9007199254740993u);
  EXPECT_EQ(V->num("max"), UINT64_MAX);
  EXPECT_EQ(V->field("max")->Int, std::nullopt);
  EXPECT_EQ(V->field("min")->Int, INT64_MIN);
  EXPECT_EQ(V->field("min")->UInt, std::nullopt);
  EXPECT_EQ(V->field("neg")->Int, -1);
  // Past 2^64, fractions and exponents keep the double rules.
  EXPECT_EQ(V->field("big")->UInt, std::nullopt);
  EXPECT_EQ(V->num("big"), UINT64_MAX);
  EXPECT_EQ(V->field("frac")->UInt, std::nullopt);
  EXPECT_EQ(V->num("frac"), 7u);
  EXPECT_EQ(V->num("neg", 5), 5u);
  EXPECT_EQ(V->field("exp")->UInt, std::nullopt);
  EXPECT_EQ(V->num("exp"), 1000u);
}

TEST(ServeJson, Base64RoundTripsAllLengths) {
  for (size_t Len = 0; Len < 70; ++Len) {
    std::vector<uint8_t> Bytes;
    for (size_t I = 0; I < Len; ++I)
      Bytes.push_back(static_cast<uint8_t>(I * 37 + Len));
    Expected<std::vector<uint8_t>> Back =
        json::base64Decode(json::base64Encode(Bytes));
    ASSERT_TRUE(Back.hasValue()) << Back.message();
    EXPECT_EQ(*Back, Bytes) << "length " << Len;
  }
}

TEST(ServeJson, Base64RejectsBadInput) {
  EXPECT_FALSE(json::base64Decode("a").hasValue());      // Bad length.
  EXPECT_FALSE(json::base64Decode("a!==").hasValue());   // Bad alphabet.
  EXPECT_FALSE(json::base64Decode("====").hasValue());   // All padding.
  EXPECT_FALSE(json::base64Decode("ab=c").hasValue());   // Interior pad.
  EXPECT_TRUE(json::base64Decode("abcd").hasValue());
}

//===----------------------------------------------------------------------===//
// Cache
//===----------------------------------------------------------------------===//

TEST(ServeCache, KeySeparatesContentOpAndFingerprint) {
  Hash128 C1 = hash128("cubin-one"), C2 = hash128("cubin-two");
  EXPECT_EQ(cacheKey(C1, "disasm", "jobs=1"),
            cacheKey(C1, "disasm", "jobs=1"));
  EXPECT_NE(cacheKey(C1, "disasm", "jobs=1"),
            cacheKey(C2, "disasm", "jobs=1"));
  EXPECT_NE(cacheKey(C1, "disasm", "jobs=1"), cacheKey(C1, "lint", "jobs=1"));
  EXPECT_NE(cacheKey(C1, "disasm", "jobs=1"),
            cacheKey(C1, "disasm", "jobs=8"));
  // Field framing: moving bytes across the op/fingerprint boundary must
  // not produce the same key.
  EXPECT_NE(cacheKey(C1, "disasmjobs", "=1"), cacheKey(C1, "disasm", "jobs=1"));
}

TEST(ServeCache, HitMissAndStats) {
  ResultCache Cache(1 << 20, 4);
  Hash128 K = cacheKey(hash128("x"), "disasm", "jobs=1");
  EXPECT_EQ(Cache.get(K), nullptr);
  OpResult R;
  R.Output = "listing bytes";
  R.Exit = 0;
  Cache.put(K, R);
  std::unique_ptr<OpResult> Hit = Cache.get(K);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Output, "listing bytes");
  ResultCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_GT(S.Bytes, 0u);
}

TEST(ServeCache, EvictionIsDeterministicUnderByteBudget) {
  // One shard so LRU order is globally observable.
  ResultCache Cache(4096, 1);
  OpResult Big;
  Big.Output.assign(1024, 'x');
  std::vector<Hash128> Keys;
  for (int I = 0; I < 8; ++I) {
    Keys.push_back(cacheKey(hash128("k" + std::to_string(I)), "disasm", ""));
    Cache.put(Keys.back(), Big);
  }
  ResultCache::Stats S = Cache.stats();
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_LE(S.Bytes, 4096u);
  // The most recently inserted key must still be resident; the very first
  // must have been evicted (coldest-first order).
  EXPECT_NE(Cache.get(Keys.back()), nullptr);
  EXPECT_EQ(Cache.get(Keys.front()), nullptr);
}

TEST(ServeCache, OversizedResultIsServedButNotCached) {
  ResultCache Cache(256, 1);
  OpResult Huge;
  Huge.Output.assign(10000, 'y');
  Hash128 K = cacheKey(hash128("big"), "disasm", "");
  Cache.put(K, Huge);
  EXPECT_EQ(Cache.get(K), nullptr);
  EXPECT_EQ(Cache.stats().Entries, 0u);
}

//===----------------------------------------------------------------------===//
// Ops byte-identity
//===----------------------------------------------------------------------===//

TEST(ServeOps, DisasmMatchesVendorByteForByte) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  Expected<std::string> Direct = vendor::disassembleImage(Image);
  ASSERT_TRUE(Direct.hasValue()) << Direct.message();
  Expected<OpResult> Served = opDisasm(Image, vendor::DisasmOptions());
  ASSERT_TRUE(Served.hasValue()) << Served.message();
  EXPECT_EQ(Served->Output, *Direct);
  EXPECT_EQ(Served->Exit, 0);
}

TEST(ServeOps, DisasmIsJobsInvariant) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM50);
  vendor::DisasmOptions One, Eight;
  One.NumThreads = 1;
  Eight.NumThreads = 8;
  Expected<OpResult> A = opDisasm(Image, One);
  Expected<OpResult> B = opDisasm(Image, Eight);
  ASSERT_TRUE(A.hasValue());
  ASSERT_TRUE(B.hasValue());
  EXPECT_EQ(A->Output, B->Output);
}

TEST(ServeOps, AsmEmitsHexLinesInListingOrder) {
  analyzer::EncodingDatabase Db = learnSuite(Arch::SM35);
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  Expected<std::string> Listing = vendor::disassembleImage(Image);
  ASSERT_TRUE(Listing.hasValue());
  Expected<OpResult> R = opAsm(Db, *Listing, BatchOptions());
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Exit, 0);
  // Every successful word prints as an 0x line; learning from the very
  // listing we reassemble means no failures.
  EXPECT_TRUE(R->Errors.empty());
  EXPECT_EQ(R->Output.compare(0, 2, "0x"), 0);
  size_t Lines = 0;
  for (char Ch : R->Output)
    Lines += Ch == '\n';
  EXPECT_GT(Lines, 100u);

  BatchOptions Par;
  Par.NumThreads = 8;
  Expected<OpResult> R8 = opAsm(Db, *Listing, Par);
  ASSERT_TRUE(R8.hasValue());
  EXPECT_EQ(R->Output, R8->Output) << "asm output must be jobs-invariant";
}

TEST(ServeOps, ExecReportsPerKernelSummaries) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  std::string Bytes(Image.begin(), Image.end());
  vm::ExecOptions Opts;
  Expected<OpResult> R = opExec(Bytes, "suite", "all", Opts);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_FALSE(R->Output.empty());
  EXPECT_NE(R->Output.find("issues="), std::string::npos);
}

TEST(ServeOps, LintEmitsJsonReport) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  std::string Bytes(Image.begin(), Image.end());
  Expected<OpResult> R = opLint(Bytes, "the-target");
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_NE(R->Output.find("dcb-lint-v1"), std::string::npos);
  EXPECT_NE(R->Output.find("the-target"), std::string::npos);
}

TEST(ServeOps, AnalyzeDocumentsCarryFindingsInEveryMode) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  std::string Bytes(Image.begin(), Image.end());
  for (const char *Mode : {"types", "bounds", "races"}) {
    AnalyzeOptions Opts;
    Opts.Mode = Mode;
    Expected<OpResult> R = opAnalyze(Bytes, "suite", Opts);
    ASSERT_TRUE(R.hasValue()) << R.message();
    EXPECT_NE(R->Output.find("dcb-analysis-v1"), std::string::npos);
    EXPECT_NE(R->Output.find("\"findings\""), std::string::npos)
        << Mode << " documents must always carry a findings array";
  }
}

TEST(ServeOps, AnalyzeFailOnGatesExitNotOutput) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  std::string Bytes(Image.begin(), Image.end());
  // The suite has unbarriered shared traffic: races mode finds errors.
  AnalyzeOptions Races;
  Races.Mode = "races";
  Expected<OpResult> Strict = opAnalyze(Bytes, "suite", Races);
  ASSERT_TRUE(Strict.hasValue()) << Strict.message();
  EXPECT_NE(Strict->Exit, 0) << "error findings must fail under FailOn::Error";
  Races.Fail = FailOn::Never;
  Expected<OpResult> Lax = opAnalyze(Bytes, "suite", Races);
  ASSERT_TRUE(Lax.hasValue()) << Lax.message();
  EXPECT_EQ(Lax->Exit, 0) << "FailOn::Never must always exit 0";
  EXPECT_EQ(Strict->Output, Lax->Output)
      << "--fail-on must gate the exit code, never the document bytes";
}

//===----------------------------------------------------------------------===//
// Server end-to-end
//===----------------------------------------------------------------------===//

TEST(ServeServer, DisasmOverTheWireMatchesOpAndCaches) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  Expected<OpResult> Direct = opDisasm(Image, vendor::DisasmOptions());
  ASSERT_TRUE(Direct.hasValue());

  std::unique_ptr<Server> S = startServer(ServerOptions());
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue()) << C.message();

  json::Value First = roundTripOk(*C, requestFor("disasm", Image));
  EXPECT_EQ(First.str("status"), "ok");
  EXPECT_FALSE(First.boolean("cached"));
  EXPECT_EQ(First.str("output"), Direct->Output)
      << "served bytes must equal the one-shot op";

  json::Value Second = roundTripOk(*C, requestFor("disasm", Image));
  EXPECT_EQ(Second.str("status"), "ok");
  EXPECT_TRUE(Second.boolean("cached")) << "repeat must be a cache hit";
  EXPECT_EQ(Second.str("output"), Direct->Output)
      << "cache hits must serve byte-identical responses";

  ResultCache::Stats Stats = S->cache().stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
}

TEST(ServeServer, RenderMemoServesRepeatLinesByteIdentical) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  std::unique_ptr<Server> S = startServer(ServerOptions());
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue()) << C.message();

  // Request 1 misses, request 2 hits the content cache (and memoizes its
  // rendered bytes), request 3 is answered by the memo alone.
  const std::string Req = requestFor("disasm", Image);
  Expected<std::string> R1 = C->roundTrip(Req);
  ASSERT_TRUE(R1.hasValue()) << R1.message();
  Expected<std::string> R2 = C->roundTrip(Req);
  ASSERT_TRUE(R2.hasValue()) << R2.message();
  EXPECT_EQ(S->renderMemoHits(), 0u);
  Expected<std::string> R3 = C->roundTrip(Req);
  ASSERT_TRUE(R3.hasValue()) << R3.message();
  EXPECT_EQ(S->renderMemoHits(), 1u);
  EXPECT_EQ(*R3, *R2) << "memoized bytes must equal the rendered hit";
  ResultCache::Stats Stats = S->cache().stats();
  EXPECT_EQ(Stats.Hits, 1u); // The memo answered request 3 by itself.
  EXPECT_EQ(Stats.Misses, 1u);

  // A `path` request never memoizes: the line does not pin the content,
  // so every repeat must re-read and re-hash the file.
  const std::string Path = ::testing::TempDir() + "render_memo_input.cubin";
  {
    std::ofstream F(Path, std::ios::binary);
    F.write(reinterpret_cast<const char *>(Image.data()),
            static_cast<std::streamsize>(Image.size()));
  }
  std::string PathReq = "{\"op\":\"disasm\",\"path\":\"" + Path + "\"}";
  json::Value P1 = roundTripOk(*C, PathReq);
  EXPECT_TRUE(P1.boolean("cached")); // Same content: content-cache hit.
  json::Value P2 = roundTripOk(*C, PathReq);
  EXPECT_TRUE(P2.boolean("cached"));
  EXPECT_EQ(S->renderMemoHits(), 1u) << "path lines must bypass the memo";
  std::remove(Path.c_str());

  // The stats op reports the memo as its own section.
  json::Value Stat = roundTripOk(*C, "{\"op\":\"stats\"}");
  const json::Value *Render = Stat.field("render");
  ASSERT_NE(Render, nullptr);
  EXPECT_EQ(Render->num("hits"), 1u);
  EXPECT_EQ(Render->num("entries"), 1u);
}

TEST(ServeServer, OptionsFingerprintSplitsTheCache) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  std::unique_ptr<Server> S = startServer(ServerOptions());
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue()) << C.message();

  // Same cubin, different launch shape for exec: must NOT alias.
  json::Value T16 = roundTripOk(
      *C, requestFor("exec", Image, ",\"kernel\":\"all\",\"threads\":16"));
  json::Value T8 = roundTripOk(
      *C, requestFor("exec", Image, ",\"kernel\":\"all\",\"threads\":8"));
  EXPECT_FALSE(T16.boolean("cached"));
  EXPECT_FALSE(T8.boolean("cached"))
      << "threads=8 must not hit the threads=16 entry";

  // Same cubin, different OOB policy for exec: must NOT alias.
  json::Value W = roundTripOk(
      *C, requestFor("exec", Image, ",\"kernel\":\"all\",\"oob\":\"wrap\""));
  json::Value F = roundTripOk(
      *C, requestFor("exec", Image, ",\"kernel\":\"all\",\"oob\":\"fault\""));
  EXPECT_FALSE(W.boolean("cached"));
  EXPECT_FALSE(F.boolean("cached"))
      << "oob=fault must not hit the oob=wrap entry";

  // Unchanged options repeat: now a hit. Fields exec does not read (here
  // `jobs`, diffexec's `seeds` and the retired `ref`) are ignored, so they
  // do not split the cache.
  json::Value T8Again = roundTripOk(
      *C, requestFor("exec", Image,
                     ",\"kernel\":\"all\",\"threads\":8,\"jobs\":8,"
                     "\"seeds\":9,\"ref\":true"));
  EXPECT_TRUE(T8Again.boolean("cached"));
  EXPECT_EQ(T8Again.str("output"), T8.str("output"));
}

TEST(ServeServer, ExecSeedsPast2To53MatchOneShotAndSplitTheCache) {
  // Seeds are 64-bit. Read through a double, 2^53 + 1 ran as 2^53 and
  // the two seeds shared one cache entry.
  std::vector<uint8_t> Image = suiteImage(Arch::SM50);
  std::string Bytes(Image.begin(), Image.end());
  std::unique_ptr<Server> S = startServer(ServerOptions());
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue()) << C.message();
  std::string Outputs[2];
  for (uint64_t Seed : {9007199254740992ull, 9007199254740993ull}) {
    vm::ExecOptions Opts;
    Opts.FirstSeed = Seed;
    Expected<OpResult> Want = opExec(Bytes, "<request>", "bfs", Opts);
    ASSERT_TRUE(Want.hasValue()) << Want.message();
    json::Value Got = roundTripOk(
        *C, requestFor("exec", Image,
                       ",\"kernel\":\"bfs\",\"seed\":" +
                           std::to_string(Seed)));
    EXPECT_EQ(Got.str("status"), "ok");
    EXPECT_FALSE(Got.boolean("cached")) << "seed " << Seed;
    EXPECT_EQ(Got.str("output"), Want->Output) << "seed " << Seed;
    Outputs[Seed & 1] = Want->Output;
  }
  EXPECT_NE(Outputs[0], Outputs[1]) << "the two seeds must run differently";
}

TEST(ServeServer, AnalyzeOverTheWireMatchesOpAndCaches) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  std::string Bytes(Image.begin(), Image.end());
  AnalyzeOptions Opts;
  Opts.Mode = "types";
  Expected<OpResult> Direct = opAnalyze(Bytes, "suite.cubin", Opts);
  ASSERT_TRUE(Direct.hasValue()) << Direct.message();

  std::unique_ptr<Server> S = startServer(ServerOptions());
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue()) << C.message();

  const std::string Req = requestFor(
      "analyze", Image, ",\"name\":\"suite.cubin\",\"mode\":\"types\"");
  json::Value First = roundTripOk(*C, Req);
  EXPECT_EQ(First.str("status"), "ok");
  EXPECT_FALSE(First.boolean("cached"));
  EXPECT_EQ(First.str("output"), Direct->Output)
      << "served analyze bytes must equal the one-shot op";

  json::Value Second = roundTripOk(*C, Req);
  EXPECT_TRUE(Second.boolean("cached")) << "repeat must be a cache hit";
  EXPECT_EQ(Second.str("output"), Direct->Output);

  // Same bytes, different mode or fail_on: distinct fingerprints.
  json::Value Bounds = roundTripOk(
      *C, requestFor("analyze", Image,
                     ",\"name\":\"suite.cubin\",\"mode\":\"bounds\""));
  EXPECT_FALSE(Bounds.boolean("cached"))
      << "mode=bounds must not hit the mode=types entry";
  json::Value Lax = roundTripOk(
      *C, requestFor("analyze", Image, ",\"name\":\"suite.cubin\","
                                       "\"mode\":\"types\","
                                       "\"fail_on\":\"never\""));
  EXPECT_FALSE(Lax.boolean("cached"))
      << "fail_on=never must not hit the default entry";
  EXPECT_EQ(Lax.str("output"), Direct->Output)
      << "fail_on changes the exit gate, not the document";
}

TEST(ServeServer, RequestPathStartsNoThreads) {
  // Every op runs on the one pool lane that picked the request up: no
  // request, whatever it asks for, starts a thread of its own.
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  Expected<std::string> Listing = vendor::disassembleImage(Image);
  ASSERT_TRUE(Listing.hasValue()) << Listing.message();
  std::vector<uint8_t> ListingBytes(Listing->begin(), Listing->end());

  telemetry::resetForTest();
  telemetry::setCountersEnabled(true);
  telemetry::Counter &Spawned =
      telemetry::counter("taskpool.threads_spawned");
  ServerOptions Opts;
  Opts.Jobs = 2; // One pool worker besides the caller lane.
  std::unique_ptr<Server> S = startServer(Opts, learnSuite(Arch::SM35));
  EXPECT_EQ(Spawned.value(), 1u) << "the server's own pool worker";
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue()) << C.message();

  const std::string Jobs = ",\"jobs\":8";
  for (const std::string &Req :
       {requestFor("disasm", Image, Jobs), requestFor("asm", ListingBytes, Jobs),
        requestFor("exec", Image, Jobs + ",\"blocks\":8"),
        requestFor("lint", Image, Jobs),
        requestFor("analyze", Image, Jobs + ",\"mode\":\"types\""),
        requestFor("analyze", Image, Jobs + ",\"mode\":\"bounds\""),
        requestFor("analyze", Image, Jobs + ",\"mode\":\"races\""),
        requestFor("disasm", Image, ",\"jobs\":1000000,\"id\":\"big\"")}) {
    json::Value V = roundTripOk(*C, Req);
    EXPECT_EQ(V.str("status"), "ok") << Req.substr(0, 40);
  }
  EXPECT_EQ(Spawned.value(), 1u) << "a request started threads";
  telemetry::setCountersEnabled(false);
  telemetry::resetForTest();
}

TEST(ServeServer, AsmOverTheWireNeedsDbAndMatchesOneShot) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  Expected<std::string> Listing = vendor::disassembleImage(Image);
  ASSERT_TRUE(Listing.hasValue());
  std::vector<uint8_t> ListingBytes(Listing->begin(), Listing->end());

  // Without a database the request is refused...
  {
    std::unique_ptr<Server> S = startServer(ServerOptions());
    Expected<Client> C = Client::connect(S->port());
    ASSERT_TRUE(C.hasValue());
    json::Value V = roundTripOk(*C, requestFor("asm", ListingBytes));
    EXPECT_EQ(V.str("status"), "error");
  }

  // ...with one, the served bytes equal the direct op.
  analyzer::EncodingDatabase Db = learnSuite(Arch::SM35);
  Expected<OpResult> Direct = opAsm(Db, *Listing, BatchOptions());
  ASSERT_TRUE(Direct.hasValue());
  std::unique_ptr<Server> S = startServer(ServerOptions(), std::move(Db));
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue());
  json::Value V = roundTripOk(*C, requestFor("asm", ListingBytes));
  EXPECT_EQ(V.str("status"), "ok");
  EXPECT_EQ(V.str("output"), Direct->Output);
}

TEST(ServeServer, ProtocolErrorsAreAnsweredNotFatal) {
  std::unique_ptr<Server> S = startServer(ServerOptions());
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue());

  Expected<std::string> Bad = C->roundTrip("this is not json");
  ASSERT_TRUE(Bad.hasValue());
  EXPECT_NE(Bad->find("\"status\":\"error\""), std::string::npos);

  Expected<std::string> NoOp = C->roundTrip("{}");
  ASSERT_TRUE(NoOp.hasValue());
  EXPECT_NE(NoOp->find("missing op"), std::string::npos);

  Expected<std::string> Unknown = C->roundTrip(R"({"op":"frobnicate"})");
  ASSERT_TRUE(Unknown.hasValue());
  EXPECT_NE(Unknown->find("unknown op"), std::string::npos);

  Expected<std::string> NoInput = C->roundTrip(R"({"op":"disasm"})");
  ASSERT_TRUE(NoInput.hasValue());
  EXPECT_NE(NoInput->find("data_b64 or path"), std::string::npos);

  // The connection survives all of the above.
  json::Value Ping = roundTripOk(*C, R"({"op":"ping","id":"p1"})");
  EXPECT_EQ(Ping.str("status"), "ok");
  EXPECT_EQ(Ping.str("id"), "p1");

  EXPECT_EQ(S->sessions().Errors, 4u);
}

TEST(ServeServer, InstructionWhereASchiWordBelongsIsAnErrorNotACrash) {
  std::unique_ptr<Server> S = startServer(ServerOptions());
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue());
  const std::string Text =
      "code for sm_35\n\tFunction : k\n"
      "        /*0000*/ MOV R1, R2; /* 0x0000000000000000 */\n"
      "        /*0008*/ /* 0x0800000000000000 */\n"
      "        /*0010*/ EXIT; /* 0x0000000000000000 */\n";
  json::Value V = roundTripOk(
      *C, requestFor("lint", std::vector<uint8_t>(Text.begin(), Text.end())));
  EXPECT_EQ(V.str("status"), "error");
  EXPECT_NE(V.str("error").find("instruction at 0x0 in kernel k"),
            std::string::npos)
      << V.str("error");
  json::Value Ping = roundTripOk(*C, R"({"op":"ping"})");
  EXPECT_EQ(Ping.str("status"), "ok");
}

// The SASS parser interns every spelling a client sends, so a daemon fed
// fresh modifiers fills its symbol table. Past the bound an `asm` request
// answers with an error, while everything the daemon already knows (the
// oracle's spellings and those of its database) still serves. The table
// is process-wide, so the daemon runs in a child process.
TEST(ServeServer, FullSymbolTableRefusesNewSpellingsOnly) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto Child = [] {
    bool Ok = true;
    auto check = [&Ok](bool Cond, const std::string &What) {
      if (!Cond)
        std::fprintf(stderr, "failed: %s\n", What.c_str());
      Ok &= Cond;
    };
    std::vector<uint8_t> Image = suiteImage(Arch::SM35);
    Expected<std::string> Listing = vendor::disassembleImage(Image);
    analyzer::EncodingDatabase Db = learnSuite(Arch::SM35);
    Expected<OpResult> DirectAsm = opAsm(Db, *Listing, BatchOptions());
    std::unique_ptr<Server> S = startServer(ServerOptions(), std::move(Db));
    Expected<Client> C = Client::connect(S->port());
    check(C.hasValue() && Listing.hasValue() && DirectAsm.hasValue(),
          "set-up");
    if (!Ok)
      std::_Exit(1);

    // 500 lines a request, each with a new 200-character modifier.
    std::string Full;
    for (unsigned Req = 0; Req < 40 && Full.empty(); ++Req) {
      std::string Text = "code for sm_35\n\tFunction : k\n";
      for (unsigned Line = 0; Line < 500; ++Line) {
        char Addr[16];
        std::snprintf(Addr, sizeof(Addr), "%04x", 8 * (Line + 1));
        Text += std::string("        /*") + Addr + "*/ MOV.M" +
                std::to_string(Req * 500 + Line) + std::string(190, 'x') +
                " R1, R2; /* 0x0000000000000000 */\n";
      }
      Expected<std::string> Resp = C->roundTrip(
          requestFor("asm", std::vector<uint8_t>(Text.begin(), Text.end())));
      check(Resp.hasValue(), "asm round trip");
      if (Resp && Resp->find("symbol table full") != std::string::npos)
        Full = *Resp;
    }
    check(!Full.empty(), "the table filled");
    Expected<json::Value> V = json::parse(Full);
    check(V && V->str("status") == "error", "a full table answers error");

    Expected<std::string> Ping = C->roundTrip(R"({"op":"ping"})");
    check(Ping && Ping->find("\"status\":\"ok\"") != std::string::npos,
          "ping");
    Expected<std::string> Dis = C->roundTrip(requestFor("disasm", Image));
    Expected<json::Value> DisV = json::parse(Dis ? *Dis : std::string());
    check(DisV && DisV->str("status") == "ok" &&
              DisV->str("output") == *Listing,
          "disasm of the suite");
    Expected<std::string> Asm = C->roundTrip(requestFor(
        "asm", std::vector<uint8_t>(Listing->begin(), Listing->end())));
    Expected<json::Value> AsmV = json::parse(Asm ? *Asm : std::string());
    check(AsmV && AsmV->str("status") == "ok" &&
              AsmV->str("output") == DirectAsm->Output,
          "asm of the suite listing");
    std::_Exit(Ok ? 0 : 1);
  };
  EXPECT_EXIT(Child(), ::testing::ExitedWithCode(0), "");
}

TEST(ServeServer, BoundedQueueShedsWithBusy) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  ServerOptions Opts;
  Opts.Jobs = 2;      // One pool worker.
  Opts.MaxQueued = 1; // One waiter behind it.
  std::unique_ptr<Server> S = startServer(Opts);

  // Saturate deterministically: occupy the worker, then fill the queue.
  std::atomic<bool> Started{false}, Release{false};
  ASSERT_EQ(S->pool().trySubmit([&] {
    Started.store(true);
    while (!Release.load())
      std::this_thread::yield();
  }),
            TaskPool::Submit::Queued);
  while (!Started.load())
    std::this_thread::yield();
  ASSERT_EQ(S->pool().trySubmit([] {}), TaskPool::Submit::Queued);

  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue());
  json::Value Busy = roundTripOk(*C, requestFor("disasm", Image));
  EXPECT_EQ(Busy.str("status"), "busy");
  EXPECT_TRUE(Busy.boolean("retry"));
  EXPECT_EQ(S->sessions().Busy, 1u);

  // Draining the pool makes the same request succeed.
  Release.store(true);
  S->pool().drainSubmitted();
  json::Value Ok = roundTripOk(*C, requestFor("disasm", Image));
  EXPECT_EQ(Ok.str("status"), "ok");
}

TEST(ServeServer, ConcurrentClientsAllGetCorrectBytes) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  Expected<OpResult> Direct = opDisasm(Image, vendor::DisasmOptions());
  ASSERT_TRUE(Direct.hasValue());

  ServerOptions Opts;
  Opts.Jobs = 4;
  std::unique_ptr<Server> S = startServer(Opts);
  const std::string Req = requestFor("disasm", Image);

  constexpr unsigned NumClients = 4, PerClient = 5;
  std::atomic<unsigned> Correct{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumClients; ++T)
    Threads.emplace_back([&] {
      Expected<Client> C = Client::connect(S->port());
      if (!C.hasValue())
        return;
      for (unsigned I = 0; I < PerClient; ++I) {
        Expected<std::string> Resp = C->roundTrip(Req);
        if (!Resp.hasValue())
          return;
        Expected<json::Value> V = json::parse(*Resp);
        if (V.hasValue() && V->str("status") == "ok" &&
            V->str("output") == Direct->Output)
          Correct.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Correct.load(), NumClients * PerClient);

  // Every request was served by some cache layer: the content cache or,
  // for byte-identical repeat lines, the render memo in front of it.
  ResultCache::Stats Stats = S->cache().stats();
  EXPECT_EQ(Stats.Hits + Stats.Misses + S->renderMemoHits(),
            NumClients * PerClient);
  // The first round can race (up to one miss per client before a put
  // lands); each client's later requests must all hit one of the layers.
  EXPECT_LE(Stats.Misses, NumClients);
  EXPECT_GE(Stats.Hits + S->renderMemoHits(),
            NumClients * (PerClient - 1));
  EXPECT_EQ(S->sessions().Requests, NumClients * PerClient);
}

TEST(ServeServer, ShutdownOpStopsTheServer) {
  std::unique_ptr<Server> S = startServer(ServerOptions());
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue());
  Expected<std::string> Resp = C->roundTrip(R"({"op":"shutdown"})");
  ASSERT_TRUE(Resp.hasValue());
  EXPECT_NE(Resp->find("\"status\":\"ok\""), std::string::npos);
  EXPECT_TRUE(S->stopRequested());
  S->stop(); // Must complete without hanging on live connections.
}

//===----------------------------------------------------------------------===//
// Reactor framing under adversarial I/O
//===----------------------------------------------------------------------===//

namespace {

/// A raw-socket peer that can split writes anywhere — the adversarial
/// counterpart to serve::Client, for exercising the reactor's framing
/// state machine directly.
struct RawConn {
  int Fd = -1;

  static RawConn open(uint16_t Port) {
    RawConn C;
    C.Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(C.Fd, 0);
    int One = 1;
    ::setsockopt(C.Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Port);
    EXPECT_EQ(::connect(C.Fd, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr)),
              0);
    return C;
  }
  ~RawConn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  RawConn() = default;
  RawConn(RawConn &&O) noexcept : Fd(std::exchange(O.Fd, -1)) {}
  RawConn(const RawConn &) = delete;
  RawConn &operator=(const RawConn &) = delete;

  void send(std::string_view Bytes) {
    size_t Ofs = 0;
    while (Ofs < Bytes.size()) {
      ssize_t N = ::send(Fd, Bytes.data() + Ofs, Bytes.size() - Ofs, 0);
      ASSERT_GT(N, 0);
      Ofs += static_cast<size_t>(N);
    }
  }

  /// Reads one response line using deliberately tiny recv chunks, so the
  /// client side reassembles across short reads too. Bytes past the
  /// newline stay buffered for the next call. Empty string = EOF before
  /// a complete line.
  std::string recvLine(size_t ChunkBytes = 3) {
    char Chunk[64];
    ChunkBytes = std::min(ChunkBytes, sizeof(Chunk));
    for (;;) {
      size_t Nl = Buffered.find('\n');
      if (Nl != std::string::npos) {
        std::string Line = Buffered.substr(0, Nl);
        Buffered.erase(0, Nl + 1);
        return Line;
      }
      ssize_t N = ::recv(Fd, Chunk, ChunkBytes, 0);
      if (N <= 0)
        return "";
      Buffered.append(Chunk, static_cast<size_t>(N));
    }
  }

  /// True when the server closed its end (recv sees EOF) with nothing
  /// left buffered.
  bool eof() {
    if (!Buffered.empty())
      return false;
    char B;
    ssize_t N = ::recv(Fd, &B, 1, 0);
    return N == 0;
  }

  std::string Buffered; ///< Bytes past the last consumed newline.
};

} // namespace

TEST(ServeReactor, ByteAtATimeWritesSplitFramesMidEscape) {
  std::unique_ptr<Server> S = startServer(ServerOptions());
  RawConn C = RawConn::open(S->port());

  // The id forces escape sequences (\" \\ \n) into the frame; sending one
  // byte per write guarantees some recv() boundary lands inside each of
  // them, and inside the "op" key and value too.
  const std::string Req = R"({"op":"ping","id":"a\"b\\c\nd"})" "\n";
  for (char Byte : Req)
    C.send(std::string_view(&Byte, 1));

  std::string Resp = C.recvLine();
  Expected<json::Value> V = json::parse(Resp);
  ASSERT_TRUE(V.hasValue()) << V.message() << " in " << Resp;
  EXPECT_EQ(V->str("status"), "ok");
  EXPECT_EQ(V->str("id"), "a\"b\\c\nd"); // Escapes survived the splits.
}

TEST(ServeReactor, ChunkedWritesSplitFramesMidBase64) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  Expected<OpResult> Direct = opDisasm(Image, vendor::DisasmOptions());
  ASSERT_TRUE(Direct.hasValue());

  std::unique_ptr<Server> S = startServer(ServerOptions());
  RawConn C = RawConn::open(S->port());

  // Dribble the request in 7-byte writes with pauses sprinkled in: frame
  // boundaries land mid-base64 (and mid-key) on the server, which must
  // keep accumulating until the newline.
  const std::string Req = requestFor("disasm", Image) + "\n";
  for (size_t Ofs = 0; Ofs < Req.size(); Ofs += 7) {
    C.send(std::string_view(Req).substr(Ofs, 7));
    if (Ofs % 9973 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::string Resp = C.recvLine();
  Expected<json::Value> V = json::parse(Resp);
  ASSERT_TRUE(V.hasValue()) << V.message();
  EXPECT_EQ(V->str("status"), "ok");
  EXPECT_EQ(V->str("output"), Direct->Output); // Byte-identical anyway.
}

TEST(ServeReactor, OversizedFrameDisconnectsOnlyThatConnection) {
  ServerOptions Opts;
  Opts.MaxLineBytes = 256;
  std::unique_ptr<Server> S = startServer(Opts);

  RawConn Bad = RawConn::open(S->port());
  RawConn Good = RawConn::open(S->port());

  // A pipelined valid request first, then a frame past the bound: the
  // earlier response must still be delivered before the disconnect.
  Bad.send("{\"op\":\"ping\",\"id\":\"before\"}\n");
  Bad.send(std::string(1024, 'x')); // No newline; already over 256.

  std::string First = Bad.recvLine();
  Expected<json::Value> V1 = json::parse(First);
  ASSERT_TRUE(V1.hasValue()) << V1.message();
  EXPECT_EQ(V1->str("id"), "before");

  std::string Err = Bad.recvLine();
  Expected<json::Value> V2 = json::parse(Err);
  ASSERT_TRUE(V2.hasValue()) << V2.message();
  EXPECT_EQ(V2->str("status"), "error");
  EXPECT_NE(V2->str("error").find("exceeds"), std::string::npos);
  EXPECT_TRUE(Bad.eof()); // The offending connection is gone...

  // ...and the reactor still serves everyone else.
  Good.send("{\"op\":\"ping\",\"id\":\"still-alive\"}\n");
  Expected<json::Value> V3 = json::parse(Good.recvLine());
  ASSERT_TRUE(V3.hasValue()) << V3.message();
  EXPECT_EQ(V3->str("status"), "ok");
  EXPECT_EQ(V3->str("id"), "still-alive");
  EXPECT_EQ(S->sessions().Errors, 1u);
}

TEST(ServeReactor, PipelinedBatchAnswersInRequestOrder) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  Expected<OpResult> Direct = opDisasm(Image, vendor::DisasmOptions());
  ASSERT_TRUE(Direct.hasValue());

  ServerOptions Opts;
  Opts.Jobs = 2; // Real worker lanes: the ping below would finish first.
  std::unique_ptr<Server> S = startServer(Opts);
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue());

  // A slow op followed by instant control ops: per-connection ordering
  // says the pings wait for the disasm even though they are ready first.
  std::vector<std::string> Reqs = {
      requestFor("disasm", Image, ",\"id\":\"1\""),
      "{\"op\":\"ping\",\"id\":\"2\"}",
      requestFor("disasm", Image, ",\"id\":\"3\""),
      "{\"op\":\"ping\",\"id\":\"4\"}",
  };
  Expected<std::vector<std::string>> Resps = C->batch(Reqs);
  ASSERT_TRUE(Resps.hasValue()) << Resps.message();
  ASSERT_EQ(Resps->size(), 4u);
  for (size_t I = 0; I < 4; ++I) {
    Expected<json::Value> V = json::parse((*Resps)[I]);
    ASSERT_TRUE(V.hasValue()) << V.message();
    EXPECT_EQ(V->str("status"), "ok");
    EXPECT_EQ(V->str("id"), std::to_string(I + 1)); // Request order.
  }
  Expected<json::Value> First = json::parse((*Resps)[0]);
  ASSERT_TRUE(First.hasValue());
  EXPECT_EQ(First->str("output"), Direct->Output);
  // Same key as request 1, so the output matches byte for byte. (It may
  // or may not be a cache hit: both disasms can be in flight at once.)
  Expected<json::Value> Third = json::parse((*Resps)[2]);
  ASSERT_TRUE(Third.hasValue());
  EXPECT_EQ(Third->str("output"), Direct->Output);
}

TEST(ServeReactor, BadLaunchShapeIsAnsweredAndPipelineContinues) {
  // An exec whose launch shape exceeds the VM's caps or is empty is
  // answered with the VM's error, a bounds analysis over a warp or block
  // the VM would refuse is answered with an error, and the requests
  // pipelined behind them on the connection still get their answers.
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  std::unique_ptr<Server> S = startServer(ServerOptions());
  RawConn C = RawConn::open(S->port());
  timeval Timeout{10, 0}; // A missing answer fails instead of hanging.
  ::setsockopt(C.Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));

  C.send(requestFor("exec", Image,
                    ",\"id\":\"blocks\",\"kernel\":\"bfs\","
                    "\"blocks\":4294967295") +
         "\n" +
         requestFor("exec", Image,
                    ",\"id\":\"threads\",\"kernel\":\"bfs\","
                    "\"threads\":4294967295") +
         "\n" +
         requestFor("exec", Image,
                    ",\"id\":\"huge\",\"kernel\":\"bfs\",\"blocks\":1e20") +
         "\n" +
         requestFor("exec", Image,
                    ",\"id\":\"nothreads\",\"kernel\":\"bfs\","
                    "\"threads\":0") +
         "\n" +
         requestFor("exec", Image,
                    ",\"id\":\"noblocks\",\"kernel\":\"bfs\","
                    "\"blocks\":0") +
         "\n" +
         requestFor("analyze", Image,
                    ",\"id\":\"warp\",\"mode\":\"bounds\",\"warp\":0") +
         "\n" +
         requestFor("analyze", Image,
                    ",\"id\":\"empty\",\"mode\":\"bounds\","
                    "\"threads\":0") +
         "\n" + "{\"op\":\"ping\",\"id\":\"after\"}\n");

  const char *Errors[] = {
      "bfs: error: vm: at most 1024 blocks per grid, got 4294967295",
      "bfs: error: vm: at most 1024 threads per block, got 4294967295",
      "bfs: error: vm: at most 1024 blocks per grid, got 4294967295",
      "bfs: error: vm: at least 1 thread per block, got 0",
      "bfs: error: vm: at least 1 block per grid, got 0"};
  for (const char *Error : Errors) {
    std::string Line = C.recvLine(64);
    Expected<json::Value> V = json::parse(Line);
    ASSERT_TRUE(V.hasValue()) << "no answer: " << V.message();
    EXPECT_EQ(V->str("status"), "ok");
    EXPECT_EQ(V->num("exit"), 1u);
    EXPECT_EQ(V->str("output"), std::string(Error) + "\n");
  }
  for (const char *Error : {"warp size must be between 1 and 32, got 0",
                            "at least 1 thread per block, got 0"}) {
    Expected<json::Value> V = json::parse(C.recvLine(64));
    ASSERT_TRUE(V.hasValue()) << "no answer: " << V.message();
    EXPECT_EQ(V->str("status"), "error");
    EXPECT_EQ(V->str("error"), Error);
  }
  Expected<json::Value> Ping = json::parse(C.recvLine(64));
  ASSERT_TRUE(Ping.hasValue()) << "no answer: " << Ping.message();
  EXPECT_EQ(Ping->str("id"), "after");
}

//===----------------------------------------------------------------------===//
// Cache persistence
//===----------------------------------------------------------------------===//

namespace {

std::string persistPath(const std::string &Name) {
  return ::testing::TempDir() + "serve_persist_" + Name + ".seg";
}

OpResult makeResult(const std::string &Output, int Exit = 0,
                    std::vector<std::string> Errors = {}) {
  OpResult R;
  R.Output = Output;
  R.Exit = Exit;
  R.Errors = std::move(Errors);
  return R;
}

} // namespace

TEST(ServePersist, RestartServesFromPersistedCacheByteIdentical) {
  const std::string Path = persistPath("restart");
  std::remove(Path.c_str());
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  const std::string Req = requestFor("disasm", Image);

  ServerOptions Opts;
  Opts.PersistPath = Path;

  std::string FirstOutput;
  {
    std::unique_ptr<Server> S = startServer(Opts);
    Expected<Client> C = Client::connect(S->port());
    ASSERT_TRUE(C.hasValue());
    json::Value V = roundTripOk(*C, Req);
    EXPECT_EQ(V.str("status"), "ok");
    EXPECT_FALSE(V.boolean("cached"));
    FirstOutput = V.str("output");
    EXPECT_EQ(S->persistStats().Appends, 1u);
    S->stop();
  }

  // A fresh process would see exactly this: new Server, same segment.
  std::unique_ptr<Server> S = startServer(Opts);
  EXPECT_EQ(S->persistStats().LoadedEntries, 1u);
  EXPECT_FALSE(S->persistStats().ColdStart);
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue());
  json::Value V = roundTripOk(*C, Req);
  EXPECT_EQ(V.str("status"), "ok");
  EXPECT_TRUE(V.boolean("cached")); // No recompute...
  EXPECT_EQ(V.str("output"), FirstOutput); // ...and byte-identical.
  ResultCache::Stats Cs = S->cache().stats();
  EXPECT_EQ(Cs.Hits, 1u);
  EXPECT_EQ(Cs.Misses, 0u);
  std::remove(Path.c_str());
}

TEST(ServePersist, TruncatedSegmentDropsTornTailKeepsRest) {
  const std::string Path = persistPath("torn");
  std::remove(Path.c_str());
  ResultCache Cache(1 << 20, 1);
  CachePersister::Options PO;
  PO.Path = Path;
  CachePersister P(PO, Cache, Hash128{7, 9});
  ASSERT_FALSE(P.load());

  Hash128 KeyA{1, 10}, KeyB{2, 20};
  OpResult A = makeResult("alpha output", 0, {"warn-a"});
  OpResult B = makeResult("beta output");
  ASSERT_TRUE(Cache.put(KeyA, A));
  ASSERT_FALSE(P.append(KeyA, A));
  ASSERT_TRUE(Cache.put(KeyB, B));
  ASSERT_FALSE(P.append(KeyB, B));

  // Crash simulation: the final record loses its last 5 bytes.
  Expected<uint64_t> Size = fileSize(Path);
  ASSERT_TRUE(Size.hasValue());
  Expected<AppendFile> Trunc = AppendFile::open(Path);
  ASSERT_TRUE(Trunc.hasValue());
  ASSERT_FALSE(Trunc->truncateTo(*Size - 5));
  Trunc->close();

  ResultCache Fresh(1 << 20, 1);
  CachePersister P2(PO, Fresh, Hash128{7, 9});
  ASSERT_FALSE(P2.load());
  EXPECT_EQ(P2.stats().LoadedEntries, 1u); // A survived...
  EXPECT_EQ(P2.stats().DroppedEntries, 1u); // ...B's torn record did not.
  std::unique_ptr<OpResult> GotA = Fresh.get(KeyA);
  ASSERT_NE(GotA, nullptr);
  EXPECT_EQ(GotA->Output, "alpha output");
  ASSERT_EQ(GotA->Errors.size(), 1u);
  EXPECT_EQ(GotA->Errors[0], "warn-a");
  EXPECT_EQ(Fresh.get(KeyB), nullptr);

  // The torn tail was truncated away: appending and reloading is clean.
  OpResult C = makeResult("gamma");
  Hash128 KeyC{3, 30};
  ASSERT_TRUE(Fresh.put(KeyC, C));
  ASSERT_FALSE(P2.append(KeyC, C));
  ResultCache Third(1 << 20, 1);
  CachePersister P3(PO, Third, Hash128{7, 9});
  ASSERT_FALSE(P3.load());
  EXPECT_EQ(P3.stats().LoadedEntries, 2u);
  EXPECT_EQ(P3.stats().DroppedEntries, 0u);
  std::remove(Path.c_str());
}

TEST(ServePersist, DbFingerprintMismatchTriggersCleanColdStart) {
  const std::string Path = persistPath("dbfp");
  std::remove(Path.c_str());
  ResultCache Cache(1 << 20, 1);
  CachePersister::Options PO;
  PO.Path = Path;
  {
    CachePersister P(PO, Cache, Hash128{0xAAAA, 0xBBBB});
    ASSERT_FALSE(P.load());
    OpResult A = makeResult("trained on old db");
    ASSERT_TRUE(Cache.put(Hash128{1, 1}, A));
    ASSERT_FALSE(P.append(Hash128{1, 1}, A));
  }

  // A retrained database has a different fingerprint: nothing may load.
  ResultCache Fresh(1 << 20, 1);
  CachePersister P2(PO, Fresh, Hash128{0xCCCC, 0xDDDD});
  ASSERT_FALSE(P2.load());
  EXPECT_TRUE(P2.stats().ColdStart);
  EXPECT_EQ(P2.stats().LoadedEntries, 0u);
  EXPECT_EQ(Fresh.get(Hash128{1, 1}), nullptr);

  // The cold start rewrote the header: new-fingerprint entries round-trip.
  OpResult B = makeResult("trained on new db");
  ASSERT_TRUE(Fresh.put(Hash128{2, 2}, B));
  ASSERT_FALSE(P2.append(Hash128{2, 2}, B));
  ResultCache Third(1 << 20, 1);
  CachePersister P3(PO, Third, Hash128{0xCCCC, 0xDDDD});
  ASSERT_FALSE(P3.load());
  EXPECT_FALSE(P3.stats().ColdStart);
  EXPECT_EQ(P3.stats().LoadedEntries, 1u);
  std::remove(Path.c_str());
}

TEST(ServePersist, CompactionPreservesLruSurvivingEntries) {
  const std::string Path = persistPath("compact");
  std::remove(Path.c_str());
  // A cache so small that inserts evict: the segment accumulates dead
  // records the in-memory cache no longer holds.
  OpResult Big = makeResult(std::string(600, 'x'));
  ResultCache Cache(2 * Big.byteSize() + 64, 1);
  CachePersister::Options PO;
  PO.Path = Path;
  PO.CompactSlack = 1; // Compact as soon as anything retires.
  CachePersister P(PO, Cache, Hash128{5, 5});
  ASSERT_FALSE(P.load());

  for (uint64_t I = 0; I < 6; ++I) {
    Hash128 Key{I, 100 + I};
    if (Cache.put(Key, Big)) {
      ASSERT_FALSE(P.append(Key, Big));
    }
  }
  EXPECT_GT(P.stats().Compactions, 0u);
  EXPECT_EQ(Cache.stats().Entries, 2u); // LRU kept the two newest.

  // Reloading the compacted segment yields exactly the LRU survivors.
  ResultCache Fresh(2 * Big.byteSize() + 64, 1);
  CachePersister P2(PO, Fresh, Hash128{5, 5});
  ASSERT_FALSE(P2.load());
  EXPECT_EQ(P2.stats().LoadedEntries, Fresh.stats().Entries);
  EXPECT_NE(Fresh.get(Hash128{4, 104}), nullptr);
  EXPECT_NE(Fresh.get(Hash128{5, 105}), nullptr);
  EXPECT_EQ(Fresh.get(Hash128{0, 100}), nullptr); // Evicted, not persisted.
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Admin introspection plane
//===----------------------------------------------------------------------===//

TEST(ServeAdmin, HealthReportsReadinessInline) {
  std::unique_ptr<Server> S = startServer(ServerOptions());
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue());

  json::Value H = roundTripOk(*C, R"({"op":"health","id":"h1"})");
  EXPECT_EQ(H.str("status"), "ok");
  EXPECT_EQ(H.str("id"), "h1");
  EXPECT_TRUE(H.boolean("ready"));
  EXPECT_GT(H.num("uptime_ns"), 0u);
  const json::Value *DbF = H.field("db");
  ASSERT_NE(DbF, nullptr);
  EXPECT_FALSE(DbF->boolean("loaded")); // No --db on this server.
  EXPECT_FALSE(DbF->str("fingerprint").empty());
  const json::Value *PoolF = H.field("pool");
  ASSERT_NE(PoolF, nullptr);
  EXPECT_GT(PoolF->num("jobs"), 0u);
  EXPECT_EQ(PoolF->num("max_queued"), ServerOptions().MaxQueued);
  EXPECT_FALSE(PoolF->boolean("saturated"));
  const json::Value *Per = H.field("persist");
  ASSERT_NE(Per, nullptr);
  EXPECT_FALSE(Per->boolean("enabled"));
}

TEST(ServeAdmin, AdminOpsAnswerInlineAtPoolSaturation) {
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  ServerOptions Opts;
  Opts.Jobs = 2;      // One pool worker.
  Opts.MaxQueued = 1; // One waiter behind it.
  std::unique_ptr<Server> S = startServer(Opts);

  // Wedge the pool completely, exactly like BoundedQueueShedsWithBusy.
  std::atomic<bool> Started{false}, Release{false};
  ASSERT_EQ(S->pool().trySubmit([&] {
    Started.store(true);
    while (!Release.load())
      std::this_thread::yield();
  }),
            TaskPool::Submit::Queued);
  while (!Started.load())
    std::this_thread::yield();
  ASSERT_EQ(S->pool().trySubmit([] {}), TaskPool::Submit::Queued);

  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue());

  // A work op is shed...
  json::Value Busy = roundTripOk(*C, requestFor("disasm", Image));
  EXPECT_EQ(Busy.str("status"), "busy");

  // ...but every admin op still answers, because they run on the reactor
  // and never touch the pool. The wedged worker blocks until Release, so
  // a pool-routed admin op would hang forever; the wall-clock bound below
  // documents "inline", it does not carry the correctness.
  auto T0 = std::chrono::steady_clock::now();
  json::Value H = roundTripOk(*C, R"({"op":"health"})");
  EXPECT_EQ(H.str("status"), "ok");
  const json::Value *PoolF = H.field("pool");
  ASSERT_NE(PoolF, nullptr);
  EXPECT_TRUE(PoolF->boolean("saturated"));
  EXPECT_GE(PoolF->num("pending"), 1u);
  json::Value St = roundTripOk(*C, R"({"op":"stats"})");
  EXPECT_EQ(St.str("status"), "ok");
  EXPECT_GE(St.num("snapshot_seq"), 1u);
  json::Value M = roundTripOk(*C, R"({"op":"metrics"})");
  EXPECT_EQ(M.str("status"), "ok");
  EXPECT_NE(M.str("exposition").find("dcb_build_info"), std::string::npos);
  json::Value T = roundTripOk(*C, R"({"op":"trace"})");
  EXPECT_EQ(T.str("status"), "ok");
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  EXPECT_LT(ElapsedMs, 5000) << "admin ops must not wait for the pool";

  Release.store(true);
  S->pool().drainSubmitted();
}

TEST(ServeAdmin, SnapshotDeltasCountEveryCacheLayerExactly) {
  telemetry::resetForTest();
  telemetry::setCountersEnabled(true);
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  std::unique_ptr<Server> S = startServer(ServerOptions());
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue());

  json::Value S0 = roundTripOk(*C, R"({"op":"stats"})");
  EXPECT_EQ(S0.str("status"), "ok");
  const json::Value *Sess0 = S0.field("sessions");
  const json::Value *Cache0 = S0.field("cache");
  const json::Value *Render0 = S0.field("render");
  ASSERT_NE(Sess0, nullptr);
  ASSERT_NE(Cache0, nullptr);
  ASSERT_NE(Render0, nullptr);

  const std::string Req = requestFor("disasm", Image);
  roundTripOk(*C, Req); // Content-cache miss.
  roundTripOk(*C, Req); // Content-cache hit (memoizes its rendering).
  roundTripOk(*C, Req); // Render-memo hit.

  json::Value S1 = roundTripOk(*C, R"({"op":"stats"})");
  const json::Value *Sess1 = S1.field("sessions");
  const json::Value *Cache1 = S1.field("cache");
  const json::Value *Render1 = S1.field("render");
  ASSERT_NE(Sess1, nullptr);
  ASSERT_NE(Cache1, nullptr);
  ASSERT_NE(Render1, nullptr);

  // The sequence number is the poller's lost-snapshot detector.
  EXPECT_EQ(S1.num("snapshot_seq"), S0.num("snapshot_seq") + 1);
  EXPECT_GE(S1.num("uptime_ns"), S0.num("uptime_ns"));

  // 3 disasm frames plus the second stats frame itself (the snapshot is
  // taken inside its dispatch, after the request counter bump).
  EXPECT_EQ(Sess1->num("requests") - Sess0->num("requests"), 4u);
  EXPECT_EQ(Cache1->num("hits") - Cache0->num("hits"), 1u);
  EXPECT_EQ(Cache1->num("misses") - Cache0->num("misses"), 1u);
  EXPECT_EQ(Render1->num("hits") - Render0->num("hits"), 1u);

  const json::Value *Prov = S1.field("provenance");
  ASSERT_NE(Prov, nullptr);
  EXPECT_FALSE(Prov->str("dcb_git_rev").empty());
  EXPECT_FALSE(Prov->str("telemetry").empty());

  // The embedded dcb-stats-v1 document carries the live request-latency
  // histogram. All three disasm answers record into it — the render-memo
  // hit included: memo hits are real requests, so their latency belongs
  // in the distribution (their request-log record is what differs, by an
  // empty op).
  auto HistCount = [](const json::Value &Doc) -> uint64_t {
    const json::Value *T = Doc.field("telemetry_stats");
    const json::Value *H = T ? T->field("histograms") : nullptr;
    const json::Value *R = H ? H->field("serve.request_ns") : nullptr;
    return R ? R->num("count") : 0;
  };
  EXPECT_EQ(HistCount(S1) - HistCount(S0), 3u);
  // Admin ops count themselves: two stats frames in this window.
  auto CounterOf = [](const json::Value &Doc, const char *Name) {
    const json::Value *T = Doc.field("telemetry_stats");
    const json::Value *Cs = T ? T->field("counters") : nullptr;
    return Cs ? Cs->num(Name) : 0;
  };
  EXPECT_EQ(CounterOf(S1, "serve.admin.stats") -
                CounterOf(S0, "serve.admin.stats"),
            1u); // S1's own bump lands before its snapshot; S0's too.
  telemetry::setCountersEnabled(false);
  telemetry::resetForTest();
}

TEST(ServeAdmin, RequestLogRecordsOneLinePerOutcome) {
  const std::string Path = ::testing::TempDir() + "serve_reqlog_test.jsonl";
  std::remove(Path.c_str());
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  ServerOptions Opts;
  Opts.RequestLogPath = Path;
  {
    std::unique_ptr<Server> S = startServer(Opts);
    Expected<Client> C = Client::connect(S->port());
    ASSERT_TRUE(C.hasValue());

    const std::string Req = requestFor("disasm", Image);
    roundTripOk(*C, Req);                           // miss
    roundTripOk(*C, Req);                           // hit
    roundTripOk(*C, Req);                           // render-memo
    roundTripOk(*C, R"({"op":"ping"})");            // control
    roundTripOk(*C, R"({"op":"x\u0001y\rz"})");     // error
    S->stop(); // Drains the pool: every record is on disk now.
    ASSERT_NE(S->requestLog(), nullptr);
    EXPECT_EQ(S->requestLog()->written(), 5u);
    EXPECT_EQ(S->requestLog()->suppressed(), 0u);
  }

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::vector<json::Value> Recs;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    // JSON allows no raw control character, not even inside a string.
    EXPECT_TRUE(std::none_of(Line.begin(), Line.end(),
                             [](char Ch) {
                               return static_cast<unsigned char>(Ch) < 0x20;
                             }))
        << Line;
    Expected<json::Value> V = json::parse(Line);
    ASSERT_TRUE(V.hasValue()) << V.message() << " in " << Line;
    EXPECT_EQ(V->str("schema"), "dcb-reqlog-v1");
    Recs.push_back(*V);
  }
  ASSERT_EQ(Recs.size(), 5u);
  // Request ids are server-assigned and monotonic from 1.
  for (size_t I = 0; I < Recs.size(); ++I)
    EXPECT_EQ(Recs[I].num("req"), I + 1);
  EXPECT_EQ(Recs[0].str("outcome"), "miss");
  EXPECT_EQ(Recs[0].str("op"), "disasm");
  EXPECT_EQ(Recs[0].str("status"), "ok");
  EXPECT_GT(Recs[0].num("service_ns"), 0u);
  EXPECT_GT(Recs[0].num("bytes_in"), 0u);
  EXPECT_GT(Recs[0].num("bytes_out"), 0u);
  EXPECT_EQ(Recs[1].str("outcome"), "hit");
  EXPECT_EQ(Recs[1].num("queue_wait_ns"), 0u); // Reactor-answered.
  EXPECT_EQ(Recs[2].str("outcome"), "render-memo");
  EXPECT_EQ(Recs[2].str("op"), ""); // The memo answers unparsed lines.
  EXPECT_EQ(Recs[3].str("outcome"), "control");
  EXPECT_EQ(Recs[3].str("op"), "ping");
  EXPECT_EQ(Recs[4].str("outcome"), "error");
  EXPECT_EQ(Recs[4].str("op"), "x\x01y\rz");
  EXPECT_EQ(Recs[4].str("status"), "error");
  std::remove(Path.c_str());
}

TEST(ServeAdmin, SlowThresholdSuppressesFastRequests) {
  const std::string Path = ::testing::TempDir() + "serve_reqlog_slow.jsonl";
  std::remove(Path.c_str());
  ServerOptions Opts;
  Opts.RequestLogPath = Path;
  Opts.SlowMs = 60000; // Nothing in this test takes a minute.
  {
    std::unique_ptr<Server> S = startServer(Opts);
    Expected<Client> C = Client::connect(S->port());
    ASSERT_TRUE(C.hasValue());
    roundTripOk(*C, R"({"op":"ping"})");
    roundTripOk(*C, R"({"op":"ping"})");
    S->stop();
    ASSERT_NE(S->requestLog(), nullptr);
    EXPECT_EQ(S->requestLog()->written(), 0u);
    EXPECT_EQ(S->requestLog()->suppressed(), 2u);
  }
  std::ifstream In(Path);
  std::string Contents((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
  EXPECT_TRUE(Contents.empty()) << "slow filter must suppress fast requests";
  std::remove(Path.c_str());
}

TEST(ServeAdmin, MetricsOpAndHttpEndpointServeTheExposition) {
  ServerOptions Opts;
  Opts.MetricsPort = 0; // Ephemeral.
  std::unique_ptr<Server> S = startServer(Opts);
  EXPECT_NE(S->metricsPort(), 0);
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue());

  json::Value M = roundTripOk(*C, R"({"op":"metrics"})");
  EXPECT_EQ(M.str("status"), "ok");
  std::string Exp = M.str("exposition");
  EXPECT_NE(Exp.find("# TYPE dcb_build_info gauge"), std::string::npos);
  EXPECT_NE(Exp.find("dcb_uptime_seconds "), std::string::npos);

  // The HTTP listener serves the same document family over HTTP/1.0.
  RawConn H = RawConn::open(S->metricsPort());
  H.send("GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n");
  std::string All;
  for (;;) {
    char Buf[512];
    ssize_t N = ::recv(H.Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      break;
    All.append(Buf, static_cast<size_t>(N));
  }
  EXPECT_EQ(All.rfind("HTTP/1.0 200 OK", 0), 0u);
  EXPECT_NE(All.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(All.find("Content-Length: "), std::string::npos);
  EXPECT_NE(All.find("dcb_build_info{"), std::string::npos);
}

TEST(ServeAdmin, TraceOpDeliversChromeTraceFromTheFlightRecorder) {
  telemetry::resetForTest();
  telemetry::setFlightRecorderEnabled(true);
  std::vector<uint8_t> Image = suiteImage(Arch::SM35);
  std::unique_ptr<Server> S = startServer(ServerOptions());
  Expected<Client> C = Client::connect(S->port());
  ASSERT_TRUE(C.hasValue());

  // A miss routes through the pool, whose worker opens a serve.op span.
  roundTripOk(*C, requestFor("disasm", Image));

  json::Value T = roundTripOk(*C, R"({"op":"trace"})");
  EXPECT_EQ(T.str("status"), "ok");
  std::string Doc = T.str("trace");
  EXPECT_EQ(Doc.rfind("{\"traceEvents\": [", 0), 0u);
  Expected<json::Value> TraceJson = json::parse(Doc);
  ASSERT_TRUE(TraceJson.hasValue())
      << TraceJson.message() << " in " << Doc.substr(0, 200);
  ASSERT_NE(TraceJson->field("traceEvents"), nullptr);
  ASSERT_NE(TraceJson->field("flightDropped"), nullptr);
  EXPECT_GE(T.num("spans"), 1u);
  EXPECT_NE(Doc.find("serve.op"), std::string::npos);
  // last_ms horizon filtering: a window of 0 means "everything"; the op
  // must also answer with a tiny window without erroring.
  json::Value Windowed =
      roundTripOk(*C, R"({"op":"trace","last_ms":3600000})");
  EXPECT_EQ(Windowed.str("status"), "ok");
  // A window whose nanoseconds pass 2^64 still covers every resident span
  // (wrapped, it would cover under a millisecond and miss the disasm's).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  json::Value Huge =
      roundTripOk(*C, R"({"op":"trace","last_ms":18446744073710})");
  EXPECT_NE(Huge.str("trace").find("serve.op"), std::string::npos);
  telemetry::setFlightRecorderEnabled(false);
  telemetry::resetForTest();
}

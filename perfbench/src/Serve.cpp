//===- perfbench/src/Serve.cpp - The daemon workload ----------------------===//
//
// serve: a child `dcb serve --db <sm_35 db> --jobs 2` driven over loopback
// by one generator thread. Poisson arrivals form an open loop, pipelined
// over 4 connections; latency counts from each request's scheduled send
// time. Phase 1 runs at the fixed offered rate; phase 2 is the rate ladder
// that finds max_rps. Every ok response is checked, after the timed
// phases, against the same serve::op* run in-process.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gen.h"
#include "Measure.h"
#include "Trace.h"

#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/Ops.h"
#include "support/Hash.h"
#include "support/Telemetry.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <limits>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace dcb {
namespace perfbench {

namespace {

constexpr unsigned NumConns = 4;
constexpr double LatencyLimitMs = 25;
/// The saturation phase sends this many requests per second of run length
/// (a count, not a duration, so the daemon's final cache fill is fixed).
constexpr double SaturationPerSecond = 400;
constexpr size_t SaturationWindow = 16;
/// The latency of a request that was shed, failed or never answered.
constexpr double Unanswered = std::numeric_limits<double>::infinity();

//===-- The daemon --------------------------------------------------------===//

struct RunningDaemon {
  Daemon Proc;
  uint16_t Port = 0;
  double ReadySeconds = 0;
};

/// Starts the daemon and waits until `health` reports ready.
void startDaemon(const RunConfig &Cfg, RunningDaemon &D, unsigned Tag) {
  std::string PortFile =
      Cfg.WorkDir + "/serve-port-" + std::to_string(Tag) + ".txt";
  std::remove(PortFile.c_str());
  uint64_t T0 = nowNs();
  D.Proc.start({Cfg.Dcb, "serve", "--db", dbPath(Cfg, Arch::SM35), "--jobs",
                "2", "--port", "0", "--port-file", PortFile});
  uint64_t Deadline = T0 + 20'000'000'000ull;
  for (;;) {
    if (nowNs() > Deadline)
      fatal("dcb serve did not become ready");
    FILE *F = std::fopen(PortFile.c_str(), "r");
    unsigned Port = 0;
    bool Got = F && std::fscanf(F, "%u", &Port) == 1 && Port;
    if (F)
      std::fclose(F);
    if (Got) {
      Expected<serve::Client> C = serve::Client::connect(
          static_cast<uint16_t>(Port));
      if (C) {
        Expected<std::string> H = C->roundTrip("{\"op\":\"health\"}");
        Expected<serve::json::Value> V =
            H ? serve::json::parse(*H) : Expected<serve::json::Value>(
                                             Failure("no health reply"));
        if (V && V->boolean("ready")) {
          D.Port = static_cast<uint16_t>(Port);
          D.ReadySeconds = static_cast<double>(nowNs() - T0) / 1e9;
          return;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

/// Asks the daemon to stop and returns its peak resident set in MB.
double stopDaemon(RunningDaemon &D) {
  if (Expected<serve::Client> C = serve::Client::connect(D.Port))
    (void)C->roundTrip("{\"op\":\"shutdown\"}");
  return D.Proc.wait(10000);
}

//===-- Stats snapshots ---------------------------------------------------===//

struct Snapshot {
  uint64_t CacheHits = 0, CacheMisses = 0, RenderHits = 0;
  uint64_t Requests = 0, Busy = 0;
  telemetry::HistData RequestNs;
};

Snapshot snapshot(uint16_t Port) {
  Snapshot S;
  Expected<serve::Client> C = serve::Client::connect(Port);
  if (!C)
    fatal("stats connection: " + C.message());
  Expected<std::string> Resp = C->roundTrip("{\"op\":\"stats\"}");
  if (!Resp)
    fatal("stats op: " + Resp.message());
  Expected<serve::json::Value> V = serve::json::parse(*Resp);
  if (!V || V->str("status") != "ok")
    fatal("bad stats response");
  if (const serve::json::Value *Cache = V->field("cache")) {
    S.CacheHits = Cache->num("hits");
    S.CacheMisses = Cache->num("misses");
  }
  if (const serve::json::Value *Render = V->field("render"))
    S.RenderHits = Render->num("hits");
  if (const serve::json::Value *Sess = V->field("sessions")) {
    S.Requests = Sess->num("requests");
    S.Busy = Sess->num("busy");
  }
  const serve::json::Value *Stats = V->field("telemetry_stats");
  const serve::json::Value *Hists = Stats ? Stats->field("histograms") : nullptr;
  const serve::json::Value *H =
      Hists ? Hists->field("serve.request_ns") : nullptr;
  if (H && H->isObject()) {
    S.RequestNs.Count = H->num("count");
    S.RequestNs.Sum = H->num("sum");
    S.RequestNs.Max = H->num("max");
    if (const serve::json::Value *Buckets = H->field("buckets"))
      for (const serve::json::Value &Pair : Buckets->Arr)
        if (Pair.Arr.size() == 2) {
          auto B = static_cast<unsigned>(Pair.Arr[0].Num);
          if (B < telemetry::HistData::NumBuckets)
            S.RequestNs.Buckets[B] = static_cast<uint64_t>(Pair.Arr[1].Num);
        }
  }
  return S;
}

//===-- The open-loop generator -------------------------------------------===//

enum class Status : uint8_t { Pending, Ok, Busy, Error };

struct Rec {
  uint32_t Content = 0;
  Status St = Status::Pending;
  bool Cached = false;
  ReqClass Class = ReqClass::Fresh;
  uint64_t Due = 0, Sent = 0, Recv = 0;
  uint64_t TailHash = 0; ///< hash64 of the response from ,"exit": on.
  uint64_t Steps = 0;    ///< Exec: lane steps summed over the output.
};

struct Conn {
  int Fd = -1;
  std::string Out;
  size_t OutPos = 0;
  std::string In;
  std::deque<size_t> Inflight;
};

int connectLoopback(uint16_t Port) {
  int Fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    fatal("socket: " + std::string(std::strerror(errno)));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    fatal("connect: " + std::string(std::strerror(errno)));
  int One = 1;
  setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  fcntl(Fd, F_SETFL, fcntl(Fd, F_GETFL) | O_NONBLOCK);
  return Fd;
}

/// Sums the numbers after each "steps=" in an exec response.
uint64_t laneSteps(const std::string &Line) {
  uint64_t Sum = 0;
  for (size_t Pos = Line.find("steps="); Pos != std::string::npos;
       Pos = Line.find("steps=", Pos + 6))
    Sum += std::strtoull(Line.c_str() + Pos + 6, nullptr, 10);
  return Sum;
}

class Generator {
public:
  Generator(uint16_t Port, ServeStream &Stream)
      : Stream(Stream), Conns(NumConns) {
    for (Conn &C : Conns)
      C.Fd = connectLoopback(Port);
  }
  ~Generator() {
    for (Conn &C : Conns)
      close(C.Fd);
  }
  Generator(const Generator &) = delete;
  Generator &operator=(const Generator &) = delete;

  /// Sends \p Reqs at their due times (ns since the phase start) and waits
  /// for every response, or gives up \p DrainMs after the last send. With
  /// a nonzero \p Window the loop is closed instead: a request goes out
  /// whenever fewer than \p Window are outstanding, and \p DueNs is unused.
  /// Returns the index of the first record of this phase.
  size_t run(const std::vector<ServeRequest> &Reqs,
             const std::vector<uint64_t> &DueNs, unsigned DrainMs,
             size_t Window = 0);

  std::vector<Rec> Recs;
  size_t Outstanding = 0;

private:
  void send(size_t Idx, const std::string &Line);
  bool flush(Conn &C);
  void receive(Conn &C);

  ServeStream &Stream;
  std::vector<Conn> Conns;
  size_t NextConn = 0;
};

void Generator::send(size_t Idx, const std::string &Line) {
  Conn &C = Conns[NextConn++ % NumConns];
  C.Out += Line;
  C.Out += '\n';
  C.Inflight.push_back(Idx);
  Recs[Idx].Sent = nowNs();
  ++Outstanding;
  flush(C);
}

bool Generator::flush(Conn &C) {
  while (C.OutPos < C.Out.size()) {
    ssize_t N = write(C.Fd, C.Out.data() + C.OutPos, C.Out.size() - C.OutPos);
    if (N > 0) {
      C.OutPos += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return false;
    fatal("write to dcb serve: " + std::string(std::strerror(errno)));
  }
  C.Out.clear();
  C.OutPos = 0;
  return true;
}

void Generator::receive(Conn &C) {
  char Buf[65536];
  for (;;) {
    ssize_t N = read(C.Fd, Buf, sizeof(Buf));
    if (N > 0) {
      C.In.append(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    fatal("dcb serve closed a connection");
  }
  size_t Start = 0;
  uint64_t Now = nowNs();
  for (size_t Nl = C.In.find('\n'); Nl != std::string::npos;
       Nl = C.In.find('\n', Start)) {
    std::string_view Line(C.In.data() + Start, Nl - Start);
    Start = Nl + 1;
    if (C.Inflight.empty())
      fatal("response without a request");
    Rec &R = Recs[C.Inflight.front()];
    C.Inflight.pop_front();
    --Outstanding;
    R.Recv = Now;
    if (Line.rfind("{\"status\":\"ok\"", 0) == 0) {
      R.St = Status::Ok;
      size_t Cached = Line.find(",\"cached\":");
      size_t Exit = Line.find(",\"exit\":", Cached);
      if (Cached == std::string_view::npos || Exit == std::string_view::npos) {
        R.St = Status::Error;
        continue;
      }
      R.Cached = Line.compare(Cached + 10, 4, "true") == 0;
      R.TailHash = hash64(Line.substr(Exit));
      if (Stream.contents()[R.Content].Op == ServeOp::Exec)
        R.Steps = laneSteps(std::string(Line.substr(Exit)));
    } else if (Line.rfind("{\"status\":\"busy\"", 0) == 0) {
      R.St = Status::Busy;
    } else {
      R.St = Status::Error;
    }
  }
  C.In.erase(0, Start);
}

size_t Generator::run(const std::vector<ServeRequest> &Reqs,
                      const std::vector<uint64_t> &DueNs, unsigned DrainMs,
                      size_t Window) {
  size_t First = Recs.size();
  Recs.resize(First + Reqs.size());
  for (size_t I = 0; I < Reqs.size(); ++I) {
    Recs[First + I].Content = Reqs[I].Content;
    Recs[First + I].Class = Reqs[I].Class;
  }
  uint64_t Base = nowNs();
  for (size_t I = 0; I < DueNs.size(); ++I)
    Recs[First + I].Due = Base + DueNs[I];
  size_t Next = 0;
  uint64_t DrainDeadline = 0;
  std::vector<pollfd> Fds(NumConns);
  for (;;) {
    uint64_t Now = nowNs();
    while (Next < Reqs.size() && (Window ? Outstanding < Window
                                         : Recs[First + Next].Due <= Now)) {
      if (Window)
        Recs[First + Next].Due = Now;
      send(First + Next, Stream.line(Reqs[Next]));
      ++Next;
    }
    if (Next == Reqs.size()) {
      if (Outstanding == 0)
        break;
      if (!DrainDeadline)
        DrainDeadline = Now + uint64_t(DrainMs) * 1000000;
      if (Now > DrainDeadline)
        break;
    }
    uint64_t WaitNs = Next < Reqs.size() && !Window
                          ? Recs[First + Next].Due - Now
                          : 1'000'000;
    for (unsigned I = 0; I < NumConns; ++I) {
      Fds[I].fd = Conns[I].Fd;
      Fds[I].events = POLLIN | (Conns[I].Out.empty() ? 0 : POLLOUT);
      Fds[I].revents = 0;
    }
    timespec Ts{static_cast<time_t>(WaitNs / 1000000000),
                static_cast<long>(WaitNs % 1000000000)};
    if (ppoll(Fds.data(), NumConns, &Ts, nullptr) <= 0)
      continue;
    for (unsigned I = 0; I < NumConns; ++I) {
      if (Fds[I].revents & POLLOUT)
        flush(Conns[I]);
      if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR))
        receive(Conns[I]);
    }
  }
  return First;
}

/// Poisson due times for \p Seconds at \p Rate, and the requests to send.
void schedule(ServeStream &Stream, Arrivals &Arr, double Rate, double Seconds,
              std::vector<ServeRequest> &Reqs, std::vector<uint64_t> &Due) {
  uint64_t End = static_cast<uint64_t>(Seconds * 1e9);
  Due.clear();
  for (uint64_t T = Arr.nextGapNs(Rate); T < End; T += Arr.nextGapNs(Rate))
    Due.push_back(T);
  Reqs = Stream.take(Due.size());
}

/// Latency of each record from its due time, ms; failures are infinite.
std::vector<double> latencies(const std::vector<Rec> &Recs, size_t From,
                              size_t To) {
  std::vector<double> Out;
  for (size_t I = From; I < To; ++I)
    Out.push_back(Recs[I].St == Status::Ok
                      ? static_cast<double>(Recs[I].Recv - Recs[I].Due) / 1e6
                      : Unanswered);
  return Out;
}

/// One ladder step passes when p99 stays within the limit and the backlog
/// does not grow: every request answered ok, none still queued when the
/// step's sends end beyond what the limit allows.
bool stepPasses(const std::vector<Rec> &Recs, size_t From, size_t To,
                double Rate) {
  if (To == From)
    return true;
  std::vector<double> Lat = latencies(Recs, From, To);
  if (quantile(Lat, 0.99) > LatencyLimitMs)
    return false;
  uint64_t LastDue = Recs[To - 1].Due;
  size_t Queued = 0;
  for (size_t I = From; I < To; ++I)
    Queued += Recs[I].Recv > LastDue && Recs[I].Due < LastDue;
  return static_cast<double>(Queued) <= std::max(8.0, Rate * 0.025);
}

//===-- Output checks -----------------------------------------------------===//

/// The response tail the daemon must send for \p C, from the in-process op.
uint64_t expectedTail(const ServeContent &C,
                      const analyzer::EncodingDatabase &Db) {
  Expected<std::vector<uint8_t>> Bytes = serve::json::base64Decode(
      std::string_view(C.Body).substr(C.Body.find("\"data_b64\":\"") + 12,
                                      C.Body.size() -
                                          C.Body.find("\"data_b64\":\"") -
                                          12 - 2));
  if (!Bytes)
    return 0;
  std::string Raw(Bytes->begin(), Bytes->end());
  Expected<serve::OpResult> R = Failure("unset");
  switch (C.Op) {
  case ServeOp::Disasm:
    R = serve::opDisasm(*Bytes, vendor::DisasmOptions());
    break;
  case ServeOp::Asm:
    R = serve::opAsm(Db, Raw, BatchOptions());
    break;
  case ServeOp::Exec:
    R = serve::opExec(Raw, "<request>", "all", vm::ExecOptions());
    break;
  case ServeOp::Lint:
    R = serve::opLint(Raw, "prog");
    break;
  default: {
    serve::AnalyzeOptions Opts;
    Opts.Mode = C.Op == ServeOp::AnalyzeTypes    ? "types"
                : C.Op == ServeOp::AnalyzeBounds ? "bounds"
                                                 : "races";
    Opts.Fail = serve::FailOn::Never;
    R = serve::opAnalyze(Raw, "prog", Opts);
    break;
  }
  }
  if (!R)
    return 0;
  std::string Tail = ",\"exit\":" + std::to_string(R->Exit) + ",\"output\":";
  serve::json::appendString(Tail, R->Output);
  Tail += ",\"errors\":[";
  for (size_t I = 0; I < R->Errors.size(); ++I) {
    if (I)
      Tail += ",";
    serve::json::appendString(Tail, R->Errors[I]);
  }
  Tail += "]}";
  return hash64(Tail);
}

/// Checks every record: an ok response must match the in-process op. With
/// \p RequireOk a shed, failed or missing response is a failure too; the
/// rate ladder probes past capacity on purpose, so there a shed request
/// only fails its step.
void checkOutputs(const std::vector<Rec> &Recs, const ServeStream &Stream,
                  const analyzer::EncodingDatabase &Db, unsigned Lanes,
                  bool RequireOk, Result &R) {
  const std::vector<ServeContent> &Contents = Stream.contents();
  std::vector<char> Used(Contents.size(), 0);
  for (const Rec &Rc : Recs)
    Used[Rc.Content] = 1;
  std::vector<uint64_t> Expect(Contents.size(), 0);
  std::vector<std::thread> Pool;
  for (unsigned L = 0; L < std::max(1u, Lanes); ++L)
    Pool.emplace_back([&, L] {
      for (size_t I = L; I < Contents.size(); I += std::max(1u, Lanes))
        if (Used[I])
          Expect[I] = expectedTail(Contents[I], Db);
    });
  for (std::thread &T : Pool)
    T.join();
  for (size_t I = 0; I < Recs.size(); ++I) {
    const Rec &Rc = Recs[I];
    const char *Op = serveOpLabel(Contents[Rc.Content].Op);
    if (Rc.St != Status::Ok) {
      if (!RequireOk)
        continue;
      R.check(false, std::string(Op) + " request " + std::to_string(I) +
                         (Rc.St == Status::Busy    ? " was shed busy"
                          : Rc.St == Status::Error ? " failed"
                                                   : " got no response"));
      continue;
    }
    R.check(Expect[Rc.Content] && Rc.TailHash == Expect[Rc.Content],
            std::string(Op) + " response " + std::to_string(I) +
                " differs from the in-process op");
  }
}

const char *moduleSpan(const Rec &Rc, const ServeStream &Stream) {
  if (Rc.Cached)
    return "serve.hit";
  switch (Stream.contents()[Rc.Content].Op) {
  case ServeOp::Disasm:
    return "vendor.disasm_miss";
  case ServeOp::Asm:
    return "asmgen.asm_miss";
  case ServeOp::Exec:
    return "vm.exec_miss";
  default:
    return "analysis.check_miss";
  }
}

/// Untimed: the warm set lands in the result cache, and each hot line is
/// sent twice so its rendered response is memoized.
void warmUp(uint16_t Port, const ServeStream &Stream) {
  std::vector<std::string> Lines = Stream.warmupLines();
  Expected<serve::Client> C = serve::Client::connect(Port);
  if (!C)
    fatal(C.message());
  // Batches no deeper than the saturation window stay clear of the
  // daemon's admission bound; the second send of each hot line comes only
  // after its first was answered and cached.
  for (size_t From = 0; From < Lines.size(); From += SaturationWindow) {
    size_t To = std::min(Lines.size(), From + SaturationWindow);
    Expected<std::vector<std::string>> Resp = C->batch(
        std::vector<std::string>(Lines.begin() + From, Lines.begin() + To));
    if (!Resp)
      fatal("warm-up: " + Resp.message());
    for (const std::string &Line : *Resp)
      if (Line.rfind("{\"status\":\"ok\"", 0) != 0)
        fatal("warm-up request failed: " + Line.substr(0, 200));
  }
}

} // namespace

double serveSetupProbe(const RunConfig &Cfg, unsigned Tag) {
  RunningDaemon D;
  startDaemon(Cfg, D, Tag);
  stopDaemon(D);
  return D.ReadySeconds;
}

void runServe(const RunConfig &Cfg, Result &R) {
  writeSuiteFiles(Cfg);
  ServeStream Stream(Cfg.Seed);
  Arrivals Arr(Cfg.Seed);
  analyzer::EncodingDatabase Db = [&] {
    Expected<analyzer::EncodingDatabase> D =
        analyzer::EncodingDatabase::deserialize(
            readFileOrDie(dbPath(Cfg, Arch::SM35)));
    if (!D)
      fatal(D.message());
    return D.takeValue();
  }();

  // The first daemon serves phase 1 and five saturation bursts spread over
  // the run (two before phase 1, one after it, two after the ladder). Their
  // request counts depend only on the seed, so its peak resident set is
  // comparable across runs.
  RunningDaemon D;
  startDaemon(Cfg, D, 0);
  warmUp(D.Port, Stream);
  Generator Gen(D.Port, Stream);

  // A saturation burst: a closed loop of a fixed number of requests, at
  // most SaturationWindow outstanding; completed requests per second. The
  // median burst is the saturated throughput.
  const size_t BurstCount = static_cast<size_t>(
      Cfg.Probe ? 100 : SaturationPerSecond * Cfg.Seconds / 5);
  std::vector<double> BurstRps;
  std::vector<ServeRequest> Reqs;
  std::vector<uint64_t> Due;
  auto Burst = [&] {
    Reqs = Stream.take(BurstCount);
    uint64_t T0 = nowNs();
    Gen.run(Reqs, {}, 5000, SaturationWindow);
    BurstRps.push_back(static_cast<double>(BurstCount) /
                       (static_cast<double>(nowNs() - T0) / 1e9));
  };
  Burst();
  Burst();

  // Phase 1: the fixed offered rate, open loop.
  const double Rate = Cfg.ServeRate;
  const double Phase1 = Cfg.Probe ? 0.5 : Cfg.Seconds * 0.4;
  schedule(Stream, Arr, Rate, Phase1, Reqs, Due);
  Snapshot Before = snapshot(D.Port);
  uint64_t WinStart = nowNs();
  size_t P1 = Gen.run(Reqs, Due, 5000);
  uint64_t WinEnd = nowNs();
  size_t P1End = Gen.Recs.size();
  Snapshot After = snapshot(D.Port);
  Burst();

  // Phase 2, on a second daemon: bisect the offered rate between the fixed
  // rate (or a quarter of it, when phase 1 already misses the limit) and
  // four times it, until the bracket is within 5%.
  double MaxRps = 0;
  unsigned Steps = 0;
  const double StepSeconds = Cfg.Seconds * 0.2 / 5;
  if (!Cfg.Trace && !Cfg.Probe) {
    RunningDaemon D2;
    startDaemon(Cfg, D2, 1);
    warmUp(D2.Port, Stream);
    Generator Ladder(D2.Port, Stream);
    bool Phase1Ok = stepPasses(Gen.Recs, P1, P1End, Rate);
    double Lo = Phase1Ok ? Rate : Rate / 4, Hi = Phase1Ok ? Rate * 4 : Rate;
    while (Hi / Lo > 1.05) {
      double Mid = std::sqrt(Lo * Hi);
      schedule(Stream, Arr, Mid, StepSeconds, Reqs, Due);
      size_t From = Ladder.run(Reqs, Due, 2000);
      (stepPasses(Ladder.Recs, From, Ladder.Recs.size(), Mid) ? Lo : Hi) = Mid;
      ++Steps;
      // Let the daemon drain whatever a failed step left queued.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    MaxRps = Lo;
    stopDaemon(D2);
    checkOutputs(Ladder.Recs, Stream, Db, Cfg.Lanes, /*RequireOk=*/false, R);
  }
  Burst();
  Burst();
  double SatRps = median(BurstRps);
  double RssMb = stopDaemon(D);
  checkOutputs(Gen.Recs, Stream, Db, Cfg.Lanes, /*RequireOk=*/true, R);

  // Phase 1 metrics.
  std::vector<double> Lat = latencies(Gen.Recs, P1, P1End);
  std::vector<double> Late, HitRtt;
  std::map<std::string, std::vector<double>> MissRtt;
  size_t N = P1End - P1, Cached = 0, Busy = 0;
  uint64_t ExecNs = 0, ExecSteps = 0;
  size_t OpCount[NumServeOps] = {}, ClassCount[3] = {};
  for (size_t I = P1; I < P1End; ++I) {
    const Rec &Rc = Gen.Recs[I];
    Late.push_back(static_cast<double>(Rc.Sent - Rc.Due) / 1e6);
    ++OpCount[static_cast<unsigned>(Stream.contents()[Rc.Content].Op)];
    ++ClassCount[static_cast<unsigned>(Rc.Class)];
    Busy += Rc.St == Status::Busy;
    if (Rc.St != Status::Ok)
      continue;
    double Rtt = static_cast<double>(Rc.Recv - Rc.Sent);
    if (Rc.Cached) {
      ++Cached;
      HitRtt.push_back(Rtt / 1e3);
      continue;
    }
    ServeOp O = Stream.contents()[Rc.Content].Op;
    MissRtt[serveOpLabel(O)].push_back(Rtt / 1e6);
    if (O == ServeOp::Exec) {
      ExecNs += Rc.Recv - Rc.Sent;
      ExecSteps += Rc.Steps;
    }
  }
  uint64_t RenderHits = After.RenderHits - Before.RenderHits;
  uint64_t CacheHits = After.CacheHits - Before.CacheHits;
  uint64_t Misses = After.CacheMisses - Before.CacheMisses;
  R.check(Cached == RenderHits + CacheHits,
          "client counted " + std::to_string(Cached) +
              " cached responses, daemon " + std::to_string(RenderHits) +
              " render hits + " + std::to_string(CacheHits) + " cache hits");

  Tail Tl = tail(Lat);
  double P50 = median(Lat);
  auto Finite = [](double V) { return std::isfinite(V) ? V : 1e9; };
  R.e2e("p50_ms", Finite(P50), "ms");
  R.e2e("rate_per_s", SatRps, "1/s");
  R.e2e("peak_rss_mb", RssMb, "MB");
  R.named("p99_ms", Finite(Tl.Value), "ms");
  R.named("saturated_rps", SatRps, "req/s");
  if (MaxRps)
    R.named("max_rps", MaxRps, "req/s");

  double Nd = static_cast<double>(N);
  std::string Mix = "op mix (target %):";
  for (unsigned O = 0; O < NumServeOps; ++O) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), " %s=%.1f(%.1f)",
                  serveOpLabel(static_cast<ServeOp>(O)), 100.0 * OpCount[O] / Nd,
                  serveOpTargetPct(static_cast<ServeOp>(O)));
    Mix += Buf;
  }
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "phase 1: %.0f req/s offered for %.1f s, %zu requests over "
                "%u connections; p50 from %zu samples, tail = p%u with %zu "
                "beyond",
                Rate, Phase1, N, NumConns, Lat.size(), Tl.Percentile,
                Tl.Beyond);
  R.property(Buf);
  R.property(Mix);
  std::snprintf(Buf, sizeof(Buf),
                "stream classes: hot %.1f%%, repeat %.1f%%, fresh %.1f%%; "
                "daemon: memo %.1f%%, cache %.1f%%, miss %.1f%%, busy %zu",
                100.0 * ClassCount[0] / Nd, 100.0 * ClassCount[1] / Nd,
                100.0 * ClassCount[2] / Nd, 100.0 * RenderHits / Nd,
                100.0 * CacheHits / Nd, 100.0 * Misses / Nd, Busy);
  R.property(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "generator lateness: p50 %.3f ms, p99 %.3f ms over %zu sends",
                quantile(Late, 0.5), quantile(Late, 0.99), Late.size());
  R.property(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "exec misses: %zu requests, %llu lane steps (fixed by the "
                "seed)",
                MissRtt["exec"].size(),
                static_cast<unsigned long long>(ExecSteps));
  R.property(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "saturation: 5 bursts of %zu requests, closed loop of %zu "
                "outstanding: %.0f, %.0f, %.0f, %.0f, %.0f req/s",
                BurstCount, SaturationWindow, BurstRps[0], BurstRps[1],
                BurstRps[2], BurstRps[3], BurstRps[4]);
  R.property(Buf);
  if (MaxRps) {
    std::snprintf(Buf, sizeof(Buf),
                  "rate ladder: %u bisection steps of %.2f s on a second "
                  "daemon, limit p99 <= %.0f ms; max_rps %.0f",
                  Steps, StepSeconds, LatencyLimitMs, MaxRps);
    R.property(Buf);
  }

  // Request spans are built after the window from the generator's own
  // timestamps, so tracing costs the timed phase nothing.
  if (!Cfg.Trace)
    return;
  Tracer &T = Tracer::get();
  for (size_t I = P1; I < P1End; ++I) {
    const Rec &Rc = Gen.Recs[I];
    if (Rc.St == Status::Ok)
      T.add(moduleSpan(Rc, Stream), Rc.Sent, Rc.Recv, I,
            static_cast<uint32_t>(I % NumConns));
  }
  R.TimedWallMs = static_cast<double>(WinEnd - WinStart) / 1e6;
  R.Modules = T.selfTimes(WinStart, WinEnd);
  R.layer("serve.memo_hit_ratio", RenderHits / Nd, "ratio");
  R.layer("serve.cache_hit_ratio", CacheHits / Nd, "ratio");
  R.layer("serve.miss_ratio", Misses / Nd, "ratio");
  R.layer("serve.busy_ratio", Busy / Nd, "ratio");
  R.layer("serve.hit_rtt_p50_us", median(HitRtt), "us");
  R.layer("serve.request_p50_us",
          telemetry::histQuantile(histDelta(After.RequestNs, Before.RequestNs),
                                  0.5) /
              1e3,
          "us");
  for (unsigned O = 0; O < NumServeOps; ++O) {
    const char *Label = serveOpLabel(static_cast<ServeOp>(O));
    R.layer(std::string("serve.miss_rtt_p50_ms.") + Label,
            median(MissRtt[Label]), "ms");
  }
  R.layer("vm.ns_per_lane_step",
          ExecSteps ? static_cast<double>(ExecNs) / ExecSteps : 0, "ns");
  R.layer("serve.p99_ms", Finite(Tl.Value), "ms");
  R.layer("serve.gen_late_p99_ms", quantile(Late, 0.99), "ms");
}

} // namespace perfbench
} // namespace dcb

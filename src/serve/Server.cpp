//===- serve/Server.cpp ---------------------------------------------------===//
//
// The daemon proper: loopback listener, epoll reactor, line framing,
// request dispatch. Protocol reference: docs/SERVE.md. Everything here is
// plain POSIX — one level-triggered epoll loop owns every socket; the
// TaskPool owns every op; an eventfd is the only thing the two share.
//
// Threading contract, because it is the whole design:
//  - The reactor thread is the only thread that touches sockets, epoll,
//    connection objects, and read/write buffers.
//  - Worker lanes touch only their request's heap-owned ResponseSlot, the
//    (internally locked) cache/persister, and the completion queue; they
//    finish by Ready-flagging the slot and signalling the eventfd.
//  - Per-connection response order is the InFlight deque's order, which is
//    frame arrival order; the reactor only ever flushes the ready prefix.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "support/Json.h"
#include "serve/Ops.h"
#include "support/FileIo.h"
#include "support/Telemetry.h"
#include "support/Wakeup.h"
#include "vendor/CuobjdumpSim.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

using namespace dcb;
using namespace dcb::serve;

namespace {

/// epoll user-data sentinels; connection ids start above these.
constexpr uint64_t ListenTag = 0;
constexpr uint64_t WakeTag = 1;
constexpr uint64_t MetricsListenTag = 2;
constexpr uint64_t FirstConnId = 3;

/// How long the reactor keeps flushing in-flight responses after a stop
/// request before abandoning unread clients.
constexpr uint64_t StopGraceNs = 5ull * 1000 * 1000 * 1000;

/// High-water mark of a connection's unsent response backlog: past it the
/// reactor stops reading the connection until the backlog drains, so a
/// pipelining client slower at reading than writing cannot balloon the
/// daemon.
constexpr size_t BacklogHighWater = 8ull << 20;

struct ServeTelemetry {
  telemetry::Counter &Requests = telemetry::counter("serve.requests");
  telemetry::Counter &Busy = telemetry::counter("serve.busy");
  telemetry::Counter &Errors = telemetry::counter("serve.errors");
  telemetry::Counter &Connections = telemetry::counter("serve.connections");
  telemetry::Counter &BytesIn = telemetry::counter("serve.bytes_in");
  telemetry::Counter &BytesOut = telemetry::counter("serve.bytes_out");
  telemetry::Histogram &QueueWait =
      telemetry::histogram("serve.queue_wait_ns");
  telemetry::Histogram &RequestNs = telemetry::histogram("serve.request_ns");
  telemetry::Counter &EpollWakeups = telemetry::counter("serve.epoll.wakeups");
  telemetry::Counter &WriteWouldBlock =
      telemetry::counter("serve.epoll.write_would_block");
  telemetry::Histogram &FramesPerWakeup =
      telemetry::histogram("serve.epoll.frames_per_wakeup");
  telemetry::Counter &PersistErrors =
      telemetry::counter("serve.cache.persist.errors");
  telemetry::Counter &RenderMemoHits =
      telemetry::counter("serve.cache.render_hits");
  telemetry::Counter &AdminStats = telemetry::counter("serve.admin.stats");
  telemetry::Counter &AdminHealth = telemetry::counter("serve.admin.health");
  telemetry::Counter &AdminTrace = telemetry::counter("serve.admin.trace");
  telemetry::Counter &AdminMetrics =
      telemetry::counter("serve.admin.metrics");
} Tel;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Everything request-shaped decoded out of one JSON line.
struct Request {
  std::string Op;
  std::string Id;      ///< Echoed back verbatim; optional.
  std::string Raw;     ///< Input bytes (from data_b64 or path).
  std::string Name;    ///< Diagnostic label for the input.
  bool HasInput = false;

  // Option knobs, defaulted exactly like the CLI.
  std::string Kernel = "all";
  vm::ExecOptions Exec;
  std::string LintName;
  AnalyzeOptions Analyze;
};

std::string jsonError(const std::string &Id, const std::string &Message) {
  std::string Out = "{\"status\":\"error\"";
  if (!Id.empty()) {
    Out += ",\"id\":";
    json::appendString(Out, Id);
  }
  Out += ",\"error\":";
  json::appendString(Out, Message);
  Out += "}";
  return Out;
}

std::string jsonBusy(const std::string &Id) {
  std::string Out = "{\"status\":\"busy\"";
  if (!Id.empty()) {
    Out += ",\"id\":";
    json::appendString(Out, Id);
  }
  Out += ",\"retry\":true}";
  return Out;
}

/// The `ok` response for a finished work op, identical whether it came
/// from a worker lane, the cache, or the persisted segment.
std::string renderResult(const std::string &Op, const std::string &Id,
                         bool Cached, const OpResult &R) {
  std::string Out = "{\"status\":\"ok\",\"op\":";
  json::appendString(Out, Op);
  if (!Id.empty()) {
    Out += ",\"id\":";
    json::appendString(Out, Id);
  }
  Out += ",\"cached\":";
  Out += Cached ? "true" : "false";
  Out += ",\"exit\":" + std::to_string(R.Exit);
  Out += ",\"output\":";
  json::appendString(Out, R.Output);
  Out += ",\"errors\":[";
  for (size_t I = 0; I < R.Errors.size(); ++I) {
    if (I)
      Out += ",";
    json::appendString(Out, R.Errors[I]);
  }
  Out += "]}";
  return Out;
}

/// Canonical options fingerprint per op — every request knob the op reads
/// (docs/SERVE.md lists the fields per op). `asm` folds in the database
/// fingerprint because the learned database is an input too.
std::string optionsFingerprint(const Request &R, const Hash128 &DbFp) {
  if (R.Op == "disasm")
    return "";
  if (R.Op == "asm")
    return "db=" + DbFp.toHex();
  if (R.Op == "lint")
    return "name=" + R.LintName;
  if (R.Op == "exec") {
    const vm::ExecOptions &E = R.Exec;
    return "kernel=" + R.Kernel + ";threads=" + std::to_string(E.NumThreads) +
           ";blocks=" + std::to_string(E.NumBlocks) +
           ";warp=" + std::to_string(E.WarpSize) +
           ";seed=" + std::to_string(E.FirstSeed) +
           (E.Oob == vm::OobPolicy::Fault ? ";oob=fault" : ";oob=wrap") +
           (E.WatchShared ? ";watch=1" : ";watch=0");
  }
  if (R.Op == "analyze") {
    const AnalyzeOptions &An = R.Analyze;
    return "mode=" + An.Mode + ";name=" + R.LintName +
           ";threads=" + std::to_string(An.Shape.NumThreads) +
           ";blocks=" + std::to_string(An.Shape.NumBlocks) +
           ";warp=" + std::to_string(An.Shape.WarpSize) +
           ";fail=" + std::to_string(static_cast<int>(An.Fail));
  }
  return "";
}

/// One request's parking spot in its connection's ordered response queue.
/// The reactor and exactly one worker share it by shared_ptr: the worker
/// writes Response then flips Ready (release); the reactor reads Ready
/// (acquire) before touching Response. Responses synthesized on the
/// reactor itself (control ops, errors, busy, cache hits) are Ready from
/// the start.
struct ResponseSlot {
  std::string Response;
  std::atomic<bool> Ready{false};

  void finish(std::string R) {
    Response = std::move(R);
    Ready.store(true, std::memory_order_release);
  }
};

} // namespace

/// Per-connection reactor state. Owned by the reactor thread only.
struct Server::Conn {
  int Fd = -1;
  uint64_t Id = 0;
  std::string In;      ///< Unconsumed request bytes.
  size_t ScanFrom = 0; ///< In[0..ScanFrom) is known newline-free.
  std::string Out;     ///< Rendered, unsent response bytes.
  size_t OutOfs = 0;   ///< First unsent byte of Out.
  std::deque<std::shared_ptr<ResponseSlot>> InFlight; ///< Frame order.
  uint32_t Events = 0; ///< Current epoll interest mask.
  bool CloseAfterFlush = false;
  bool ReadPaused = false;
  bool IsMetrics = false; ///< Accepted on the Prometheus listener.
};

struct Server::ReactorState {
  int EpollFd = -1;
  WakeupFd Wake;
  /// Connections keyed by id, never by fd — ids are never reused, so a
  /// stale event in the same epoll batch as a close cannot be misrouted
  /// to a new connection that recycled the fd number.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> Conns;
  uint64_t NextId = FirstConnId;
  uint64_t FramesThisWake = 0;

  /// Worker → reactor hand-off: ids of connections with newly Ready
  /// slots. The only reactor-side state workers may touch, and only
  /// under this mutex.
  std::mutex CompletionsM;
  std::vector<uint64_t> Completions;
};

Server::Server(ServerOptions Opts, std::optional<analyzer::EncodingDatabase> D)
    : Options(Opts), Db(std::move(D)),
      Cache(Opts.CacheBytes, Opts.CacheShards), Pool(Opts.Jobs),
      RenderMemo(Opts.CacheBytes / 4) {}

Server::~Server() { stop(); }

namespace {

/// Binds and listens on 127.0.0.1:\p Port (0 = ephemeral). On success
/// returns the fd and stores the bound port; on failure returns -1 with
/// the message in \p Err.
int bindLoopbackListener(uint16_t Port, uint16_t &Bound, std::string &Err) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Err = std::string("bind 127.0.0.1:") + std::to_string(Port) + ": " +
          std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  if (::listen(Fd, 1024) < 0) {
    Err = std::string("listen: ") + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  socklen_t AddrLen = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &AddrLen) == 0)
    Bound = ntohs(Addr.sin_port);
  return Fd;
}

} // namespace

uint64_t Server::uptimeNs() const { return nowNs() - StartedNs; }

Error Server::start() {
  StartedNs = nowNs();

  // Pay every lazy initialization now, while no client is waiting: the
  // hidden decode tables and — when a database was loaded — its frozen
  // id-indexed form and content fingerprint.
  vendor::warmDecodeTables();
  if (Db) {
    (void)Db->freeze();
    DbFingerprint = hash128(Db->serialize());
  }

  if (!Options.RequestLogPath.empty()) {
    ReqLog = std::make_unique<RequestLog>();
    if (Error E =
            ReqLog->open(Options.RequestLogPath, Options.SlowMs * 1000000)) {
      ReqLog.reset();
      return E;
    }
  }

  if (!Options.PersistPath.empty()) {
    CachePersister::Options P;
    P.Path = Options.PersistPath;
    Persister = std::make_unique<CachePersister>(std::move(P), Cache,
                                                 DbFingerprint);
    if (Error E = Persister->load()) {
      Persister.reset();
      return E;
    }
  }

  std::string SockErr;
  ListenFd = bindLoopbackListener(Options.Port, BoundPort, SockErr);
  if (ListenFd < 0)
    return Error::failure(SockErr);

  if (Options.MetricsPort >= 0) {
    MetricsListenFd = bindLoopbackListener(
        static_cast<uint16_t>(Options.MetricsPort), BoundMetricsPort,
        SockErr);
    if (MetricsListenFd < 0) {
      ::close(ListenFd);
      ListenFd = -1;
      return Error::failure("metrics: " + SockErr);
    }
  }

  auto CloseListeners = [this] {
    ::close(ListenFd);
    ListenFd = -1;
    if (MetricsListenFd >= 0) {
      ::close(MetricsListenFd);
      MetricsListenFd = -1;
    }
  };

  R = std::make_unique<ReactorState>();
  R->EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
  if (R->EpollFd < 0) {
    Error E =
        Error::failure(std::string("epoll_create1: ") + std::strerror(errno));
    CloseListeners();
    return E;
  }
  Expected<WakeupFd> Wake = WakeupFd::create();
  if (!Wake.hasValue()) {
    CloseListeners();
    return Error::failure(Wake.message());
  }
  R->Wake = Wake.takeValue();

  epoll_event Ev;
  std::memset(&Ev, 0, sizeof(Ev));
  Ev.events = EPOLLIN;
  Ev.data.u64 = ListenTag;
  ::epoll_ctl(R->EpollFd, EPOLL_CTL_ADD, ListenFd, &Ev);
  Ev.data.u64 = WakeTag;
  ::epoll_ctl(R->EpollFd, EPOLL_CTL_ADD, R->Wake.fd(), &Ev);
  if (MetricsListenFd >= 0) {
    Ev.data.u64 = MetricsListenTag;
    ::epoll_ctl(R->EpollFd, EPOLL_CTL_ADD, MetricsListenFd, &Ev);
  }

  ReactorThread = std::thread([this] { reactorLoop(); });
  return Error::success();
}

void Server::stop() {
  requestStop();
  if (R)
    R->Wake.signal();
  if (ReactorThread.joinable())
    ReactorThread.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (MetricsListenFd >= 0) {
    ::close(MetricsListenFd);
    MetricsListenFd = -1;
  }
  Pool.drainSubmitted();
}

Server::SessionStats Server::sessions() const {
  SessionStats S;
  S.Connections = TotalConnections.load(std::memory_order_relaxed);
  S.Active = ActiveConnections.load(std::memory_order_relaxed);
  S.Requests = TotalRequests.load(std::memory_order_relaxed);
  S.Busy = TotalBusy.load(std::memory_order_relaxed);
  S.Errors = TotalErrors.load(std::memory_order_relaxed);
  S.BytesIn = TotalBytesIn.load(std::memory_order_relaxed);
  S.BytesOut = TotalBytesOut.load(std::memory_order_relaxed);
  return S;
}

CachePersister::Stats Server::persistStats() const {
  return Persister ? Persister->stats() : CachePersister::Stats();
}

bool Server::anyPendingWork() const {
  for (const auto &KV : R->Conns) {
    const Conn &C = *KV.second;
    if (!C.InFlight.empty() || C.OutOfs < C.Out.size())
      return true;
  }
  return false;
}

void Server::reactorLoop() {
  uint64_t StopSeenNs = 0;
  epoll_event Events[128];

  for (;;) {
    if (stopRequested()) {
      // Grace period: keep the loop alive until every dispatched frame
      // has flushed (the shutdown op's own `ok` included), bounded so an
      // unread client cannot wedge teardown.
      if (!StopSeenNs)
        StopSeenNs = nowNs();
      if (!anyPendingWork() || nowNs() - StopSeenNs > StopGraceNs)
        break;
    }
    int N = ::epoll_wait(R->EpollFd, Events, 128, 200);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0)
      continue;
    Tel.EpollWakeups.add();
    R->FramesThisWake = 0;

    for (int I = 0; I < N; ++I) {
      uint64_t Tag = Events[I].data.u64;
      uint32_t Ev = Events[I].events;
      if (Tag == ListenTag) {
        if (!stopRequested())
          onAcceptable(ListenFd, /*Metrics=*/false);
        continue;
      }
      if (Tag == MetricsListenTag) {
        if (!stopRequested())
          onAcceptable(MetricsListenFd, /*Metrics=*/true);
        continue;
      }
      if (Tag == WakeTag) {
        R->Wake.drain();
        std::vector<uint64_t> Ready;
        {
          std::lock_guard<std::mutex> Lock(R->CompletionsM);
          Ready.swap(R->Completions);
        }
        for (uint64_t Id : Ready) {
          auto It = R->Conns.find(Id);
          if (It == R->Conns.end())
            continue; // Connection died before its op finished.
          flushReady(*It->second);
        }
        continue;
      }
      auto It = R->Conns.find(Tag);
      if (It == R->Conns.end())
        continue; // Closed earlier in this same event batch.
      Conn &C = *It->second;
      if (Ev & (EPOLLHUP | EPOLLERR)) {
        closeConn(C);
        continue;
      }
      if (Ev & EPOLLOUT) {
        if (!tryWrite(C))
          continue; // Connection closed; C is gone.
      }
      if (Ev & EPOLLIN)
        onReadable(C);
    }

    if (R->FramesThisWake)
      Tel.FramesPerWakeup.record(R->FramesThisWake);
  }

  // Teardown on the reactor thread, which owns all of this state. The
  // eventfd stays open: a straggling worker may still signal it.
  for (auto &KV : R->Conns) {
    ::close(KV.second->Fd);
    ActiveConnections.fetch_sub(1, std::memory_order_relaxed);
  }
  R->Conns.clear();
  ::close(R->EpollFd);
  R->EpollFd = -1;
}

void Server::onAcceptable(int ListenSocket, bool Metrics) {
  for (;;) {
    int Fd = ::accept4(ListenSocket, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0)
      return; // EAGAIN (or transient error): nothing more to accept now.
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));

    TotalConnections.fetch_add(1, std::memory_order_relaxed);
    ActiveConnections.fetch_add(1, std::memory_order_relaxed);
    Tel.Connections.add();

    auto C = std::make_unique<Conn>();
    C->Fd = Fd;
    C->Id = R->NextId++;
    C->IsMetrics = Metrics;
    C->Events = EPOLLIN;
    epoll_event Ev;
    std::memset(&Ev, 0, sizeof(Ev));
    Ev.events = C->Events;
    Ev.data.u64 = C->Id;
    ::epoll_ctl(R->EpollFd, EPOLL_CTL_ADD, Fd, &Ev);
    R->Conns.emplace(C->Id, std::move(C));
  }
}

void Server::closeConn(Conn &C) {
  // In-flight workers keep their ResponseSlot alive by shared_ptr; the
  // completion drain tolerates the missing id.
  ::epoll_ctl(R->EpollFd, EPOLL_CTL_DEL, C.Fd, nullptr);
  ::close(C.Fd);
  ActiveConnections.fetch_sub(1, std::memory_order_relaxed);
  R->Conns.erase(C.Id); // Destroys C; callers must not touch it again.
}

void Server::updateInterest(Conn &C) {
  bool OutPending = C.OutOfs < C.Out.size();
  C.ReadPaused = C.Out.size() - C.OutOfs > BacklogHighWater;
  uint32_t Want = 0;
  if (!C.ReadPaused && !C.CloseAfterFlush)
    Want |= EPOLLIN;
  if (OutPending)
    Want |= EPOLLOUT;
  if (Want == C.Events)
    return;
  C.Events = Want;
  epoll_event Ev;
  std::memset(&Ev, 0, sizeof(Ev));
  Ev.events = Want;
  Ev.data.u64 = C.Id;
  ::epoll_ctl(R->EpollFd, EPOLL_CTL_MOD, C.Fd, &Ev);
}

bool Server::tryWrite(Conn &C) {
  while (C.OutOfs < C.Out.size()) {
    ssize_t N = ::send(C.Fd, C.Out.data() + C.OutOfs, C.Out.size() - C.OutOfs,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        Tel.WriteWouldBlock.add();
        break;
      }
      closeConn(C);
      return false;
    }
    C.OutOfs += static_cast<size_t>(N);
    TotalBytesOut.fetch_add(static_cast<uint64_t>(N),
                            std::memory_order_relaxed);
    Tel.BytesOut.add(static_cast<uint64_t>(N));
  }
  if (C.OutOfs == C.Out.size()) {
    C.Out.clear();
    C.OutOfs = 0;
  } else if (C.OutOfs > (1u << 20)) {
    // Keep the residual small without shifting bytes on every send.
    C.Out.erase(0, C.OutOfs);
    C.OutOfs = 0;
  }
  if (C.CloseAfterFlush && C.Out.empty() && C.InFlight.empty()) {
    closeConn(C);
    return false;
  }
  updateInterest(C);
  return true;
}

void Server::flushReady(Conn &C) {
  bool Flushed = false;
  while (!C.InFlight.empty() &&
         C.InFlight.front()->Ready.load(std::memory_order_acquire)) {
    C.Out += C.InFlight.front()->Response;
    C.Out += '\n';
    C.InFlight.pop_front();
    Flushed = true;
  }
  if (Flushed || C.CloseAfterFlush)
    tryWrite(C); // May close C; fine — we return right after.
}

void Server::onReadable(Conn &C) {
  char Chunk[64 * 1024];
  for (;;) {
    ssize_t N = ::recv(C.Fd, Chunk, sizeof(Chunk), 0);
    if (N > 0) {
      TotalBytesIn.fetch_add(static_cast<uint64_t>(N),
                             std::memory_order_relaxed);
      Tel.BytesIn.add(static_cast<uint64_t>(N));
      C.In.append(Chunk, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    // Peer closed (or hard error): drop the connection, in-flight work
    // notwithstanding — there is nobody left to read the responses.
    closeConn(C);
    return;
  }

  if (C.IsMetrics) {
    onMetricsRequest(C); // May close C.
    return;
  }

  // Dispatch every complete frame we now hold — this loop is the server
  // side of pipelining. ScanFrom remembers how far the retained partial
  // line has already been scanned, so a frame arriving in thousands of
  // small chunks costs linear, not quadratic, scanning.
  size_t Start = 0;
  size_t SearchFrom = C.ScanFrom;
  bool Oversize = false;
  for (;;) {
    size_t Nl = C.In.find('\n', SearchFrom);
    if (Nl == std::string::npos) {
      Oversize = C.In.size() - Start > Options.MaxLineBytes;
      break;
    }
    if (Nl - Start > Options.MaxLineBytes) {
      Oversize = true;
      break;
    }
    dispatchFrame(C, std::string_view(C.In.data() + Start, Nl - Start));
    Start = Nl + 1;
    SearchFrom = Start;
  }
  C.In.erase(0, Start);
  C.ScanFrom = C.In.size();

  if (Oversize) {
    // One frame past the bound poisons only its own connection: answer
    // with an error, stop reading, and disconnect once the backlog (this
    // error and every earlier pipelined response) has flushed. Other
    // connections never notice.
    C.In.clear();
    C.ScanFrom = 0;
    TotalErrors.fetch_add(1, std::memory_order_relaxed);
    Tel.Errors.add();
    auto Slot = std::make_shared<ResponseSlot>();
    Slot->finish(jsonError(
        "", "request line exceeds " + std::to_string(Options.MaxLineBytes) +
                " bytes; closing connection"));
    C.InFlight.push_back(std::move(Slot));
    C.CloseAfterFlush = true;
  }
  flushReady(C); // May close C (flush complete + CloseAfterFlush).
}

void Server::onMetricsRequest(Conn &C) {
  // A scraper speaks minimal HTTP: request line + headers, blank line,
  // no body. Answer once the head is complete; anything else (streaming
  // garbage, a runaway head) closes the connection.
  if (C.In.find("\r\n\r\n") == std::string::npos &&
      C.In.find("\n\n") == std::string::npos) {
    if (C.In.size() > 16384)
      closeConn(C);
    return;
  }
  C.In.clear();
  C.ScanFrom = 0;
  Tel.AdminMetrics.add();
  std::string Body = telemetry::statsProm();
  C.Out += "HTTP/1.0 200 OK\r\n"
           "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
           "Content-Length: " +
           std::to_string(Body.size()) +
           "\r\n"
           "Connection: close\r\n\r\n";
  C.Out += Body;
  C.CloseAfterFlush = true;
  tryWrite(C); // May close C (flush complete + CloseAfterFlush).
}

void Server::dispatchFrame(Conn &C, std::string_view Line) {
  DCB_SPAN("serve.request");
  ++R->FramesThisWake;
  uint64_t T0 = nowNs();
  uint64_t ReqId = ++NextRequestId;
  uint64_t FrameBytesIn = Line.size() + 1; // The newline framed it.
  TotalRequests.fetch_add(1, std::memory_order_relaxed);
  Tel.Requests.add();

  auto Slot = std::make_shared<ResponseSlot>();
  C.InFlight.push_back(Slot);

  // One dcb-reqlog-v1 record per reactor-answered outcome (pool-executed
  // misses log from the worker instead, where queue wait is known).
  auto LogOutcome = [&](std::string_view Op, std::string_view Outcome,
                        std::string_view Status, uint64_t RespBytes) {
    if (!ReqLog)
      return;
    RequestLog::Record Rec;
    Rec.Id = ReqId;
    Rec.Op = Op;
    Rec.Outcome = Outcome;
    Rec.Status = Status;
    Rec.ServiceNs = nowNs() - T0;
    Rec.BytesIn = FrameBytesIn;
    Rec.BytesOut = RespBytes;
    ReqLog->append(Rec);
  };

  // Layer 1: a byte-identical repeat of a memoized request line skips
  // everything — JSON parse, base64 decode, content hash, re-render —
  // and answers with a copy of the prerendered bytes. One hash of the
  // line is the entire cost (the same 128-bit collision bet the content
  // cache already makes). Memo hits *do* get a serve.request_ns record:
  // they are real requests and their (tiny) latency belongs in the
  // distribution; their log record carries an empty `op` because the
  // line was never parsed.
  Hash128 LineKey{};
  const bool MemoOn = RenderMemo.budget() != 0;
  if (MemoOn) {
    LineKey = hash128(Line);
    if (const std::string *Hit = RenderMemo.get(LineKey)) {
      RenderHits.fetch_add(1, std::memory_order_relaxed);
      Tel.RenderMemoHits.add();
      uint64_t RespBytes = Hit->size() + 1;
      Slot->finish(std::string(*Hit));
      Tel.RequestNs.record(nowNs() - T0);
      LogOutcome("", "render-memo", "ok", RespBytes);
      return;
    }
  }

  std::string OpName; // Filled once parsed; Fail logs it (may be empty).
  auto Fail = [&](const std::string &Id, const std::string &Msg) {
    TotalErrors.fetch_add(1, std::memory_order_relaxed);
    Tel.Errors.add();
    std::string Resp = jsonError(Id, Msg);
    uint64_t RespBytes = Resp.size() + 1;
    Slot->finish(std::move(Resp));
    LogOutcome(OpName, "error", "error", RespBytes);
  };

  Expected<json::Value> Parsed = json::parse(Line);
  if (!Parsed)
    return Fail("", "bad json: " + Parsed.message());
  const json::Value &V = *Parsed;
  if (V.K != json::Value::Kind::Object)
    return Fail("", "request must be a json object");

  Request Rq;
  Rq.Op = V.str("op");
  Rq.Id = V.str("id");
  OpName = Rq.Op;
  if (Rq.Op.empty())
    return Fail(Rq.Id, "missing op");

  // --- Control ops answered on the reactor thread. ------------------------
  //
  // Admin introspection ops (`stats`, `health`, `trace`, `metrics`) are
  // deliberately in this group: they never touch the pool, so a daemon
  // whose every worker lane is wedged on slow ops still answers them
  // within one reactor turn — observability keeps working exactly when
  // it is needed most.

  auto Control = [&](std::string Out) {
    uint64_t RespBytes = Out.size() + 1;
    Slot->finish(std::move(Out));
    LogOutcome(Rq.Op, "control", "ok", RespBytes);
  };

  if (Rq.Op == "ping") {
    std::string Out = "{\"status\":\"ok\",\"op\":\"ping\"";
    if (!Rq.Id.empty()) {
      Out += ",\"id\":";
      json::appendString(Out, Rq.Id);
    }
    Out += ",\"have_db\":";
    Out += Db ? "true" : "false";
    Out += "}";
    Control(std::move(Out));
    return;
  }

  if (Rq.Op == "shutdown") {
    requestStop();
    Control("{\"status\":\"ok\",\"op\":\"shutdown\"}");
    return;
  }

  if (Rq.Op == "health") {
    Tel.AdminHealth.add();
    size_t Pending = Pool.submittedPending();
    CachePersister::Stats P = persistStats();
    std::string Out = "{\"status\":\"ok\",\"op\":\"health\"";
    if (!Rq.Id.empty()) {
      Out += ",\"id\":";
      json::appendString(Out, Rq.Id);
    }
    Out += ",\"ready\":true";
    Out += ",\"uptime_ns\":" + std::to_string(uptimeNs());
    Out += ",\"db\":{\"loaded\":";
    Out += Db ? "true" : "false";
    Out += ",\"fingerprint\":\"" + DbFingerprint.toHex() + "\"}";
    Out += ",\"persist\":{\"enabled\":";
    Out += Persister ? "true" : "false";
    Out += ",\"cold_start\":";
    Out += P.ColdStart ? "true" : "false";
    Out += ",\"loaded\":" + std::to_string(P.LoadedEntries);
    Out += ",\"appends\":" + std::to_string(P.Appends);
    Out += ",\"compactions\":" + std::to_string(P.Compactions) + "}";
    Out += ",\"pool\":{\"jobs\":" + std::to_string(Pool.numThreads());
    Out += ",\"max_queued\":" + std::to_string(Options.MaxQueued);
    Out += ",\"pending\":" + std::to_string(Pending);
    Out += ",\"saturated\":";
    Out += Pending >= Options.MaxQueued ? "true" : "false";
    Out += "}}";
    Control(std::move(Out));
    return;
  }

  if (Rq.Op == "trace") {
    Tel.AdminTrace.add();
    uint64_t LastNs =
        static_cast<uint64_t>(V.num("last_ms", 0)) * 1000000;
    telemetry::FlightStats FS = telemetry::flightStats();
    std::string Doc = telemetry::flightTraceJson(LastNs);
    while (!Doc.empty() && Doc.back() == '\n')
      Doc.pop_back();
    std::string Out = "{\"status\":\"ok\",\"op\":\"trace\"";
    if (!Rq.Id.empty()) {
      Out += ",\"id\":";
      json::appendString(Out, Rq.Id);
    }
    Out += ",\"spans\":" + std::to_string(FS.Recorded);
    Out += ",\"dropped\":" + std::to_string(FS.Dropped);
    Out += ",\"trace\":";
    json::appendString(Out, Doc);
    Out += "}";
    Control(std::move(Out));
    return;
  }

  if (Rq.Op == "metrics") {
    Tel.AdminMetrics.add();
    std::string Out = "{\"status\":\"ok\",\"op\":\"metrics\"";
    if (!Rq.Id.empty()) {
      Out += ",\"id\":";
      json::appendString(Out, Rq.Id);
    }
    Out += ",\"exposition\":";
    json::appendString(Out, telemetry::statsProm());
    Out += "}";
    Control(std::move(Out));
    return;
  }

  if (Rq.Op == "stats") {
    Tel.AdminStats.add();
    ResultCache::Stats Cs = Cache.stats();
    SessionStats S = sessions();
    CachePersister::Stats P = persistStats();
    std::string Out = "{\"status\":\"ok\",\"op\":\"stats\",\"cache\":{";
    Out += "\"hits\":" + std::to_string(Cs.Hits);
    Out += ",\"misses\":" + std::to_string(Cs.Misses);
    Out += ",\"evictions\":" + std::to_string(Cs.Evictions);
    Out += ",\"entries\":" + std::to_string(Cs.Entries);
    Out += ",\"bytes\":" + std::to_string(Cs.Bytes);
    Out += ",\"budget\":" + std::to_string(Cs.Budget);
    // The stats op runs on the reactor thread, so reading the memo's
    // (single-threaded) size/bytes here is safe.
    Out += "},\"render\":{";
    Out += "\"hits\":" + std::to_string(renderMemoHits());
    Out += ",\"entries\":" + std::to_string(RenderMemo.size());
    Out += ",\"bytes\":" + std::to_string(RenderMemo.bytes());
    Out += ",\"budget\":" + std::to_string(RenderMemo.budget());
    Out += "},\"persist\":{";
    Out += std::string("\"enabled\":") + (Persister ? "true" : "false");
    Out += ",\"loaded\":" + std::to_string(P.LoadedEntries);
    Out += ",\"dropped\":" + std::to_string(P.DroppedEntries);
    Out += ",\"appends\":" + std::to_string(P.Appends);
    Out += ",\"compactions\":" + std::to_string(P.Compactions);
    Out += std::string(",\"cold_start\":") + (P.ColdStart ? "true" : "false");
    Out += "},\"sessions\":{";
    Out += "\"connections\":" + std::to_string(S.Connections);
    Out += ",\"active\":" + std::to_string(S.Active);
    Out += ",\"requests\":" + std::to_string(S.Requests);
    Out += ",\"busy\":" + std::to_string(S.Busy);
    Out += ",\"errors\":" + std::to_string(S.Errors);
    Out += ",\"bytes_in\":" + std::to_string(S.BytesIn);
    Out += ",\"bytes_out\":" + std::to_string(S.BytesOut);
    Out += "},\"snapshot_seq\":" + std::to_string(++SnapshotSeq);
    Out += ",\"uptime_ns\":" + std::to_string(uptimeNs());
    telemetry::BuildInfo BI = telemetry::buildInfo();
    Out += ",\"provenance\":{\"dcb_git_rev\":";
    json::appendString(Out, BI.GitRev);
    Out += ",\"build_type\":";
    json::appendString(Out, BI.BuildType);
    Out += ",\"telemetry\":";
    json::appendString(Out, BI.Telemetry);
    Out += "},\"telemetry\":";
    json::appendString(Out, telemetry::statsCompact());
    // A full single-line dcb-stats-v1 document, so pollers (`dcb top`)
    // read live histograms without a second round trip or file.
    Out += ",\"telemetry_stats\":" + telemetry::statsJsonLine();
    Out += "}";
    Control(std::move(Out));
    return;
  }

  // --- Work ops: decode input, consult cache, fan through the pool. -------

  if (Rq.Op != "disasm" && Rq.Op != "asm" && Rq.Op != "lint" &&
      Rq.Op != "exec" && Rq.Op != "analyze")
    return Fail(Rq.Id, "unknown op: " + Rq.Op);

  bool InlineContent = false;
  if (const json::Value *B64 = V.field("data_b64")) {
    if (B64->K != json::Value::Kind::String)
      return Fail(Rq.Id, "data_b64 must be a string");
    Expected<std::vector<uint8_t>> Bytes = json::base64Decode(B64->Str);
    if (!Bytes)
      return Fail(Rq.Id, "data_b64: " + Bytes.message());
    Rq.Raw.assign(Bytes->begin(), Bytes->end());
    Rq.Name = V.str("name", "<request>");
    Rq.HasInput = true;
    InlineContent = true;
  } else if (const json::Value *Path = V.field("path")) {
    if (Path->K != json::Value::Kind::String)
      return Fail(Rq.Id, "path must be a string");
    Expected<std::string> Bytes = readFileBytes(Path->Str);
    if (!Bytes)
      return Fail(Rq.Id, Bytes.message());
    Rq.Raw = std::move(*Bytes);
    Rq.Name = Path->Str;
    Rq.HasInput = true;
  }
  if (!Rq.HasInput)
    return Fail(Rq.Id, Rq.Op + " needs data_b64 or path");

  if (Rq.Op == "asm" && !Db)
    return Fail(Rq.Id, "server has no encoding database (start with --db)");

  Rq.Kernel = V.str("kernel", "all");
  Rq.LintName = V.str("name", Rq.Name);
  // Launch-shape fields saturate instead of wrapping, so an oversized
  // shape reaches the VM's launch caps as the error it is.
  auto Shape = [&V](const char *Field, uint64_t Default) {
    return static_cast<unsigned>(
        std::min<uint64_t>(V.num(Field, Default), UINT32_MAX));
  };
  Rq.Exec.NumThreads = Shape("threads", 32);
  Rq.Exec.NumBlocks = Shape("blocks", 2);
  Rq.Exec.WarpSize = Shape("warp", 32);
  Rq.Exec.FirstSeed = static_cast<uint64_t>(V.num("seed", 1));
  std::string Oob = V.str("oob", "wrap");
  if (Oob != "wrap" && Oob != "fault")
    return Fail(Rq.Id, "oob must be wrap or fault");
  Rq.Exec.Oob = Oob == "fault" ? vm::OobPolicy::Fault : vm::OobPolicy::Wrap;
  Rq.Exec.WatchShared = V.boolean("watch_shared", false);

  // The typed-analysis op shares the exec launch-shape vocabulary.
  Rq.Analyze.Mode = V.str("mode", "types");
  if (Rq.Op == "analyze" && Rq.Analyze.Mode != "types" &&
      Rq.Analyze.Mode != "bounds" && Rq.Analyze.Mode != "races")
    return Fail(Rq.Id, "mode must be types, bounds or races");
  Rq.Analyze.Shape.NumThreads = Rq.Exec.NumThreads;
  Rq.Analyze.Shape.NumBlocks = Rq.Exec.NumBlocks;
  Rq.Analyze.Shape.WarpSize = Rq.Exec.WarpSize;
  std::string FailOnStr = V.str("fail_on", "error");
  if (FailOnStr == "error")
    Rq.Analyze.Fail = FailOn::Error;
  else if (FailOnStr == "warning")
    Rq.Analyze.Fail = FailOn::Warning;
  else if (FailOnStr == "never")
    Rq.Analyze.Fail = FailOn::Never;
  else
    return Fail(Rq.Id, "fail_on must be error, warning or never");

  Hash128 Content = hash128(Rq.Raw);
  Hash128 Key =
      cacheKey(Content, Rq.Op, optionsFingerprint(Rq, DbFingerprint));

  if (std::unique_ptr<OpResult> Hit = Cache.get(Key)) {
    std::string Resp = renderResult(Rq.Op, Rq.Id, /*Cached=*/true, *Hit);
    // Memoize the rendered bytes so the next byte-identical line skips
    // the whole decode path. Only inline-content lines qualify: a `path`
    // line does not pin its content, so it must re-read and re-hash the
    // file every time.
    if (MemoOn && InlineContent)
      RenderMemo.put(LineKey, Resp, Line.size() + Resp.size());
    uint64_t RespBytes = Resp.size() + 1;
    Slot->finish(std::move(Resp));
    Tel.RequestNs.record(nowNs() - T0);
    LogOutcome(Rq.Op, "hit", "ok", RespBytes);
    return;
  }

  // Cache miss: hand the op to the pool. The closure owns the request
  // payload; the reactor keeps only the ordered slot. The worker renders
  // the response itself (string building off the reactor), mirrors the
  // result into cache + segment, then nudges the reactor via the eventfd.
  uint64_t ConnId = C.Id;
  uint64_t Queued = nowNs();
  ReactorState *Rs = R.get(); // Outlives workers: freed after drain.
  RequestLog *RL = ReqLog.get(); // Outlives workers: freed after drain.
  auto Work = [this, Slot, Rs, RL, ConnId, Key, T0, Queued, ReqId,
               FrameBytesIn, Rq = std::move(Rq)]() mutable {
    uint64_t Wait = nowNs() - Queued;
    Tel.QueueWait.record(Wait);
    // Ends before the slot finishes, with serve.request_ns recorded: a
    // client that asks for a trace or stats as soon as it reads this
    // response must find both.
    std::optional<telemetry::ScopedSpan> OpSpan(std::in_place, "serve.op");
    // Each op runs on this one lane. Whatever an op throws becomes an error
    // response: the slot must always finish, or this connection's later
    // responses would wait behind it forever.
    Expected<OpResult> Out = [&]() -> Expected<OpResult> {
      try {
        if (Rq.Op == "disasm")
          return opDisasm(
              std::vector<uint8_t>(Rq.Raw.begin(), Rq.Raw.end()),
              vendor::DisasmOptions());
        if (Rq.Op == "asm")
          return opAsm(*Db, Rq.Raw, BatchOptions());
        if (Rq.Op == "lint")
          return opLint(Rq.Raw, Rq.LintName);
        if (Rq.Op == "analyze")
          return opAnalyze(Rq.Raw, Rq.LintName, Rq.Analyze);
        return opExec(Rq.Raw, Rq.Name, Rq.Kernel, Rq.Exec);
      } catch (const std::exception &E) {
        return Failure(Rq.Op + " failed: " + E.what());
      } catch (...) {
        return Failure(Rq.Op + " failed");
      }
    }();
    std::string Resp;
    const char *Status;
    if (Out.hasValue()) {
      // Mirror to cache and (when enabled) disk before answering, so a
      // crash right after the response cannot lose an entry the client
      // believes the daemon has.
      if (Cache.put(Key, *Out) && Persister) {
        if (Error E = Persister->append(Key, *Out)) {
          (void)E; // The entry still serves from memory.
          Tel.PersistErrors.add();
        }
      }
      Resp = renderResult(Rq.Op, Rq.Id, /*Cached=*/false, *Out);
      Status = "ok";
    } else {
      TotalErrors.fetch_add(1, std::memory_order_relaxed);
      Tel.Errors.add();
      Resp = jsonError(Rq.Id, Out.message());
      Status = "error";
    }
    uint64_t RespBytes = Resp.size() + 1;
    OpSpan.reset();
    uint64_t ServiceNs = nowNs() - T0;
    Tel.RequestNs.record(ServiceNs);
    Slot->finish(std::move(Resp));
    if (RL) {
      RequestLog::Record Rec;
      Rec.Id = ReqId;
      Rec.Op = Rq.Op;
      Rec.Outcome = "miss";
      Rec.Status = Status;
      Rec.QueueWaitNs = Wait;
      Rec.ServiceNs = ServiceNs;
      Rec.BytesIn = FrameBytesIn;
      Rec.BytesOut = RespBytes;
      RL->append(Rec);
    }
    {
      std::lock_guard<std::mutex> Lock(Rs->CompletionsM);
      Rs->Completions.push_back(ConnId);
    }
    Rs->Wake.signal();
  };
  // Copy out what the busy path needs before Work consumed Rq.
  std::string Id = V.str("id");

  TaskPool::Submit S = Pool.trySubmit(std::move(Work), Options.MaxQueued);
  if (S == TaskPool::Submit::WouldBlock) {
    TotalBusy.fetch_add(1, std::memory_order_relaxed);
    Tel.Busy.add();
    std::string Resp = jsonBusy(Id);
    uint64_t RespBytes = Resp.size() + 1;
    Slot->finish(std::move(Resp));
    LogOutcome(OpName, "busy", "busy", RespBytes);
    return;
  }
  // Queued (or already ran inline on a 0-worker pool): the completion
  // path delivers it.
}

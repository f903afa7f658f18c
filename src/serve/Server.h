//===- serve/Server.h - The dcb decode/assemble daemon ----------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-running daemon serving decode/assemble/lint/exec requests over a
/// loopback TCP socket speaking a newline-delimited JSON protocol
/// (docs/SERVE.md). The point is amortization: a one-shot `dcb` run pays
/// process startup, database load and `EncodingDatabase::freeze()` /
/// `DecodeIndex` construction per invocation; the server pays them once at
/// start() and then shares the frozen, immutable indexes across every
/// connection and worker lane.
///
/// Connections are multiplexed by a single epoll reactor thread
/// (level-triggered, non-blocking sockets, per-connection read/write
/// buffers with framing state), so hundreds-to-thousands of concurrent
/// clients cost buffers, not threads. The reactor parses and dispatches
/// every complete frame it has buffered — clients may pipeline — and
/// responses on one connection always come back in request order. Op
/// execution runs on the TaskPool; a finished worker parks its rendered
/// response in the request's ordered slot and nudges the reactor over an
/// eventfd, so a worker never blocks on a slow client's socket.
///
/// Four load-shedding layers, outermost first:
///
///  1. a render memo on the reactor itself — a byte-identical repeat of
///     an inline-content request line is answered from a prerendered
///     response (one hash of the line, no JSON parse, no base64 decode,
///     no re-render), which is what makes pipelined warm hit streams a
///     memcpy workload;
///  2. a sharded content-addressed ResultCache — repeated traffic is a
///     hash lookup, not a decode — optionally persisted to an append-only
///     segment so restarts come up warm (serve/Persist.h);
///  3. a TaskPool with bounded submission — at most `Jobs` requests decode
///     concurrently and at most `MaxQueued` wait behind them;
///  4. explicit back-pressure — when the queue is full the client gets a
///     retryable `{"status":"busy"}` immediately instead of the daemon
///     queueing unboundedly, and a connection whose response backlog
///     outgrows a fixed 8 MiB high-water mark stops being read until it
///     drains.
///
/// Binds to 127.0.0.1 only.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SERVE_SERVER_H
#define DCB_SERVE_SERVER_H

#include "analyzer/IsaAnalyzer.h"
#include "serve/Cache.h"
#include "serve/Persist.h"
#include "serve/RequestLog.h"
#include "support/Errors.h"
#include "support/Hash.h"
#include "support/Lru.h"
#include "support/TaskPool.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

namespace dcb {
namespace serve {

struct ServerOptions {
  uint16_t Port = 0;     ///< 0 = kernel-assigned ephemeral port.
  unsigned Jobs = 0;     ///< Pool lanes incl. caller (0 = hardware).
  size_t MaxQueued = 64; ///< Bounded submission depth before `busy`.
  size_t CacheBytes = 64ull << 20;
  unsigned CacheShards = 16;
  size_t MaxLineBytes = 64ull << 20; ///< Per-request framing bound.
  /// Non-empty = persist the result cache to this segment file
  /// (serve/Persist.h) and reload it at start(); the persister compacts
  /// the segment at its default slack.
  std::string PersistPath;
  /// >= 0 = also serve the Prometheus exposition over plain HTTP/1.0 on
  /// this loopback port (0 = kernel-assigned); -1 disables the listener.
  /// The same document is always available as the `metrics` admin op.
  int MetricsPort = -1;
  /// Non-empty = append one dcb-reqlog-v1 JSONL record per request to
  /// this file (serve/RequestLog.h).
  std::string RequestLogPath;
  /// With a request log: record only requests whose service latency is
  /// at least this many milliseconds (0 = record everything).
  uint64_t SlowMs = 0;
};

class Server {
public:
  /// \p Db is the learned database backing `asm` requests; without one,
  /// `asm` requests are refused (everything else works from the built-in
  /// ISA tables).
  Server(ServerOptions Options,
         std::optional<analyzer::EncodingDatabase> Db);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens, freezes the shared indexes (database FrozenIndex,
  /// per-arch DecodeIndex), loads the persisted cache segment when
  /// configured, and starts the reactor thread. Call once.
  Error start();

  /// The bound port (valid after a successful start()).
  uint16_t port() const { return BoundPort; }

  /// The bound Prometheus port (valid after start() when
  /// ServerOptions::MetricsPort >= 0; otherwise 0).
  uint16_t metricsPort() const { return BoundMetricsPort; }

  /// Nanoseconds since start() on the reactor's clock.
  uint64_t uptimeNs() const;

  /// The request log, or nullptr when `--request-log` was not given.
  const RequestLog *requestLog() const { return ReqLog.get(); }

  /// Requests an orderly shutdown (also triggered by a client `shutdown`
  /// op). Safe from any thread; stop() performs the actual teardown.
  void requestStop() { StopFlag.store(true, std::memory_order_relaxed); }
  bool stopRequested() const {
    return StopFlag.load(std::memory_order_relaxed);
  }

  /// Stops the reactor (flushing in-flight responses, bounded grace) and
  /// drains pool work. Idempotent; the destructor calls it too.
  void stop();

  ResultCache &cache() { return Cache; }

  /// The request pool. Exposed so tests and the bench can saturate it
  /// deterministically (back-pressure is impossible to force reliably
  /// from the outside of a fast server).
  TaskPool &pool() { return Pool; }

  /// Session accounting totals (exact, independent of telemetry gating).
  struct SessionStats {
    uint64_t Connections = 0; ///< Lifetime accepted.
    uint64_t Active = 0;      ///< Currently open.
    uint64_t Requests = 0;
    uint64_t Busy = 0;   ///< Requests shed with `busy`.
    uint64_t Errors = 0; ///< Requests answered with `error`.
    uint64_t BytesIn = 0;
    uint64_t BytesOut = 0;
  };
  SessionStats sessions() const;

  /// Persistence counters; all-zero when persistence is disabled.
  CachePersister::Stats persistStats() const;

  /// Requests answered straight from the render memo (no parse, no
  /// content-cache lookup). Safe from any thread.
  uint64_t renderMemoHits() const {
    return RenderHits.load(std::memory_order_relaxed);
  }

private:
  struct Conn;         ///< Per-connection reactor state (Server.cpp).
  struct ReactorState; ///< epoll fd, wakeup fd, connection tables.

  void reactorLoop();
  void onAcceptable(int ListenSocket, bool Metrics);
  /// Reads until EAGAIN, then parses and dispatches every complete frame.
  void onReadable(Conn &C);
  void dispatchFrame(Conn &C, std::string_view Line);
  /// Answers a metrics connection once its HTTP request head is complete.
  void onMetricsRequest(Conn &C);
  /// Moves ready in-order response slots into the write buffer.
  void flushReady(Conn &C);
  /// Sends what it can without blocking. False when the connection died
  /// (already closed — the caller must not touch \p C again).
  bool tryWrite(Conn &C);
  void updateInterest(Conn &C);
  void closeConn(Conn &C);
  bool anyPendingWork() const;

  ServerOptions Options;
  std::optional<analyzer::EncodingDatabase> Db;
  Hash128 DbFingerprint{}; ///< Content hash of the serialized database.

  ResultCache Cache;
  TaskPool Pool;
  std::unique_ptr<CachePersister> Persister;

  /// Prerendered responses keyed by hash128 of the full request line, in
  /// a byte budget of a quarter of CacheBytes. Only inline-content
  /// (data_b64) work-op responses are memoized — those lines fully
  /// determine their response bytes; a `path` line does not (the file may
  /// change). Reactor-thread-only; RenderHits is the one
  /// cross-thread-readable counter.
  LruMap<Hash128, std::string, Hash128Hasher> RenderMemo;
  std::atomic<uint64_t> RenderHits{0};

  int ListenFd = -1;
  uint16_t BoundPort = 0;
  int MetricsListenFd = -1;
  uint16_t BoundMetricsPort = 0;
  uint64_t StartedNs = 0; ///< Set once in start(), read-only after.
  /// Monotonic id assigned to each dispatched frame; reactor-thread-only.
  uint64_t NextRequestId = 0;
  /// Monotonic `{"op":"stats"}` snapshot counter; reactor-thread-only.
  uint64_t SnapshotSeq = 0;
  std::unique_ptr<RequestLog> ReqLog;
  std::thread ReactorThread;
  std::atomic<bool> StopFlag{false};
  std::unique_ptr<ReactorState> R;

  std::atomic<uint64_t> TotalConnections{0};
  std::atomic<uint64_t> ActiveConnections{0};
  std::atomic<uint64_t> TotalRequests{0};
  std::atomic<uint64_t> TotalBusy{0};
  std::atomic<uint64_t> TotalErrors{0};
  std::atomic<uint64_t> TotalBytesIn{0};
  std::atomic<uint64_t> TotalBytesOut{0};
};

} // namespace serve
} // namespace dcb

#endif // DCB_SERVE_SERVER_H

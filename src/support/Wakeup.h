//===- support/Wakeup.h - Cross-thread event-loop wakeup --------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The completion hand-off primitive between worker threads and an
/// fd-driven event loop: a kernel eventfd that sits in the loop's poll set.
/// A worker that finishes a task calls signal() (one non-blocking write,
/// never touching the loop's sockets); the loop wakes, drain()s the
/// counter, and collects whatever the workers published.
/// Signals coalesce — N signal() calls before a drain() produce one
/// readable event — which is exactly the batching an event loop wants.
///
/// The serve reactor is the first client (TaskPool lanes hand completed
/// responses back to the epoll loop through one of these); any subsystem
/// pairing a poll loop with pool workers can reuse it.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SUPPORT_WAKEUP_H
#define DCB_SUPPORT_WAKEUP_H

#include "support/Errors.h"

namespace dcb {

/// A level-style wakeup flag backed by an eventfd. Thread-safe: signal()
/// may be called from any thread; fd()/drain() belong to the owning loop.
class WakeupFd {
public:
  WakeupFd() = default;
  ~WakeupFd();
  WakeupFd(WakeupFd &&Other) noexcept;
  WakeupFd &operator=(WakeupFd &&Other) noexcept;
  WakeupFd(const WakeupFd &) = delete;
  WakeupFd &operator=(const WakeupFd &) = delete;

  static Expected<WakeupFd> create();

  /// The fd to register for readability in the event loop.
  int fd() const { return Fd; }
  bool isOpen() const { return Fd >= 0; }

  /// Makes fd() readable. Async-signal-safe, non-blocking, coalescing;
  /// safe to call from any thread while the loop is polling.
  void signal();

  /// Consumes all pending signals so the fd goes quiet until the next
  /// signal(). Call from the owning loop when fd() polls readable.
  void drain();

  void close();

private:
  explicit WakeupFd(int Fd) : Fd(Fd) {}

  int Fd = -1;
};

} // namespace dcb

#endif // DCB_SUPPORT_WAKEUP_H

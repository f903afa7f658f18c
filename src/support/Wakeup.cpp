//===- support/Wakeup.cpp -------------------------------------------------===//

#include "support/Wakeup.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <sys/eventfd.h>
#include <unistd.h>

using namespace dcb;

WakeupFd::~WakeupFd() { close(); }

WakeupFd::WakeupFd(WakeupFd &&Other) noexcept
    : Fd(std::exchange(Other.Fd, -1)) {}

WakeupFd &WakeupFd::operator=(WakeupFd &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = std::exchange(Other.Fd, -1);
  }
  return *this;
}

Expected<WakeupFd> WakeupFd::create() {
  int Fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (Fd < 0)
    return Failure(std::string("eventfd: ") + std::strerror(errno));
  return WakeupFd(Fd);
}

void WakeupFd::signal() {
  if (Fd < 0)
    return;
  // Coalescing by design: once the counter is non-zero the loop is
  // already due to wake, so EAGAIN here means "signal already pending".
  const uint64_t One = 1;
  for (;;) {
    ssize_t N = ::write(Fd, &One, sizeof(One));
    if (N >= 0 || errno != EINTR)
      return;
  }
}

void WakeupFd::drain() {
  if (Fd < 0)
    return;
  // One read returns the whole counter and resets it to zero.
  uint64_t Count;
  while (::read(Fd, &Count, sizeof(Count)) < 0 && errno == EINTR) {
  }
}

void WakeupFd::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

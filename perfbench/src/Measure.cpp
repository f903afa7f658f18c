//===- perfbench/src/Measure.cpp ------------------------------------------===//

#include "Measure.h"
#include "Bench.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

namespace dcb {
namespace perfbench {

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

size_t samplesBelow(size_t N, double Q) {
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(N)));
  return Rank ? std::min(N, Rank) - 1 : 0;
}

Tail tail(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  // p such that at least ten samples lie beyond rank ceil(p * n).
  unsigned P = 99;
  while (P > 1) {
    size_t Rank = static_cast<size_t>(
        std::ceil(P / 100.0 * static_cast<double>(V.size())));
    if (V.size() - Rank >= 10)
      break;
    --P;
  }
  T.Percentile = P;
  T.Value = quantile(V, P / 100.0);
  T.Beyond = V.size() - static_cast<size_t>(std::ceil(
                            P / 100.0 * static_cast<double>(V.size())));
  return T;
}

telemetry::HistData histDelta(const telemetry::HistData &After,
                              const telemetry::HistData &Before) {
  telemetry::HistData D;
  D.Count = After.Count - Before.Count;
  D.Sum = After.Sum - Before.Sum;
  D.Max = After.Max;
  for (unsigned B = 0; B < telemetry::HistData::NumBuckets; ++B)
    D.Buckets[B] = After.Buckets[B] - Before.Buckets[B];
  return D;
}

double selfPeakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

namespace {

std::vector<char *> argvOf(const std::vector<std::string> &Argv) {
  std::vector<char *> Out;
  for (const std::string &A : Argv)
    Out.push_back(const_cast<char *>(A.c_str()));
  Out.push_back(nullptr);
  return Out;
}

int exitOf(int Status) {
  if (WIFEXITED(Status))
    return WEXITSTATUS(Status);
  if (WIFSIGNALED(Status))
    return 128 + WTERMSIG(Status);
  return -1;
}

} // namespace

ChildRun runChild(const std::vector<std::string> &Argv) {
  ChildRun R;
  int Out[2], Err[2];
  if (pipe2(Out, O_CLOEXEC) != 0 || pipe2(Err, O_CLOEXEC) != 0)
    fatal("pipe: " + std::string(std::strerror(errno)));
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Out[1], 1);
  posix_spawn_file_actions_adddup2(&Actions, Err[1], 2);
  std::vector<char *> Args = argvOf(Argv);
  uint64_t Start = nowNs();
  pid_t Pid = -1;
  int Rc = posix_spawn(&Pid, Args[0], &Actions, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Out[1]);
  close(Err[1]);
  if (Rc != 0) {
    close(Out[0]);
    close(Err[0]);
    fatal("cannot run " + Argv[0] + ": " + std::strerror(Rc));
  }
  struct pollfd Fds[2] = {{Out[0], POLLIN, 0}, {Err[0], POLLIN, 0}};
  std::string *Sinks[2] = {&R.Stdout, &R.Stderr};
  int Open = 2;
  char Buf[65536];
  while (Open > 0) {
    if (poll(Fds, 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    for (int I = 0; I < 2; ++I) {
      if (Fds[I].fd < 0 || !(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      ssize_t N = read(Fds[I].fd, Buf, sizeof(Buf));
      if (N > 0) {
        Sinks[I]->append(Buf, static_cast<size_t>(N));
      } else if (N == 0 || errno != EINTR) {
        close(Fds[I].fd);
        Fds[I].fd = -1;
        --Open;
      }
    }
  }
  int Status = 0;
  struct rusage U {};
  while (wait4(Pid, &Status, 0, &U) < 0 && errno == EINTR) {
  }
  R.WallMs = static_cast<double>(nowNs() - Start) / 1e6;
  R.Exit = exitOf(Status);
  R.PeakRssMb = static_cast<double>(U.ru_maxrss) / 1024.0;
  return R;
}

namespace {

/// Daemons not yet reaped. fatal() leaves through std::exit, which skips
/// the destructors of stack objects, so an exit handler stops these.
std::vector<pid_t> &liveDaemons() {
  static std::vector<pid_t> Pids;
  return Pids;
}

void stopLiveDaemons() {
  for (pid_t P : liveDaemons()) {
    kill(P, SIGKILL);
    while (waitpid(P, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  liveDaemons().clear();
}

} // namespace

void Daemon::start(const std::vector<std::string> &Argv) {
  static const bool Registered = (std::atexit(stopLiveDaemons), true);
  (void)Registered;
  std::vector<char *> Args = argvOf(Argv);
  pid_t Parent = getpid();
  pid_t P = fork();
  if (P < 0)
    fatal("fork: " + std::string(std::strerror(errno)));
  if (P == 0) {
    // The daemon dies with the benchmark even when the benchmark is
    // killed. It logs to stderr; nothing reads it, so it goes nowhere.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != Parent)
      _exit(127);
    int Null = open("/dev/null", O_WRONLY);
    dup2(Null, 1);
    dup2(Null, 2);
    execv(Args[0], Args.data());
    _exit(127);
  }
  Pid = P;
  liveDaemons().push_back(P);
}

double Daemon::wait(unsigned TimeoutMs) {
  if (Pid <= 0)
    return 0;
  std::vector<pid_t> &Live = liveDaemons();
  Live.erase(std::remove(Live.begin(), Live.end(), Pid), Live.end());
  int Status = 0;
  struct rusage U {};
  uint64_t Deadline = nowNs() + uint64_t(TimeoutMs) * 1000000;
  for (;;) {
    pid_t Got = wait4(Pid, &Status, WNOHANG, &U);
    if (Got == Pid)
      break;
    if (Got < 0 && errno != EINTR)
      break;
    if (nowNs() > Deadline) {
      kill(Pid, SIGKILL);
      while (wait4(Pid, &Status, 0, &U) < 0 && errno == EINTR) {
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Pid = -1;
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

Daemon::~Daemon() {
  if (Pid > 0) {
    kill(Pid, SIGTERM);
    wait(2000);
  }
}

} // namespace perfbench
} // namespace dcb

//===- support/TaskPool.cpp -----------------------------------------------===//

#include "support/TaskPool.h"

using namespace dcb;

namespace {

/// Handles resolved once at static init; add()/record() on a disabled
/// registry cost one relaxed load each (see Telemetry.h).
struct PoolTelemetry {
  telemetry::Counter &Batches = telemetry::counter("taskpool.batches");
  telemetry::Counter &Tasks = telemetry::counter("taskpool.tasks");
  telemetry::Counter &BusyNs = telemetry::counter("taskpool.busy_ns");
  telemetry::Histogram &BatchNs = telemetry::histogram("taskpool.batch_ns");
  telemetry::Histogram &QueueWaitNs =
      telemetry::histogram("taskpool.queue_wait_ns");
  telemetry::Histogram &LaneBusyNs =
      telemetry::histogram("taskpool.lane_busy_ns");
  telemetry::Counter &Submitted = telemetry::counter("taskpool.submitted");
  telemetry::Counter &SubmitRejected =
      telemetry::counter("taskpool.submit_rejected");
  telemetry::Counter &SubmitExceptions =
      telemetry::counter("taskpool.submit_exceptions");
  telemetry::Counter &ThreadsSpawned =
      telemetry::counter("taskpool.threads_spawned");
} Tel;

} // namespace

TaskPool::TaskPool(unsigned NumThreads) {
  if (NumThreads == 0) {
    NumThreads = std::thread::hardware_concurrency();
    if (NumThreads == 0)
      NumThreads = 1;
  }
  Workers.reserve(NumThreads - 1);
  for (unsigned W = 0; W + 1 < NumThreads; ++W)
    Workers.emplace_back([this, W] { workerLoop(W); });
  Tel.ThreadsSpawned.add(Workers.size());
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
  }
  BatchStart.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void TaskPool::workerLoop(unsigned WorkerIdx) {
  uint64_t SeenBatch = 0;
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(M);
      BatchStart.wait(Lock, [&] {
        return Stopping || Batch != SeenBatch || !Submitted.empty();
      });
      // Batches are barriers the whole pool waits on, so they outrank
      // queued tasks; submitted work drains whenever no batch is pending.
      // On shutdown, accepted submissions still run before the worker
      // exits — trySubmit never silently drops a task.
      if (Batch != SeenBatch) {
        SeenBatch = Batch;
      } else if (!Submitted.empty()) {
        Task = std::move(Submitted.front());
        Submitted.pop_front();
        ++SubmittedRunning;
      } else if (Stopping) {
        return;
      } else {
        continue; // Spurious wakeup with nothing to do.
      }
    }
    if (Task)
      runSubmitted(Task);
    else
      drainBatch(WorkerIdx);
  }
}

void TaskPool::runSubmitted(std::function<void()> &Task) {
  try {
    Task();
  } catch (...) {
    Tel.SubmitExceptions.add();
  }
  std::lock_guard<std::mutex> Lock(M);
  if (--SubmittedRunning == 0 && Submitted.empty())
    SubmittedDone.notify_all();
}

TaskPool::Submit TaskPool::trySubmit(std::function<void()> Task,
                                     size_t MaxQueued) {
  {
    std::lock_guard<std::mutex> Lock(M);
    if (!Workers.empty()) {
      if (MaxQueued != 0 && Submitted.size() >= MaxQueued) {
        Tel.SubmitRejected.add();
        return Submit::WouldBlock;
      }
      Submitted.push_back(std::move(Task));
      Tel.Submitted.add();
      BatchStart.notify_one();
      return Submit::Queued;
    }
    // No workers: run inline below. The queue never grows, so a bound
    // can't be exceeded; count the task as started while still locked.
    ++SubmittedRunning;
    Tel.Submitted.add();
  }
  runSubmitted(Task);
  return Submit::Queued;
}

void TaskPool::drainSubmitted() {
  std::unique_lock<std::mutex> Lock(M);
  SubmittedDone.wait(
      Lock, [&] { return Submitted.empty() && SubmittedRunning == 0; });
}

size_t TaskPool::submittedPending() const {
  std::lock_guard<std::mutex> Lock(M);
  return Submitted.size() + SubmittedRunning;
}

void TaskPool::drainBatch(unsigned WorkerIdx) {
  // Timing/BatchStartNs were written under M before this lane woke (or, for
  // the calling lane, on this thread), so the unlocked reads are ordered.
  // Two clock reads per lane per batch — queue wait (publish -> first
  // claim) and busy time (whole drain) — keep the per-task loop clean.
  const bool Timed = Timing;
  const uint64_t DrainStart = Timed ? telemetry::nowNs() : 0;
  for (;;) {
    size_t Idx = Next.fetch_add(1, std::memory_order_relaxed);
    if (Idx >= NumTasks)
      break;
    try {
      (*Fn)(WorkerIdx, Idx);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(M);
      if (!FirstError || Idx < FirstErrorIdx) {
        FirstError = std::current_exception();
        FirstErrorIdx = Idx;
      }
    }
  }
  if (Timed) {
    uint64_t DrainEnd = telemetry::nowNs();
    Tel.QueueWaitNs.record(DrainStart - BatchStartNs);
    Tel.LaneBusyNs.record(DrainEnd - DrainStart);
    Tel.BusyNs.add(DrainEnd - DrainStart);
    if (telemetry::spansEnabled())
      telemetry::recordSpan("taskpool.drain", DrainStart,
                            DrainEnd - DrainStart);
  }
  std::lock_guard<std::mutex> Lock(M);
  if (--Active == 0)
    BatchDone.notify_all();
}

void TaskPool::parallelFor(
    size_t Tasks, const std::function<void(unsigned, size_t)> &TaskFn) {
  if (Tasks == 0)
    return;
  telemetry::ScopedSpan Span("taskpool.batch");
  const bool Counting = telemetry::countersEnabled();
  if (Counting) {
    Tel.Batches.add();
    Tel.Tasks.add(Tasks);
  }
  {
    std::lock_guard<std::mutex> Lock(M);
    Fn = &TaskFn;
    NumTasks = Tasks;
    Next.store(0, std::memory_order_relaxed);
    Active = Workers.size() + 1; // Workers + this (the calling) thread.
    FirstError = nullptr;
    FirstErrorIdx = 0;
    Timing = Counting || telemetry::spansEnabled();
    BatchStartNs = Timing ? telemetry::nowNs() : 0;
    ++Batch;
  }
  BatchStart.notify_all();

  // The caller is the highest-numbered lane.
  drainBatch(static_cast<unsigned>(Workers.size()));

  std::unique_lock<std::mutex> Lock(M);
  BatchDone.wait(Lock, [&] { return Active == 0; });
  Fn = nullptr;
  if (Counting)
    Tel.BatchNs.record(telemetry::nowNs() - BatchStartNs);
  if (FirstError)
    std::rethrow_exception(FirstError);
}

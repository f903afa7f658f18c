//===- support/TaskPool.h - Reusable worker-thread pool ---------*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool for data-parallel loops. The design goal
/// is deterministic *results* under nondeterministic scheduling: callers
/// index a preallocated output slot by task index, so however the pool
/// interleaves execution, draining the slots in index order reproduces the
/// serial order exactly. Its batch clients are the whole kernels of a
/// cubin (vendor::disassembleCubin) and the chunks of an assembly batch
/// (asmgen::assembleProgram); the serve daemon's request lanes use its
/// bounded submission queue.
///
/// Threads are spawned once in the constructor and parked on a condition
/// variable between batches, so repeated parallelFor calls pay no
/// thread-creation cost after the first.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_SUPPORT_TASKPOOL_H
#define DCB_SUPPORT_TASKPOOL_H

#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dcb {

/// Fixed-size pool executing indexed task batches.
///
/// Concurrency = \p NumThreads total, *including* the calling thread: the
/// pool spawns NumThreads - 1 workers and the caller participates in every
/// batch, so TaskPool(1) runs everything inline with zero threads — the
/// serial path and the parallel path share one code path.
class TaskPool {
public:
  /// \p NumThreads = 0 picks the hardware concurrency.
  explicit TaskPool(unsigned NumThreads = 0);
  ~TaskPool();

  TaskPool(const TaskPool &) = delete;
  TaskPool &operator=(const TaskPool &) = delete;

  /// Total execution width (workers + the calling thread), always >= 1.
  unsigned numThreads() const {
    return static_cast<unsigned>(Workers.size()) + 1;
  }

  /// Runs Fn(WorkerIdx, TaskIdx) for every TaskIdx in [0, NumTasks),
  /// distributing indices dynamically, and blocks until all complete.
  /// WorkerIdx < numThreads() identifies the executing lane, letting
  /// callers keep per-lane scratch state without locking.
  ///
  /// If tasks throw, the exception from the lowest-numbered throwing task
  /// is rethrown here (deterministically, regardless of scheduling) after
  /// the batch drains. Not reentrant: Fn must not call parallelFor on the
  /// same pool.
  void parallelFor(size_t NumTasks,
                   const std::function<void(unsigned, size_t)> &Fn);

  /// Outcome of trySubmit: Queued means the task was accepted (and will
  /// run, or already ran inline); WouldBlock means the bounded queue was
  /// full and nothing was enqueued — the caller's back-pressure signal.
  enum class Submit { Queued, WouldBlock };

  /// Queues one independent task for asynchronous execution on the pool's
  /// worker threads — the daemon-style counterpart to the batch-barrier
  /// parallelFor. If \p MaxQueued > 0 and that many submitted tasks are
  /// already waiting (not yet started), returns WouldBlock instead of
  /// growing the queue unboundedly; MaxQueued = 0 never blocks the
  /// submitter. On a pool with no workers (numThreads() == 1) accepted
  /// tasks run inline in the submitting thread.
  ///
  /// Submitted tasks must not throw (exceptions are swallowed and counted
  /// as `taskpool.submit_exceptions`: there is no submitter left to
  /// rethrow to) and must not touch this pool. Batches from parallelFor
  /// take priority over queued tasks; both modes share the same lanes.
  Submit trySubmit(std::function<void()> Task, size_t MaxQueued = 0);

  /// Blocks until every task accepted by trySubmit has finished. The
  /// destructor also drains accepted tasks before joining workers, so
  /// a submitted task is never silently dropped.
  void drainSubmitted();

  /// Submitted tasks accepted but not yet finished (approximate under
  /// concurrency; exact when the caller is the only submitter).
  size_t submittedPending() const;

private:
  void workerLoop(unsigned WorkerIdx);
  void drainBatch(unsigned WorkerIdx);
  void runSubmitted(std::function<void()> &Task);

  std::vector<std::thread> Workers;

  mutable std::mutex M;
  std::condition_variable BatchStart; ///< Wakes parked workers.
  std::condition_variable BatchDone;  ///< Wakes the caller in parallelFor.
  const std::function<void(unsigned, size_t)> *Fn = nullptr;
  size_t NumTasks = 0;
  std::atomic<size_t> Next{0}; ///< Next unclaimed task index (lock-free:
                               ///< tasks can be microseconds long).
  size_t Active = 0;           ///< Lanes still draining the current batch.
  uint64_t Batch = 0; ///< Generation counter workers wait on.
  bool Stopping = false;

  std::exception_ptr FirstError;
  size_t FirstErrorIdx = 0;

  /// Bounded-submission state (trySubmit/drainSubmitted).
  std::deque<std::function<void()>> Submitted; ///< Accepted, not started.
  size_t SubmittedRunning = 0;                 ///< Started, not finished.
  std::condition_variable SubmittedDone; ///< Wakes drainSubmitted waiters.

  /// Telemetry state for the current batch, written under M in parallelFor
  /// and read by lanes after the mutex-ordered wakeup: whether this batch
  /// is being measured, and its publish timestamp (for queue-wait).
  bool Timing = false;
  uint64_t BatchStartNs = 0;
};

/// Options for the batched assembly entry point (asmgen::assembleProgram).
struct BatchOptions {
  /// Total lanes including the caller; 0 = hardware concurrency, 1 = inline.
  unsigned NumThreads = 1;
};

/// Items a batch entry point claims per pool task. Individual items are
/// sub-microsecond, so contiguous chunks amortize the pool's per-task index
/// claim; results are still written to per-item slots, so the merge order
/// — and the output — is byte-identical for every thread count.
constexpr size_t kBatchChunkSize = 64;

namespace detail {
/// Shared chunk-latency histogram for every parallelForChunked client.
/// Looked up lazily and only on the telemetry-enabled path.
inline telemetry::Histogram &chunkNsHistogram() {
  static telemetry::Histogram &H = telemetry::histogram("taskpool.chunk_ns");
  return H;
}
} // namespace detail

/// Runs Fn(ItemIdx) for every index in [0, NumItems), dispatching chunks of
/// ChunkSize contiguous items per pool task. Callers write results to
/// preallocated per-index slots, preserving TaskPool's deterministic-merge
/// contract independent of scheduling.
///
/// When telemetry is enabled each chunk records its latency into the
/// shared `taskpool.chunk_ns` histogram and (when tracing) a span named
/// \p ChunkSpanName, letting callers attribute chunks to their stage
/// ("asmgen.assemble.chunk").
template <typename Fn>
void parallelForChunked(TaskPool &Pool, size_t NumItems, size_t ChunkSize,
                        const Fn &F,
                        const char *ChunkSpanName = "taskpool.chunk") {
  ChunkSize = std::max<size_t>(1, ChunkSize);
  size_t NumChunks = (NumItems + ChunkSize - 1) / ChunkSize;
  Pool.parallelFor(NumChunks, [&](unsigned, size_t Chunk) {
    telemetry::ScopedSpan Span(ChunkSpanName);
    const bool Counting = telemetry::countersEnabled();
    uint64_t Start = Counting ? telemetry::nowNs() : 0;
    size_t Lo = Chunk * ChunkSize;
    size_t Hi = std::min(NumItems, Lo + ChunkSize);
    for (size_t I = Lo; I < Hi; ++I)
      F(I);
    if (Counting)
      detail::chunkNsHistogram().record(telemetry::nowNs() - Start);
  });
}

} // namespace dcb

#endif // DCB_SUPPORT_TASKPOOL_H

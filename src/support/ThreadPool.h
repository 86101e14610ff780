//===- support/ThreadPool.h - Minimal fork-join thread pool ----*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fork-join thread pool used by the layered parallel Dijkstra
/// search (paper section 3.1: "this approach is parallelizable as we can
/// process all programs of a certain length in parallel"). The pool exposes
/// a blocking parallelFor over an index range, split into one contiguous
/// chunk per worker, and a blocking work-stealing parallelForTasks over a
/// list of tasks of uneven cost.
///
/// The pool also carries a persistent task queue (submitTask) for
/// long-lived consumers — the synthesis service's request executor
/// (service/SynthService.h) — where work arrives one item at a time
/// instead of as an index range. Queued tasks and fork-join jobs share the
/// workers; a worker occupied by a task joins a concurrently dispatched
/// job only after the task returns, so a pool serving tasks should not
/// also host latency-sensitive parallelFor calls (the search engines and
/// the portfolio race each construct their own pool, so the two uses never
/// share an instance in practice).
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SUPPORT_THREADPOOL_H
#define SKS_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sks {

/// Fixed-size worker pool with a blocking fork-join parallelFor.
class ThreadPool {
public:
  /// Creates a pool with \p NumThreads workers; 0 means
  /// hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of workers, including the caller when it participates.
  unsigned size() const { return static_cast<unsigned>(Workers.size()) + 1; }

  /// Runs Body(ChunkBegin, ChunkEnd, WorkerIndex) over [0, End) split into
  /// one contiguous chunk per worker; blocks until all chunks finish. The
  /// calling thread executes one chunk itself (it is always WorkerIndex 0).
  void parallelFor(size_t End,
                   const std::function<void(size_t, size_t, unsigned)> &Body);

  /// Runs Body(Tasks[i], WorkerIndex) once per entry of \p Tasks with work
  /// stealing: worker W's deque is seeded with Tasks[W], Tasks[W + P], ...
  /// (P = size()), owners pop from the front of their own deque, and a
  /// worker whose deque runs dry steals single tasks from the BACK of a
  /// victim's. Seed \p Tasks in descending cost order and the result is
  /// LPT scheduling with stealing as the correction term: owners start on
  /// the expensive tasks, thieves pick up the cheap tail. Each worker claims
  /// from its own deque, so there is no shared cursor to contend on when
  /// task costs are wildly skewed (the layered merge's hash-skewed shards,
  /// the portfolio race's backends). Blocks until every task has run; Body
  /// must not call back into the pool.
  void parallelForTasks(const std::vector<uint32_t> &Tasks,
                        const std::function<void(uint32_t, unsigned)> &Body);

  /// Enqueues \p Task for asynchronous execution on a worker thread and
  /// returns immediately. Every task submitted before destruction runs:
  /// the destructor drains the queue before joining. Tasks only execute on
  /// spawned workers (never the submitting thread), so the pool must have
  /// been constructed with NumThreads >= 2.
  void submitTask(std::function<void()> Task);

private:
  void workerLoop(unsigned Index);

  std::vector<std::thread> Workers;
  std::mutex Mutex;
  std::condition_variable WakeWorkers;
  std::condition_variable JobDone;

  // Persistent task queue (guarded by Mutex). FIFO: the service relies on
  // submission order for fairness under admission control.
  std::deque<std::function<void()>> Tasks;

  // Current job state (guarded by Mutex).
  const std::function<void(size_t, size_t, unsigned)> *Job = nullptr;
  size_t JobEnd = 0;
  uint64_t Generation = 0;
  unsigned Remaining = 0;
  bool ShuttingDown = false;
};

} // namespace sks

#endif // SKS_SUPPORT_THREADPOOL_H

//===- support/ThreadPool.cpp - Minimal fork-join thread pool -------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

using namespace sks;

ThreadPool::ThreadPool(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = std::max(1u, std::thread::hardware_concurrency());
  // The caller participates, so spawn one fewer worker.
  for (unsigned I = 1; I < NumThreads; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WakeWorkers.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

static void runChunk(const std::function<void(size_t, size_t, unsigned)> &Body,
                     size_t End, unsigned Index, unsigned NumChunks) {
  size_t PerChunk = (End + NumChunks - 1) / NumChunks;
  size_t Begin = std::min(End, PerChunk * Index);
  size_t ChunkEnd = std::min(End, Begin + PerChunk);
  if (Begin < ChunkEnd)
    Body(Begin, ChunkEnd, Index);
}

void ThreadPool::parallelFor(
    size_t End, const std::function<void(size_t, size_t, unsigned)> &Body) {
  if (Workers.empty() || End <= 1) {
    if (End > 0)
      Body(0, End, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(!Job && "parallelFor is not reentrant");
    Job = &Body;
    JobEnd = End;
    Remaining = static_cast<unsigned>(Workers.size());
    ++Generation;
  }
  WakeWorkers.notify_all();
  // The caller participates as worker 0.
  runChunk(Body, End, 0, size());
  std::unique_lock<std::mutex> Lock(Mutex);
  JobDone.wait(Lock, [this] { return Remaining == 0; });
  Job = nullptr;
}

namespace {
/// One worker's task deque. A plain mutex per deque: steals are rare and
/// the critical section is an index bump or a pop_back, so a Chase-Lev
/// lock-free deque would buy nothing here.
struct StealDeque {
  std::mutex M;
  std::vector<uint32_t> Items;
  size_t Head = 0; // Owner pops Items[Head]; thieves pop Items.back().
};
} // namespace

void ThreadPool::parallelForTasks(
    const std::vector<uint32_t> &Tasks,
    const std::function<void(uint32_t, unsigned)> &Body) {
  if (Tasks.empty())
    return;
  const unsigned P = size();
  if (P == 1 || Tasks.size() == 1) {
    for (uint32_t Task : Tasks)
      Body(Task, 0);
    return;
  }
  std::vector<StealDeque> Deques(P);
  for (unsigned W = 0; W != P; ++W) {
    StealDeque &D = Deques[W];
    for (size_t I = W; I < Tasks.size(); I += P)
      D.Items.push_back(Tasks[I]);
  }
  // Piggyback on the fork-join machinery: a static parallelFor over
  // exactly P indices hands every worker (caller included) one chunk, and
  // the chunk body is the pop-own-then-steal loop. A worker returns only
  // once every deque it can see is empty; a task never spawns tasks, so an
  // empty sweep means global completion.
  parallelFor(P, [&](size_t Begin, size_t, unsigned W) {
    const unsigned Self = static_cast<unsigned>(Begin);
    for (;;) {
      uint32_t Task = 0;
      bool Got = false;
      {
        StealDeque &D = Deques[Self];
        std::lock_guard<std::mutex> Lock(D.M);
        if (D.Head < D.Items.size()) {
          Task = D.Items[D.Head++];
          Got = true;
        }
      }
      for (unsigned V = 1; !Got && V != P; ++V) {
        StealDeque &D = Deques[(Self + V) % P];
        std::lock_guard<std::mutex> Lock(D.M);
        if (D.Head < D.Items.size()) {
          Task = D.Items.back();
          D.Items.pop_back();
          Got = true;
        }
      }
      if (!Got)
        return;
      Body(Task, W);
    }
  });
}

void ThreadPool::submitTask(std::function<void()> Task) {
  assert(!Workers.empty() &&
         "submitTask needs a spawned worker (NumThreads >= 2)");
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Tasks.push_back(std::move(Task));
  }
  WakeWorkers.notify_one();
}

void ThreadPool::workerLoop(unsigned Index) {
  uint64_t SeenGeneration = 0;
  for (;;) {
    const std::function<void(size_t, size_t, unsigned)> *MyJob;
    size_t End;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeWorkers.wait(Lock, [&] {
        return ShuttingDown || !Tasks.empty() ||
               (Job && Generation != SeenGeneration);
      });
      // Fork-join jobs take priority: every worker must check in before a
      // dispatch completes, so never sit on a queued task while a job is
      // pending. Tasks drain before shutdown — every submitted task runs.
      if (!Job || Generation == SeenGeneration) {
        if (!Tasks.empty()) {
          std::function<void()> Task = std::move(Tasks.front());
          Tasks.pop_front();
          Lock.unlock();
          Task();
          continue;
        }
        if (ShuttingDown)
          return;
        continue;
      }
      SeenGeneration = Generation;
      MyJob = Job;
      End = JobEnd;
    }
    runChunk(*MyJob, End, Index, size());
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--Remaining == 0)
        JobDone.notify_all();
    }
  }
}

//===- driver/Portfolio.cpp - Backend portfolio race ------------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Portfolio.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <mutex>

using namespace sks;

PortfolioResult sks::runPortfolio(
    const std::vector<std::unique_ptr<Backend>> &Backends,
    const SynthRequest &Req) {
  PortfolioResult Result;
  Result.Outcomes.resize(Backends.size());
  if (Backends.empty())
    return Result;

  // The race source is rooted in the caller's token + deadline, so an
  // outer cancel or the request timeout stops every contender too.
  StopSource Race(Req.Stop.withDeadline(Req.TimeoutSeconds));

  SynthRequest Inner = Req;
  Inner.Stop = Race.token();
  Inner.TimeoutSeconds = 0; // The deadline lives in the race token now.
  Inner.NumThreads = 1;     // The race spends the threads, not one backend.

  auto Wins = [&](const SynthOutcome &O) {
    if (!O.Verified)
      return false;
    if (Req.Goal == SynthGoal::MinLength)
      return O.Status == SynthStatus::Optimal;
    return O.Status == SynthStatus::Found || O.Status == SynthStatus::Optimal;
  };

  std::mutex Mutex; // Guards Outcomes and the winner bookkeeping.
  unsigned RaceThreads = static_cast<unsigned>(
      std::min<size_t>(Backends.size(), Req.NumThreads > 0 ? Req.NumThreads
                                                           : Backends.size()));
  ThreadPool Pool(RaceThreads);
  // One task per backend: a freed worker steals the next contender instead
  // of idling behind a static split.
  std::vector<uint32_t> Contenders(Backends.size());
  for (uint32_t I = 0; I != Contenders.size(); ++I)
    Contenders[I] = I;
  Pool.parallelForTasks(Contenders, [&](uint32_t I, unsigned) {
    SynthOutcome Outcome = Backends[I]->run(Inner);
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Result.WinnerIndex == SIZE_MAX && Wins(Outcome)) {
      Result.WinnerIndex = I;
      Race.requestStop(); // First winner cancels the rest.
    }
    Result.Outcomes[I] = std::move(Outcome);
  });

  // No certificate winner: fall back to the best verified kernel (shortest
  // program; ties to the earlier backend), else the first participant.
  if (Result.WinnerIndex == SIZE_MAX) {
    for (size_t I = 0; I != Result.Outcomes.size(); ++I) {
      const SynthOutcome &O = Result.Outcomes[I];
      if (!O.Verified || O.Kernel.empty())
        continue;
      if (Result.WinnerIndex == SIZE_MAX ||
          O.Kernel.size() <
              Result.Outcomes[Result.WinnerIndex].Kernel.size())
        Result.WinnerIndex = I;
    }
  }
  if (Result.WinnerIndex == SIZE_MAX)
    Result.WinnerIndex = 0;
  Result.Winner = Result.Outcomes[Result.WinnerIndex];
  return Result;
}

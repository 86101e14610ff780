//===- tests/SearchExtrasTest.cpp - Engine knobs and instrumentation ---------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/Search.h"

#include "verify/Verify.h"

#include <gtest/gtest.h>

using namespace sks;

namespace {

TEST(SearchExtras, EraseCheckPreservesSolutionCounts) {
  // The value-erasure check (section 3.3's always-on half) prunes only
  // states that cannot reach a sorted state, so solution counts are
  // invariant under it. Compared exhaustively at n=2 (a fully unpruned
  // n=3 walk needs more memory than this container has — exactly why the
  // check is always on); the n=3 count WITH the check is pinned elsewhere.
  Machine M(MachineKind::Cmov, 2);
  SearchOptions With, Without;
  With.Heuristic = Without.Heuristic = HeuristicKind::None;
  With.FindAll = Without.FindAll = true;
  With.MaxLength = Without.MaxLength = 4;
  With.MaxSolutionsKept = Without.MaxSolutionsKept = 0;
  With.UseViability = Without.UseViability = false;
  With.UseEraseCheck = true;
  Without.UseEraseCheck = false;
  SearchResult A = synthesize(M, With);
  SearchResult B = synthesize(M, Without);
  ASSERT_TRUE(A.Found && B.Found);
  EXPECT_EQ(A.SolutionCount, B.SolutionCount);
  EXPECT_EQ(A.SolutionCount, 8u);
  EXPECT_LE(A.Stats.StatesGenerated - A.Stats.ViabilityPruned,
            B.Stats.StatesGenerated)
      << "the check must actually prune";
  EXPECT_GT(A.Stats.ViabilityPruned, 0u);
}

TEST(SearchExtras, MaxStatesAbortsGracefully) {
  Machine M(MachineKind::Cmov, 4);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.UseViability = false;
  Opts.UseEraseCheck = false;
  Opts.MaxLength = 20;
  Opts.MaxStates = 5000;
  SearchResult R = synthesize(M, Opts);
  EXPECT_FALSE(R.Found);
  EXPECT_TRUE(R.Stats.TimedOut);
  EXPECT_TRUE(R.Stats.MemoryLimited);

  Opts.Layered = true;
  R = synthesize(M, Opts);
  EXPECT_FALSE(R.Found);
  EXPECT_TRUE(R.Stats.MemoryLimited);
}

TEST(SearchExtras, BestFirstFitsAByteBudgetEqualToItsPeak) {
  // MaxStateBytes aborts when the store EXCEEDS the budget, so a run
  // capped at its own unbounded peak holds every state it needs.
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::PermCount;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::mult(1.0);
  Opts.MaxLength = networkUpperBound(MachineKind::Cmov, 3);
  SearchResult Unbounded = synthesize(M, Opts);
  ASSERT_TRUE(Unbounded.Found);
  ASSERT_GT(Unbounded.Stats.PeakStateBytes, 0u);
  ASSERT_TRUE(Unbounded.Stats.LevelStates.empty()) << "best-first engine";

  Opts.MaxStateBytes = Unbounded.Stats.PeakStateBytes;
  SearchResult Capped = synthesize(M, Opts);
  EXPECT_FALSE(Capped.Stats.MemoryLimited);
  ASSERT_TRUE(Capped.Found);
  EXPECT_EQ(Capped.OptimalLength, 11u);
  EXPECT_EQ(Capped.Solutions.front(), Unbounded.Solutions.front());
  EXPECT_TRUE(isCorrectKernel(M, Capped.Solutions.front()));

  // Half the peak binds.
  Opts.MaxStateBytes = Unbounded.Stats.PeakStateBytes / 2;
  SearchResult Tight = synthesize(M, Opts);
  EXPECT_FALSE(Tight.Found);
  EXPECT_TRUE(Tight.Stats.MemoryLimited);
}

TEST(SearchExtras, TraceIsMonotoneInTime) {
  Machine M(MachineKind::Cmov, 4);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::mult(1.0);
  Opts.MaxLength = 20;
  Opts.MaxSolutionsKept = 0;
  Opts.TraceIntervalSeconds = 0.01;
  Opts.TimeoutSeconds = 300;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  ASSERT_FALSE(R.Trace.empty());
  for (size_t I = 1; I < R.Trace.size(); ++I)
    EXPECT_LE(R.Trace[I - 1].Seconds, R.Trace[I].Seconds);
  // The final trace point carries the final solution count.
  EXPECT_EQ(R.Trace.back().SolutionsFound, R.SolutionCount);
  EXPECT_GT(R.SolutionCount, 0u);
}

TEST(SearchExtras, SharedDistanceTableGivesIdenticalResults) {
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::PermCount;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::mult(1.0);
  Opts.MaxLength = 12;
  SearchResult Shared = synthesize(M, Opts, &DT);
  SearchResult Owned = synthesize(M, Opts);
  ASSERT_TRUE(Shared.Found && Owned.Found);
  EXPECT_EQ(Shared.OptimalLength, Owned.OptimalLength);
  EXPECT_EQ(Shared.Stats.StatesExpanded, Owned.Stats.StatesExpanded);
  EXPECT_EQ(Shared.Solutions.front(), Owned.Solutions.front())
      << "the search is deterministic";
}

TEST(SearchExtras, AdditiveCutBehaves) {
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.MaxLength = 11;
  Opts.MaxSolutionsKept = 0;
  Opts.Cut = CutConfig::add(100); // Effectively no cut.
  SearchResult Loose = synthesize(M, Opts);
  Opts.Cut = CutConfig::add(0); // Strictest additive cut.
  SearchResult Tight = synthesize(M, Opts);
  ASSERT_TRUE(Loose.Found);
  EXPECT_EQ(Loose.SolutionCount, 5602u);
  if (Tight.Found)
    EXPECT_LE(Tight.SolutionCount, Loose.SolutionCount);
}

TEST(SearchExtras, MinMaxLayeredCountsAreStable) {
  // Regression: the min/max machine's full n=3 solution count at the
  // optimal length 8 under this model.
  Machine M(MachineKind::MinMax, 3);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.MaxLength = 8;
  Opts.MaxSolutionsKept = 1 << 20;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_GT(R.SolutionCount, 0u);
  EXPECT_EQ(R.SolutionCount, R.Solutions.size());
  for (const Program &P : R.Solutions)
    ASSERT_TRUE(isCorrectKernel(M, P));
}

} // namespace

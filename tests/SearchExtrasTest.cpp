//===- tests/SearchExtrasTest.cpp - Engine knobs and instrumentation ---------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/Search.h"

#include "tables/DistanceTable.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>

using namespace sks;

namespace {

TEST(SearchExtras, EraseCheckPreservesSolutionCounts) {
  // Without the distance table the always-applicable half of section 3.3
  // runs instead: states that erased a value from every register are
  // pruned. Such states cannot reach a sorted state, so the n=2 count
  // stays at the 8 kernels SearchTest pins (a fully unpruned n=3 walk
  // needs more memory than a small host has; the n=3 count WITH the check
  // is pinned elsewhere).
  Machine M(MachineKind::Cmov, 2);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.MaxLength = 4;
  Opts.MaxSolutionsKept = 0;
  Opts.UseViability = false;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.SolutionCount, 8u);
  EXPECT_GT(R.Stats.ViabilityPruned, 0u) << "the check must actually prune";
}

TEST(SearchExtras, StopReasonNamesWhyEachEngineStopped) {
  // Configuration (III) at n=3 passes many budget checks before it finds
  // its kernel on either engine (best-first expands ~16k states, checking
  // every 512 pops), so each kind of stop lands first and must be named
  // for what it was.
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  for (bool Layered : {false, true}) {
    SCOPED_TRACE(Layered ? "layered" : "best-first");
    SearchOptions Opts = bestEnumConfig(MachineKind::Cmov, 3);
    Opts.Layered = Layered;

    SearchResult Done = synthesize(M, Opts, &DT);
    ASSERT_TRUE(Done.Found);
    EXPECT_EQ(Done.Stats.Stopped, StopReason::None);

    StopSource Source;
    Source.requestStop();
    Opts.Stop = Source.token();
    SearchResult Cancelled = synthesize(M, Opts, &DT);
    EXPECT_FALSE(Cancelled.Found);
    EXPECT_EQ(Cancelled.Stats.Stopped, StopReason::Cancelled);

    Opts.Stop = StopToken().withDeadline(1e-9);
    SearchResult Late = synthesize(M, Opts, &DT);
    EXPECT_FALSE(Late.Found);
    EXPECT_EQ(Late.Stats.Stopped, StopReason::Deadline);

    Opts.Stop = StopToken();
    Opts.MaxStateBytes = 1;
    SearchResult Full = synthesize(M, Opts, &DT);
    EXPECT_FALSE(Full.Found);
    EXPECT_EQ(Full.Stats.Stopped, StopReason::ByteBudget);
    EXPECT_GT(Full.Stats.PeakResidentBytes, Opts.MaxStateBytes)
        << "the peak holds the value the check refused";
  }
  EXPECT_STREQ(stopReasonName(StopReason::ByteBudget),
               "state-store budget exhausted");

  // A stopped proof is no proof; an unstopped one is.
  SearchResult Proof;
  StopSource Source;
  Source.requestStop();
  EXPECT_FALSE(proveNoKernelOfLength(M, 10, Proof, &DT, Source.token()));
  EXPECT_EQ(Proof.Stats.Stopped, StopReason::Cancelled);
  EXPECT_FALSE(proveNoKernelOfLength(M, 10, Proof, &DT,
                                     StopToken().withDeadline(1e-9)));
  EXPECT_EQ(Proof.Stats.Stopped, StopReason::Deadline);
  EXPECT_TRUE(proveNoKernelOfLength(M, 6, Proof, &DT));
  EXPECT_EQ(Proof.Stats.Stopped, StopReason::None);
}

/// MaxStateBytes stops a run when its resident count EXCEEDS the budget,
/// and neither engine's peak falls below a count its check compared — the
/// layered engine's includes its candidate batches and merge shards. So
/// configuration (III) capped at its own unbounded peak still finds the
/// length-11 kernel, and half that cap stops it on the byte budget.
void checkFitsItsPeak(bool Layered, unsigned NumThreads) {
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  SearchOptions Opts = bestEnumConfig(MachineKind::Cmov, 3);
  Opts.Layered = Layered;
  Opts.NumThreads = NumThreads;
  SearchResult Unbounded = synthesize(M, Opts, &DT);
  ASSERT_TRUE(Unbounded.Found);
  ASSERT_EQ(Unbounded.Stats.LevelStates.empty(), !Layered) << "engine";

  Opts.MaxStateBytes = Unbounded.Stats.PeakResidentBytes;
  SearchResult Capped = synthesize(M, Opts, &DT);
  EXPECT_EQ(Capped.Stats.Stopped, StopReason::None);
  ASSERT_TRUE(Capped.Found);
  EXPECT_EQ(Capped.OptimalLength, 11u);
  EXPECT_EQ(Capped.Solutions.front(), Unbounded.Solutions.front());
  EXPECT_TRUE(isCorrectKernel(M, Capped.Solutions.front()));

  Opts.MaxStateBytes = Unbounded.Stats.PeakResidentBytes / 2;
  SearchResult Tight = synthesize(M, Opts, &DT);
  EXPECT_FALSE(Tight.Found);
  EXPECT_EQ(Tight.Stats.Stopped, StopReason::ByteBudget);
}

TEST(SearchExtras, BestFirstFitsAByteBudgetEqualToItsPeak) {
  checkFitsItsPeak(/*Layered=*/false, 1);
}

TEST(SearchExtras, LayeredFitsAByteBudgetEqualToItsPeak) {
  checkFitsItsPeak(/*Layered=*/true, 1);
}

// Run by tsan_engine_equivalence: the budget check races the workers'
// published byte counts.
TEST(SearchExtras, LayeredFitsAByteBudgetEqualToItsPeakUnderThreads) {
  checkFitsItsPeak(/*Layered=*/true, 4);
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
  Opts.Stop = StopToken().withDeadline(300);
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
  SearchOptions Opts = bestEnumConfig(MachineKind::Cmov, 3);
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

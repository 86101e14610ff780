//===- tests/SearchTest.cpp - Enumerative synthesis tests ------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/Search.h"

#include "verify/Verify.h"

#include <gtest/gtest.h>

using namespace sks;

namespace {

TEST(Search, FindsOptimalKernelForN2) {
  Machine M(MachineKind::Cmov, 2);
  SearchOptions Opts = bestEnumConfig(MachineKind::Cmov, 2);
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 4u) << "section 2.2's n=2 kernel has length 4";
  EXPECT_TRUE(isCorrectKernel(M, R.Solutions.at(0)));
}

TEST(Search, FindsLength11KernelForN3) {
  Machine M(MachineKind::Cmov, 3);
  SearchResult R = synthesize(M, bestEnumConfig(MachineKind::Cmov, 3));
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 11u) << "paper: optimal size 11 for n=3";
  EXPECT_TRUE(isCorrectKernel(M, R.Solutions.at(0)));
}

TEST(Search, FindsLength20KernelForN4) {
  Machine M(MachineKind::Cmov, 4);
  SearchResult R = synthesize(M, bestEnumConfig(MachineKind::Cmov, 4));
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 20u) << "paper: optimal size 20 for n=4";
  EXPECT_TRUE(isCorrectKernel(M, R.Solutions.at(0)));
}

TEST(Search, MinMaxOptimalSizes) {
  // Section 5.4: synthesized min/max kernels have 8 / 15 instructions for
  // n = 3 / 4 (vs 9 / 15 for the network).
  for (auto [N, Expected] : {std::pair{3u, 8u}, {4u, 15u}}) {
    Machine M(MachineKind::MinMax, N);
    SearchResult R = synthesize(M, bestEnumConfig(MachineKind::MinMax, N));
    ASSERT_TRUE(R.Found) << "n=" << N;
    EXPECT_EQ(R.OptimalLength, Expected) << "n=" << N;
    EXPECT_TRUE(isCorrectKernel(M, R.Solutions.at(0)));
  }
}

TEST(Search, DijkstraLayeredFindsMinimalLengthN2) {
  Machine M(MachineKind::Cmov, 2);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.Layered = true;
  Opts.MaxLength = 8;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 4u);
}

TEST(Search, AllSolutionsCountN2) {
  Machine M(MachineKind::Cmov, 2);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.MaxLength = 4;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.SolutionCount, 8u);
  EXPECT_EQ(R.Solutions.size(), 8u);
  for (const Program &P : R.Solutions) {
    EXPECT_EQ(P.size(), 4u);
    EXPECT_TRUE(isCorrectKernel(M, P));
  }
}

TEST(Search, AllSolutionsCountN3Is5602) {
  // The paper's headline enumeration result: 5602 optimal kernels of
  // length 11 for n=3 (Figure 2 / section 5.1).
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.UseViability = true;
  Opts.MaxLength = 11;
  Opts.MaxSolutionsKept = 0; // Count only.
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 11u);
  EXPECT_EQ(R.SolutionCount, 5602u);
}

TEST(Search, CutsShrinkTheSolutionSpaceMonotonically) {
  // Figure 2: k=2 preserves all 5602 solutions; k=1.5 and k=1 cut further.
  Machine M(MachineKind::Cmov, 3);
  auto CountWithCut = [&](CutConfig Cut) {
    SearchOptions Opts;
    Opts.Heuristic = HeuristicKind::None;
    Opts.FindAll = true;
    Opts.MaxLength = 11;
    Opts.MaxSolutionsKept = 0;
    Opts.Cut = Cut;
    SearchResult R = synthesize(M, Opts);
    return R.Found ? R.SolutionCount : 0;
  };
  uint64_t All = CountWithCut(CutConfig::none());
  uint64_t K2 = CountWithCut(CutConfig::mult(2.0));
  uint64_t K15 = CountWithCut(CutConfig::mult(1.5));
  uint64_t K1 = CountWithCut(CutConfig::mult(1.0));
  EXPECT_EQ(All, 5602u);
  EXPECT_GT(K2, 0u);
  EXPECT_LE(K15, K2);
  EXPECT_LE(K1, K15);
  EXPECT_GT(K1, 0u);
}

TEST(Search, ProveNoShorterKernelN2) {
  Machine M(MachineKind::Cmov, 2);
  SearchResult R;
  EXPECT_TRUE(proveNoKernelOfLength(M, 3, R));
  EXPECT_FALSE(R.Found);
}

TEST(Search, ProveNoLength10KernelN3) {
  // Half of the optimality certificate for n=3 (the paper validates
  // AlphaDev's minimality claim this way).
  Machine M(MachineKind::Cmov, 3);
  SearchResult R;
  EXPECT_TRUE(proveNoKernelOfLength(M, 10, R));
}

TEST(Search, ProofFailsWhenKernelExists) {
  Machine M(MachineKind::Cmov, 2);
  SearchResult R;
  EXPECT_FALSE(proveNoKernelOfLength(M, 4, R));
  EXPECT_TRUE(R.Found);
}

TEST(Search, SolutionsRespectMaxSolutionsKept) {
  Machine M(MachineKind::Cmov, 2);
  SearchOptions Opts;
  Opts.FindAll = true;
  Opts.MaxLength = 4;
  Opts.MaxSolutionsKept = 3;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.SolutionCount, 8u) << "count stays exact";
  EXPECT_EQ(R.Solutions.size(), 3u) << "reconstruction capped";
}

TEST(Search, TimeoutIsReported) {
  Machine M(MachineKind::Cmov, 4);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None; // Slow on purpose.
  Opts.MaxLength = 20;
  Opts.UseViability = false;
  Opts.Stop = StopToken().withDeadline(0.2);
  SearchResult R = synthesize(M, Opts);
  EXPECT_FALSE(R.Found);
  EXPECT_EQ(R.Stats.Stopped, StopReason::Deadline);
}

TEST(Search, ParallelLayeredAgreesWithSequential) {
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts;
  Opts.FindAll = true;
  Opts.MaxLength = 11;
  Opts.MaxSolutionsKept = 0;
  SearchResult Sequential = synthesize(M, Opts);
  Opts.NumThreads = 4;
  SearchResult Parallel = synthesize(M, Opts);
  ASSERT_TRUE(Sequential.Found);
  ASSERT_TRUE(Parallel.Found);
  EXPECT_EQ(Parallel.OptimalLength, Sequential.OptimalLength);
  EXPECT_EQ(Parallel.SolutionCount, Sequential.SolutionCount);
}

TEST(Search, ThreadsSelectTheLayeredEngine) {
  // Only the layered engine runs on threads, so NumThreads > 1 alone
  // selects it: callers never set Layered for it. LevelStates is a
  // layered-engine counter, empty after best-first.
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts = bestEnumConfig(MachineKind::Cmov, 3);
  SearchResult BestFirst = synthesize(M, Opts);
  ASSERT_TRUE(BestFirst.Found);
  EXPECT_TRUE(BestFirst.Stats.LevelStates.empty());

  Opts.NumThreads = 4;
  SearchResult Threads = synthesize(M, Opts);
  ASSERT_TRUE(Threads.Found);
  EXPECT_EQ(Threads.OptimalLength, 11u);
  EXPECT_FALSE(Threads.Stats.LevelStates.empty());
}

TEST(Search, NetworkUpperBoundsMatchKnownNetworks) {
  EXPECT_EQ(networkUpperBound(MachineKind::Cmov, 3), 12u);
  EXPECT_EQ(networkUpperBound(MachineKind::Cmov, 4), 20u);
  EXPECT_EQ(networkUpperBound(MachineKind::Cmov, 5), 36u);
  EXPECT_EQ(networkUpperBound(MachineKind::MinMax, 3), 9u);
  EXPECT_EQ(networkUpperBound(MachineKind::MinMax, 4), 15u);
  EXPECT_EQ(networkUpperBound(MachineKind::MinMax, 5), 27u);
}

TEST(Search, EveryHeuristicFindsACorrectKernelN3) {
  // With the viability check off, NeededInstrs is the only reader of the
  // distance table, and synthesize() must still build it.
  Machine M(MachineKind::Cmov, 3);
  for (HeuristicKind H :
       {HeuristicKind::PermCount, HeuristicKind::AssignCount,
        HeuristicKind::NeededInstrs})
    for (bool Viability : {true, false}) {
      SearchOptions Opts;
      Opts.Heuristic = H;
      Opts.UseViability = Viability;
      Opts.MaxLength = 12;
      SearchResult R = synthesize(M, Opts);
      ASSERT_TRUE(R.Found) << static_cast<int>(H) << " viability "
                           << Viability;
      EXPECT_TRUE(isCorrectKernel(M, R.Solutions.at(0)));
      EXPECT_LE(R.OptimalLength, 12u);
    }
}

TEST(Search, EnumerateCountersArePinned) {
  // perfbench's enumerate configuration. The viability verdict runs before
  // apply, on the successor fold; it must prune exactly the children whose
  // rows would fail the check, so every counter keeps its value.
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.MaxLength = 11;
  Opts.NumThreads = 2;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.SolutionCount, 5602u);
  EXPECT_EQ(R.Stats.StatesExpanded, 498046u);
  EXPECT_EQ(R.Stats.StatesGenerated, 17651375u);
  EXPECT_EQ(R.Stats.ViabilityPruned, 15806523u);
  EXPECT_EQ(R.Stats.DedupHits, 1346789u);
  EXPECT_EQ(R.Stats.CutStates, 0u);
}

TEST(Search, FirstN4CountersArePinned) {
  // Configuration (III) at n = 4, the enum backend's `first`: the same
  // kernel length after the same search, counter for counter.
  Machine M(MachineKind::Cmov, 4);
  SearchResult R = synthesize(M, bestEnumConfig(MachineKind::Cmov, 4));
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 20u);
  EXPECT_EQ(R.Stats.StatesExpanded, 71867u);
  EXPECT_EQ(R.Stats.StatesGenerated, 3976590u);
  EXPECT_EQ(R.Stats.ViabilityPruned, 2863055u);
  EXPECT_EQ(R.Stats.CutStates, 904945u);
  EXPECT_EQ(R.Stats.DedupHits, 137077u);

  // Select-2 at n = 4 has no successor block: its verdict still runs after
  // apply and keeps the same counters.
  Machine Select2(MachineKind::Cmov, 4, 1, GoalSpec::selectK(2));
  ASSERT_FALSE(DistanceTable(Select2).hasSuccessors());
  R = synthesize(Select2, bestEnumConfig(MachineKind::Cmov, 4));
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 15u);
  EXPECT_EQ(R.Stats.StatesExpanded, 2856u);
  EXPECT_EQ(R.Stats.StatesGenerated, 163881u);
  EXPECT_EQ(R.Stats.ViabilityPruned, 51876u);
  EXPECT_EQ(R.Stats.CutStates, 70647u);
  EXPECT_EQ(R.Stats.DedupHits, 25983u);
}

TEST(Search, ActionFilterPreservesOptimumUnderLengthBound) {
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts = bestEnumConfig(MachineKind::Cmov, 3);
  Opts.UseActionFilter = true;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 11u);
  EXPECT_GT(R.Stats.ActionsFiltered, 0u);
}

} // namespace

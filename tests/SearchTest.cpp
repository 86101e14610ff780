//===- tests/SearchTest.cpp - Enumerative synthesis tests ------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/Search.h"

#include "support/Hashing.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>
#include <string>

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
  EXPECT_EQ(R.Stats.SyntacticPruned, 3266557u);
}

/// An order-sensitive checksum of a solution list: FNV-1a over each
/// program's length and instruction encodings, in list order.
uint64_t solutionChecksum(const std::vector<Program> &Solutions) {
  std::string Bytes;
  for (const Program &P : Solutions) {
    Bytes.push_back(static_cast<char>(P.size()));
    for (const Instr &I : P) {
      const uint16_t E = I.encode();
      Bytes.push_back(static_cast<char>(E & 0xff));
      Bytes.push_back(static_cast<char>(E >> 8));
    }
  }
  return hashBytes(Bytes.data(), Bytes.size());
}

TEST(Search, SolutionOrderIsPinned) {
  // perfbench's enumerate configuration. The layered engine reconstructs
  // kernels by walking each sorted node's parent edges in the order the
  // merge met them; a set comparison would not see a change of that
  // order, so the whole list is pinned at one and four threads, and so
  // is the prefix that MaxSolutionsKept keeps.
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.MaxLength = 11;
  std::vector<Program> First;
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << Threads);
    Opts.NumThreads = Threads;
    SearchResult R = synthesize(M, Opts);
    ASSERT_EQ(R.Solutions.size(), 5602u);
    EXPECT_EQ(solutionChecksum(R.Solutions), 0x3a8f1eb7f3b0c6ebull);
    First.assign(R.Solutions.begin(), R.Solutions.begin() + 100);
  }
  Opts.MaxSolutionsKept = 100;
  SearchResult R = synthesize(M, Opts);
  ASSERT_EQ(R.Solutions.size(), 100u);
  EXPECT_EQ(R.Solutions, First);
  EXPECT_EQ(solutionChecksum(R.Solutions), 0xd644df6e343da5b5ull);
}

TEST(Search, LayeredFirstKernelIsPinned) {
  // Configuration (III) through the layered engine without FindAll: the
  // run reconstructs one kernel from each level's one stored edge per
  // node, the first edge the merge met. SolutionOrderIsPinned covers the
  // FindAll edges only, so this kernel is pinned as text.
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts = bestEnumConfig(MachineKind::Cmov, 3);
  Opts.Layered = true;
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << Threads);
    Opts.NumThreads = Threads;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found);
    ASSERT_EQ(R.Solutions.size(), 1u);
    EXPECT_EQ(toString(R.Solutions.front(), 3),
              "cmp r1 r2\nmov s1 r1\ncmovg r1 r2\ncmovg r2 s1\n"
              "cmp r2 r3\ncmovg s1 r3\ncmovg r3 r2\ncmp r1 s1\n"
              "cmovl r2 s1\ncmovg r2 r1\ncmovg r1 s1\n");
  }
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
  EXPECT_EQ(R.Stats.SyntacticPruned, 1054100u);

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
  EXPECT_EQ(R.Stats.SyntacticPruned, 36039u);
}

TEST(Search, FirstCutCountersArePinned) {
  // Configuration (III) on more of the best-first engine's cut paths: the
  // sort goal on both machines and a partial goal, whose bounds need the
  // goal's collapse. Each machine has a successor block, so the cut runs
  // before apply; every counter keeps its value.
  struct Pin {
    MachineKind Kind;
    unsigned N;
    GoalSpec Goal;
    unsigned Length;
    size_t Expanded, Generated, Pruned, Cut, Dedup, Refused;
  };
  const Pin Pins[] = {
      {MachineKind::Cmov, 3, GoalSpec::sort(), 11, 16417, 556584, 345565,
       145223, 49057, 132930},
      {MachineKind::Cmov, 3, GoalSpec::selectK(2), 8, 551, 19022, 9399, 1158,
       4635, 4120},
      {MachineKind::MinMax, 4, GoalSpec::sort(), 15, 2896, 129302, 96155,
       19954, 10262, 44458},
  };
  for (const Pin &P : Pins) {
    Machine M(P.Kind, P.N, 1, P.Goal);
    SCOPED_TRACE(testing::Message() << "kind=" << static_cast<int>(P.Kind)
                                    << " n=" << P.N
                                    << " goal=" << P.Goal.name());
    ASSERT_TRUE(DistanceTable(M).hasSuccessors());
    SearchResult R = synthesize(M, bestEnumConfig(P.Kind, P.N));
    ASSERT_TRUE(R.Found);
    EXPECT_EQ(R.OptimalLength, P.Length);
    EXPECT_EQ(R.Stats.StatesExpanded, P.Expanded);
    EXPECT_EQ(R.Stats.StatesGenerated, P.Generated);
    EXPECT_EQ(R.Stats.ViabilityPruned, P.Pruned);
    EXPECT_EQ(R.Stats.CutStates, P.Cut);
    EXPECT_EQ(R.Stats.DedupHits, P.Dedup);
    EXPECT_EQ(R.Stats.SyntacticPruned, P.Refused);
  }
}

TEST(Search, LayeredCutCountersArePinned) {
  // The layered engine's cut path: the n = 3 kernels that section 3.5's
  // k = 1 keeps at the tightest bound. The threshold is fixed while a
  // level expands, so any thread count reads the same counters.
  Machine M(MachineKind::Cmov, 3);
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << Threads);
    SearchOptions Opts;
    Opts.Heuristic = HeuristicKind::None;
    Opts.FindAll = true;
    Opts.MaxLength = 11;
    Opts.Cut = CutConfig::mult(1.0);
    Opts.NumThreads = Threads;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found);
    EXPECT_EQ(R.SolutionCount, 234u);
    EXPECT_EQ(R.Stats.StatesExpanded, 13678u);
    EXPECT_EQ(R.Stats.StatesGenerated, 478290u);
    EXPECT_EQ(R.Stats.ViabilityPruned, 392107u);
    EXPECT_EQ(R.Stats.CutStates, 31681u);
    EXPECT_EQ(R.Stats.DedupHits, 40812u);
    EXPECT_EQ(R.Stats.SyntacticPruned, 96186u);
    EXPECT_EQ(R.Stats.LevelStates,
              (std::vector<size_t>{1, 7, 36, 225, 1213, 162, 682, 2887, 8300,
                                   145, 20, 13}));
  }
}

TEST(Search, FilterCountersArePinned) {
  // Configuration (III) with the section 3.2 action filter: its marks are
  // the base set the gate, the verdict and the cut pick from. Cmov n = 3
  // reads them off the successor block; min/max n = 5 has none, so the
  // fold applies every instruction to get them.
  struct Pin {
    MachineKind Kind;
    unsigned N;
    bool Block;
    unsigned Length;
    size_t Expanded, Generated, Pruned, Cut, Dedup, Filtered, Refused;
  };
  const Pin Pins[] = {
      {MachineKind::Cmov, 3, true, 11, 3102, 24501, 7505, 10590, 3207, 94962,
       10821},
      {MachineKind::MinMax, 5, false, 25, 286, 2412, 968, 270, 425, 22438,
       890},
  };
  for (const Pin &P : Pins) {
    Machine M(P.Kind, P.N);
    SCOPED_TRACE(testing::Message()
                 << "kind=" << static_cast<int>(P.Kind) << " n=" << P.N);
    ASSERT_EQ(DistanceTable(M).hasSuccessors(), P.Block);
    SearchOptions Opts = bestEnumConfig(P.Kind, P.N);
    Opts.UseActionFilter = true;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found);
    EXPECT_EQ(R.OptimalLength, P.Length);
    EXPECT_EQ(R.Stats.StatesExpanded, P.Expanded);
    EXPECT_EQ(R.Stats.StatesGenerated, P.Generated);
    EXPECT_EQ(R.Stats.ViabilityPruned, P.Pruned);
    EXPECT_EQ(R.Stats.CutStates, P.Cut);
    EXPECT_EQ(R.Stats.DedupHits, P.Dedup);
    EXPECT_EQ(R.Stats.ActionsFiltered, P.Filtered);
    EXPECT_EQ(R.Stats.SyntacticPruned, P.Refused);
  }
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

TEST(Search, ActionFilterLeavesPartialGoalsSolvable) {
  // On select-2 no single assignment's optimal completion moves a value
  // into the scratch register, so the per-assignment marks would refuse
  // every move a compare-exchange needs and exhaust the bound. The filter
  // applies to the sort goal only, and these runs find the optimum.
  const std::pair<unsigned, unsigned> Optimum[] = {{3, 8}, {4, 15}};
  for (const auto &[N, Length] : Optimum) {
    Machine M(MachineKind::Cmov, N, 1, GoalSpec::selectK(2));
    SearchOptions Opts = bestEnumConfig(MachineKind::Cmov, N);
    Opts.UseActionFilter = true;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found) << "n=" << N;
    EXPECT_EQ(R.OptimalLength, Length) << "n=" << N;
    EXPECT_TRUE(isCorrectKernel(M, R.Solutions.at(0))) << "n=" << N;
  }
}

} // namespace

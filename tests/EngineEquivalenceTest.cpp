//===- tests/EngineEquivalenceTest.cpp - Execution-mode equivalence --------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The layered engine expands each level with one node-major loop over
// static worker ranges, so one thread and four threads must be
// semantically indistinguishable: the sharded merge (state/StateStore.h)
// folds per-shard sums and mins, both order-independent, so the solution
// DAG, the exact solution count, and the reconstructed kernel set are
// identical for any thread count. These tests pin that equivalence on the
// full n=3 all-solutions experiment (5602 optimal kernels) and on the
// min/max machine.
//
//===----------------------------------------------------------------------===//

#include "isa/Instr.h"
#include "search/Search.h"
#include "tables/DistanceTable.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>

using namespace sks;

namespace {

struct Mode {
  const char *Name;
  unsigned NumThreads;
};

constexpr Mode kModes[] = {
    {"sequential", 1},
    {"threads4", 4},
};

SearchOptions findAllConfig(MachineKind Kind, unsigned N, const Mode &Mo) {
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::PermCount;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::none();
  Opts.FindAll = true;
  Opts.MaxLength = networkUpperBound(Kind, N);
  Opts.NumThreads = Mo.NumThreads;
  return Opts;
}

std::set<std::string> solutionSet(const Machine &M, const SearchResult &R) {
  std::set<std::string> Set;
  for (const Program &P : R.Solutions)
    Set.insert(toString(P, M.numData()));
  return Set;
}

TEST(EngineEquivalence, CmovN3AllModesAgreeOn5602Solutions) {
  Machine M(MachineKind::Cmov, 3);
  std::set<std::string> Reference;
  for (const Mode &Mo : kModes) {
    SearchResult R = synthesize(M, findAllConfig(MachineKind::Cmov, 3, Mo));
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 11u) << Mo.Name;
    EXPECT_EQ(R.SolutionCount, 5602u)
        << Mo.Name << ": paper section 5.3's exact count";
    EXPECT_EQ(R.Solutions.size(), 5602u) << Mo.Name;
    EXPECT_GT(R.Stats.PeakStateBytes, 0u) << Mo.Name;
    std::set<std::string> Set = solutionSet(M, R);
    EXPECT_EQ(Set.size(), 5602u) << Mo.Name << ": solutions are distinct";
    if (Reference.empty())
      Reference = std::move(Set);
    else
      EXPECT_EQ(Set, Reference)
          << Mo.Name << ": reconstructed kernel set differs from sequential";
  }
}

TEST(EngineEquivalence, MinMaxN3AllModesAgree) {
  Machine M(MachineKind::MinMax, 3);
  std::set<std::string> Reference;
  uint64_t ReferenceCount = 0;
  for (const Mode &Mo : kModes) {
    SearchResult R = synthesize(M, findAllConfig(MachineKind::MinMax, 3, Mo));
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 8u)
        << Mo.Name << ": paper section 5.4's min/max n=3 length";
    EXPECT_EQ(R.Solutions.size(), R.SolutionCount) << Mo.Name;
    std::set<std::string> Set = solutionSet(M, R);
    EXPECT_EQ(Set.size(), R.SolutionCount) << Mo.Name;
    if (Reference.empty()) {
      Reference = std::move(Set);
      ReferenceCount = R.SolutionCount;
    } else {
      EXPECT_EQ(R.SolutionCount, ReferenceCount) << Mo.Name;
      EXPECT_EQ(Set, Reference) << Mo.Name;
    }
  }
}

TEST(EngineEquivalence, ProfiledRunMatchesAndFillsStageCounters) {
  // ProfilePipeline only adds timing; the search must be bit-identical.
  // Run the full 5602-solution config with the profile on (parallel, so
  // the worker-stat fold of the nano counters is exercised too) and check
  // both the pinned results and that every stage actually accumulated.
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, kModes[1]);
  Opts.ProfilePipeline = true;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 11u);
  EXPECT_EQ(R.SolutionCount, 5602u);
  EXPECT_EQ(solutionSet(M, R).size(), 5602u);
  EXPECT_GT(R.Stats.ApplyNanos, 0u);
  EXPECT_GT(R.Stats.CanonNanos, 0u);
  EXPECT_GT(R.Stats.ViabilityNanos, 0u);
  EXPECT_GT(R.Stats.MergeNanos, 0u);

  // And with the profile off (the default), the counters stay zero.
  SearchResult Off =
      synthesize(M, findAllConfig(MachineKind::Cmov, 3, kModes[1]));
  EXPECT_EQ(Off.Stats.ApplyNanos, 0u);
  EXPECT_EQ(Off.Stats.CanonNanos, 0u);
  EXPECT_EQ(Off.Stats.ViabilityNanos, 0u);
  EXPECT_EQ(Off.Stats.MergeNanos, 0u);
}

TEST(EngineEquivalence, StatsAgreeAcrossThreadCounts) {
  // The expansion is one loop over static worker ranges and the merge is
  // deterministic, so every counter the worker folds carry — not just the
  // results — must match between one and four threads. Every gate with a
  // counter is on (action filter, viability, cut, the dead-instruction
  // gate), so no comparison is a vacuous 0 == 0.
  Machine M(MachineKind::Cmov, 3);
  const std::pair<const char *, size_t SearchStats::*> Counters[] = {
      {"StatesExpanded", &SearchStats::StatesExpanded},
      {"StatesGenerated", &SearchStats::StatesGenerated},
      {"DedupHits", &SearchStats::DedupHits},
      {"ViabilityPruned", &SearchStats::ViabilityPruned},
      {"CutStates", &SearchStats::CutStates},
      {"ActionsFiltered", &SearchStats::ActionsFiltered},
      {"SyntacticPruned", &SearchStats::SyntacticPruned},
  };
  auto Run = [&](const Mode &Mo) {
    SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
    Opts.UseActionFilter = true;
    Opts.Cut = CutConfig::mult(1.0);
    return synthesize(M, Opts);
  };
  SearchResult Seq = Run(kModes[0]);
  SearchResult Par = Run(kModes[1]);
  ASSERT_TRUE(Seq.Found);
  ASSERT_TRUE(Par.Found);
  for (const auto &[Name, Field] : Counters) {
    EXPECT_GT(Seq.Stats.*Field, 0u) << Name;
    EXPECT_EQ(Seq.Stats.*Field, Par.Stats.*Field) << Name;
  }
  EXPECT_FALSE(Seq.Stats.LevelStates.empty());
  EXPECT_EQ(Seq.Stats.LevelStates, Par.Stats.LevelStates);
}

/// A layered run that the byte budget stops in the middle of a level
/// expansion. The cap comes from measured runs: a capped run stops at the
/// first budget check whose resident count exceeds the cap, and its peak
/// holds that count, so capping the next run at that peak moves the stop
/// past that check. Walking the cap up this way reaches a stop inside an
/// expansion: every committed level but the last was then expanded in
/// full and the last one only in part, so StatesExpanded must lie
/// strictly between the state sums without and with the last level —
/// each worker counts the nodes it actually expanded. Every stop on the
/// way must keep StatesExpanded within those sums.
void checkMidLevelAbort(unsigned NumThreads) {
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  SearchOptions Opts =
      findAllConfig(MachineKind::Cmov, 3, Mode{"abort", NumThreads});
  Opts.MaxStateBytes = 1;
  for (;;) {
    SearchResult R = synthesize(M, Opts, &DT);
    ASSERT_FALSE(R.Found) << "no cap stopped an expansion part-way";
    ASSERT_EQ(R.Stats.Stopped, StopReason::ByteBudget);
    ASSERT_GT(R.Stats.PeakStateBytes, Opts.MaxStateBytes);
    ASSERT_FALSE(R.Stats.LevelStates.empty());
    size_t Before = 0;
    for (size_t L = 0; L + 1 != R.Stats.LevelStates.size(); ++L)
      Before += R.Stats.LevelStates[L];
    const size_t All = Before + R.Stats.LevelStates.back();
    ASSERT_GE(R.Stats.StatesExpanded, Before);
    ASSERT_LE(R.Stats.StatesExpanded, All);
    // A merge stop after a slice that is not its level's last lies
    // between the sums too; only an expansion stop ends the walk.
    if (R.Stats.StoppedIn == StopPhase::Expand &&
        R.Stats.StatesExpanded > Before && R.Stats.StatesExpanded < All)
      return;
    Opts.MaxStateBytes = R.Stats.PeakStateBytes;
  }
}

TEST(EngineEquivalence, MidLevelAbortCountsExpandedNodes) {
  checkMidLevelAbort(1);
}

// The tsan_engine_equivalence ctest entry runs this one: an abort while
// the other workers are still expanding is where a race would hide.
TEST(EngineEquivalence, MidLevelAbortCountsExpandedNodesUnderThreads) {
  checkMidLevelAbort(4);
}

/// perfbench's enumerate configuration at one or four threads: the
/// paper's 5602 kernels at the tightest bound, with no heuristic.
SearchOptions enumerateConfig(unsigned NumThreads) {
  SearchOptions Opts =
      findAllConfig(MachineKind::Cmov, 3, Mode{"enumerate", NumThreads});
  Opts.Heuristic = HeuristicKind::None;
  Opts.MaxLength = 11;
  Opts.MaxSolutionsKept = 0;
  return Opts;
}

/// The per-level state counts of enumerateConfig, at any thread count.
const std::vector<size_t> kLevelsAtBound11 = {
    1, 7, 36, 225, 1213, 6432, 26828, 110995, 326809, 24745, 755, 18};

/// Layered runs that the byte budget stops inside a level's merge. Merge
/// phase 1 inserts each new node into the committed index's shard as it
/// goes, so a stop there leaves index entries of a level that never
/// commits. Walking the cap up as in checkMidLevelAbort visits the budget
/// checks in the order a run passes them, through the commit of level 7.
/// Level 6's 26,828 nodes span more than one slice, so the walk stops the
/// merge into level 7 inside phase 1 of its first slice and of a later
/// one, whose shards already hold the states the earlier slices merged
/// and whose merge workers take over shard buffers another worker grew.
/// (With slices of 26,828 nodes or more the walk cannot find those
/// stops.)
/// Every stop on the way must name the byte budget and the check that
/// fired, report a peak above its cap and list only committed levels; the
/// walk ends at the first phase-1 stop in a later slice.
void checkMergeAbort(unsigned NumThreads) {
  constexpr size_t kMergedLevel = 7;
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  SearchOptions Opts = enumerateConfig(NumThreads);
  Opts.MaxStateBytes = 1;
  size_t MergeStops = 0, LaterSliceStops = 0;
  // Level 6's nodes expanded at the merge stop that expanded the fewest.
  size_t FirstSliceEnd = SIZE_MAX;
  for (;;) {
    SearchResult R = synthesize(M, Opts, &DT);
    ASSERT_FALSE(R.Found);
    ASSERT_EQ(R.Stats.Stopped, StopReason::ByteBudget);
    ASSERT_NE(R.Stats.StoppedIn, StopPhase::None);
    ASSERT_GT(R.Stats.PeakStateBytes, Opts.MaxStateBytes);
    const std::vector<size_t> &Levels = R.Stats.LevelStates;
    ASSERT_TRUE(Levels.size() < kLevelsAtBound11.size() &&
                std::equal(Levels.begin(), Levels.end(),
                           kLevelsAtBound11.begin()))
        << "a level that did not commit is listed";
    if (Levels.size() > kMergedLevel)
      break;
    Opts.MaxStateBytes = R.Stats.PeakStateBytes;
    const bool InMerge = R.Stats.StoppedIn == StopPhase::MergeCheck ||
                         R.Stats.StoppedIn == StopPhase::Merge;
    if (Levels.size() != kMergedLevel || !InMerge)
      continue;
    // A merge runs after its slice's expansion, so the level's expanded
    // nodes end that slice: more than at a stop in an earlier slice.
    const size_t Expanded =
        R.Stats.StatesExpanded -
        std::accumulate(Levels.begin(), Levels.end() - 1, size_t{0});
    ASSERT_GT(Expanded, 0u);
    ASSERT_LE(Expanded, Levels.back());
    FirstSliceEnd = std::min(FirstSliceEnd, Expanded);
    if (R.Stats.StoppedIn != StopPhase::Merge)
      continue;
    ++MergeStops;
    LaterSliceStops += Expanded > FirstSliceEnd;
    if (MergeStops >= 2 && LaterSliceStops >= 1)
      break;
  }
  EXPECT_GE(MergeStops, 2u) << "fewer than two stops inside merge phase 1";
  EXPECT_GE(LaterSliceStops, 1u)
      << "no stop inside a later slice's merge phase 1";
}

TEST(EngineEquivalence, ByteBudgetStopsAMerge) { checkMergeAbort(1); }

// The tsan_engine_equivalence ctest entry runs this one: the merge's
// workers insert into the shared store's index shards.
TEST(EngineEquivalence, ByteBudgetStopsAMergeUnderThreads) {
  checkMergeAbort(4);
}

TEST(EngineEquivalence, AllSolutionsFitAByteBudgetEqualToTheirPeak) {
  // The full n=3 enumeration, capped at its own peak, still counts the
  // paper's 5602 kernels. Every value the peak records is one a budget
  // check compared, the commit's included, so one byte less stops it.
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  for (const Mode &Mo : kModes) {
    SearchOptions Opts = enumerateConfig(Mo.NumThreads);
    SearchResult Unbounded = synthesize(M, Opts, &DT);
    ASSERT_TRUE(Unbounded.Found) << Mo.Name;
    Opts.MaxStateBytes = Unbounded.Stats.PeakStateBytes;
    SearchResult Capped = synthesize(M, Opts, &DT);
    EXPECT_EQ(Capped.Stats.Stopped, StopReason::None) << Mo.Name;
    ASSERT_TRUE(Capped.Found) << Mo.Name;
    EXPECT_EQ(Capped.SolutionCount, 5602u) << Mo.Name;
    EXPECT_EQ(Capped.Stats.LevelStates, Unbounded.Stats.LevelStates)
        << Mo.Name;
    Opts.MaxStateBytes = Unbounded.Stats.PeakStateBytes - 1;
    SearchResult Over = synthesize(M, Opts, &DT);
    EXPECT_FALSE(Over.Found) << Mo.Name << ": completed over its cap";
    EXPECT_EQ(Over.Stats.Stopped, StopReason::ByteBudget) << Mo.Name;
  }
}

TEST(EngineEquivalence, EnumerationFitsIn128MiB) {
  // perfbench enumerate's search under a 128 MiB byte budget. A level is
  // expanded and merged one slice of parent nodes at a time, so the level
  // in flight holds one slice's candidates; holding a whole level's
  // (level 7 expands into 1,268,323 candidates) does not fit.
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  for (unsigned Threads : {1u, 2u, 4u}) {
    SearchOptions Opts = enumerateConfig(Threads);
    Opts.MaxStateBytes = size_t{128} << 20;
    SearchResult R = synthesize(M, Opts, &DT);
    EXPECT_EQ(R.Stats.Stopped, StopReason::None) << Threads << " threads";
    ASSERT_TRUE(R.Found) << Threads << " threads";
    EXPECT_EQ(R.SolutionCount, 5602u) << Threads << " threads";
    EXPECT_EQ(R.Stats.LevelStates, kLevelsAtBound11) << Threads << " threads";
    EXPECT_LE(R.Stats.PeakStateBytes, Opts.MaxStateBytes)
        << Threads << " threads";
  }
}

TEST(EngineEquivalence, EnumerationFitsIn80MiB) {
  // The same search under 80 MiB. A level commits in place: it keeps the
  // shard buffers its merge filled instead of copying them into arrays of
  // its own, so no level is resident twice at its commit, and the next
  // level's merge starts from empty buffers.
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  for (unsigned Threads : {1u, 2u, 4u}) {
    SearchOptions Opts = enumerateConfig(Threads);
    Opts.MaxStateBytes = size_t{80} << 20;
    SearchResult R = synthesize(M, Opts, &DT);
    EXPECT_EQ(R.Stats.Stopped, StopReason::None) << Threads << " threads";
    ASSERT_TRUE(R.Found) << Threads << " threads";
    EXPECT_EQ(R.SolutionCount, 5602u) << Threads << " threads";
    EXPECT_EQ(R.Stats.LevelStates, kLevelsAtBound11) << Threads << " threads";
    EXPECT_LE(R.Stats.PeakStateBytes, Opts.MaxStateBytes)
        << Threads << " threads";
  }
}

TEST(EngineEquivalence, EnumerationFitsIn52MiB) {
  // The same search under 52 MiB, the tightest whole MiB it fits at one,
  // two and four threads. A state keeps only the bytes it uses: an index
  // slot is 8 bytes, a DAG node 24, and a shard's nodes, rows and edges
  // grow in fixed-size chunks, so no committed level keeps doubling slack.
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  for (unsigned Threads : {1u, 2u, 4u}) {
    SearchOptions Opts = enumerateConfig(Threads);
    Opts.MaxStateBytes = size_t{52} << 20;
    SearchResult R = synthesize(M, Opts, &DT);
    EXPECT_EQ(R.Stats.Stopped, StopReason::None) << Threads << " threads";
    ASSERT_TRUE(R.Found) << Threads << " threads";
    EXPECT_EQ(R.SolutionCount, 5602u) << Threads << " threads";
    EXPECT_EQ(R.Stats.LevelStates, kLevelsAtBound11) << Threads << " threads";
    EXPECT_LE(R.Stats.PeakStateBytes, Opts.MaxStateBytes)
        << Threads << " threads";
  }
}

TEST(EngineEquivalence, CmovN3LevelCountsAtBound11) {
  // sks-synth --all --max-length 11: the paper's 5602 kernels with the
  // tightest bound, whose per-level state counts are pinned exactly for
  // one and four threads.
  Machine M(MachineKind::Cmov, 3);
  for (const Mode &Mo : kModes) {
    SearchResult R = synthesize(M, enumerateConfig(Mo.NumThreads));
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 11u) << Mo.Name;
    EXPECT_EQ(R.SolutionCount, 5602u) << Mo.Name;
    EXPECT_EQ(R.Stats.LevelStates, kLevelsAtBound11) << Mo.Name;
  }
}

TEST(EngineEquivalence, GoalSolutionSetsAreModeInvariant) {
  // The goal-predicate generalization under every execution mode: the
  // select-1 (minimum) and top-1 (maximum) all-solutions runs at n=3 each
  // have
  // exactly 4 optimal kernels of length 4 (measured; two compare orders
  // times two cmov argument orders), and the reconstructed sets must be
  // identical at one and four threads. This is the non-sort analogue of
  // the 5602-kernel pin above.
  struct GoalCase {
    GoalSpec Goal;
    const char *Name;
  };
  const GoalCase Cases[] = {
      {GoalSpec::selectK(1), "select-1"},
      {GoalSpec::topK(1), "top-1"},
  };
  for (const GoalCase &C : Cases) {
    Machine M(MachineKind::Cmov, 3, /*Scratch=*/1, C.Goal);
    std::set<std::string> Reference;
    for (const Mode &Mo : kModes) {
      SearchResult R = synthesize(M, findAllConfig(MachineKind::Cmov, 3, Mo));
      ASSERT_TRUE(R.Found) << C.Name << " " << Mo.Name;
      EXPECT_EQ(R.OptimalLength, 4u) << C.Name << " " << Mo.Name;
      EXPECT_EQ(R.SolutionCount, 4u) << C.Name << " " << Mo.Name;
      std::set<std::string> Set = solutionSet(M, R);
      EXPECT_EQ(Set.size(), 4u) << C.Name << " " << Mo.Name;
      for (const Program &P : R.Solutions)
        EXPECT_TRUE(isCorrectKernel(M, P)) << C.Name << " " << Mo.Name;
      if (Reference.empty())
        Reference = std::move(Set);
      else
        EXPECT_EQ(Set, Reference) << C.Name << " " << Mo.Name;
    }
  }
}

TEST(EngineEquivalence, GoalSearchUnderThreadsSmoke) {
  // The tsan_goals ctest entry: the select-1 all-solutions run is a few
  // milliseconds even instrumented, and it drives goal-collapsed distinct
  // counts (state/SearchState.h permCount) through the threaded
  // expansion and sharded merge.
  Machine M(MachineKind::Cmov, 3, /*Scratch=*/1, GoalSpec::selectK(1));
  std::set<std::string> Reference;
  for (const Mode &Mo : kModes) {
    SearchResult R = synthesize(M, findAllConfig(MachineKind::Cmov, 3, Mo));
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 4u) << Mo.Name;
    std::set<std::string> Set = solutionSet(M, R);
    if (Reference.empty())
      Reference = std::move(Set);
    else
      EXPECT_EQ(Set, Reference) << Mo.Name;
  }
}

TEST(EngineEquivalence, DeadInstrGateUnderThreadsSmoke) {
  // The tsan-labelled ctest subset (tests/CMakeLists.txt) runs this
  // instead of the minute-scale pins above: config (III) — perm-count
  // heuristic, viability, cut k=1 — keeps each run in the tens of
  // milliseconds even instrumented, while still driving the per-node
  // dead-instruction summaries (their meet on merge) through the threaded
  // expansion and the sharded parallel merge.
  Machine M(MachineKind::Cmov, 3);
  std::set<std::string> Reference;
  uint64_t ReferenceCount = 0;
  for (const Mode &Mo : kModes) {
    SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
    Opts.Cut = CutConfig::mult(1.0);
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 11u) << Mo.Name;
    EXPECT_GT(R.Stats.SyntacticPruned, 0u) << Mo.Name;
    std::set<std::string> Set = solutionSet(M, R);
    if (Reference.empty()) {
      Reference = std::move(Set);
      ReferenceCount = R.SolutionCount;
    } else {
      EXPECT_EQ(R.SolutionCount, ReferenceCount) << Mo.Name;
      EXPECT_EQ(Set, Reference) << Mo.Name;
    }
  }
}

} // namespace

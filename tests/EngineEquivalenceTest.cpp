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

#include <cstdio>
#include <gtest/gtest.h>
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
    ASSERT_GT(R.Stats.PeakResidentBytes, Opts.MaxStateBytes);
    ASSERT_FALSE(R.Stats.LevelStates.empty());
    size_t Before = 0;
    for (size_t L = 0; L + 1 != R.Stats.LevelStates.size(); ++L)
      Before += R.Stats.LevelStates[L];
    const size_t All = Before + R.Stats.LevelStates.back();
    ASSERT_GE(R.Stats.StatesExpanded, Before);
    ASSERT_LE(R.Stats.StatesExpanded, All);
    if (R.Stats.StatesExpanded > Before && R.Stats.StatesExpanded < All)
      return;
    Opts.MaxStateBytes = R.Stats.PeakResidentBytes;
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

TEST(EngineEquivalence, AllSolutionsFitAByteBudgetEqualToTheirPeak) {
  // The full n=3 enumeration on two threads, capped at its own peak,
  // still counts the paper's 5602 kernels.
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts =
      findAllConfig(MachineKind::Cmov, 3, Mode{"threads2", 2});
  Opts.Heuristic = HeuristicKind::None;
  Opts.MaxLength = 11;
  Opts.MaxSolutionsKept = 0;
  SearchResult Unbounded = synthesize(M, Opts);
  ASSERT_TRUE(Unbounded.Found);
  Opts.MaxStateBytes = Unbounded.Stats.PeakResidentBytes;
  SearchResult Capped = synthesize(M, Opts);
  EXPECT_EQ(Capped.Stats.Stopped, StopReason::None);
  ASSERT_TRUE(Capped.Found);
  EXPECT_EQ(Capped.SolutionCount, 5602u);
  EXPECT_EQ(Capped.Stats.LevelStates, Unbounded.Stats.LevelStates);
}

TEST(EngineEquivalence, CmovN3LevelCountsAtBound11) {
  // sks-synth --all --max-length 11: the paper's 5602 kernels with the
  // tightest bound, whose per-level state counts are pinned exactly for
  // one and four threads.
  Machine M(MachineKind::Cmov, 3);
  const std::vector<size_t> Levels = {1,     7,      36,     225,
                                      1213,  6432,   26828,  110995,
                                      326809, 24745, 755,    18};
  for (const Mode &Mo : kModes) {
    SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
    Opts.Heuristic = HeuristicKind::None;
    Opts.MaxLength = 11;
    Opts.MaxSolutionsKept = 0;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 11u) << Mo.Name;
    EXPECT_EQ(R.SolutionCount, 5602u) << Mo.Name;
    EXPECT_EQ(R.Stats.LevelStates, Levels) << Mo.Name;
  }
}

TEST(EngineEquivalence, CompressedFrontierPreservesThe5602SolutionDag) {
  // The transparency pin of the compressed frontier (SearchOptions::
  // CompressFrontier): sealing retired levels is pure storage — the
  // solution set, count, length, AND the per-level state counts must be
  // bit-identical to the uncompressed baseline in every execution mode
  // (dedup probes read the same rows back through the decode layer).
  Machine M(MachineKind::Cmov, 3);
  SearchResult Baseline =
      synthesize(M, findAllConfig(MachineKind::Cmov, 3, kModes[0]));
  ASSERT_TRUE(Baseline.Found);
  ASSERT_EQ(Baseline.SolutionCount, 5602u);
  const std::set<std::string> Reference = solutionSet(M, Baseline);

  for (const Mode &Mo : kModes) {
    SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
    Opts.CompressFrontier = true;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 11u) << Mo.Name;
    EXPECT_EQ(R.SolutionCount, 5602u) << Mo.Name;
    EXPECT_EQ(solutionSet(M, R), Reference) << Mo.Name;
    EXPECT_EQ(R.Stats.LevelStates, Baseline.Stats.LevelStates) << Mo.Name;
    EXPECT_EQ(R.Stats.StatesExpanded, Baseline.Stats.StatesExpanded)
        << Mo.Name;
    EXPECT_EQ(R.Stats.DedupHits, Baseline.Stats.DedupHits) << Mo.Name;
    // The tier actually engaged and its accounting is coherent.
    EXPECT_GT(R.Stats.CompressedBytes, 0u) << Mo.Name;
    EXPECT_GT(R.Stats.CompressedRawBytes, R.Stats.CompressedBytes) << Mo.Name;
    EXPECT_GT(R.Stats.BlocksDecoded, 0u) << Mo.Name;
    EXPECT_GT(R.Stats.PeakResidentBytes, 0u) << Mo.Name;
    EXPECT_EQ(R.Stats.SpilledBytes, 0u) << Mo.Name;
    EXPECT_EQ(R.Stats.PeakStateBytes, R.Stats.PeakResidentBytes) << Mo.Name;
  }
}

TEST(EngineEquivalence, CompressedSpillPreservesThe5602SolutionDag) {
  // The spill tier on top: threshold 0 pushes every sealed level to disk,
  // and the dedup probes pread them back. Results must stay identical and
  // the spill counters must move.
  std::string Dir = ::testing::TempDir();
  {
    std::string Probe = Dir + "/sks-equiv-probe";
    std::FILE *F = std::fopen(Probe.c_str(), "w");
    if (!F)
      GTEST_SKIP() << "temp dir not writable: " << Dir;
    std::fclose(F);
    std::remove(Probe.c_str());
  }

  Machine M(MachineKind::Cmov, 3);
  SearchResult Baseline =
      synthesize(M, findAllConfig(MachineKind::Cmov, 3, kModes[0]));
  ASSERT_TRUE(Baseline.Found);
  const std::set<std::string> Reference = solutionSet(M, Baseline);

  for (const Mode &Mo : kModes) {
    SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
    Opts.CompressFrontier = true;
    Opts.SpillDir = Dir;
    Opts.SpillThresholdBytes = 0;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.SolutionCount, 5602u) << Mo.Name;
    EXPECT_EQ(solutionSet(M, R), Reference) << Mo.Name;
    EXPECT_EQ(R.Stats.LevelStates, Baseline.Stats.LevelStates) << Mo.Name;
    EXPECT_GT(R.Stats.SpilledBytes, 0u) << Mo.Name;
    // peak_bytes = resident + spilled, so the split is strict.
    EXPECT_GT(R.Stats.PeakStateBytes, R.Stats.PeakResidentBytes) << Mo.Name;
  }
}

TEST(EngineEquivalence, CompressedFrontierUnderThreadsSmoke) {
  // The tsan_frontier ctest entry: config (III) + compression keeps every
  // run sub-second even instrumented, while driving sealed-level decode
  // (per-worker caches) and the work-stealing shard merge under threads.
  Machine M(MachineKind::Cmov, 3);
  std::set<std::string> Reference;
  uint64_t ReferenceCount = 0;
  for (const Mode &Mo : kModes) {
    SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
    Opts.Cut = CutConfig::mult(1.0);
    Opts.CompressFrontier = true;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 11u) << Mo.Name;
    EXPECT_GT(R.Stats.CompressedBytes, 0u) << Mo.Name;
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
  // counts (search/SearchImpl.h countDistinctGoal) through the threaded
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

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
#include "verify/Verify.h"

#include <algorithm>
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
  // counter is on (action filter, viability, cut, symmetry, a prune), so
  // no comparison is a vacuous 0 == 0. The two prunes run in separate
  // configurations: with the action filter on, the order domain refuses
  // nothing the syntactic prune has not refused already (SemanticPruned
  // counts only that surplus, measured 0 here), so each prune counter is
  // non-zero only when its prune runs alone.
  Machine M(MachineKind::Cmov, 3);
  const std::pair<const char *, size_t SearchStats::*> Counters[] = {
      {"StatesExpanded", &SearchStats::StatesExpanded},
      {"StatesGenerated", &SearchStats::StatesGenerated},
      {"DedupHits", &SearchStats::DedupHits},
      {"ViabilityPruned", &SearchStats::ViabilityPruned},
      {"CutStates", &SearchStats::CutStates},
      {"ActionsFiltered", &SearchStats::ActionsFiltered},
      {"SyntacticPruned", &SearchStats::SyntacticPruned},
      {"SemanticPruned", &SearchStats::SemanticPruned},
      {"SymmetryMerged", &SearchStats::SymmetryMerged},
  };
  for (bool Semantic : {false, true}) {
    SCOPED_TRACE(Semantic ? "semantic prune" : "syntactic prune");
    auto Run = [&](const Mode &Mo) {
      SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
      Opts.UseActionFilter = true;
      Opts.Cut = CutConfig::mult(1.0);
      Opts.SyntacticPrune = !Semantic;
      Opts.SemanticPrune = Semantic;
      Opts.SymmetryReduce = true;
      return synthesize(M, Opts);
    };
    SearchResult Seq = Run(kModes[0]);
    SearchResult Par = Run(kModes[1]);
    ASSERT_TRUE(Seq.Found);
    ASSERT_TRUE(Par.Found);
    size_t SearchStats::*Idle = Semantic ? &SearchStats::SyntacticPruned
                                         : &SearchStats::SemanticPruned;
    for (const auto &[Name, Field] : Counters) {
      if (Field != Idle)
        EXPECT_GT(Seq.Stats.*Field, 0u) << Name;
      EXPECT_EQ(Seq.Stats.*Field, Par.Stats.*Field) << Name;
    }
    EXPECT_FALSE(Seq.Stats.LevelStates.empty());
    EXPECT_EQ(Seq.Stats.LevelStates, Par.Stats.LevelStates);
  }
}

/// A layered run that MaxStates stops in the middle of a level expansion.
/// Every committed level but the last was expanded in full, and the last
/// one only in part, so StatesExpanded must lie strictly between the
/// state sums without and with the last level: each worker counts the
/// nodes it actually expanded.
void checkMidLevelAbort(unsigned NumThreads) {
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts =
      findAllConfig(MachineKind::Cmov, 3, Mode{"abort", NumThreads});
  // Levels 0..5 hold 7914 states. Level 5's 6432 nodes yield more than
  // the 2 * 40000 - 7914 candidates the in-level slack allows, so the run
  // stops part-way through that expansion (after about 4100 nodes), not
  // before it.
  Opts.MaxStates = 40000;
  SearchResult R = synthesize(M, Opts);
  EXPECT_FALSE(R.Found);
  EXPECT_TRUE(R.Stats.TimedOut);
  EXPECT_TRUE(R.Stats.MemoryLimited);
  ASSERT_GE(R.Stats.LevelStates.size(), 2u);
  size_t Before = 0;
  for (size_t L = 0; L + 1 != R.Stats.LevelStates.size(); ++L)
    Before += R.Stats.LevelStates[L];
  const size_t All = Before + R.Stats.LevelStates.back();
  EXPECT_GT(R.Stats.StatesExpanded, Before);
  EXPECT_LT(R.Stats.StatesExpanded, All);
}

TEST(EngineEquivalence, MidLevelAbortCountsExpandedNodes) {
  checkMidLevelAbort(1);
}

// The tsan_engine_equivalence ctest entry runs this one: an abort while
// the other workers are still expanding is where a race would hide.
TEST(EngineEquivalence, MidLevelAbortCountsExpandedNodesUnderThreads) {
  checkMidLevelAbort(4);
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

TEST(EngineEquivalence, SemanticPrunePreservesThe5602SolutionDag) {
  // The soundness pin of the order-domain prune (SearchOptions::
  // SemanticPrune): on the full n=3 all-solutions run the pruned search
  // must reproduce the exact solution set, count, length, and per-level
  // state counts of the unpruned baseline — the prune only refuses
  // expansions that dedup or minimality would discard anyway. Checked
  // across every execution mode, and composed with SyntacticPrune.
  Machine M(MachineKind::Cmov, 3);
  SearchResult Baseline =
      synthesize(M, findAllConfig(MachineKind::Cmov, 3, kModes[0]));
  ASSERT_TRUE(Baseline.Found);
  ASSERT_EQ(Baseline.SolutionCount, 5602u);
  const std::set<std::string> Reference = solutionSet(M, Baseline);
  ASSERT_FALSE(Baseline.Stats.LevelStates.empty());

  std::vector<size_t> PrunedLevels;
  for (const Mode &Mo : kModes) {
    SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
    Opts.SemanticPrune = true;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 11u) << Mo.Name;
    EXPECT_EQ(R.SolutionCount, 5602u) << Mo.Name;
    EXPECT_EQ(solutionSet(M, R), Reference) << Mo.Name;
    EXPECT_GT(R.Stats.SemanticPruned, 0u) << Mo.Name;
    // The prune decisions are candidate-order-independent (the node
    // orders merge by bitwise meet), so the surviving state space is
    // identical level by level across every execution mode. It is smaller
    // than the baseline's (determined-cmp children are never stored) —
    // that is the prune working, not a divergence.
    ASSERT_EQ(R.Stats.LevelStates.size(), Baseline.Stats.LevelStates.size())
        << Mo.Name;
    for (size_t L = 0; L != R.Stats.LevelStates.size(); ++L)
      EXPECT_LE(R.Stats.LevelStates[L], Baseline.Stats.LevelStates[L])
          << Mo.Name << " level " << L;
    if (PrunedLevels.empty())
      PrunedLevels = R.Stats.LevelStates;
    else
      EXPECT_EQ(R.Stats.LevelStates, PrunedLevels) << Mo.Name;
  }

  SearchOptions Both = findAllConfig(MachineKind::Cmov, 3, kModes[0]);
  Both.SyntacticPrune = true;
  Both.SemanticPrune = true;
  SearchResult R = synthesize(M, Both);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.SolutionCount, 5602u);
  EXPECT_EQ(solutionSet(M, R), Reference);
  EXPECT_EQ(R.Stats.LevelStates, PrunedLevels);
  EXPECT_GT(R.Stats.SyntacticPruned, 0u);
  EXPECT_GT(R.Stats.SemanticPruned, 0u);
}

TEST(EngineEquivalence, SemanticPruneDominatesSyntacticAtN4) {
  // The semantic gate consults the dead-instruction summary too, so a
  // semantic-only run refuses at least what a syntactic-only run refuses
  // — plus the order-domain surplus. Measured at n=4 (cut 1.0 keeps the
  // run small); the solution set must also survive the prune.
  Machine M(MachineKind::Cmov, 4);
  SearchOptions Base;
  Base.Heuristic = HeuristicKind::PermCount;
  Base.Cut = CutConfig::mult(1.0);
  Base.FindAll = true;
  Base.MaxLength = networkUpperBound(MachineKind::Cmov, 4);

  SearchOptions Syn = Base;
  Syn.SyntacticPrune = true;
  SearchResult RSyn = synthesize(M, Syn);
  ASSERT_TRUE(RSyn.Found);

  SearchOptions Sem = Base;
  Sem.SemanticPrune = true;
  SearchResult RSem = synthesize(M, Sem);
  ASSERT_TRUE(RSem.Found);

  EXPECT_GT(RSem.Stats.SemanticPruned, 0u);
  EXPECT_GE(RSem.Stats.SemanticPruned, RSyn.Stats.SyntacticPruned);

  // Both prunes are sound: same optimal length, count, and kernel set as
  // the unpruned run of the same configuration.
  SearchResult RBase = synthesize(M, Base);
  ASSERT_TRUE(RBase.Found);
  EXPECT_EQ(RSem.OptimalLength, RBase.OptimalLength);
  EXPECT_EQ(RSem.SolutionCount, RBase.SolutionCount);
  EXPECT_EQ(solutionSet(M, RSem), solutionSet(M, RBase));
  EXPECT_EQ(RSyn.SolutionCount, RBase.SolutionCount);
}

TEST(EngineEquivalence, BestFirstHonorsSemanticPrune) {
  // The best-first engine shares the admits() gate: with the admissible
  // heuristic the found kernel stays minimal, and the prune counter moves.
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::NeededInstrs;
  Opts.Cut = CutConfig::none();
  Opts.MaxLength = networkUpperBound(MachineKind::Cmov, 3);
  Opts.SemanticPrune = true;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 11u);
  EXPECT_GT(R.Stats.SemanticPruned, 0u);
  EXPECT_TRUE(R.Stats.LevelStates.empty()); // Layered-engine counter only.
}

TEST(EngineEquivalence, SymmetryReducePreservesThe5602SolutionDag) {
  // The soundness pin of the renaming quotient (SearchOptions::
  // SymmetryReduce, analysis/Symmetry.h): states are merged with their
  // admissible-renaming orbit and solutions lifted back through the
  // per-edge witnesses, so the full n=3 all-solutions run must reproduce
  // the exact 5602-kernel set of the unquotiented baseline — in every
  // execution mode, with identical per-level state counts and merge
  // counters across modes (the merge is a pre-dedup per-candidate
  // property, so it cannot depend on the thread count).
  Machine M(MachineKind::Cmov, 3);
  SearchResult Baseline =
      synthesize(M, findAllConfig(MachineKind::Cmov, 3, kModes[0]));
  ASSERT_TRUE(Baseline.Found);
  ASSERT_EQ(Baseline.SolutionCount, 5602u);
  const std::set<std::string> Reference = solutionSet(M, Baseline);
  ASSERT_FALSE(Baseline.Stats.LevelStates.empty());

  std::vector<size_t> QuotientLevels;
  uint64_t ReferenceMerged = 0;
  for (const Mode &Mo : kModes) {
    SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
    Opts.SymmetryReduce = true;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 11u) << Mo.Name;
    EXPECT_EQ(R.SolutionCount, 5602u) << Mo.Name;
    EXPECT_EQ(solutionSet(M, R), Reference) << Mo.Name;
    EXPECT_GT(R.Stats.SymmetryMerged, 0u) << Mo.Name;
    // Stored states are orbit representatives, so every level shrinks (or
    // stays — but at least one level must actually merge something).
    ASSERT_EQ(R.Stats.LevelStates.size(), Baseline.Stats.LevelStates.size())
        << Mo.Name;
    bool Shrank = false;
    for (size_t L = 0; L != R.Stats.LevelStates.size(); ++L) {
      EXPECT_LE(R.Stats.LevelStates[L], Baseline.Stats.LevelStates[L])
          << Mo.Name << " level " << L;
      Shrank |= R.Stats.LevelStates[L] < Baseline.Stats.LevelStates[L];
    }
    EXPECT_TRUE(Shrank) << Mo.Name;
    if (QuotientLevels.empty()) {
      QuotientLevels = R.Stats.LevelStates;
      ReferenceMerged = R.Stats.SymmetryMerged;
    } else {
      EXPECT_EQ(R.Stats.LevelStates, QuotientLevels) << Mo.Name;
      EXPECT_EQ(R.Stats.SymmetryMerged, ReferenceMerged) << Mo.Name;
    }
  }

  // Composed with the order-domain prune: the set survives, and the
  // combined run stores no more states per level than the semantic prune
  // alone (the acceptance comparison; empirical, not a theorem — the
  // order meet over a merged orbit can be weaker than either member's,
  // see DESIGN.md section 11).
  SearchOptions SemOnly = findAllConfig(MachineKind::Cmov, 3, kModes[0]);
  SemOnly.SemanticPrune = true;
  SearchResult RSem = synthesize(M, SemOnly);
  ASSERT_TRUE(RSem.Found);

  SearchOptions Both = SemOnly;
  Both.SymmetryReduce = true;
  SearchResult RBoth = synthesize(M, Both);
  ASSERT_TRUE(RBoth.Found);
  EXPECT_EQ(RBoth.SolutionCount, 5602u);
  EXPECT_EQ(solutionSet(M, RBoth), Reference);
  EXPECT_GT(RBoth.Stats.SymmetryMerged, 0u);
  EXPECT_GT(RBoth.Stats.SemanticPruned, 0u);
  ASSERT_EQ(RBoth.Stats.LevelStates.size(), RSem.Stats.LevelStates.size());
  bool Shrank = false;
  for (size_t L = 0; L != RBoth.Stats.LevelStates.size(); ++L) {
    EXPECT_LE(RBoth.Stats.LevelStates[L], RSem.Stats.LevelStates[L])
        << "level " << L;
    Shrank |= RBoth.Stats.LevelStates[L] < RSem.Stats.LevelStates[L];
  }
  EXPECT_TRUE(Shrank);
}

TEST(EngineEquivalence, SymmetryReducePreservesCutRunsExactly) {
  // The quotient composed with the section 3.5 cut: cut decisions depend
  // only on permutation counts, which are orbit-invariant, so the n=3
  // cut-1.0 all-solutions run (234 kernels, small enough to reconstruct
  // in full) must lift back to the bit-identical kernel set.
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Base;
  Base.Heuristic = HeuristicKind::PermCount;
  Base.Cut = CutConfig::mult(1.0);
  Base.FindAll = true;
  Base.MaxLength = networkUpperBound(MachineKind::Cmov, 3);

  SearchResult RBase = synthesize(M, Base);
  ASSERT_TRUE(RBase.Found);
  ASSERT_EQ(RBase.SolutionCount, RBase.Solutions.size()); // Uncapped.

  SearchOptions SymOpts = Base;
  SymOpts.SymmetryReduce = true;
  SearchResult RSym = synthesize(M, SymOpts);
  ASSERT_TRUE(RSym.Found);
  EXPECT_EQ(RSym.OptimalLength, RBase.OptimalLength);
  EXPECT_EQ(RSym.SolutionCount, RBase.SolutionCount);
  EXPECT_EQ(solutionSet(M, RSym), solutionSet(M, RBase));
  EXPECT_GT(RSym.Stats.SymmetryMerged, 0u);
}

TEST(EngineEquivalence, SymmetryReduceComposesAtN4) {
  // The n=4 acceptance run (cut 1.0 keeps it small). This configuration
  // has 10.8M optimal kernels — far beyond MaxSolutionsKept, and the
  // truncated reconstruction prefix is enumeration-order-dependent, so
  // the full-set comparison lives in the n=3 tests; here the quotient
  // must preserve the exact path count (the DAG's Ways sum, which is not
  // capped), lift every reconstructed kernel back to a correct program,
  // merge something, and — alone and composed with the semantic prune —
  // store no more states per level than its no-symmetry counterpart.
  Machine M(MachineKind::Cmov, 4);
  SearchOptions Base;
  Base.Heuristic = HeuristicKind::PermCount;
  Base.Cut = CutConfig::mult(1.0);
  Base.FindAll = true;
  Base.MaxLength = networkUpperBound(MachineKind::Cmov, 4);

  SearchResult RBase = synthesize(M, Base);
  ASSERT_TRUE(RBase.Found);

  SearchOptions SymOpts = Base;
  SymOpts.SymmetryReduce = true;
  SearchResult RSym = synthesize(M, SymOpts);
  ASSERT_TRUE(RSym.Found);
  EXPECT_EQ(RSym.OptimalLength, RBase.OptimalLength);
  EXPECT_EQ(RSym.SolutionCount, RBase.SolutionCount);
  EXPECT_GT(RSym.Stats.SymmetryMerged, 0u);
  ASSERT_EQ(RSym.Stats.LevelStates.size(), RBase.Stats.LevelStates.size());
  bool Shrank = false;
  for (size_t L = 0; L != RSym.Stats.LevelStates.size(); ++L) {
    EXPECT_LE(RSym.Stats.LevelStates[L], RBase.Stats.LevelStates[L])
        << "level " << L;
    Shrank |= RSym.Stats.LevelStates[L] < RBase.Stats.LevelStates[L];
  }
  EXPECT_TRUE(Shrank);
  // Every reconstructed kernel went through the witness lift; spot-check
  // a deterministic stride of them against the concrete verifier.
  ASSERT_FALSE(RSym.Solutions.empty());
  const size_t Stride = std::max<size_t>(1, RSym.Solutions.size() / 500);
  for (size_t I = 0; I < RSym.Solutions.size(); I += Stride)
    ASSERT_TRUE(isCorrectKernel(M, RSym.Solutions[I])) << "solution " << I;

  SearchOptions Sem = Base;
  Sem.SemanticPrune = true;
  SearchResult RSem = synthesize(M, Sem);
  ASSERT_TRUE(RSem.Found);

  SearchOptions BothOpts = Sem;
  BothOpts.SymmetryReduce = true;
  SearchResult RBoth = synthesize(M, BothOpts);
  ASSERT_TRUE(RBoth.Found);
  EXPECT_EQ(RBoth.SolutionCount, RBase.SolutionCount);
  EXPECT_GT(RBoth.Stats.SymmetryMerged, 0u);
  ASSERT_EQ(RBoth.Stats.LevelStates.size(), RSem.Stats.LevelStates.size());
  for (size_t L = 0; L != RBoth.Stats.LevelStates.size(); ++L)
    EXPECT_LE(RBoth.Stats.LevelStates[L], RSem.Stats.LevelStates[L])
        << "level " << L;
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

TEST(EngineEquivalence, CompressionComposesWithSymmetryAndSemanticPrune) {
  // The full stack: compression + spill + symmetry quotient + order-domain
  // prune, against the symmetry+semantic baseline — the storage tiers must
  // be invisible to both reductions.
  std::string Dir = ::testing::TempDir();
  {
    std::string Probe = Dir + "/sks-equiv-probe3";
    std::FILE *F = std::fopen(Probe.c_str(), "w");
    if (!F)
      GTEST_SKIP() << "temp dir not writable: " << Dir;
    std::fclose(F);
    std::remove(Probe.c_str());
  }

  Machine M(MachineKind::Cmov, 3);
  SearchOptions Base = findAllConfig(MachineKind::Cmov, 3, kModes[0]);
  Base.SymmetryReduce = true;
  Base.SemanticPrune = true;
  SearchResult RBase = synthesize(M, Base);
  ASSERT_TRUE(RBase.Found);
  ASSERT_EQ(RBase.SolutionCount, 5602u);
  const std::set<std::string> Reference = solutionSet(M, RBase);

  for (const Mode &Mo : kModes) {
    SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
    Opts.SymmetryReduce = true;
    Opts.SemanticPrune = true;
    Opts.CompressFrontier = true;
    Opts.SpillDir = Dir;
    Opts.SpillThresholdBytes = 0;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.SolutionCount, 5602u) << Mo.Name;
    EXPECT_EQ(solutionSet(M, R), Reference) << Mo.Name;
    EXPECT_EQ(R.Stats.LevelStates, RBase.Stats.LevelStates) << Mo.Name;
    EXPECT_GT(R.Stats.SymmetryMerged, 0u) << Mo.Name;
    EXPECT_GT(R.Stats.SemanticPruned, 0u) << Mo.Name;
    EXPECT_GT(R.Stats.SpilledBytes, 0u) << Mo.Name;
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

TEST(EngineEquivalence, SymmetryReduceUnderThreadsSmoke) {
  // The tsan-labelled symmetry subset (tests/CMakeLists.txt): config (III)
  // plus the quotient keeps every run in the tens of milliseconds even
  // instrumented, while driving the witness-carrying candidates and the
  // renamed order states through the threaded expansion and the sharded
  // parallel merge.
  Machine M(MachineKind::Cmov, 3);
  std::set<std::string> Reference;
  uint64_t ReferenceCount = 0;
  for (const Mode &Mo : kModes) {
    SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
    Opts.Cut = CutConfig::mult(1.0);
    Opts.SemanticPrune = true;
    Opts.SymmetryReduce = true;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 11u) << Mo.Name;
    EXPECT_GT(R.Stats.SymmetryMerged, 0u) << Mo.Name;
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
  // The goal-predicate generalization under every execution mode, composed
  // with the symmetry quotient and the order-domain prune: the select-1
  // (minimum) and top-1 (maximum) all-solutions runs at n=3 each have
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
      SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
      Opts.SymmetryReduce = true;
      Opts.SemanticPrune = true;
      SearchResult R = synthesize(M, Opts);
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
  // counts (search/SearchImpl.h countDistinctGoal) and the goal-pinned
  // symmetry quotient through the threaded expansion and sharded merge.
  Machine M(MachineKind::Cmov, 3, /*Scratch=*/1, GoalSpec::selectK(1));
  std::set<std::string> Reference;
  for (const Mode &Mo : kModes) {
    SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
    Opts.SymmetryReduce = true;
    Opts.SemanticPrune = true;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 4u) << Mo.Name;
    std::set<std::string> Set = solutionSet(M, R);
    if (Reference.empty())
      Reference = std::move(Set);
    else
      EXPECT_EQ(Set, Reference) << Mo.Name;
  }
}

TEST(EngineEquivalence, SemanticPruneUnderThreadsSmoke) {
  // The tsan-labelled ctest subset (tests/CMakeLists.txt) runs this
  // instead of the minute-scale soundness pins above: config (III) —
  // perm-count heuristic, viability, cut k=1 — keeps each run in the
  // tens of milliseconds even instrumented, while still driving the
  // per-node order states through the threaded expansion and the
  // sharded parallel merge.
  Machine M(MachineKind::Cmov, 3);
  std::set<std::string> Reference;
  uint64_t ReferenceCount = 0;
  for (const Mode &Mo : kModes) {
    SearchOptions Opts = findAllConfig(MachineKind::Cmov, 3, Mo);
    Opts.Cut = CutConfig::mult(1.0);
    Opts.SyntacticPrune = true;
    Opts.SemanticPrune = true;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found) << Mo.Name;
    EXPECT_EQ(R.OptimalLength, 11u) << Mo.Name;
    EXPECT_GT(R.Stats.SemanticPruned, 0u) << Mo.Name;
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

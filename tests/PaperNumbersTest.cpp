//===- tests/PaperNumbersTest.cpp - Pinned reproduction numbers --------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regression-pins every quantitative claim this reproduction makes against
// the paper (EXPERIMENTS.md's summary table), so a change that silently
// breaks a reproduced number fails CI. Numbers that are exact paper
// matches are asserted as such; numbers that are implementation-specific
// (cut-semantics dependent) are pinned to our measured values with a
// comment.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "machine/Machine.h"
#include "search/Search.h"
#include "support/Permutations.h"
#include "tables/DistanceTable.h"
#include "verify/Verify.h"

#include <cmath>
#include <gtest/gtest.h>

using namespace sks;

namespace {

uint64_t countSolutions(const Machine &M, unsigned Length, CutConfig Cut,
                        const DistanceTable *DT) {
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.MaxLength = Length;
  Opts.MaxSolutionsKept = 0;
  Opts.Cut = Cut;
  Opts.Stop = StopToken().withDeadline(600);
  SearchResult R = synthesize(M, Opts, DT);
  return R.Found ? R.SolutionCount : 0;
}

TEST(PaperNumbers, ProgramSpaceLog10) {
  // Section 5.1: ~10^19.9 / 10^40.0 / 10^71.2 for n = 3 / 4 / 5 (m = 1).
  const unsigned OptimalLength[6] = {0, 0, 0, 11, 20, 33};
  const double Expected[6] = {0, 0, 0, 19.9, 40.0, 71.2};
  for (unsigned N = 3; N <= 5; ++N) {
    Machine M(MachineKind::Cmov, N);
    double Log10 =
        OptimalLength[N] * std::log10(double(M.unrestrictedAlphabetSize()));
    EXPECT_NEAR(Log10, Expected[N], 0.05) << "n=" << N;
  }
}

TEST(PaperNumbers, OptimalLengthsAllMachines) {
  // 11 / 20 (cmov n=3/4), 8 / 15 (min/max n=3/4) — all exact paper values.
  struct Case {
    MachineKind Kind;
    unsigned N;
    unsigned Expected;
  };
  const Case Cases[] = {{MachineKind::Cmov, 3, 11},
                        {MachineKind::Cmov, 4, 20},
                        {MachineKind::MinMax, 3, 8},
                        {MachineKind::MinMax, 4, 15}};
  for (const Case &C : Cases) {
    Machine M(C.Kind, C.N);
    SearchOptions Opts;
    Opts.Heuristic = HeuristicKind::PermCount;
    Opts.UseViability = true;
    Opts.Cut = CutConfig::mult(1.0);
    Opts.MaxLength = networkUpperBound(C.Kind, C.N);
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found) << "n=" << C.N;
    EXPECT_EQ(R.OptimalLength, C.Expected)
        << "kind=" << static_cast<int>(C.Kind) << " n=" << C.N;
    EXPECT_TRUE(isCorrectKernel(M, R.Solutions.front()));
  }
}

TEST(PaperNumbers, SolutionCountsPerCut) {
  // Paper: 5602 (no cut and k=2), 838 (k=1.5), 222 (k=1). The uncut and
  // k=2 counts match exactly; the k=1.5/k=1 counts depend on the cut's
  // exploration-order semantics (see EXPERIMENTS.md) and are pinned to
  // this implementation's layered-exact values.
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  EXPECT_EQ(countSolutions(M, 11, CutConfig::none(), &DT), 5602u);
  EXPECT_EQ(countSolutions(M, 11, CutConfig::mult(2.0), &DT), 5602u);
  EXPECT_EQ(countSolutions(M, 11, CutConfig::mult(1.5), &DT), 3682u);
  EXPECT_EQ(countSolutions(M, 11, CutConfig::mult(1.0), &DT), 234u);
}

TEST(PaperNumbers, ScoreClassesN4) {
  // Section 5.3: the n=4 solution scores are {55, 58, 61, 64, 67, 70};
  // every optimal length-20 kernel carries exactly 5 cmps, so scores are
  // 70 - 3 * (#movs). The 5-CAS network realizes the minimum 55.
  Machine M(MachineKind::Cmov, 4);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::mult(1.0);
  Opts.MaxLength = 20;
  Opts.MaxSolutionsKept = 5000;
  Opts.Stop = StopToken().withDeadline(600);
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  for (const Program &P : R.Solutions) {
    unsigned Score = kernelScore(P);
    EXPECT_GE(Score, 55u);
    EXPECT_LE(Score, 70u);
    EXPECT_EQ((70 - Score) % 3, 0u) << "scores step by 3 (mov<->cmov)";
    EXPECT_EQ(countMix(P).Cmp, 5u) << "5 comparisons in every optimum";
  }
}

TEST(PaperNumbers, HybridOffersNoShorterKernel) {
  // Section 5.4's remark, as a pinned fact: the n=3 hybrid optimum equals
  // the pure cmov optimum (11). (Uncut search; the perm-count cut is
  // mistuned for the hybrid alphabet.)
  Machine M(MachineKind::Hybrid, 3);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::PermCount;
  Opts.UseViability = true;
  Opts.MaxLength = 11; // = the pure optimum; a shorter kernel would show up.
  Opts.Stop = StopToken().withDeadline(300);
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 11u);
  // And nothing shorter exists.
  SearchResult Proof;
  EXPECT_TRUE(proveNoKernelOfLength(M, 10, Proof, nullptr,
                                    StopToken().withDeadline(600)));
}

TEST(PaperNumbers, EnumStatesWithinPaperOrderOfMagnitude) {
  // Paper: ~7e3 states for n=3, ~7e4 for n=4 with the best config; ours
  // land within a small constant factor on the same configuration.
  for (auto [N, PaperStates] : {std::pair{3u, 7000u}, {4u, 70000u}}) {
    Machine M(MachineKind::Cmov, N);
    SearchOptions Opts;
    Opts.Heuristic = HeuristicKind::PermCount;
    Opts.UseViability = true;
    Opts.Cut = CutConfig::mult(1.0);
    Opts.MaxLength = networkUpperBound(MachineKind::Cmov, N);
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found);
    EXPECT_LT(R.Stats.StatesExpanded, 10u * PaperStates) << "n=" << N;
  }
}

} // namespace

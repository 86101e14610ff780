//===- tests/CpPropagationTest.cpp - CP-engine behaviour tests ---------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cp/CpSolver.h"

#include "verify/Verify.h"

#include <gtest/gtest.h>

using namespace sks;

namespace {

TEST(CpSolver, HeuristicsDoNotChangeFeasibility) {
  // With or without the section 4 heuristics, the n=2 instance stays
  // feasible at length 4 and infeasible at length 3.
  Machine M(MachineKind::Cmov, 2);
  for (bool NoCC : {false, true})
    for (bool FirstCmp : {false, true}) {
      CpOptions Opts;
      Opts.Length = 4;
      Opts.NoConsecutiveCmp = NoCC;
      Opts.FirstInstrCmp = FirstCmp;
      Opts.Stop = StopToken().withDeadline(120);
      CpResult R = cpSynthesize(M, Opts);
      ASSERT_TRUE(R.Found) << NoCC << FirstCmp;
      EXPECT_TRUE(isCorrectKernel(M, R.P));
      Opts.Length = 3;
      Opts.Stop = StopToken().withDeadline(120); // A fresh budget per run.
      CpResult Shorter = cpSynthesize(M, Opts);
      EXPECT_FALSE(Shorter.Found);
      EXPECT_FALSE(Shorter.TimedOut);
    }
}

TEST(CpSolver, OnlyReadInitializedStillFindsKernel) {
  // Every n=2 optimal kernel writes the scratch register before reading
  // it, so the heuristic must not lose feasibility.
  Machine M(MachineKind::Cmov, 2);
  CpOptions Opts;
  Opts.Length = 4;
  Opts.OnlyReadInitialized = true;
  Opts.Stop = StopToken().withDeadline(120);
  CpResult R = cpSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
}

TEST(CpSolver, CmpSymmetryOffWidensAlphabetButKeepsAnswers) {
  Machine M(MachineKind::Cmov, 2);
  CpOptions Opts;
  Opts.Length = 4;
  Opts.CmpSymmetry = false; // Adds the symmetric compares.
  Opts.Stop = StopToken().withDeadline(120);
  CpResult R = cpSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
}

TEST(CpSolver, EraseValueCheckPrunesWithoutLosingSolutions) {
  Machine M(MachineKind::Cmov, 2);
  CpOptions With, Without;
  With.Length = Without.Length = 4;
  With.EraseValueCheck = true;
  Without.EraseValueCheck = false;
  With.EnumerateAll = Without.EnumerateAll = true;
  With.Stop = StopToken().withDeadline(300);
  CpResult A = cpSynthesize(M, With);
  Without.Stop = StopToken().withDeadline(300); // Its clock starts here.
  CpResult B = cpSynthesize(M, Without);
  ASSERT_TRUE(A.Found);
  ASSERT_TRUE(B.Found);
  EXPECT_EQ(A.Solutions.size(), B.Solutions.size())
      << "the check prunes the tree, never solutions";
  EXPECT_LE(A.Backtracks, B.Backtracks);
}

TEST(CpSolver, MinMaxMachineWorks) {
  Machine M(MachineKind::MinMax, 2);
  CpOptions Opts;
  Opts.Length = 3;
  Opts.Stop = StopToken().withDeadline(120);
  CpResult R = cpSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
  Opts.Length = 2;
  Opts.Stop = StopToken().withDeadline(120);
  CpResult Shorter = cpSynthesize(M, Opts);
  EXPECT_FALSE(Shorter.Found)
      << "a pair cannot be sorted in 2 min/max instructions";
  EXPECT_FALSE(Shorter.TimedOut);
}

TEST(CpSolver, ReportsBacktrackAndPropagationCounts) {
  Machine M(MachineKind::Cmov, 2);
  CpOptions Opts;
  Opts.Length = 4;
  Opts.Stop = StopToken().withDeadline(60);
  CpResult R = cpSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_GT(R.Propagations, 0u);
}

} // namespace

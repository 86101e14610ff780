//===- tests/SmtEncodingTest.cpp - SMT-encoding option tests ------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/SmtSynth.h"

#include "verify/Verify.h"

#include <gtest/gtest.h>

using namespace sks;

namespace {

TEST(SmtEncoding, NoConsecutiveCmpIsHonored) {
  Machine M(MachineKind::Cmov, 2);
  SmtOptions Opts;
  Opts.Length = 5; // Slack so the constraint actually bites somewhere.
  Opts.NoConsecutiveCmp = true;
  Opts.Stop = StopToken().withDeadline(60);
  SmtResult R = smtSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
  for (size_t I = 0; I + 1 < R.P.size(); ++I)
    EXPECT_FALSE(R.P[I].Op == Opcode::Cmp && R.P[I + 1].Op == Opcode::Cmp);
}

TEST(SmtEncoding, FirstInstrCmpIsHonored) {
  Machine M(MachineKind::Cmov, 2);
  SmtOptions Opts;
  Opts.Length = 5;
  Opts.FirstInstrCmp = true;
  Opts.Stop = StopToken().withDeadline(60);
  SmtResult R = smtSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.P.front().Op, Opcode::Cmp);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
}

TEST(SmtEncoding, SymmetricCmpsWidenTheAlphabet) {
  // With the widened alphabet the solver may emit cmp with descending
  // operand indices; the kernel must still verify (the machine's apply
  // handles any operand order).
  Machine M(MachineKind::Cmov, 2);
  SmtOptions Opts;
  Opts.Length = 4;
  Opts.IncludeSymmetricCmps = true;
  Opts.Stop = StopToken().withDeadline(60);
  SmtResult R = smtSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
}

TEST(SmtEncoding, BothGoalIsStillSatisfiableAtOptimum) {
  Machine M(MachineKind::Cmov, 2);
  SmtOptions Opts;
  Opts.Length = 4;
  Opts.Goal = SmtGoal::Both;
  Opts.Stop = StopToken().withDeadline(60);
  SmtResult R = smtSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
}

TEST(SmtEncoding, CountZeroOffStillCorrect) {
  Machine M(MachineKind::Cmov, 2);
  SmtOptions Opts;
  Opts.Length = 4;
  Opts.Goal = SmtGoal::AscendingCounts;
  Opts.CountZero = false;
  Opts.Stop = StopToken().withDeadline(60);
  SmtResult R = smtSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
}

TEST(SmtEncoding, ReportsInstanceSizes) {
  Machine M(MachineKind::Cmov, 2);
  SmtOptions Opts;
  Opts.Length = 4;
  Opts.Stop = StopToken().withDeadline(60);
  SmtResult R = smtSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_GT(R.NumVars, 100u);
  EXPECT_GT(R.NumClauses, 500u);
}

TEST(SmtEncoding, CegisIterationsGrowWithHarderSeeds) {
  Machine M(MachineKind::Cmov, 3);
  SmtOptions Opts;
  Opts.Length = 12;
  Opts.Cegis = true;
  Opts.Stop = StopToken().withDeadline(300);
  SmtResult R = smtSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_GE(R.CegisIterations, 2u)
      << "one example cannot pin down a 3-element sorter";
  EXPECT_TRUE(isCorrectKernel(M, R.P));
}

} // namespace

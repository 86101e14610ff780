//===- tests/BaselinesTest.cpp - Solver-baseline tests ----------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cp/CpSolver.h"
#include "ilp/BranchBound.h"
#include "ilp/IlpSynth.h"
#include "ilp/Simplex.h"
#include "mcts/Mcts.h"
#include "planning/PlanSynth.h"
#include "smt/SmtSynth.h"
#include "stoke/Stoke.h"

#include "kernels/ReferenceKernels.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>

using namespace sks;

namespace {

//===----------------------------------------------------------------------===//
// SMT route.
//===----------------------------------------------------------------------===//

TEST(SmtSynth, PermFindsLength4KernelN2) {
  Machine M(MachineKind::Cmov, 2);
  SmtOptions Opts;
  Opts.Length = 4;
  Opts.Stop = StopToken().withDeadline(60);
  SmtResult R = smtSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
  EXPECT_EQ(R.P.size(), 4u);
}

TEST(SmtSynth, ProvesNoLength3KernelN2) {
  Machine M(MachineKind::Cmov, 2);
  SmtOptions Opts;
  Opts.Length = 3;
  Opts.Stop = StopToken().withDeadline(60);
  SmtResult R = smtSynthesize(M, Opts);
  EXPECT_FALSE(R.Found);
  EXPECT_FALSE(R.TimedOut) << "UNSAT, not timeout";
}

TEST(SmtSynth, CegisFindsKernelN2) {
  Machine M(MachineKind::Cmov, 2);
  SmtOptions Opts;
  Opts.Length = 4;
  Opts.Cegis = true;
  Opts.Stop = StopToken().withDeadline(60);
  SmtResult R = smtSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
  EXPECT_GE(R.CegisIterations, 1u);
}

TEST(SmtSynth, AscendingCountsGoalAgrees) {
  Machine M(MachineKind::Cmov, 2);
  SmtOptions Opts;
  Opts.Length = 4;
  Opts.Goal = SmtGoal::AscendingCounts;
  Opts.Stop = StopToken().withDeadline(60);
  SmtResult R = smtSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
}

TEST(SmtSynth, MinMaxMachineKernelN2) {
  Machine M(MachineKind::MinMax, 2);
  SmtOptions Opts;
  Opts.Length = 3;
  Opts.Stop = StopToken().withDeadline(60);
  SmtResult R = smtSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
}

TEST(SmtSynth, IterativeDriverStopsAtFirstFeasibleLength) {
  Machine M(MachineKind::Cmov, 2);
  SmtOptions Opts;
  Opts.Length = 2;
  Opts.Stop = StopToken().withDeadline(60);
  SmtResult R = smtSynthesizeIterative(M, Opts, 6);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.P.size(), 4u) << "4 is the minimal length for n=2";
}

//===----------------------------------------------------------------------===//
// CP route.
//===----------------------------------------------------------------------===//

TEST(CpSynth, FindsKernelN2) {
  Machine M(MachineKind::Cmov, 2);
  CpOptions Opts;
  Opts.Length = 4;
  Opts.Stop = StopToken().withDeadline(60);
  CpResult R = cpSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
}

TEST(CpSynth, ExactGoalAgrees) {
  Machine M(MachineKind::Cmov, 2);
  CpOptions Opts;
  Opts.Length = 4;
  Opts.Goal = CpGoal::Exact;
  Opts.Stop = StopToken().withDeadline(60);
  CpResult R = cpSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
}

TEST(CpSynth, NoLength3KernelN2) {
  Machine M(MachineKind::Cmov, 2);
  CpOptions Opts;
  Opts.Length = 3;
  Opts.Stop = StopToken().withDeadline(60);
  CpResult R = cpSynthesize(M, Opts);
  EXPECT_FALSE(R.Found);
  EXPECT_FALSE(R.TimedOut);
}

TEST(CpSynth, EnumerateAllFindsAllLength4KernelsN2) {
  Machine M(MachineKind::Cmov, 2);
  CpOptions Opts;
  Opts.Length = 4;
  Opts.EnumerateAll = true;
  Opts.Stop = StopToken().withDeadline(120);
  CpResult R = cpSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  // The layered search counts 8 optimal kernels for n=2 (see SearchTest);
  // the CP route must agree.
  EXPECT_EQ(R.Solutions.size(), 8u);
  for (const Program &P : R.Solutions)
    EXPECT_TRUE(isCorrectKernel(M, P));
}

TEST(CpSynth, PartialSuiteAdmitsWrongPrograms) {
  // CP-MiniZinc-Filter: with a 1-example suite, solutions exist that the
  // full suite rejects.
  Machine M(MachineKind::Cmov, 2);
  CpOptions Opts;
  Opts.Length = 4;
  Opts.PartialExamples = 1;
  Opts.EnumerateAll = true;
  Opts.MaxSolutions = 500;
  Opts.Stop = StopToken().withDeadline(60);
  CpResult R = cpSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  bool AnyWrong = false;
  for (const Program &P : R.Solutions)
    AnyWrong |= !isCorrectKernel(M, P);
  EXPECT_TRUE(AnyWrong) << "partial suites must be filtered (paper 4.2)";
}

//===----------------------------------------------------------------------===//
// ILP route.
//===----------------------------------------------------------------------===//

TEST(Simplex, SolvesSmallLp) {
  LinearProgram LP;
  LP.NumVars = 2;
  LP.Objective = {3, 2};
  LP.addRow({1, 1}, 4);
  LP.addRow({1, 0}, 2);
  LpSolution S = solveLp(LP);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Objective, 10.0, 1e-6);
  EXPECT_NEAR(S.X[0], 2.0, 1e-6);
  EXPECT_NEAR(S.X[1], 2.0, 1e-6);
}

TEST(Simplex, DetectsInfeasibility) {
  LinearProgram LP;
  LP.NumVars = 1;
  LP.Objective = {1};
  LP.addRow({1}, 2);    // x <= 2
  LP.addRow({-1}, -3);  // x >= 3
  EXPECT_EQ(solveLp(LP).Status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  LinearProgram LP;
  LP.NumVars = 2;
  LP.Objective = {1, 0};
  LP.addRow({0, 1}, 1);
  EXPECT_EQ(solveLp(LP).Status, LpStatus::Unbounded);
}

TEST(BranchBound, SolvesKnapsack) {
  LinearProgram LP;
  LP.NumVars = 3;
  LP.Objective = {5, 4, 3};
  LP.addRow({2, 3, 1}, 5);
  for (size_t I = 0; I != 3; ++I) {
    std::vector<double> Row(3, 0.0);
    Row[I] = 1.0;
    LP.addRow(Row, 1.0);
  }
  IlpResult R = solveIlp(LP, {0, 1, 2});
  ASSERT_EQ(R.Status, IlpStatus::Optimal);
  EXPECT_NEAR(R.Objective, 9.0, 1e-6) << "take items 1 and 3 (5 + 3) + ...";
}

TEST(BranchBound, FractionalLpVsIntegralIlp) {
  // max x st 2x <= 3: LP gives 1.5, ILP gives 1.
  LinearProgram LP;
  LP.NumVars = 1;
  LP.Objective = {1};
  LP.addRow({2}, 3);
  EXPECT_NEAR(solveLp(LP).Objective, 1.5, 1e-6);
  IlpResult R = solveIlp(LP, {0});
  ASSERT_EQ(R.Status, IlpStatus::Optimal);
  EXPECT_NEAR(R.Objective, 1.0, 1e-6);
}

TEST(IlpSynth, TimesOutGracefullyOnTinyBudget) {
  // The ILP route does not scale (the paper's finding); verify it at least
  // reports the timeout instead of wedging.
  Machine M(MachineKind::Cmov, 2);
  IlpSynthOptions Opts;
  Opts.Length = 4;
  Opts.Stop = StopToken().withDeadline(2);
  IlpSynthResult R = ilpSynthesize(M, Opts);
  EXPECT_TRUE(R.TimedOut || R.Found);
  if (R.Found) {
    EXPECT_TRUE(isCorrectKernel(M, R.P));
  }
  EXPECT_GT(R.NumVars, 0u);
  EXPECT_GT(R.NumRows, 0u);
}

//===----------------------------------------------------------------------===//
// Stochastic search.
//===----------------------------------------------------------------------===//

TEST(Stoke, ColdStartFindsKernelN2) {
  Machine M(MachineKind::Cmov, 2);
  StokeOptions Opts;
  Opts.Length = 4;
  Opts.MaxIterations = 5000000;
  Opts.Stop = StopToken().withDeadline(60);
  StokeResult R = stokeSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.Best));
}

TEST(Stoke, WarmStartKeepsCorrectSeedCorrect) {
  Machine M(MachineKind::Cmov, 3);
  StokeOptions Opts;
  Opts.Length = 12;
  Opts.Seed = sortingNetworkCmov(3);
  Opts.MaxIterations = 20000;
  Opts.Stop = StopToken().withDeadline(30);
  StokeResult R = stokeSynthesize(M, Opts);
  // The seed is already correct, so the search must report success
  // immediately with cost 0.
  EXPECT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.Best));
}

TEST(Stoke, RandomSubsetSuiteStillVerifiesFully) {
  Machine M(MachineKind::Cmov, 2);
  StokeOptions Opts;
  Opts.Length = 4;
  Opts.RandomTests = 1;
  Opts.MaxIterations = 5000000;
  Opts.Stop = StopToken().withDeadline(60);
  StokeResult R = stokeSynthesize(M, Opts);
  if (R.Found) {
    EXPECT_TRUE(isCorrectKernel(M, R.Best))
        << "Found implies full-suite verification";
  }
}

//===----------------------------------------------------------------------===//
// Planning.
//===----------------------------------------------------------------------===//

TEST(Planning, TaskCompilationShape) {
  Machine M(MachineKind::Cmov, 2);
  PlanningTask Task = buildSynthesisTask(M);
  EXPECT_EQ(Task.Actions.size(), M.instructions().size());
  EXPECT_EQ(Task.GoalFacts.size(), 2u * 2u); // 2 examples x 2 data regs.
  EXPECT_EQ(Task.InitialFacts.size(), 2u * 3u); // 2 examples x 3 regs.
}

TEST(Planning, GoalCountSolvesN2) {
  Machine M(MachineKind::Cmov, 2);
  PlanOptions Opts;
  Opts.Heuristic = PlanHeuristic::GoalCount;
  Opts.Stop = StopToken().withDeadline(60);
  PlanSynthResult R = planSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
}

TEST(Planning, HAddSolvesN3) {
  Machine M(MachineKind::Cmov, 3);
  PlanOptions Opts;
  Opts.Heuristic = PlanHeuristic::HAdd;
  Opts.Stop = StopToken().withDeadline(120);
  PlanSynthResult R = planSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
  EXPECT_GE(R.P.size(), 11u) << "cannot beat the optimal length";
}

TEST(Planning, PlannerHandlesTrivialGoal) {
  PlanningTask Task;
  Task.NumFacts = 2;
  Task.InitialFacts = {0};
  Task.GoalFacts = {0};
  PlanOptions Opts;
  PlanResult R = plan(Task, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Plan.empty());
}

TEST(Planning, ConditionalEffectsFireOnPreState) {
  // One action with two conditional effects that would chain if evaluated
  // sequentially; STRIPS semantics evaluates both against the pre-state.
  PlanningTask Task;
  Task.NumFacts = 3;
  Task.InitialFacts = {0};
  Task.GoalFacts = {1};
  PlanningTask::Action A;
  A.Name = "chain";
  A.Effects.push_back({{0}, {1}, {0}});
  A.Effects.push_back({{1}, {2}, {}}); // Must NOT fire on the first apply.
  Task.Actions.push_back(A);
  PlanOptions Opts;
  PlanResult R = plan(Task, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Plan.size(), 1u);
}

//===----------------------------------------------------------------------===//
// MCTS.
//===----------------------------------------------------------------------===//

TEST(Mcts, FindsKernelN2) {
  Machine M(MachineKind::Cmov, 2);
  MctsOptions Opts;
  Opts.MaxLength = 6;
  Opts.RolloutDepth = 6;
  Opts.MaxIterations = 3000000;
  Opts.Stop = StopToken().withDeadline(120);
  MctsResult R = mctsSynthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(isCorrectKernel(M, R.P));
  EXPECT_LE(R.P.size(), 6u);
}

TEST(Mcts, RespectsIterationBudget) {
  Machine M(MachineKind::Cmov, 3);
  MctsOptions Opts;
  Opts.MaxLength = 11;
  Opts.MaxIterations = 500;
  MctsResult R = mctsSynthesize(M, Opts);
  EXPECT_LE(R.Iterations, 500u);
}

} // namespace

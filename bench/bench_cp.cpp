//===- bench/bench_cp.cpp - Section 5.2 CP tables ----------------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the two constraint-programming tables of section 5.2:
//
//  1. the solver table — plain finite-domain solvers fail n = 3 (our FD
//     engine reproduces the Gecode/OR-tools rows); the only success was
//     Chuffed, a lazy-clause-generation solver, which our CDCL-backed
//     encoding stands in for ("CP-LCG"); the ILP routes fail;
//  2. the goal-formulation/heuristic table on the LCG route, reproducing
//     the paper's ordering: "<=,#0123" with heuristics (I)+(II) is fastest,
//     over-constraining slows the solver back down.
//
// Also reproduces the all-solutions enumeration and the partial-test-suite
// (CP-MiniZinc-Filter) failure mode. All single-kernel rows run through
// the driver's Backend interface and its verification gate.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/Backends.h"
#include "verify/Verify.h"

using namespace sks;
using namespace sks::bench;

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  banner("bench_cp", "section 5.2 constraint-programming tables");

  unsigned N = Args.Smoke ? 2 : 3;
  unsigned Length = Args.Smoke ? 4 : 11;
  double ShortTimeout = isFullRun() ? 1800 : 120;
  double LcgTimeout = Args.Smoke ? 30 : (isFullRun() ? 3600 : 300);

  auto Request = [&](unsigned ReqN, unsigned Bound, double Timeout) {
    SynthRequest Req;
    Req.N = ReqN;
    Req.Goal = SynthGoal::FirstKernel; // Single shot at the paper's bound.
    Req.MaxLength = Bound;
    Req.TimeoutSeconds = Timeout;
    return Req;
  };
  auto LcgRow = [&](SmtOptions Opts) {
    // The request bound drives the encoding length; Opts.Length is unused.
    return makeSmtBackend(Opts, "cp-lcg")->run(Request(N, Length, LcgTimeout));
  };

  // ------------------------------------------------------------------
  // Solver table.
  // ------------------------------------------------------------------
  Table Solvers({"Approach", "Time (measured)", "Time (paper)", "Note"});
  {
    CpOptions Opts;
    Opts.NoConsecutiveCmp = true;
    SynthOutcome O =
        makeCpBackend(Opts, "cp-fd")->run(Request(N, Length, ShortTimeout));
    Solvers.row()
        .cell("CP-FD (propagate + DFS)")
        .cell(outcomeCell(O))
        .cell("- (gecode/or-tools rows)")
        .cell("plain FD search, like the failing MiniZinc backends");
  }
  {
    SmtOptions Opts;
    Opts.Goal = SmtGoal::AscendingCounts;
    Opts.NoConsecutiveCmp = true;
    Solvers.row()
        .cell("CP-LCG (chuffed-style)")
        .cell(outcomeCell(LcgRow(Opts)))
        .cell("874 ms (chuffed)")
        .cell("lazy clause generation == CDCL on the same model");
  }
  if (!Args.Smoke) {
    // The ILP route: already hopeless at n = 2 within the short budget.
    SynthOutcome O =
        makeIlpBackend()->run(Request(2, 4, isFullRun() ? 600 : 60));
    char Note[96];
    std::snprintf(Note, sizeof(Note),
                  "big-M encoding, %llu vars x %llu rows at n=2 already",
                  static_cast<unsigned long long>(outcomeStat(O, "lp_vars")),
                  static_cast<unsigned long long>(outcomeStat(O, "lp_rows")));
    Solvers.row()
        .cell("CP-ILP (simplex + B&B), n = 2")
        .cell(outcomeCell(O))
        .cell("- (gurobi/cbc rows, n = 3)")
        .cell(Note);
  }
  {
    // CP-MiniZinc-Filter: partial suite generates prohibitively many wrong
    // programs (shown at n = 2 where full enumeration is instant). All-
    // solutions enumeration has no Backend analogue, so it calls the
    // solver directly.
    Machine M2(MachineKind::Cmov, 2);
    CpOptions Opts;
    Opts.Length = 4;
    Opts.PartialExamples = 1;
    Opts.EnumerateAll = true;
    Opts.MaxSolutions = 100000;
    Opts.Stop = StopToken().withDeadline(ShortTimeout);
    CpResult R = cpSynthesize(M2, Opts);
    size_t Correct = 0;
    for (const Program &P : R.Solutions)
      Correct += isCorrectKernel(M2, P);
    char Note[96];
    std::snprintf(Note, sizeof(Note),
                  "%zu candidates from 1 example, only %zu survive filter",
                  R.Solutions.size(), Correct);
    Solvers.row()
        .cell("CP-Filter (partial suite), n = 2")
        .cell(formatDuration(R.Seconds))
        .cell("- (impractical)")
        .cell(Note);
  }
  Solvers.print();

  // ------------------------------------------------------------------
  // Goal-formulation / heuristic table (LCG route).
  // ------------------------------------------------------------------
  struct GoalRow {
    const char *Goal;
    const char *Heuristic;
    const char *Paper;
    SmtOptions Opts;
  };
  auto Mk = [](SmtGoal Goal, bool CountZero, bool NoCC, bool SymCmps,
               bool FirstCmp) {
    SmtOptions Opts;
    Opts.Goal = Goal;
    Opts.CountZero = CountZero;
    Opts.NoConsecutiveCmp = NoCC;
    Opts.IncludeSymmetricCmps = SymCmps;
    Opts.FirstInstrCmp = FirstCmp;
    return Opts;
  };
  std::vector<GoalRow> Rows = {
      {"= 123", "-", "247 s", Mk(SmtGoal::Exact, true, false, true, false)},
      {"<=, #0123", "-", "232 s",
       Mk(SmtGoal::AscendingCounts, true, false, true, false)},
      {"<=, #0123", "(I) no consecutive cmp", "10 s",
       Mk(SmtGoal::AscendingCounts, true, true, true, false)},
      {"<=, #0123", "(II) cmp symmetry", "68 s",
       Mk(SmtGoal::AscendingCounts, true, false, false, false)},
      {"<=, #0123", "(I) + (II)", "874 ms",
       Mk(SmtGoal::AscendingCounts, true, true, false, false)},
      {"= 123", "(I) + (II)", "70 s",
       Mk(SmtGoal::Exact, true, true, false, false)},
      {"<=, #0123, = 123", "(I) + (II)", "119 s",
       Mk(SmtGoal::Both, true, true, false, false)},
      {"<=, #123", "(I) + (II)", "30 s",
       Mk(SmtGoal::AscendingCounts, false, true, false, false)},
      {"<=, #0123", "(I) + (II), cmd[1] = cmp", "64 s",
       Mk(SmtGoal::AscendingCounts, true, true, false, true)},
  };
  if (Args.Smoke)
    Rows.resize(1); // One representative row exercises the pipeline.
  Table Goals({"Goal", "Heuristic", "Time (measured)", "Time (paper)"});
  for (GoalRow &Row : Rows)
    Goals.row()
        .cell(Row.Goal)
        .cell(Row.Heuristic)
        .cell(outcomeCell(LcgRow(Row.Opts)))
        .cell(Row.Paper);
  Goals.print();
  std::printf("note: \"(II) cmp symmetry\" rows widen the alphabet with the\n"
              "symmetric compares the restricted machine omits, matching the\n"
              "paper's with/without-(II) comparison.\n");
  return 0;
}

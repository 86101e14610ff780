//===- bench/bench_planning.cpp - Section 5.2 planning table ----------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the planning table for n = 3 with the in-tree STRIPS planner
// (see DESIGN.md's substitution table):
//
//   Plan-Parallel                 -              <- GBFS goal count
//   Plan-Seq, Scorpion            679 s          <- A* h_add
//   Plan-Seq, Lama                3.54 s         <- GBFS h_add (FF-family)
//   Plan-Seq, lexicographic       (seq variant)  <- GBFS seq goal count
//
// and probes n = 4 (paper: no planner scales; our h_add substitute finds a
// much-longer-than-optimal kernel — see EXPERIMENTS.md). Rows run through
// the driver's Backend interface and its verification gate.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/Backends.h"

using namespace sks;
using namespace sks::bench;

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  banner("bench_planning", "section 5.2 planning table");

  double Timeout = isFullRun() ? 1800 : 90;
  Table T({"Approach", "Outcome (measured)", "Paper analogue", "plan len"});

  auto Run = [&](const char *Name, const char *Paper, unsigned N,
                 PlanHeuristic H, bool Greedy) {
    PlanOptions Opts;
    Opts.Heuristic = H;
    Opts.Greedy = Greedy;
    SynthRequest Req;
    Req.N = N;
    Req.Goal = SynthGoal::FirstKernel;
    Req.TimeoutSeconds = Timeout;
    SynthOutcome O = makePlanBackend(Opts, "plan")->run(Req);
    T.row()
        .cell(Name)
        .cell(outcomeCell(O))
        .cell(Paper)
        .cell(O.Kernel.empty() ? "-" : std::to_string(O.Kernel.size()));
  };

  if (!Args.Smoke) {
    Run("Plan-Parallel, GBFS goal count", "Plan-Parallel: -", 3,
        PlanHeuristic::GoalCount, true);
    Run("Plan-Seq, GBFS lexicographic goals", "Plan-Seq (linearized)", 3,
        PlanHeuristic::SeqGoalCount, true);
  }
  Run("Plan-Seq, GBFS h_add", "Plan-Seq, Lama: 3.54 s", 3,
      PlanHeuristic::HAdd, true);
  if (!Args.Smoke) {
    Run("Plan-Seq, A* h_add", "Plan-Seq, Scorpion: 679 s", 3,
        PlanHeuristic::HAdd, false);
    Run("n = 4, GBFS h_add", "paper: no planner solves n = 4", 4,
        PlanHeuristic::HAdd, true);
  }
  T.print();
  std::printf(
      "note: h_add-guided plans are satisficing, not optimal — the n=4 plan\n"
      "is far above the optimal 20 instructions, consistent with the paper's\n"
      "claim that classical techniques cannot find optimal kernels there.\n");
  return 0;
}

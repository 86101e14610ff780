//===- examples/synthesis_shootout.cpp - Every technique, one problem ------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs every synthesis technique in the repository on the same tiny
// problem — the n = 2 kernel (optimal length 4) — so their behaviour can
// be compared side by side: the enumerative search, the SAT-backed
// SMT-Perm and SMT-CEGIS routes, finite-domain CP, ILP branch-and-bound,
// STOKE-style MCMC, the STRIPS planner, and MCTS. This is the miniature
// version of the paper's section 5.2.
//
//   $ ./examples/synthesis_shootout
//
//===----------------------------------------------------------------------===//

#include "cp/CpSolver.h"
#include "ilp/IlpSynth.h"
#include "mcts/Mcts.h"
#include "planning/PlanSynth.h"
#include "search/Search.h"
#include "smt/SmtSynth.h"
#include "stoke/Stoke.h"
#include "support/Table.h"
#include "support/Timing.h"
#include "verify/Verify.h"

#include <cstdio>

using namespace sks;

int main() {
  Machine M(MachineKind::Cmov, 2);
  const unsigned Length = 4;
  const double Timeout = 60;
  Table T({"Technique", "Found", "Time", "Len", "Verified"});

  auto Report = [&](const char *Name, bool Found, double Seconds,
                    const Program &P) {
    T.row()
        .cell(Name)
        .cell(Found ? "yes" : "no")
        .cell(formatDuration(Seconds))
        .cell(Found ? std::to_string(P.size()) : "-")
        .cell(Found ? (isCorrectKernel(M, P) ? "yes" : "NO") : "-");
  };

  {
    SearchOptions Opts;
    Opts.Heuristic = HeuristicKind::PermCount;
    Opts.UseViability = true;
    Opts.MaxLength = Length;
    SearchResult R = synthesize(M, Opts);
    Report("Enumerative (this paper)", R.Found, R.Stats.Seconds,
           R.Found ? R.Solutions.front() : Program{});
  }
  {
    SmtOptions Opts;
    Opts.Length = Length;
    Opts.Stop = StopToken().withDeadline(Timeout);
    SmtResult R = smtSynthesize(M, Opts);
    Report("SMT-Perm (CDCL)", R.Found, R.Seconds, R.P);
    Opts.Cegis = true;
    Opts.Stop = StopToken().withDeadline(Timeout); // Its own budget.
    R = smtSynthesize(M, Opts);
    Report("SMT-CEGIS (CDCL)", R.Found, R.Seconds, R.P);
  }
  {
    CpOptions Opts;
    Opts.Length = Length;
    Opts.Stop = StopToken().withDeadline(Timeout);
    CpResult R = cpSynthesize(M, Opts);
    Report("CP (finite-domain)", R.Found, R.Seconds, R.P);
  }
  {
    IlpSynthOptions Opts;
    Opts.Length = Length;
    Opts.Stop = StopToken().withDeadline(Timeout);
    IlpSynthResult R = ilpSynthesize(M, Opts);
    Report("ILP (simplex + B&B)", R.Found, R.Seconds, R.P);
  }
  {
    StokeOptions Opts;
    Opts.Length = Length;
    Opts.MaxIterations = UINT64_MAX;
    Opts.Stop = StopToken().withDeadline(Timeout);
    StokeResult R = stokeSynthesize(M, Opts);
    Report("Stoke (MCMC)", R.Found, R.Seconds, R.Best);
  }
  {
    PlanOptions Opts;
    Opts.Heuristic = PlanHeuristic::HAdd;
    Opts.Stop = StopToken().withDeadline(Timeout);
    PlanSynthResult R = planSynthesize(M, Opts);
    Report("Planning (GBFS h_add)", R.Found, R.Seconds, R.P);
  }
  {
    MctsOptions Opts;
    Opts.MaxLength = 6;
    Opts.RolloutDepth = 6;
    Opts.MaxIterations = UINT64_MAX;
    Opts.Stop = StopToken().withDeadline(Timeout);
    MctsResult R = mctsSynthesize(M, Opts);
    Report("MCTS (UCT)", R.Found, R.Seconds, R.P);
  }
  T.print();
  std::printf("At n = 3 this field thins out dramatically — run the bench_*\n"
              "binaries for the paper-scale comparison.\n");
  return 0;
}

//===- bench/bench_mcts.cpp - MCTS (AlphaDev-RL stand-in) -------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper compares against AlphaDev-RL (MCTS + learned value network on
// TPUs, code unavailable). This binary runs the in-tree UCT baseline with
// AlphaDev's correctness reward and no learned network, demonstrating the
// paper's broader point from the other side: without either the domain
// heuristics of section 3 or a learned value function, tree search alone
// does not reach n = 3 kernels in a laptop-scale budget. Rows run through
// the driver's Backend interface and its verification gate.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/Backends.h"

using namespace sks;
using namespace sks::bench;

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  banner("bench_mcts", "AlphaDev-RL stand-in (UCT, no learned network)");

  Table T({"Setting", "Outcome (measured)", "AlphaDev-RL (paper [13])"});
  auto Run = [&](unsigned N, unsigned MaxLen, double Timeout,
                 const char *Paper) {
    MctsOptions Opts;
    Opts.RolloutDepth = MaxLen;
    Opts.MaxIterations = UINT64_MAX; // The deadline is the budget.
    SynthRequest Req;
    Req.N = N;
    Req.Goal = SynthGoal::FirstKernel;
    Req.MaxLength = MaxLen;
    Req.TimeoutSeconds = Timeout;
    char Name[32];
    std::snprintf(Name, sizeof(Name), "n = %u, horizon %u", N, MaxLen);
    SynthOutcome O = makeMctsBackend(Opts, "mcts")->run(Req);
    std::string Outcome = outcomeCell(O);
    if (O.Kernel.empty()) {
      char Detail[96];
      std::snprintf(
          Detail, sizeof(Detail), " (%llu iters, %llu tree nodes)",
          static_cast<unsigned long long>(outcomeStat(O, "iterations")),
          static_cast<unsigned long long>(outcomeStat(O, "tree_nodes")));
      Outcome += Detail;
    }
    T.row().cell(Name).cell(Outcome).cell(Paper);
  };

  Run(2, 6, 60, "n/a");
  if (!Args.Smoke)
    Run(3, 14, isFullRun() ? 1800 : 120, "6 min on a TPU v3/v4 cluster");
  T.print();
  return 0;
}

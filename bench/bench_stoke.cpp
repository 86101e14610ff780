//===- bench/bench_stoke.cpp - Section 5.2 Stoke table ----------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the stochastic-search table for n = 3: cold start with the
// permutation suite, cold start with a random-subset suite, and warm
// starts from a sorting-network seed and from padded/branchy seeds. The
// paper's finding — STOKE synthesizes nothing correct for n = 3 within the
// budget, and the warm starts do not reach the optimal length — is
// reproduced with bounded timeouts. n = 2 is included as a sanity row
// where stochastic search does succeed. All rows run through the driver's
// Backend interface and its verification gate.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/Backends.h"
#include "kernels/ReferenceKernels.h"

using namespace sks;
using namespace sks::bench;

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  banner("bench_stoke", "section 5.2 stochastic search (Stoke) table");

  double Timeout = isFullRun() ? 1800 : 60;
  Table T({"Approach", "Outcome (measured)", "Paper", "Note"});

  auto Run = [&](const char *Name, const char *Paper, StokeOptions Opts,
                 unsigned N, unsigned Length, double Seconds,
                 const char *Note) {
    Opts.MaxIterations = UINT64_MAX; // The deadline is the budget.
    SynthRequest Req;
    Req.N = N;
    Req.Goal = SynthGoal::FirstKernel;
    Req.MaxLength = Length;
    Req.TimeoutSeconds = Seconds;
    SynthOutcome O = makeStokeBackend(Opts, "stoke")->run(Req);
    std::string Outcome = outcomeCell(O);
    if (O.Kernel.empty()) {
      char Detail[96];
      std::snprintf(
          Detail, sizeof(Detail), " (best cost %llu, %llu proposals)",
          static_cast<unsigned long long>(outcomeStat(O, "best_cost")),
          static_cast<unsigned long long>(outcomeStat(O, "iterations")));
      Outcome += Detail;
    }
    T.row().cell(Name).cell(Outcome).cell(Paper).cell(Note);
  };

  if (!Args.Smoke) {
    {
      StokeOptions Opts;
      Run("Stoke-Cold, permutation suite", "-", Opts, 3, 11, Timeout,
          "all 6 permutations");
    }
    {
      StokeOptions Opts;
      Opts.RandomTests = 4;
      Run("Stoke-Cold, random suite", "-", Opts, 3, 11, Timeout,
          "4 random permutations");
    }
    {
      StokeOptions Opts;
      Opts.Seed = sortingNetworkCmov(3); // Truncated to 11 by the engine.
      Run("Stoke-Warm, network start (len 11)", "-", Opts, 3, 11, Timeout,
          "seed truncated below optimal: must re-discover");
    }
    {
      // The len-12 seed is already a correct kernel: the warm start keeps
      // it but never shrinks to the optimal 11 (the paper's finding).
      StokeOptions Opts;
      Opts.Seed = sortingNetworkCmov(3);
      Run("Stoke-Warm, network start (len 12)", "- (never reaches len 11)",
          Opts, 3, 12, Timeout, "warm start cannot shrink the program");
    }
  }
  {
    // Sanity: n = 2 succeeds, showing the engine itself works.
    StokeOptions Opts;
    Run("Stoke-Cold, n = 2 (sanity)", "n/a", Opts, 2, 4, 60,
        "engine control row");
  }
  T.print();
  return 0;
}

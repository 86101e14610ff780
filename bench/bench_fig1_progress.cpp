//===- bench/bench_fig1_progress.cpp - Figure 1 search progress ------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 1: open states and found optimal solutions over time
// for the n = 4 search with cut k = 1. The trace is written to
// fig1_progress.csv (columns: seconds, open_states, solutions_found); the
// qualitative shape to compare against the paper is that open states grow
// through the early levels while solutions arrive in bursts near the end.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace sks;
using namespace sks::bench;

int main() {
  banner("bench_fig1_progress",
         "Figure 1: solutions and open states over time (n=4, cut 1)");

  Machine M(MachineKind::Cmov, 4);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::mult(1.0);
  Opts.MaxLength = 20;
  Opts.MaxSolutionsKept = 0; // Count only; the DAG carries the rest.
  Opts.TraceIntervalSeconds = 0.05;
  Opts.Stop = StopToken().withDeadline(isFullRun() ? 7200 : 900);
  SearchResult R = synthesize(M, Opts);

  Table T({"seconds", "open_states", "solutions_found"});
  for (const TracePoint &P : R.Trace)
    T.row().cell(P.Seconds, 3).cell(P.OpenStates).cell(P.SolutionsFound);
  if (!T.writeCsv("fig1_progress.csv"))
    std::printf("warning: could not write fig1_progress.csv\n");

  std::printf("trace points: %zu (fig1_progress.csv)\n", R.Trace.size());
  std::printf("note: the paper's week-long run accumulates solutions one by\n"
              "one; the solution DAG counts them in aggregate during the\n"
              "final-level merge, so the solution curve is a step at the "
              "end.\n");
  std::printf("search %s in %s: optimal length %u, %llu optimal solutions "
              "surviving cut k=1\n",
              R.Found ? "completed" : "timed out",
              formatDuration(R.Stats.Seconds).c_str(), R.OptimalLength,
              static_cast<unsigned long long>(R.SolutionCount));
  // Compact textual rendition of the two curves.
  if (!R.Trace.empty()) {
    size_t MaxOpen = 0;
    uint64_t MaxSolutions = 0;
    for (const TracePoint &P : R.Trace) {
      MaxOpen = std::max(MaxOpen, P.OpenStates);
      MaxSolutions = std::max(MaxSolutions, P.SolutionsFound);
    }
    std::printf("\n  time     open states%*s solutions\n", 28, "");
    size_t Step = std::max<size_t>(1, R.Trace.size() / 24);
    for (size_t I = 0; I < R.Trace.size(); I += Step) {
      const TracePoint &P = R.Trace[I];
      int OpenBar = MaxOpen ? int(30.0 * P.OpenStates / MaxOpen) : 0;
      int SolBar =
          MaxSolutions ? int(20.0 * double(P.SolutionsFound) / MaxSolutions)
                       : 0;
      std::printf("  %6.2fs |%-30.*s| |%-20.*s|\n", P.Seconds, OpenBar,
                  "##############################", SolBar,
                  "####################");
    }
  }
  return 0;
}

//===- bench/bench_fig1_progress.cpp - Figure 1 search progress ------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 1: open states and found optimal solutions over time
// for the n = 4 search with cut k = 1. The layered engine records each
// level's state count and commit time (SearchStats::LevelStates and
// LevelSeconds), so the figure has one row per committed level: a level's
// states are the open states at its commit, and the solutions arrive with
// the last level. The rows go to fig1_progress.csv (columns: level,
// seconds, open_states, solutions_found); the shape to compare against the
// paper is that open states grow through the early levels and collapse
// before the end. --smoke runs the same search at n = 3, bound 11.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace sks;
using namespace sks::bench;

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  banner("bench_fig1_progress",
         "Figure 1: solutions and open states over time (n=4, cut 1)");

  Machine M(MachineKind::Cmov, Args.Smoke ? 3 : 4);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::mult(1.0);
  Opts.MaxLength = Args.Smoke ? 11 : 20;
  Opts.MaxSolutionsKept = 0; // Count only; the DAG carries the rest.
  Opts.Stop = StopToken().withDeadline(isFullRun() ? 7200 : 900);
  SearchResult R = synthesize(M, Opts);

  const std::vector<size_t> &States = R.Stats.LevelStates;
  Table T({"level", "seconds", "open_states", "solutions_found"});
  for (size_t L = 0; L != States.size(); ++L) {
    const bool Last = R.Found && L + 1 == States.size();
    T.row()
        .cell(L)
        .cell(R.Stats.LevelSeconds[L], 3)
        .cell(States[L])
        .cell(Last ? R.SolutionCount : 0);
  }
  T.print();
  if (!T.writeCsv("fig1_progress.csv"))
    std::printf("warning: could not write fig1_progress.csv\n");

  std::printf("levels: %zu (fig1_progress.csv)\n", States.size());
  std::printf("note: the paper's week-long run accumulates solutions one by\n"
              "one; the solution DAG counts them in aggregate at the last\n"
              "level, so the solution curve is a step at the end.\n");
  std::printf("search %s in %s: optimal length %u, %llu optimal solutions "
              "surviving cut k=1\n",
              R.Found ? "completed" : "timed out",
              formatDuration(R.Stats.Seconds).c_str(), R.OptimalLength,
              static_cast<unsigned long long>(R.SolutionCount));
  return 0;
}

//===- bench/bench_kernels_n4.cpp - Section 5.3 n=4 runtime tables ---------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the n = 4 table of section 5.3 (standalone + quicksort).
// The solution space is sampled the way the paper does: enumerate the
// k=1-cut solution space, score every kernel (mov 1, cmp 2, cmov 4 — the
// classes {55, 58, 61, ...}), and sample from the two lowest score
// classes. The sampled candidates are raced standalone, and the best /
// worst become the enum / enum_worst rows. Note the paper's n = 4 table
// has no cassioneri row ("Neri does not provide a cassioneri algorithm
// for n = 4").
//
//===----------------------------------------------------------------------===//

#include "KernelBench.h"

#include "analysis/Analysis.h"
#include "kernels/ReferenceKernels.h"
#include "verify/Verify.h"

#include <algorithm>

using namespace sks;
using namespace sks::bench;

int main() {
  banner("bench_kernels_n4",
         "section 5.3 n=4 standalone + quicksort table");

  const unsigned N = 4;
  Machine M(MachineKind::Cmov, N);

  // Enumerate the k=1 solution space (completes in ~20 s via the DAG).
  SearchOptions All;
  All.Heuristic = HeuristicKind::None;
  All.FindAll = true;
  All.UseViability = true;
  All.Cut = CutConfig::mult(1.0);
  All.MaxLength = 20;
  All.MaxSolutionsKept = isFullRun() ? (1u << 18) : 20000;
  All.Stop = StopToken().withDeadline(isFullRun() ? 7200 : 900);
  SearchResult R = synthesize(M, All);
  std::printf("k=1 solution space: %llu length-20 kernels (paper: 2,233,360 "
              "under its enumeration semantics; see EXPERIMENTS.md), "
              "%zu reconstructed, %s\n",
              static_cast<unsigned long long>(R.SolutionCount),
              R.Solutions.size(),
              formatDuration(R.Stats.Seconds).c_str());

  // Score-stratified sampling: two lowest score classes, as in the paper.
  size_t PerClass = isFullRun() ? 2000 : 40;
  std::vector<Program> Sampled = sampleByScore(R.Solutions, 2, PerClass);
  std::printf("sampled %zu kernels from the two lowest score classes\n\n",
              Sampled.size());

  std::vector<int32_t> Standalone = standaloneWorkload(N, 4096, 3);
  std::vector<std::vector<int32_t>> Embedded = embeddedWorkload(48, 20000, 4);

  double BestTime = 1e300, WorstTime = -1;
  size_t BestIdx = 0, WorstIdx = 0;
  size_t Probe = std::min<size_t>(Sampled.size(), isFullRun() ? 4000 : 24);
  for (size_t I = 0; I != Probe; ++I) {
    if (!isRobustKernel(M, Sampled[I]))
      continue; // See EXPERIMENTS.md on fragile model-optimal kernels.
    Contestant C("cand", MachineKind::Cmov, N, Sampled[I]);
    double T = standaloneMillis(C, N, Standalone, 10);
    if (T < BestTime) {
      BestTime = T;
      BestIdx = I;
    }
    if (T > WorstTime) {
      WorstTime = T;
      WorstIdx = I;
    }
  }

  std::vector<Contestant> Contestants;
  Contestants.emplace_back("enum", MachineKind::Cmov, N, Sampled[BestIdx]);
  Contestants.emplace_back("enum_worst", MachineKind::Cmov, N,
                           Sampled[WorstIdx]);
  Contestants.emplace_back("alphadev (network mix)", MachineKind::Cmov, N,
                           sortingNetworkCmov(N));
  if (mimicrySupported())
    Contestants.emplace_back("mimicry", N, mimicrySort4);
  Contestants.emplace_back("branchless", N, branchlessSort4);
  Contestants.emplace_back("default", N, defaultSort4);
  Contestants.emplace_back("swap", N, swapSort4);
  Contestants.emplace_back("std", N, stdSort4);

  for (const Contestant &C : Contestants) {
    std::vector<int32_t> Check = {3, -9, 22, -1};
    C.sortOnce(Check.data());
    if (!std::is_sorted(Check.begin(), Check.end())) {
      std::printf("ERROR: contestant %s does not sort!\n", C.name().c_str());
      return 1;
    }
  }

  std::vector<TimedRow> Rows;
  for (const Contestant &C : Contestants)
    Rows.push_back(
        {C.name(), standaloneMillis(C, N, Standalone), 0, C.mixText()});
  printRankedTable("Standalone:", Rows);

  Rows.clear();
  for (const Contestant &C : Contestants)
    Rows.push_back({C.name(), embeddedMillis(C, N, Embedded, false), 0,
                    C.mixText()});
  printRankedTable("Embedded in quicksort:", Rows);

  std::printf("paper shape: enum leads the quicksort table and is second\n"
              "standalone behind the vectorized mimicry kernel.\n");
  return 0;
}

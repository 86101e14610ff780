//===- bench/bench_kernels_n5.cpp - Section 5.3 n=5 runtime table ----------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the n = 5 table of section 5.3 (enum vs enum_worst vs
// alphadev) and runs the n = 5 synthesis attempt itself. Synthesizing
// n = 5 took the paper 11 minutes on 16 cores; here the attempt runs the
// layered engine under an explicit time + resident-memory budget and
// prints its outcome: a success times the kernel, a failure names WHICH
// budget bound (timed out / resident budget exhausted). SKS_FULL=1 raises
// the budget to paper scale; --smoke shrinks it to ctest scale.
//
//===----------------------------------------------------------------------===//

#include "KernelBench.h"

#include "kernels/ReferenceKernels.h"
#include "verify/Verify.h"

using namespace sks;
using namespace sks::bench;

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  banner("bench_kernels_n5", "section 5.3 n=5 standalone table");

  const unsigned N = 5;
  Machine M(MachineKind::Cmov, N);

  // The synthesis attempt: layered engine, explicit budgets. Every tier
  // must fit the machine it runs on — the full run matches the paper's
  // 4 h budget, the default run is a one-minute datapoint, the smoke run
  // just proves the path executes.
  SearchOptions Opts = bestEnumConfig(MachineKind::Cmov, N);
  Opts.Layered = true;
  if (Args.Smoke) {
    Opts.Stop = StopToken().withDeadline(2.0);
    Opts.MaxStateBytes = 256u << 20;
  } else if (isFullRun()) {
    Opts.Stop = StopToken().withDeadline(4 * 3600.0);
    Opts.MaxStateBytes = 64ull << 30;
  } else {
    Opts.Stop = StopToken().withDeadline(60.0);
    Opts.MaxStateBytes = 2ull << 30;
  }

  SearchResult R = synthesize(M, Opts);
  std::printf("n=5 attempt: %s in %s — states=%zu peak=%zu\n",
              R.Found ? "FOUND"
              : R.Stats.Stopped == StopReason::None
                  ? "bound exhausted"
                  : stopReasonName(R.Stats.Stopped),
              formatDuration(R.Stats.Seconds).c_str(), R.Stats.StatesExpanded,
              R.Stats.PeakStateBytes);

  Program EnumKernel = sortingNetworkCmov(N);
  std::string EnumLabel = "enum (budget; network stand-in)";
  if (R.Found && isCorrectKernel(M, R.Solutions.at(0))) {
    EnumKernel = R.Solutions.at(0);
    EnumLabel = "enum (len " + std::to_string(R.OptimalLength) + ", " +
                formatDuration(R.Stats.Seconds) + ")";
  }

  std::vector<int32_t> Standalone = standaloneWorkload(N, 4096, 5);

  std::vector<Contestant> Contestants;
  Contestants.emplace_back(EnumLabel, MachineKind::Cmov, N, EnumKernel);
  Contestants.emplace_back("alphadev (network mix)", MachineKind::Cmov, N,
                           sortingNetworkCmov(N));
  Contestants.emplace_back("default", N, defaultSort5);
  Contestants.emplace_back("swap", N, swapSort5);
  Contestants.emplace_back("std", N, stdSort5);

  for (const Contestant &C : Contestants) {
    std::vector<int32_t> Check = {5, 1, -2, 99, 0};
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
  return 0;
}

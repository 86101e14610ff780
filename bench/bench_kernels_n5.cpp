//===- bench/bench_kernels_n5.cpp - Section 5.3 n=5 runtime table ----------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the n = 5 table of section 5.3 (enum vs enum_worst vs
// alphadev) and records the n = 5 synthesis attempt itself. Synthesizing
// n = 5 took the paper 11 minutes on 16 cores; on this single-core
// container the attempt runs the layered engine with the compressed,
// spillable frontier under an explicit time + resident-memory budget and
// always emits a machine-readable row: a success records the kernel, a
// failure records WHICH budget bound (timed_out / memory_limited) — the
// infeasibility certificate BENCH_headline.json tracks. SKS_FULL=1 raises
// the budget to paper scale; --smoke shrinks it to ctest scale.
//
//===----------------------------------------------------------------------===//

#include "KernelBench.h"

#include "kernels/ReferenceKernels.h"
#include "verify/Verify.h"

#include <cstdlib>
#include <unistd.h>

using namespace sks;
using namespace sks::bench;

namespace {

/// Creates a throwaway spill directory under TMPDIR (default /tmp).
/// \returns the path, or "" when the filesystem is read-only — the
/// attempt then runs compressed but fully resident.
std::string makeSpillDir() {
  const char *Base = std::getenv("TMPDIR");
  std::string Template =
      std::string(Base && *Base ? Base : "/tmp") + "/sks-n5-spill-XXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  if (!mkdtemp(Buf.data()))
    return "";
  return std::string(Buf.data());
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  banner("bench_kernels_n5", "section 5.3 n=5 standalone table");

  const unsigned N = 5;
  Machine M(MachineKind::Cmov, N);
  JsonResultWriter Json;

  // The synthesis attempt: layered engine, compressed frontier, spill
  // tier, explicit budgets. Every tier must fit the machine it runs on —
  // the full run matches the paper's 4 h budget, the default run is a
  // one-minute datapoint, the smoke run just proves the path executes.
  SearchOptions Opts = bestEnumConfig(MachineKind::Cmov, N);
  Opts.CompressFrontier = true;
  std::string SpillDir = makeSpillDir();
  Opts.SpillDir = SpillDir;
  Opts.SpillThresholdBytes = 1u << 20; // Keep 1 MiB compressed resident —
                                       // every budget tier must reach disk.
  if (Args.Smoke) {
    Opts.TimeoutSeconds = 2.0;
    Opts.MaxStateBytes = 256u << 20;
  } else if (isFullRun()) {
    Opts.TimeoutSeconds = 4 * 3600.0;
    Opts.MaxStateBytes = 64ull << 30;
  } else {
    Opts.TimeoutSeconds = 60.0;
    Opts.MaxStateBytes = 2ull << 30;
  }

  SearchResult R = synthesize(M, Opts);
  Json.add(Args.Smoke ? "enum_n5_budget_compressed_smoke"
                      : "enum_n5_budget_compressed",
           R);
  std::printf("n=5 attempt: %s in %s — states=%zu peak=%zu resident=%zu "
              "compressed=%zu spilled=%zu decodes=%.1f ms\n",
              R.Found                 ? "FOUND"
              : R.Stats.MemoryLimited ? "resident budget exhausted"
              : R.Stats.TimedOut      ? "timed out"
                                      : "bound exhausted",
              formatDuration(R.Stats.Seconds).c_str(), R.Stats.StatesExpanded,
              R.Stats.PeakStateBytes, R.Stats.PeakResidentBytes,
              R.Stats.CompressedBytes, R.Stats.SpilledBytes,
              R.Stats.DecodeNanos / 1e6);
  if (!SpillDir.empty())
    ::rmdir(SpillDir.c_str()); // Spill files are unlinked at creation.

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

  if (!Json.write(Args.JsonPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", Args.JsonPath.c_str());
    return 1;
  }
  return 0;
}

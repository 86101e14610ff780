//===- bench/BenchCommon.h - Shared benchmark-harness helpers --*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table benchmark binaries: the paper's best
/// enumerative configuration, kernel-workload generators, the rank column
/// of the section 5.3 tables, and uniform headers. Every binary prints
/// which paper table or figure it regenerates and writes CSVs next to the
/// binary where the paper has a figure. The repository's recorded
/// performance runs are perfbench's (perfbench/README.md), not these
/// tables.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_BENCH_BENCHCOMMON_H
#define SKS_BENCH_BENCHCOMMON_H

#include "driver/Backend.h"
#include "machine/BatchApply.h"
#include "search/Search.h"
#include "state/Canonicalize.h"
#include "support/Env.h"
#include "support/Rng.h"
#include "support/Table.h"
#include "support/Timing.h"

#include <cstdio>
#include <string>
#include <vector>

namespace sks {
namespace bench {

/// The paper's configuration (III): permutation-count heuristic +
/// assignment viability check + cut k=1, bounded by the sorting-network
/// length (section 3.3's "initially given length bound").
inline SearchOptions bestEnumConfig(MachineKind Kind, unsigned N) {
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::PermCount;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::mult(1.0);
  Opts.MaxLength = networkUpperBound(Kind, N);
  return Opts;
}

/// Prints the standard banner tying a binary to its paper artifact.
inline void banner(const char *Binary, const char *Reproduces) {
  std::printf("==============================================================="
              "=\n%s\nreproduces: %s\n",
              Binary, Reproduces);
  std::printf("mode: %s (set SKS_FULL=1 for the paper-scale run)\n"
              "================================================================"
              "\n\n",
              isFullRun() ? "FULL" : "default");
}

/// Standalone workload (section 5.3): arrays of length n with values in
/// -10000..10000.
inline std::vector<int32_t> standaloneWorkload(unsigned N, size_t Arrays,
                                               uint64_t Seed) {
  Rng R(Seed);
  std::vector<int32_t> Data(N * Arrays);
  for (int32_t &V : Data)
    V = static_cast<int32_t>(R.range(-10000, 10000));
  return Data;
}

/// Embedded workload (section 5.3): arrays of random length up to 20000.
inline std::vector<std::vector<int32_t>>
embeddedWorkload(size_t Arrays, size_t MaxLen, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<int32_t>> Out(Arrays);
  for (auto &Array : Out) {
    Array.resize(1 + R.below(MaxLen));
    for (int32_t &V : Array)
      V = static_cast<int32_t>(R.range(-10000, 10000));
  }
  return Out;
}

/// Measures a callable: median-of-\p Repeats wall time of Fn(), in
/// milliseconds. Fn must consume its input freshly each call.
template <typename Callable>
double measureMillis(Callable &&Fn, int Repeats = 5) {
  std::vector<double> Times;
  for (int Rep = 0; Rep != Repeats; ++Rep) {
    Stopwatch Timer;
    Fn();
    Times.push_back(Timer.millis());
  }
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

/// Common command-line flags of the benchmark binaries:
///   --smoke  run only the fast subset (the ctest smoke entries)
struct BenchArgs {
  bool Smoke = false;
};

inline BenchArgs parseBenchArgs(int Argc, char **Argv) {
  BenchArgs Args;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--smoke")
      Args.Smoke = true;
    else
      std::fprintf(stderr, "warning: unknown argument '%s'\n", Arg.c_str());
  }
  return Args;
}

/// Formats a driver outcome as a table cell: "optimal len 11 in 987 ms",
/// "timeout", "cancelled", ... Unverified success never reaches here — the
/// driver's verification gate demotes it before reporting.
inline std::string outcomeCell(const SynthOutcome &O) {
  if (O.Status == SynthStatus::Found || O.Status == SynthStatus::Optimal)
    return std::string(statusName(O.Status)) + " len " +
           std::to_string(O.Kernel.size()) + " in " + formatDuration(O.Seconds);
  return statusName(O.Status);
}

/// \returns the named backend stat, or 0 when the backend did not emit it.
inline uint64_t outcomeStat(const SynthOutcome &O, const char *Key) {
  for (const auto &KV : O.Stats)
    if (KV.first == Key)
      return KV.second;
  return 0;
}

/// A contestant row of a section 5.3 table.
struct TimedRow {
  std::string Name;
  double Millis = 0;
  size_t Rank = 0; ///< Filled by rankRows.
  std::string Mix; ///< "cmp/mov/cmov/other" text.
};

/// Assigns 1-based ranks by ascending time.
inline void rankRows(std::vector<TimedRow> &Rows) {
  std::vector<size_t> Order(Rows.size());
  for (size_t I = 0; I != Rows.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Rows[A].Millis < Rows[B].Millis;
  });
  for (size_t Position = 0; Position != Order.size(); ++Position)
    Rows[Order[Position]].Rank = Position + 1;
}

} // namespace bench
} // namespace sks

#endif // SKS_BENCH_BENCHCOMMON_H

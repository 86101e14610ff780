//===- bench/bench_hybrid.cpp - Section 5.4 hybrid-kernel remark -----------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper investigated hybrid cmov + min/max kernels and found "such
// kernels require additional instructions that transfer the values between
// both register files which makes them not competitive". This binary makes
// that remark checkable: it synthesizes over the hybrid alphabet (both
// files + movd transfers) for n = 3 and shows the optimum is no shorter
// than the pure cmov optimum — the vector file buys nothing once transfer
// instructions are priced in.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "analysis/Analysis.h"
#include "verify/Verify.h"

using namespace sks;
using namespace sks::bench;

int main() {
  banner("bench_hybrid",
         "section 5.4 hybrid-kernel remark (transfers price out the "
         "vector file)");

  const unsigned N = 3;
  Table T({"machine", "alphabet", "optimal length", "time", "note"});

  unsigned PureLength = 0;
  for (MachineKind Kind :
       {MachineKind::Cmov, MachineKind::MinMax, MachineKind::Hybrid}) {
    Machine M(Kind, N);
    SearchOptions Opts = bestEnumConfig(Kind, N);
    if (Kind == MachineKind::Hybrid) {
      // The permutation-count cut is mistuned for the hybrid alphabet:
      // min/max merging on the vector side produces low-permutation dead
      // ends that drag the cut threshold below every real solution. Run
      // the hybrid search without the (non-optimality-preserving) cut.
      Opts.Cut = CutConfig::none();
    }
    Opts.Stop = StopToken().withDeadline(isFullRun() ? 3600 : 600);
    SearchResult R = synthesize(M, Opts);
    const char *Name = Kind == MachineKind::Cmov
                           ? "cmov"
                           : (Kind == MachineKind::MinMax ? "minmax"
                                                          : "hybrid");
    if (!R.Found) {
      T.row().cell(Name).cell(M.instructions().size()).cell("-").cell(
          R.Stats.Stopped == StopReason::None
              ? "-"
              : stopReasonName(R.Stats.Stopped));
      continue;
    }
    if (!isCorrectKernel(M, R.Solutions.at(0))) {
      std::printf("ERROR: %s kernel failed verification\n", Name);
      return 1;
    }
    if (Kind == MachineKind::Cmov)
      PureLength = R.OptimalLength;
    std::string Note;
    if (Kind == MachineKind::Hybrid)
      Note = R.OptimalLength >= PureLength
                 ? "no shorter than pure cmov - transfers price out the "
                   "vector file (paper's remark)"
                 : "SHORTER than pure (unexpected)";
    T.row()
        .cell(Name)
        .cell(M.instructions().size())
        .cell(static_cast<int>(R.OptimalLength))
        .cell(formatDuration(R.Stats.Seconds))
        .cell(Note);
  }
  T.print();
  std::printf("note: the min/max machine looks shorter in instruction count "
              "because its\nvalues are already in the vector file; the "
              "hybrid machine starts and ends\nin the general-purpose file, "
              "so using min/max costs movd transfers.\n");
  return 0;
}

//===- examples/prove_lower_bound.cpp - Optimality certificates ------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper validates AlphaDev's minimality claim for n = 3 and
// establishes a NEW tight bound for n = 4 (no 19-instruction kernel
// exists). This example produces the n = 3 certificate end-to-end — a
// kernel of length 11 exists, and the exhaustive layered search with only
// optimality-preserving pruning empties the length-10 space — and does the
// same for the min/max machine (8 is optimal for n = 3, beating the
// 9-instruction network).
//
//   $ ./examples/prove_lower_bound
//
//===----------------------------------------------------------------------===//

#include "kernels/ReferenceKernels.h"
#include "search/Search.h"
#include "support/Timing.h"
#include "verify/Verify.h"

#include <cstdio>

using namespace sks;

static void certify(MachineKind Kind, unsigned N, const char *Label) {
  Machine M(Kind, N);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::PermCount;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::mult(1.0);
  Opts.MaxLength = networkUpperBound(Kind, N);
  SearchResult Found = synthesize(M, Opts);
  if (!Found.Found || !isCorrectKernel(M, Found.Solutions.front())) {
    std::printf("%s: synthesis failed\n", Label);
    return;
  }
  unsigned Length = Found.OptimalLength;

  Stopwatch Timer;
  SearchResult Proof;
  bool Minimal = proveNoKernelOfLength(M, Length - 1, Proof, nullptr,
                                        StopToken().withDeadline(600));
  std::printf("%s: kernel of length %u exists (network: %u); length-%u "
              "space %s in %s -> %s\n",
              Label, Length, networkUpperBound(Kind, N), Length - 1,
              Minimal ? "exhausted" : "NOT exhausted",
              formatDuration(Timer.seconds()).c_str(),
              Minimal ? "LENGTH IS OPTIMAL (certificate complete)"
                      : "no certificate within budget");
}

int main() {
  std::printf("Optimality certificates (exhaustive search, only\n"
              "optimality-preserving pruning: dedup + admissible "
              "viability)\n\n");
  certify(MachineKind::Cmov, 2, "cmov,   n=2");
  certify(MachineKind::Cmov, 3, "cmov,   n=3");
  certify(MachineKind::MinMax, 3, "minmax, n=3");
  certify(MachineKind::MinMax, 4, "minmax, n=4");
  std::printf("\nThe n=4 cmov certificate (no length-19 kernel; the paper's "
              "new result,\ntwo weeks of compute) runs via "
              "bench_optimality with SKS_FULL=1.\n");
  return 0;
}

//===- examples/sort_library.cpp - A production sort with synthesized base -===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The downstream-user story: build a general-purpose sort whose base case
// is a synthesized, JIT-compiled branchless kernel — the way the paper
// embeds its kernels into quicksort and mergesort — then race it against
// std::sort on a large random array.
//
//   $ ./examples/sort_library
//
//===----------------------------------------------------------------------===//

#include "codegen/Jit.h"
#include "search/Search.h"
#include "sortlib/SortLib.h"
#include "support/Rng.h"
#include "support/Timing.h"
#include "verify/Verify.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace sks;

int main() {
  // Synthesize kernels for every base-case size 2..4 and JIT them.
  std::vector<std::unique_ptr<JitKernel>> Kernels;
  BaseCase Base(4);
  for (unsigned N = 2; N <= 4; ++N) {
    Machine M(MachineKind::Cmov, N);
    SearchResult R = synthesize(M, bestEnumConfig(MachineKind::Cmov, N));
    if (!R.Found || !isCorrectKernel(M, R.Solutions.front())) {
      std::printf("synthesis failed for n=%u\n", N);
      return 1;
    }
    std::printf("n=%u kernel: %u instructions (%.0f ms to synthesize)\n", N,
                R.OptimalLength, R.Stats.Seconds * 1e3);
    auto Jit = JitKernel::compile(MachineKind::Cmov, N, R.Solutions.front());
    if (!Jit) {
      std::printf("no JIT support on this host; skipping the race\n");
      return 0;
    }
    Base.setKernel(N, Jit->entry());
    Kernels.push_back(std::move(Jit));
  }

  // Race on 2^22 random ints.
  Rng R(123);
  std::vector<int32_t> Input(1 << 22);
  for (int32_t &V : Input)
    V = static_cast<int32_t>(R.next());

  std::vector<int32_t> Mine = Input;
  Stopwatch Timer;
  quicksortWithKernel(Mine.data(), Mine.size(), Base);
  double MineSeconds = Timer.seconds();

  std::vector<int32_t> Reference = Input;
  Timer.reset();
  std::sort(Reference.begin(), Reference.end());
  double StdSeconds = Timer.seconds();

  if (Mine != Reference) {
    std::printf("MISMATCH against std::sort!\n");
    return 1;
  }
  std::printf("\nsorted %zu ints:\n  quicksort + synthesized kernels: %.0f "
              "ms\n  std::sort:                       %.0f ms\n",
              Input.size(), MineSeconds * 1e3, StdSeconds * 1e3);
  std::printf("results identical; the synthesized base case is a drop-in.\n");
  return 0;
}

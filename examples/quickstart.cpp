//===- examples/quickstart.cpp - Synthesize and run your first kernel ------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Quickstart: synthesize an optimal branchless sorting kernel for arrays
// of length 3 (the paper's headline case), print it in the model syntax
// and as x86-64 assembly, verify it on all permutations, JIT-compile it,
// and sort a real array with it.
//
//   $ ./examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "codegen/AsmEmitter.h"
#include "codegen/Jit.h"
#include "search/Search.h"
#include "support/Timing.h"
#include "verify/Verify.h"

#include <cstdio>

using namespace sks;

int main() {
  // 1. The machine model: 3 data registers, 1 scratch register, cmov ISA.
  Machine M(MachineKind::Cmov, /*N=*/3);
  std::printf("machine: n=%u data + %u scratch registers, %zu instructions "
              "in the alphabet\n\n",
              M.numData(), M.numScratch(), M.instructions().size());

  // 2. Synthesize with the paper's best configuration: A* on the
  //    distinct-permutation heuristic, viability pruning, cut k=1, bounded
  //    by the sorting-network length.
  SearchResult R = synthesize(M, bestEnumConfig(MachineKind::Cmov, 3));
  if (!R.Found) {
    std::printf("synthesis failed!?\n");
    return 1;
  }
  const Program &Kernel = R.Solutions.front();
  std::printf("synthesized a %u-instruction kernel in %.0f ms "
              "(%zu states expanded):\n\n%s\n",
              R.OptimalLength, R.Stats.Seconds * 1e3,
              R.Stats.StatesExpanded, toString(Kernel, M.numData()).c_str());

  // 3. Verify: for constants-free kernels, sorting all n! permutations of
  //    1..n proves correctness for every input (paper section 2.3).
  if (!isCorrectKernel(M, Kernel)) {
    std::printf("verification failed!?\n");
    return 1;
  }
  std::printf("verified on all %u permutations -> correct for ALL inputs\n\n",
              6);

  // 4. Emit the real x86-64 code (with the loads/stores the paper leaves
  //    out of synthesis).
  std::printf("x86-64:\n%s\n",
              emitAsmText(MachineKind::Cmov, 3, Kernel).c_str());

  // 5. JIT-compile and sort something.
  int32_t Data[3] = {2026, -7, 451};
  if (auto Jit = JitKernel::compile(MachineKind::Cmov, 3, Kernel)) {
    (*Jit)(Data);
    std::printf("JIT sorted {2026, -7, 451} -> {%d, %d, %d}\n", Data[0],
                Data[1], Data[2]);
  } else {
    interpretKernel(MachineKind::Cmov, 3, Kernel, Data);
    std::printf("no JIT on this host; interpreter sorted -> {%d, %d, %d}\n",
                Data[0], Data[1], Data[2]);
  }
  return 0;
}

//===- verify/Verify.cpp - Kernel correctness and optimality --------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"

#include "isa/Interpret.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>
#include <span>

using namespace sks;

const char *sks::verifierIdentity() {
  // The stamp changes only when a verdict does, so it still names the
  // 0-1 certifier that min/max kernels once took: that route gave the n!
  // verdict on every program, and keeping the stamp keeps cached entries
  // valid. Version history: v1 — initial service cache; v2 — checks are
  // parameterized by the machine's goal predicate, so "verified" now
  // means "establishes the goal", not "sorts".
  return "sks-verify nperm+zero-one v2";
}

namespace {

/// Calls \p Visit on each of the n! permutations of 1..n in lexicographic
/// order (the order CEGIS sees counterexamples in), walking one stack
/// array in place. \returns false as soon as \p Visit does.
template <typename VisitFn>
bool allPermutationsPass(unsigned N, VisitFn Visit) {
  std::array<int, kMaxRegs> Perm = {};
  const std::span<const int> View(Perm.data(), N);
  std::iota(Perm.begin(), Perm.begin() + N, 1);
  do {
    if (!Visit(View))
      return false;
  } while (std::next_permutation(Perm.begin(), Perm.begin() + N));
  return true;
}

} // namespace

bool sks::isCorrectKernel(const Machine &M, const Program &P) {
  return allPermutationsPass(M.numData(), [&](std::span<const int> Perm) {
    return M.accepts(M.run(M.packInitial(Perm), P));
  });
}

std::vector<int> sks::findCounterexample(const Machine &M, const Program &P) {
  std::vector<int> Failing;
  allPermutationsPass(M.numData(), [&](std::span<const int> Perm) {
    if (M.accepts(M.run(M.packInitial(Perm), P)))
      return true;
    Failing.assign(Perm.begin(), Perm.end());
    return false;
  });
  return Failing;
}

std::vector<long long> sks::runOnValues(const Machine &M, const Program &P,
                                        const std::vector<long long> &Values) {
  return runOnValuesWithState(M, P, Values, /*ScratchInit=*/0,
                              /*InitialLt=*/false, /*InitialGt=*/false);
}

std::vector<long long> sks::runOnValuesWithState(
    const Machine &M, const Program &P, const std::vector<long long> &Values,
    long long ScratchInit, bool InitialLt, bool InitialGt) {
  assert(Values.size() == M.numData() && "one value per data register");
  long long Regs[kMaxRegs];
  std::fill(Regs, Regs + kMaxRegs, ScratchInit);
  std::copy(Values.begin(), Values.end(), Regs);
  interpretOnRegisters(P, Regs, InitialLt, InitialGt);
  return std::vector<long long>(Regs, Regs + M.numData());
}

bool sks::areEquivalentKernels(const Machine &M, const Program &A,
                               const Program &B, bool FullState) {
  uint32_t Mask = FullState ? (M.regMask() | FlagMask) : M.dataMask();
  return allPermutationsPass(M.numData(), [&](std::span<const int> Perm) {
    uint32_t Initial = M.packInitial(Perm);
    return (M.run(Initial, A) & Mask) == (M.run(Initial, B) & Mask);
  });
}

bool sks::isRobustKernel(const Machine &M, const Program &P) {
  assert(M.numScratch() == 1 &&
         "order-type enumeration implemented for one scratch register");
  const unsigned N = M.numData();
  // Data values 2, 4, ..., 2n leave room for the scratch value to realize
  // every order-type: 0 (below all), odd values (strictly between),
  // even values (tied), 2n+1 (above all). A constants-free kernel's
  // behaviour depends only on comparison outcomes, so covering every
  // order-type of (data, scratch) with every initial flag state covers
  // every input of distinct integers. Tied data values are not covered.
  long long Sorted[kMaxRegs] = {}, Perm[kMaxRegs] = {};
  for (unsigned I = 0; I != N; ++I)
    Sorted[I] = Perm[I] = 2 * (I + 1);

  const uint32_t Pinned = M.goal().pinnedPositions(N);
  do {
    for (long long Scratch = 0; Scratch <= 2 * N + 1; ++Scratch) {
      for (int Flags = 0; Flags != 3; ++Flags) {
        long long Regs[kMaxRegs];
        std::fill(Regs, Regs + kMaxRegs, Scratch);
        std::copy(Perm, Perm + N, Regs);
        interpretOnRegisters(P, Regs, /*LT=*/Flags == 1, /*GT=*/Flags == 2);
        for (unsigned J = 0; J != N; ++J)
          if ((Pinned & (1u << J)) && Regs[J] != Sorted[J])
            return false;
      }
    }
  } while (std::next_permutation(Perm, Perm + N));
  return true;
}

//===- verify/Verify.cpp - Kernel correctness and optimality --------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"

#include "support/Permutations.h"

#include <algorithm>

#include <cassert>

using namespace sks;

const char *sks::verifierIdentity() {
  // Names the n!-permutation interpreter check plus the 0-1-principle
  // static certifier (verify/ZeroOne.h) the driver's verification gate
  // dispatches between. Version history: v1 — initial service cache;
  // v2 — checks are parameterized by the machine's goal predicate, so
  // "verified" now means "establishes the goal", not "sorts".
  return "sks-verify nperm+zero-one v2";
}

bool sks::isCorrectKernel(const Machine &M, const Program &P) {
  return findCounterexample(M, P).empty();
}

std::vector<int> sks::findCounterexample(const Machine &M, const Program &P) {
  for (const std::vector<int> &Perm : allPermutations(M.numData())) {
    uint32_t Row = M.run(M.packInitial(Perm), P);
    if (!M.accepts(Row))
      return Perm;
  }
  return {};
}

bool sks::isCorrectKeyValKernel(const Machine &M, const Program &P) {
  const unsigned N = M.numData();
  const uint32_t Pinned = M.goal().pinnedPositions(N);
  for (const std::vector<int> &Perm : allPermutations(N)) {
    uint64_t Row = M.runKeyVal(M.packInitialKeyVal(Perm), P);
    for (unsigned J = 0; J != N; ++J) {
      if (!(Pinned & (1u << J)))
        continue;
      if (getKvKey(Row, J) != J + 1)
        return false;
      // The payload must be the input position that carried key j+1.
      unsigned Origin = 0;
      while (Perm[Origin] != static_cast<int>(J + 1))
        ++Origin;
      if (getKvPayload(Row, J) != Origin)
        return false;
    }
  }
  return true;
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
  std::vector<long long> Regs(M.numRegs(), ScratchInit);
  for (unsigned I = 0; I != M.numData(); ++I)
    Regs[I] = Values[I];
  bool LT = InitialLt, GT = InitialGt;
  for (const Instr &I : P) {
    switch (I.Op) {
    case Opcode::Mov:
      Regs[I.Dst] = Regs[I.Src];
      break;
    case Opcode::Cmp:
      LT = Regs[I.Dst] < Regs[I.Src];
      GT = Regs[I.Dst] > Regs[I.Src];
      break;
    case Opcode::CMovL:
      if (LT)
        Regs[I.Dst] = Regs[I.Src];
      break;
    case Opcode::CMovG:
      if (GT)
        Regs[I.Dst] = Regs[I.Src];
      break;
    case Opcode::Min:
      Regs[I.Dst] = std::min(Regs[I.Dst], Regs[I.Src]);
      break;
    case Opcode::Max:
      Regs[I.Dst] = std::max(Regs[I.Dst], Regs[I.Src]);
      break;
    }
  }
  Regs.resize(M.numData());
  return Regs;
}

bool sks::areEquivalentKernels(const Machine &M, const Program &A,
                               const Program &B, bool FullState) {
  uint32_t Mask = FullState ? (M.regMask() | FlagMask) : M.dataMask();
  for (const std::vector<int> &Perm : allPermutations(M.numData())) {
    uint32_t Initial = M.packInitial(Perm);
    if ((M.run(Initial, A) & Mask) != (M.run(Initial, B) & Mask))
      return false;
  }
  return true;
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
  std::vector<long long> Sorted(N);
  for (unsigned I = 0; I != N; ++I)
    Sorted[I] = 2 * (I + 1);

  const uint32_t Pinned = M.goal().pinnedPositions(N);
  std::vector<long long> Perm = Sorted;
  do {
    for (long long Scratch = 0; Scratch <= 2 * N + 1; ++Scratch) {
      for (int Flags = 0; Flags != 3; ++Flags) {
        std::vector<long long> Out = runOnValuesWithState(
            M, P, Perm, Scratch, /*InitialLt=*/Flags == 1,
            /*InitialGt=*/Flags == 2);
        for (unsigned J = 0; J != N; ++J)
          if ((Pinned & (1u << J)) && Out[J] != Sorted[J])
            return false;
      }
    }
  } while (std::next_permutation(Perm.begin(), Perm.end()));
  return true;
}

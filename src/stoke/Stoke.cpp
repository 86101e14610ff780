//===- stoke/Stoke.cpp - Stochastic superoptimization ----------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "stoke/Stoke.h"

#include "support/Rng.h"
#include "support/Timing.h"
#include "verify/Verify.h"

#include <algorithm>
#include <cmath>

using namespace sks;

namespace {

/// Hamming-style cost: number of (test, goal-pinned register) pairs whose
/// final value is wrong, summed over the suite. Zero iff all tests
/// satisfy the machine's goal (for the sort goal, iff all tests sort).
uint64_t costOf(const Machine &M, const Program &P,
                const std::vector<uint32_t> &Tests) {
  const uint32_t Pinned = M.goal().pinnedPositions(M.numData());
  uint64_t Cost = 0;
  for (uint32_t Test : Tests) {
    uint32_t Row = M.run(Test, P);
    for (unsigned Reg = 0; Reg != M.numData(); ++Reg)
      if (Pinned & (1u << Reg))
        Cost += getReg(Row, Reg) != Reg + 1;
  }
  return Cost;
}

Instr randomInstr(const Machine &M, Rng &R) {
  const std::vector<Instr> &Alphabet = M.instructions();
  return Alphabet[R.below(Alphabet.size())];
}

Program randomProgram(const Machine &M, unsigned Length, Rng &R) {
  Program P;
  for (unsigned I = 0; I != Length; ++I)
    P.push_back(randomInstr(M, R));
  return P;
}

/// One STOKE move: opcode change, operand change, instruction swap, or
/// full instruction replacement.
void mutate(const Machine &M, Program &P, Rng &R) {
  if (P.empty())
    return;
  size_t Index = R.below(P.size());
  switch (R.below(4)) {
  case 0: { // Opcode change (keep operands; resample if invalid combo).
    Instr Candidate = randomInstr(M, R);
    Candidate.Dst = P[Index].Dst;
    Candidate.Src = Candidate.Op == Opcode::Cmp &&
                            P[Index].Src <= Candidate.Dst
                        ? Candidate.Src
                        : P[Index].Src;
    // Keep the machine's operand discipline: fall back to a fresh
    // instruction when the transplant is malformed.
    if (Candidate.Dst == Candidate.Src ||
        (Candidate.Op == Opcode::Cmp && Candidate.Dst >= Candidate.Src))
      Candidate = randomInstr(M, R);
    P[Index] = Candidate;
    break;
  }
  case 1: { // Operand change.
    Instr Candidate = P[Index];
    uint8_t NewReg = static_cast<uint8_t>(R.below(M.numRegs()));
    if (R.below(2))
      Candidate.Dst = NewReg;
    else
      Candidate.Src = NewReg;
    if (Candidate.Dst == Candidate.Src ||
        (Candidate.Op == Opcode::Cmp && Candidate.Dst >= Candidate.Src))
      Candidate = randomInstr(M, R);
    P[Index] = Candidate;
    break;
  }
  case 2: { // Swap two instructions.
    size_t Other = R.below(P.size());
    std::swap(P[Index], P[Other]);
    break;
  }
  default: // Replace.
    P[Index] = randomInstr(M, R);
    break;
  }
}

} // namespace

StokeResult sks::stokeSynthesize(const Machine &M, const StokeOptions &Opts) {
  Stopwatch Timer;
  Rng R(Opts.RngSeed);
  StokeResult Result;

  // Build the test suite.
  std::vector<uint32_t> Tests = M.initialRows();
  if (Opts.RandomTests > 0 && Opts.RandomTests < Tests.size()) {
    for (size_t I = Tests.size() - 1; I > 0; --I)
      std::swap(Tests[I], Tests[R.below(I + 1)]);
    Tests.resize(Opts.RandomTests);
  }

  Program Current =
      Opts.Seed.empty() ? randomProgram(M, Opts.Length, R) : Opts.Seed;
  Current.resize(Opts.Length,
                 Instr{Opcode::Mov, 0, 1}); // Pad short warm seeds.
  uint64_t CurrentCost = costOf(M, Current, Tests);
  Result.Best = Current;
  Result.BestCost = CurrentCost;
  uint64_t SinceImprovement = 0;

  for (uint64_t Iter = 0; Iter != Opts.MaxIterations; ++Iter) {
    ++Result.Iterations;
    if ((Iter & 2047) == 0 && Opts.Stop.stopRequested()) {
      Result.TimedOut = true;
      break;
    }
    Program Proposal = Current;
    mutate(M, Proposal, R);
    uint64_t ProposalCost = costOf(M, Proposal, Tests);
    bool Accept =
        ProposalCost <= CurrentCost ||
        R.uniform() < std::exp(-Opts.Beta *
                               double(ProposalCost - CurrentCost));
    if (Accept) {
      Current = std::move(Proposal);
      CurrentCost = ProposalCost;
    }
    if (CurrentCost < Result.BestCost) {
      Result.BestCost = CurrentCost;
      Result.Best = Current;
      SinceImprovement = 0;
    } else {
      ++SinceImprovement;
    }
    if (CurrentCost == 0) {
      // Zero test cost: verify on the full permutation suite (a subset
      // suite can be fooled).
      if (isCorrectKernel(M, Current)) {
        Result.Found = true;
        Result.Best = Current;
        break;
      }
      // Spurious: random restart.
      Current = randomProgram(M, Opts.Length, R);
      CurrentCost = costOf(M, Current, Tests);
    }
    if (SinceImprovement >= Opts.RestartInterval) {
      Current = Opts.Seed.empty() ? randomProgram(M, Opts.Length, R)
                                  : Opts.Seed;
      Current.resize(Opts.Length, Instr{Opcode::Mov, 0, 1});
      CurrentCost = costOf(M, Current, Tests);
      SinceImprovement = 0;
    }
  }
  Result.Seconds = Timer.seconds();
  return Result;
}

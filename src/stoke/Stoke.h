//===- stoke/Stoke.h - Stochastic superoptimization (section 5.2) -*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A STOKE-style [19] Markov-chain Monte-Carlo superoptimizer: fixed-length
/// candidate programs mutated by opcode/operand/swap/replace moves,
/// accepted by the Metropolis criterion on a test-case cost function. Both
/// modes of the paper's evaluation are supported:
///
///  - cold start: synthesis from a random program;
///  - warm start: optimization of a given (correct) seed program.
///
/// The test suite is either all n! permutations or a random subset, as in
/// the paper's Stoke table.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_STOKE_STOKE_H
#define SKS_STOKE_STOKE_H

#include "machine/Machine.h"
#include "support/StopToken.h"

#include <cstdint>

namespace sks {

struct StokeOptions {
  /// Candidate program length.
  unsigned Length = 0;
  /// Warm start: seed program (empty = cold start with a random program).
  Program Seed;
  /// Use a random subset of the permutation test suite of this size
  /// (0 = all n! permutations).
  unsigned RandomTests = 0;
  /// Metropolis inverse temperature.
  double Beta = 1.0;
  /// Total proposal budget (spread over restarts).
  uint64_t MaxIterations = 1000000;
  /// Restart from scratch after this many non-improving proposals.
  uint64_t RestartInterval = 100000;
  uint64_t RngSeed = 1;
  /// Deadline and cancellation, polled in the proposal loop. Any stop is
  /// reported as StokeResult::TimedOut.
  StopToken Stop;
};

struct StokeResult {
  bool Found = false; ///< A verified-correct kernel was reached.
  bool TimedOut = false;
  Program Best;
  uint64_t BestCost = UINT64_MAX;
  uint64_t Iterations = 0;
  double Seconds = 0;
};

/// Runs the MCMC search. Candidates that reach test-suite cost 0 are
/// verified against all n! permutations before being reported Found (a
/// random subset suite can be fooled — the paper's point).
StokeResult stokeSynthesize(const Machine &M, const StokeOptions &Opts);

} // namespace sks

#endif // SKS_STOKE_STOKE_H

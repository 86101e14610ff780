//===- mcts/Mcts.h - Monte-Carlo tree search baseline ----------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A UCT Monte-Carlo tree search baseline standing in for AlphaDev-RL [13]
/// (whose code and TPU-scale learned networks are not available; see
/// DESIGN.md's substitution table). The decision process is the same as
/// AlphaDev's — grow a program one instruction at a time over the
/// multi-permutation machine state — but the value signal is the
/// hand-rolled sorting progress measure (distinct permutations removed)
/// instead of a learned network, and rollouts are uniformly random.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_MCTS_MCTS_H
#define SKS_MCTS_MCTS_H

#include "machine/Machine.h"
#include "support/StopToken.h"

#include <cstdint>

namespace sks {

struct MctsOptions {
  /// Maximum program length (episode horizon).
  unsigned MaxLength = 0;
  /// UCT exploration constant.
  double ExplorationC = 1.0;
  /// Random-rollout depth beyond the tree frontier.
  unsigned RolloutDepth = 8;
  uint64_t MaxIterations = 1000000;
  uint64_t RngSeed = 1;
  /// Deadline and cancellation, polled in the iteration loop. Any stop is
  /// reported as MctsResult::TimedOut.
  StopToken Stop;
};

struct MctsResult {
  bool Found = false;
  bool TimedOut = false;
  Program P;
  uint64_t Iterations = 0;
  size_t TreeNodes = 0;
  double Seconds = 0;
};

/// Runs UCT until a sorting kernel is found or the budget expires.
MctsResult mctsSynthesize(const Machine &M, const MctsOptions &Opts);

} // namespace sks

#endif // SKS_MCTS_MCTS_H

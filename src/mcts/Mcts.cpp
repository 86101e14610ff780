//===- mcts/Mcts.cpp - Monte-Carlo tree search baseline --------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mcts/Mcts.h"

#include "state/SearchState.h"
#include "support/Rng.h"
#include "support/Timing.h"

#include <bit>
#include <cmath>
#include <vector>

using namespace sks;

namespace {

struct TreeNode {
  std::vector<uint32_t> Rows;
  uint32_t Parent;
  uint16_t Depth;
  Instr Via;
  /// Children indexed by alphabet position; 0 = unexpanded.
  std::vector<uint32_t> Children;
  uint32_t Visits = 0;
  double TotalReward = 0;
};

} // namespace

/// Goal progress in [0, 1]: the fraction of correctly placed goal-pinned
/// items across all rows (AlphaDev's correctness reward, restricted to the
/// registers the machine's goal constrains), with 1.0 reserved for fully
/// accepting states. Unlike the distinct-permutation measure this does
/// not reward erasing values with unconditional moves.
static double rewardOf(const Machine &M, const std::vector<uint32_t> &Rows,
                       unsigned /*InitialPerms*/,
                       std::vector<uint32_t> & /*Scratch*/) {
  unsigned Correct = 0;
  const unsigned N = M.numData();
  const uint32_t Pinned = M.goal().pinnedPositions(N);
  const unsigned NumPinned = static_cast<unsigned>(std::popcount(Pinned));
  for (uint32_t Row : Rows)
    for (unsigned Reg = 0; Reg != N; ++Reg)
      if (Pinned & (1u << Reg))
        Correct += getReg(Row, Reg) == Reg + 1;
  unsigned Total = static_cast<unsigned>(Rows.size()) * NumPinned;
  if (Correct == Total)
    return 1.0;
  return 0.9 * double(Correct) / double(Total);
}

MctsResult sks::mctsSynthesize(const Machine &M, const MctsOptions &Opts) {
  Stopwatch Timer;
  Rng R(Opts.RngSeed);
  MctsResult Result;

  const std::vector<Instr> &Alphabet = M.instructions();
  SearchState Init = initialState(M);
  const unsigned InitialPerms = static_cast<unsigned>(Init.Rows.size());

  std::vector<TreeNode> Tree;
  Tree.push_back(TreeNode{Init.Rows, UINT32_MAX, 0,
                          Instr{Opcode::Mov, 0, 0},
                          std::vector<uint32_t>(Alphabet.size(), 0)});

  std::vector<uint32_t> Scratch, RolloutRows, NextRows;

  auto ReconstructProgram = [&](uint32_t Leaf, const Program &Tail) {
    Program P;
    for (uint32_t Walk = Leaf; Walk != 0; Walk = Tree[Walk].Parent)
      P.push_back(Tree[Walk].Via);
    std::reverse(P.begin(), P.end());
    P.insert(P.end(), Tail.begin(), Tail.end());
    return P;
  };

  for (uint64_t Iter = 0; Iter != Opts.MaxIterations; ++Iter) {
    ++Result.Iterations;
    if ((Iter & 511) == 0 && Opts.Stop.stopRequested()) {
      Result.TimedOut = true;
      break;
    }

    // Selection: walk down by UCT until an unexpanded action or horizon.
    uint32_t Current = 0;
    while (true) {
      TreeNode &Node = Tree[Current];
      if (Node.Depth >= Opts.MaxLength)
        break;
      // Prefer an unexpanded action (uniformly random among them).
      std::vector<size_t> Unexpanded;
      for (size_t A = 0; A != Alphabet.size(); ++A)
        if (Node.Children[A] == 0)
          Unexpanded.push_back(A);
      if (!Unexpanded.empty()) {
        size_t ActionIdx = Unexpanded[R.below(Unexpanded.size())];
        // Expand.
        NextRows.clear();
        for (uint32_t Row : Node.Rows)
          NextRows.push_back(M.apply(Row, Alphabet[ActionIdx]));
        canonicalizeRows(NextRows);
        uint32_t ChildIdx = static_cast<uint32_t>(Tree.size());
        uint16_t ChildDepth = Node.Depth + 1;
        Tree.push_back(TreeNode{NextRows, Current, ChildDepth,
                                Alphabet[ActionIdx],
                                std::vector<uint32_t>(Alphabet.size(), 0)});
        Tree[Current].Children[ActionIdx] = ChildIdx;
        Current = ChildIdx;
        break;
      }
      // All expanded: UCT.
      double LogVisits = std::log(double(Node.Visits + 1));
      double BestScore = -1;
      uint32_t BestChild = 0;
      for (size_t A = 0; A != Alphabet.size(); ++A) {
        const TreeNode &Child = Tree[Node.Children[A]];
        double Mean = Child.Visits
                          ? Child.TotalReward / Child.Visits
                          : 0.5;
        double Score = Mean + Opts.ExplorationC *
                                  std::sqrt(LogVisits /
                                            double(Child.Visits + 1));
        if (Score > BestScore) {
          BestScore = Score;
          BestChild = Node.Children[A];
        }
      }
      Current = BestChild;
    }

    // Rollout: random actions from the frontier node.
    RolloutRows = Tree[Current].Rows;
    Program Tail;
    bool SolvedInRollout = false;
    double Reward = rewardOf(M, RolloutRows, InitialPerms, Scratch);
    if (Reward >= 1.0) {
      Result.Found = true;
      Result.P = ReconstructProgram(Current, {});
    } else {
      unsigned Horizon =
          std::min<unsigned>(Opts.RolloutDepth,
                             Opts.MaxLength - Tree[Current].Depth);
      for (unsigned Step = 0; Step != Horizon; ++Step) {
        const Instr &A = Alphabet[R.below(Alphabet.size())];
        Tail.push_back(A);
        NextRows.clear();
        for (uint32_t Row : RolloutRows)
          NextRows.push_back(M.apply(Row, A));
        canonicalizeRows(NextRows);
        RolloutRows.swap(NextRows);
        Reward = rewardOf(M, RolloutRows, InitialPerms, Scratch);
        if (Reward >= 1.0) {
          SolvedInRollout = true;
          break;
        }
      }
      if (SolvedInRollout) {
        Result.Found = true;
        Result.P = ReconstructProgram(Current, Tail);
      }
    }

    // Backpropagation.
    for (uint32_t Walk = Current;; Walk = Tree[Walk].Parent) {
      ++Tree[Walk].Visits;
      Tree[Walk].TotalReward += Reward;
      if (Walk == 0)
        break;
    }
    if (Result.Found)
      break;
  }

  Result.TreeNodes = Tree.size();
  Result.Seconds = Timer.seconds();
  return Result;
}

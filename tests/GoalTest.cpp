//===- tests/GoalTest.cpp - Goal-predicate layer tests ---------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Tests for the goal-predicate generalization (machine/Goal.h): the
// GoalSpec family itself, the goal-parameterized n!-checker against a
// from-scratch brute force, and the packed-pair JIT.
//
//===----------------------------------------------------------------------===//

#include "codegen/Jit.h"
#include "kernels/ReferenceKernels.h"
#include "support/Permutations.h"
#include "support/Rng.h"
#include "verify/Verify.h"

#include <algorithm>
#include <gtest/gtest.h>
#include <vector>

using namespace sks;

namespace {

Program randomProgram(const Machine &M, Rng &R, unsigned Length) {
  Program P;
  const std::vector<Instr> &Alphabet = M.instructions();
  for (unsigned I = 0; I != Length; ++I)
    P.push_back(Alphabet[R.below(Alphabet.size())]);
  return P;
}

/// Every member of the goal family that is valid at array length \p N.
std::vector<GoalSpec> allGoals(unsigned N) {
  std::vector<GoalSpec> Goals = {GoalSpec::sort()};
  for (unsigned K = 1; K <= N; ++K) {
    Goals.push_back(GoalSpec::selectK(K));
    Goals.push_back(GoalSpec::topK(K));
    Goals.push_back(GoalSpec::partialSort(K));
  }
  return Goals;
}

//===----------------------------------------------------------------------===//
// GoalSpec unit tests
//===----------------------------------------------------------------------===//

TEST(GoalSpec, NamesRoundTripThroughParse) {
  for (unsigned N = 1; N <= 6; ++N) {
    for (const GoalSpec &G : allGoals(N)) {
      GoalSpec Parsed;
      ASSERT_TRUE(GoalSpec::parse(G.name(), Parsed)) << G.name();
      EXPECT_EQ(Parsed, G) << G.name();
    }
  }
}

TEST(GoalSpec, ParseRejectsGarbage) {
  const char *Bad[] = {"",          "wat",         "select",   "select-",
                       "select-0",  "select--1",   "select-x", "top-",
                       "top-0",     "partial-sort", "sort-2",  "select-2x",
                       "select- 2", "SELECT-2"};
  for (const char *Text : Bad) {
    GoalSpec Out = GoalSpec::topK(3); // Sentinel: must stay untouched.
    EXPECT_FALSE(GoalSpec::parse(Text, Out)) << "'" << Text << "'";
    EXPECT_EQ(Out, GoalSpec::topK(3)) << "'" << Text << "'";
  }
}

TEST(GoalSpec, PinnedPositionsMatchTheFamilyDefinitions) {
  const unsigned N = 4;
  EXPECT_EQ(GoalSpec::sort().pinnedPositions(N), 0b1111u);
  EXPECT_EQ(GoalSpec::selectK(1).pinnedPositions(N), 0b0001u);
  EXPECT_EQ(GoalSpec::selectK(3).pinnedPositions(N), 0b0100u);
  EXPECT_EQ(GoalSpec::topK(1).pinnedPositions(N), 0b1000u);
  EXPECT_EQ(GoalSpec::topK(2).pinnedPositions(N), 0b1100u);
  EXPECT_EQ(GoalSpec::partialSort(2).pinnedPositions(N), 0b0011u);
  // Full-width parameters pin everything: these goals coincide with sort.
  EXPECT_EQ(GoalSpec::topK(N).pinnedPositions(N), 0b1111u);
  EXPECT_EQ(GoalSpec::partialSort(N).pinnedPositions(N), 0b1111u);
}

TEST(GoalSpec, ValidForChecksTheParameterRange) {
  EXPECT_TRUE(GoalSpec::sort().validFor(3));
  EXPECT_TRUE(GoalSpec::selectK(3).validFor(3));
  EXPECT_FALSE(GoalSpec::selectK(4).validFor(3));
  EXPECT_FALSE(GoalSpec::topK(0).validFor(3));
  EXPECT_FALSE(GoalSpec::partialSort(7).validFor(6));
}

TEST(GoalSpec, EqualityIgnoresTheSortParameter) {
  GoalSpec A = GoalSpec::sort();
  GoalSpec B = GoalSpec::sort();
  B.K = 7; // Meaningless for sort; must not break equality.
  EXPECT_EQ(A, B);
  EXPECT_NE(GoalSpec::selectK(1), GoalSpec::selectK(2));
  EXPECT_NE(GoalSpec::selectK(2), GoalSpec::topK(2));
}

//===----------------------------------------------------------------------===//
// Goal-parameterized n!-checker vs brute force
//===----------------------------------------------------------------------===//

/// From-scratch correctness: run \p P on every permutation and check each
/// goal-pinned data register directly — no shared code with the packed
/// accepts() path of verify/Verify.cpp.
bool bruteForceCorrect(const Machine &M, const Program &P) {
  const unsigned N = M.numData();
  const uint32_t Pinned = M.goal().pinnedPositions(N);
  for (const std::vector<int> &Perm : allPermutations(N)) {
    uint32_t Row = M.run(M.packInitial(Perm), P);
    for (unsigned J = 0; J != N; ++J)
      if ((Pinned >> J) & 1u)
        if (getReg(Row, J) != J + 1)
          return false;
  }
  return true;
}

class GoalChecker
    : public ::testing::TestWithParam<std::tuple<MachineKind, unsigned>> {
protected:
  MachineKind kind() const { return std::get<0>(GetParam()); }
  unsigned n() const { return std::get<1>(GetParam()); }
};

TEST_P(GoalChecker, NFactorialCheckerAgreesWithBruteForceOnEveryGoal) {
  Program Network = kind() == MachineKind::Cmov ? sortingNetworkCmov(n())
                                                : sortingNetworkMinMax(n());
  for (const GoalSpec &G : allGoals(n())) {
    Machine M(kind(), n(), /*Scratch=*/1, G);
    // A full sorting network satisfies every pinned-position goal.
    EXPECT_TRUE(isCorrectKernel(M, Network)) << G.name();
    EXPECT_TRUE(bruteForceCorrect(M, Network)) << G.name();

    // Truncations and random programs: the checker must agree with the
    // brute force on both verdicts, whichever they are.
    for (size_t Cut = 1; Cut <= 3 && Cut < Network.size(); ++Cut) {
      Program Trunc(Network.begin(), Network.end() - Cut);
      EXPECT_EQ(isCorrectKernel(M, Trunc), bruteForceCorrect(M, Trunc))
          << G.name() << " truncated by " << Cut;
    }
    Rng R(7000 + n() * 100 + static_cast<unsigned>(G.Kind) * 10 + G.K);
    for (int Trial = 0; Trial != 40; ++Trial) {
      Program P = randomProgram(M, R, 1 + R.below(12));
      ASSERT_EQ(isCorrectKernel(M, P), bruteForceCorrect(M, P))
          << G.name() << ": " << toString(P, n());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Goals, GoalChecker,
    ::testing::Combine(::testing::Values(MachineKind::Cmov,
                                         MachineKind::MinMax),
                       ::testing::Values(3u, 4u)));

TEST(GoalChecker, SortCoincidesWithFullWidthTopKAndPartialSort) {
  // top-n and partial-sort-n pin every position, so their verdicts must
  // equal the sort goal's on arbitrary programs.
  const unsigned N = 3;
  Machine Sort(MachineKind::Cmov, N);
  Machine Top(MachineKind::Cmov, N, 1, GoalSpec::topK(N));
  Machine Part(MachineKind::Cmov, N, 1, GoalSpec::partialSort(N));
  Rng R(99);
  for (int Trial = 0; Trial != 60; ++Trial) {
    Program P = randomProgram(Sort, R, 1 + R.below(14));
    bool Ref = isCorrectKernel(Sort, P);
    EXPECT_EQ(isCorrectKernel(Top, P), Ref);
    EXPECT_EQ(isCorrectKernel(Part, P), Ref);
  }
}

//===----------------------------------------------------------------------===//
// Packed-pair JIT
//===----------------------------------------------------------------------===//

TEST(GoalPairJit, PackPairRoundTripsAndOrdersByKey) {
  const int32_t Keys[] = {-100000, -1, 0, 1, 100000};
  for (int32_t K : Keys) {
    EXPECT_EQ(pairKey(packPair(K, 0xABCDEFu)), K);
    EXPECT_EQ(pairPayload(packPair(K, 0xABCDEFu)), 0xABCDEFu);
  }
  // Signed 64-bit comparison orders by key first, payload as tiebreak.
  EXPECT_LT(packPair(-5, 0xFFFFFFFFu), packPair(-4, 0u));
  EXPECT_LT(packPair(7, 1u), packPair(7, 2u));
  EXPECT_LT(packPair(-1, 0xFFFFFFFFu), packPair(0, 0u));
}

void checkPairKernel(MachineKind Kind, unsigned N, const Program &P) {
  std::unique_ptr<JitPairKernel> Jit = JitPairKernel::compile(Kind, N, P);
  ASSERT_TRUE(Jit) << "jitSupported<int64_t> claimed support";
  EXPECT_GT(Jit->codeSize(), 0u);

  Rng R(9000 + N);
  for (int Trial = 0; Trial != 600; ++Trial) {
    // The first half gives each lane its input position as payload; the
    // second half gives all lanes one payload, so lanes with equal keys
    // are equal lanes.
    const bool SharedPayload = Trial >= 300;
    std::vector<int64_t> Pairs(N);
    for (unsigned I = 0; I != N; ++I) {
      // Small key range forces duplicate keys.
      int32_t Key = static_cast<int32_t>(R.range(-3, 3));
      if (Trial % 3 == 0) // Every third trial: full-range keys.
        Key = static_cast<int32_t>(R.range(-1000000, 1000000));
      Pairs[I] = packPair(Key, SharedPayload ? 0x5EEDu : I);
    }

    std::vector<int64_t> FromJit = Pairs;
    (*Jit)(FromJit.data());

    std::vector<int64_t> FromInterp = Pairs;
    interpretKernel(Kind, N, P, FromInterp.data());
    ASSERT_EQ(FromJit, FromInterp);

    // A full sorting network sorts packed lanes exactly like std::sort
    // (lanes compare as whole int64 values, so the sorted result is
    // unique).
    std::vector<int64_t> Reference = Pairs;
    std::sort(Reference.begin(), Reference.end());
    ASSERT_EQ(FromJit, Reference);
  }
}

TEST(GoalPairJit, CmovNetworkMatchesInterpreterAndStdSort) {
  if (!jitSupported<int64_t>(MachineKind::Cmov))
    GTEST_SKIP() << "no pair JIT on this host";
  for (unsigned N = 2; N <= 5; ++N)
    checkPairKernel(MachineKind::Cmov, N, sortingNetworkCmov(N));
}

TEST(GoalPairJit, MinMaxNetworkMatchesInterpreterAndStdSort) {
  if (!jitSupported<int64_t>(MachineKind::MinMax))
    GTEST_SKIP() << "no SSE4.2 pair JIT on this host";
  for (unsigned N = 2; N <= 5; ++N)
    checkPairKernel(MachineKind::MinMax, N, sortingNetworkMinMax(N));
}

TEST(GoalPairJit, InterpreterSortsPackedLanesWithoutJitSupport) {
  // The interpreter path has no host requirements; pin it independently.
  for (unsigned N = 2; N <= 4; ++N) {
    Program Network = sortingNetworkMinMax(N);
    Rng R(77);
    for (int Trial = 0; Trial != 100; ++Trial) {
      std::vector<int64_t> Pairs(N);
      for (unsigned I = 0; I != N; ++I)
        Pairs[I] = packPair(static_cast<int32_t>(R.range(-2, 2)), I);
      std::vector<int64_t> Reference = Pairs;
      std::sort(Reference.begin(), Reference.end());
      interpretKernel(MachineKind::MinMax, N, Network, Pairs.data());
      ASSERT_EQ(Pairs, Reference);
    }
  }
}

} // namespace

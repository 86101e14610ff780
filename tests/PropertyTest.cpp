//===- tests/PropertyTest.cpp - Parameterized property sweeps ----------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Property-based tests swept over machine kinds, array lengths, and random
// programs/inputs. These pin down the cross-component invariants the
// reproduction rests on: the packed 3-bit machine, the wide interpreter,
// and the JIT all agree; the distance table is an exact shortest-distance
// oracle; independent synthesis routes agree on optimal lengths.
//
//===----------------------------------------------------------------------===//

#include "codegen/Jit.h"
#include "ilp/BranchBound.h"
#include "search/Search.h"
#include "smt/SmtSynth.h"
#include "state/SearchState.h"
#include "support/Permutations.h"
#include "support/Rng.h"
#include "tables/DistanceTable.h"
#include "kernels/ReferenceKernels.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>

using namespace sks;

namespace {

Program randomProgram(const Machine &M, Rng &R, unsigned Length) {
  Program P;
  const std::vector<Instr> &Alphabet = M.instructions();
  for (unsigned I = 0; I != Length; ++I)
    P.push_back(Alphabet[R.below(Alphabet.size())]);
  return P;
}

//===----------------------------------------------------------------------===//
// Machine-level properties over (kind, n).
//===----------------------------------------------------------------------===//

class MachineProperty
    : public ::testing::TestWithParam<std::tuple<MachineKind, unsigned>> {
protected:
  MachineKind kind() const { return std::get<0>(GetParam()); }
  unsigned n() const { return std::get<1>(GetParam()); }
};

TEST_P(MachineProperty, PackedMachineAgreesWithWideInterpreter) {
  // The packed 3-bit machine and the 64-bit reference interpreter must
  // compute identical data-register results on permutation inputs, for
  // arbitrary (even nonsensical) programs.
  Machine M(kind(), n());
  Rng R(1000 + n());
  for (int Trial = 0; Trial != 60; ++Trial) {
    Program P = randomProgram(M, R, 1 + R.below(16));
    for (const std::vector<int> &Perm : allPermutations(n())) {
      uint32_t Row = M.run(M.packInitial(Perm), P);
      std::vector<long long> Wide(Perm.begin(), Perm.end());
      std::vector<long long> Out = runOnValues(M, P, Wide);
      for (unsigned Reg = 0; Reg != n(); ++Reg)
        ASSERT_EQ(static_cast<long long>(getReg(Row, Reg)), Out[Reg])
            << toString(P, n());
    }
  }
}

TEST_P(MachineProperty, ValuesStayInDomain) {
  // No instruction can manufacture a value outside 0..n.
  Machine M(kind(), n());
  Rng R(2000 + n());
  for (int Trial = 0; Trial != 40; ++Trial) {
    Program P = randomProgram(M, R, 12);
    for (const std::vector<int> &Perm : allPermutations(n())) {
      uint32_t Row = M.packInitial(Perm);
      for (const Instr &I : P) {
        Row = M.apply(Row, I);
        for (unsigned Reg = 0; Reg != M.numRegs(); ++Reg)
          ASSERT_LE(getReg(Row, Reg), n());
      }
    }
  }
}

TEST_P(MachineProperty, CanonicalStatesOnlyShrink) {
  // Applying an instruction to a canonical state can merge rows but never
  // create new ones.
  Machine M(kind(), n());
  Rng R(3000 + n());
  for (int Trial = 0; Trial != 30; ++Trial) {
    SearchState S = initialState(M);
    std::vector<uint32_t> Next;
    for (int Step = 0; Step != 14; ++Step) {
      const std::vector<Instr> &Alphabet = M.instructions();
      Instr I = Alphabet[R.below(Alphabet.size())];
      applyToState(M, S, I, Next);
      ASSERT_LE(Next.size(), S.Rows.size());
      ASSERT_TRUE(std::is_sorted(Next.begin(), Next.end()));
      ASSERT_EQ(std::adjacent_find(Next.begin(), Next.end()), Next.end());
      S.Rows = Next;
    }
  }
}

TEST_P(MachineProperty, PermCountNeverBelowOne) {
  Machine M(kind(), n());
  SearchState S = initialState(M);
  EXPECT_EQ(permCount(M, S), factorial(n()));
  EXPECT_GE(assignCount(M, S), permCount(M, S) > 0 ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, MachineProperty,
    ::testing::Combine(::testing::Values(MachineKind::Cmov,
                                         MachineKind::MinMax),
                       ::testing::Values(2u, 3u, 4u)),
    [](const auto &Info) {
      return std::string(std::get<0>(Info.param) == MachineKind::Cmov
                             ? "cmov"
                             : "minmax") +
             "_n" + std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Distance-table properties.
//===----------------------------------------------------------------------===//

class DistanceProperty
    : public ::testing::TestWithParam<std::tuple<MachineKind, unsigned>> {};

TEST_P(DistanceProperty, OneStepLipschitz) {
  // No instruction can reduce the distance-to-sorted by more than one:
  // dist(apply(row, i)) >= dist(row) - 1 for every reachable row.
  auto [Kind, N] = GetParam();
  Machine M(Kind, N);
  DistanceTable DT(M);
  Rng R(4000 + N);
  for (int Trial = 0; Trial != 40; ++Trial) {
    std::vector<std::vector<int>> Perms = allPermutations(N);
    uint32_t Row = M.packInitial(Perms[R.below(Perms.size())]);
    for (int Step = 0; Step != 12; ++Step) {
      uint8_t Before = DT.dist(Row);
      const std::vector<Instr> &Alphabet = M.instructions();
      Instr I = Alphabet[R.below(Alphabet.size())];
      uint32_t Next = M.apply(Row, I);
      uint8_t After = DT.dist(Next);
      if (Before != DistanceTable::Unreachable &&
          After != DistanceTable::Unreachable) {
        ASSERT_GE(static_cast<int>(After), static_cast<int>(Before) - 1);
      }
      Row = Next;
    }
  }
}

TEST_P(DistanceProperty, InitialDistancesBoundedByNetwork) {
  auto [Kind, N] = GetParam();
  Machine M(Kind, N);
  DistanceTable DT(M);
  for (const std::vector<int> &Perm : allPermutations(N)) {
    uint8_t D = DT.dist(M.packInitial(Perm));
    ASSERT_NE(D, DistanceTable::Unreachable);
    ASSERT_LE(D, networkUpperBound(Kind, N));
  }
}

TEST_P(DistanceProperty, FlagsDoNotChangeCmovDistances) {
  // A single assignment is optimally sorted by unconditional moves, so its
  // distance is flag-independent (see EXPERIMENTS.md on section 3.2) —
  // over every register assignment, reachable or not, of the cmov machine
  // and (at n = 3) the hybrid machine. The distance table's successor
  // block relies on it.
  auto [Kind, N] = GetParam();
  if (Kind != MachineKind::Cmov)
    GTEST_SKIP();
  std::vector<Machine> Machines{Machine(Kind, N)};
  if (N == 3)
    Machines.emplace_back(MachineKind::Hybrid, N);
  for (const Machine &M : Machines) {
    DistanceTable DT(M);
    size_t Assignments = 1;
    for (unsigned Reg = 0; Reg != M.numRegs(); ++Reg)
      Assignments *= M.numValues();
    for (size_t Rank = 0; Rank != Assignments; ++Rank) {
      uint32_t Row = 0;
      size_t Rest = Rank;
      for (unsigned Reg = 0; Reg != M.numRegs(); ++Reg, Rest /= M.numValues())
        Row = setReg(Row, Reg, static_cast<uint32_t>(Rest % M.numValues()));
      ASSERT_EQ(DT.dist(Row), DT.dist(Row | FlagLT)) << Row;
      ASSERT_EQ(DT.dist(Row), DT.dist(Row | FlagGT)) << Row;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, DistanceProperty,
    ::testing::Combine(::testing::Values(MachineKind::Cmov,
                                         MachineKind::MinMax),
                       ::testing::Values(2u, 3u, 4u)),
    [](const auto &Info) {
      return std::string(std::get<0>(Info.param) == MachineKind::Cmov
                             ? "cmov"
                             : "minmax") +
             "_n" + std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// JIT agreement on random programs and random inputs.
//===----------------------------------------------------------------------===//

class JitProperty
    : public ::testing::TestWithParam<std::tuple<MachineKind, unsigned>> {};

TEST_P(JitProperty, RandomProgramsAgreeWithInterpreter) {
  // Not just sorting kernels: ANY program must behave identically under
  // the JIT and the interpreter, on arbitrary int32 inputs.
  auto [Kind, N] = GetParam();
  if (!jitSupported(Kind))
    GTEST_SKIP() << "no JIT on this host";
  Machine M(Kind, N);
  Rng R(5000 + N);
  for (int Trial = 0; Trial != 30; ++Trial) {
    Program P = randomProgram(M, R, 1 + R.below(20));
    auto Jit = JitKernel::compile(Kind, N, P);
    ASSERT_NE(Jit, nullptr);
    for (int Input = 0; Input != 50; ++Input) {
      std::vector<int32_t> A(N), B(N);
      for (unsigned I = 0; I != N; ++I)
        A[I] = B[I] = static_cast<int32_t>(R.next());
      (*Jit)(A.data());
      interpretKernel(Kind, N, P, B.data());
      ASSERT_EQ(A, B) << toString(P, N);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, JitProperty,
    ::testing::Combine(::testing::Values(MachineKind::Cmov,
                                         MachineKind::MinMax),
                       ::testing::Values(2u, 3u, 4u, 5u, 6u)),
    [](const auto &Info) {
      return std::string(std::get<0>(Info.param) == MachineKind::Cmov
                             ? "cmov"
                             : "minmax") +
             "_n" + std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Cross-route agreement: independent synthesis techniques must agree on
// the optimal kernel length.
//===----------------------------------------------------------------------===//

class CrossRouteProperty
    : public ::testing::TestWithParam<std::tuple<MachineKind, unsigned>> {};

TEST_P(CrossRouteProperty, SatAndEnumAgreeOnOptimalLength) {
  auto [Kind, N] = GetParam();
  Machine M(Kind, N);

  SearchOptions Enum;
  Enum.Heuristic = HeuristicKind::PermCount;
  Enum.UseViability = true;
  Enum.MaxLength = networkUpperBound(Kind, N);
  SearchResult EnumResult = synthesize(M, Enum);
  ASSERT_TRUE(EnumResult.Found);

  // The SAT route proves the same bound: feasible at L, infeasible at L-1.
  SmtOptions Sat;
  Sat.Length = EnumResult.OptimalLength;
  Sat.Stop = StopToken().withDeadline(120);
  SmtResult AtOptimum = smtSynthesize(M, Sat);
  ASSERT_TRUE(AtOptimum.Found);
  EXPECT_TRUE(isCorrectKernel(M, AtOptimum.P));

  Sat.Length = EnumResult.OptimalLength - 1;
  Sat.Stop = StopToken().withDeadline(120); // A fresh budget for this run.
  SmtResult BelowOptimum = smtSynthesize(M, Sat);
  EXPECT_FALSE(BelowOptimum.Found);
  EXPECT_FALSE(BelowOptimum.TimedOut);
}

INSTANTIATE_TEST_SUITE_P(
    SmallSizes, CrossRouteProperty,
    ::testing::Values(std::tuple(MachineKind::Cmov, 2u),
                      std::tuple(MachineKind::MinMax, 2u),
                      std::tuple(MachineKind::MinMax, 3u)),
    [](const auto &Info) {
      return std::string(std::get<0>(Info.param) == MachineKind::Cmov
                             ? "cmov"
                             : "minmax") +
             "_n" + std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Randomized ILP feasibility against brute force.
//===----------------------------------------------------------------------===//

TEST(IlpProperty, RandomBinaryFeasibilityMatchesBruteForce) {
  Rng R(6006);
  for (int Round = 0; Round != 60; ++Round) {
    const size_t NumVars = 6;
    const size_t NumRows = 4;
    LinearProgram LP;
    LP.NumVars = NumVars;
    LP.Objective.assign(NumVars, 0.0);
    std::vector<std::vector<int>> RowsInt;
    std::vector<int> RhsInt;
    for (size_t RowIdx = 0; RowIdx != NumRows; ++RowIdx) {
      std::vector<double> Row(NumVars);
      std::vector<int> RowInt(NumVars);
      for (size_t V = 0; V != NumVars; ++V) {
        RowInt[V] = static_cast<int>(R.range(-3, 3));
        Row[V] = RowInt[V];
      }
      int Rhs = static_cast<int>(R.range(-2, 6));
      LP.addRow(Row, Rhs);
      RowsInt.push_back(RowInt);
      RhsInt.push_back(Rhs);
    }
    // 0/1 bounds.
    std::vector<size_t> Integers;
    for (size_t V = 0; V != NumVars; ++V) {
      std::vector<double> Bound(NumVars, 0.0);
      Bound[V] = 1.0;
      LP.addRow(Bound, 1.0);
      Integers.push_back(V);
    }
    // Brute force all 2^6 assignments.
    bool BruteFeasible = false;
    for (uint32_t Mask = 0; Mask != (1u << NumVars) && !BruteFeasible;
         ++Mask) {
      bool Ok = true;
      for (size_t RowIdx = 0; RowIdx != NumRows && Ok; ++RowIdx) {
        int Lhs = 0;
        for (size_t V = 0; V != NumVars; ++V)
          if ((Mask >> V) & 1)
            Lhs += RowsInt[RowIdx][V];
        Ok = Lhs <= RhsInt[RowIdx];
      }
      BruteFeasible = Ok;
    }
    IlpResult Result = solveIlp(LP, Integers, StopToken().withDeadline(30));
    ASSERT_EQ(Result.Status == IlpStatus::Optimal, BruteFeasible)
        << "round " << Round;
    if (Result.Status == IlpStatus::Optimal) {
      // Model check.
      for (size_t RowIdx = 0; RowIdx != NumRows; ++RowIdx) {
        double Lhs = 0;
        for (size_t V = 0; V != NumVars; ++V)
          Lhs += RowsInt[RowIdx][V] * Result.X[V];
        EXPECT_LE(Lhs, RhsInt[RowIdx] + 1e-6);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Solution-DAG count cross-check against brute-force enumeration.
//===----------------------------------------------------------------------===//

TEST(SearchProperty, SolutionCountMatchesBruteForceN2) {
  // Brute-force every length-4 program over the n=2 alphabet and count
  // the correct ones; the DAG's path count must match exactly.
  Machine M(MachineKind::Cmov, 2);
  const std::vector<Instr> &Alphabet = M.instructions();
  uint64_t Brute = 0;
  Program P(4, Instr{Opcode::Mov, 0, 0});
  size_t A = Alphabet.size();
  for (size_t I0 = 0; I0 != A; ++I0)
    for (size_t I1 = 0; I1 != A; ++I1)
      for (size_t I2 = 0; I2 != A; ++I2)
        for (size_t I3 = 0; I3 != A; ++I3) {
          P[0] = Alphabet[I0];
          P[1] = Alphabet[I1];
          P[2] = Alphabet[I2];
          P[3] = Alphabet[I3];
          Brute += isCorrectKernel(M, P);
        }
  SearchOptions Opts;
  Opts.FindAll = true;
  Opts.MaxLength = 4;
  Opts.MaxSolutionsKept = 0;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.SolutionCount, Brute);
}

TEST(SearchProperty, EnumeratedSolutionsAreDistinctAndCorrect) {
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts;
  Opts.FindAll = true;
  Opts.MaxLength = 11;
  Opts.MaxSolutionsKept = 1 << 20;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  ASSERT_EQ(R.Solutions.size(), R.SolutionCount);
  std::set<std::string> Keys;
  for (const Program &P : R.Solutions) {
    ASSERT_EQ(P.size(), 11u);
    ASSERT_TRUE(isCorrectKernel(M, P)) << toString(P, 3);
    std::string Key;
    for (const Instr &I : P) {
      Key.push_back(static_cast<char>(I.encode() & 0xff));
      Key.push_back(static_cast<char>(I.encode() >> 8));
    }
    Keys.insert(Key);
  }
  EXPECT_EQ(Keys.size(), R.Solutions.size()) << "duplicate programs emitted";
}

//===----------------------------------------------------------------------===//
// Robustness: the n!-test vs distinct-integer-inputs distinction.
//===----------------------------------------------------------------------===//

TEST(Robustness, NetworkKernelsAreRobust) {
  // Compare-and-swap networks never consult the scratch register before
  // writing it, so they are correct for every integer input.
  for (unsigned N = 2; N <= 5; ++N) {
    Machine M(MachineKind::Cmov, N);
    EXPECT_TRUE(isRobustKernel(M, sortingNetworkCmov(N))) << N;
    Machine MM(MachineKind::MinMax, N);
    EXPECT_TRUE(isRobustKernel(MM, sortingNetworkMinMax(N))) << N;
  }
}

TEST(Robustness, ScratchConstantTrickIsDetected) {
  // A hand-built kernel that exploits scratch = 0: "cmp r1 s1" always sets
  // gt on the 1..n domain, turning cmovg into an unconditional move. The
  // n!-permutation check accepts it; the robust check must reject it.
  Machine M(MachineKind::Cmov, 2);
  Program Trick;
  ASSERT_TRUE(parseProgram("cmp r1 s1\n"   // gt iff r1 > 0: always on 1..n
                           "cmovg s1 r1\n" // s1 := r1 (disguised mov)
                           "cmp r1 r2\n"
                           "cmovg r1 r2\n"
                           "cmovg r2 s1\n",
                           2, Trick));
  EXPECT_TRUE(isCorrectKernel(M, Trick))
      << "passes the permutation suite by construction";
  EXPECT_FALSE(isRobustKernel(M, Trick))
      << "but must fail for negative inputs";
  // Concrete witness: with a scratch register that does not start below
  // the data (any caller-provided state, or simply data with values the
  // covert comparison misjudges), the kernel LOSES an element — the
  // output is ascending but not a permutation of the input.
  std::vector<long long> Out =
      runOnValuesWithState(M, Trick, {4, 2}, /*ScratchInit=*/5,
                           /*InitialLt=*/false, /*InitialGt=*/false);
  EXPECT_EQ(Out, (std::vector<long long>{2, 5}))
      << "element 4 is replaced by the leaked scratch value";
}

TEST(Robustness, SomeModelOptimalKernelsAreNotRobust) {
  // The reproduction's observation on the paper's model: the scratch
  // register's 0 initialization acts as a hidden constant, and exactly 2
  // of the 5602 model-optimal n=3 kernels genuinely depend on it — they
  // sort every permutation of 1..n but mis-sort some distinct integers.
  // (1366 of the 5602 read the scratch register before writing it, but
  // almost all of those reads are semantically benign.) See
  // EXPERIMENTS.md.
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts;
  Opts.FindAll = true;
  Opts.MaxLength = 11;
  Opts.MaxSolutionsKept = 1 << 20;
  SearchResult R = synthesize(M, Opts);
  ASSERT_EQ(R.Solutions.size(), 5602u);
  std::vector<const Program *> Fragile;
  for (const Program &P : R.Solutions)
    if (!isRobustKernel(M, P))
      Fragile.push_back(&P);
  EXPECT_EQ(Fragile.size(), 2u);
  for (const Program *P : Fragile)
    EXPECT_TRUE(isCorrectKernel(M, *P))
        << "fragile kernels still pass the paper's n! check";
}

TEST(Robustness, RobustImpliesCorrect) {
  // Sanity: robustness is strictly stronger than the n! check.
  Machine M(MachineKind::Cmov, 3);
  Program P = sortingNetworkCmov(3);
  EXPECT_TRUE(isRobustKernel(M, P));
  EXPECT_TRUE(isCorrectKernel(M, P));
}

} // namespace

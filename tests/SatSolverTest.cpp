//===- tests/SatSolverTest.cpp - CDCL solver tests --------------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sat/SatSolver.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace sks;

namespace {

TEST(SatSolver, TrivialSat) {
  SatSolver S;
  int A = S.newVar(), B = S.newVar();
  S.addBinary(A, B);
  S.addUnit(-A);
  ASSERT_EQ(S.solve(), SatResult::Sat);
  EXPECT_FALSE(S.valueOf(A));
  EXPECT_TRUE(S.valueOf(B));
}

TEST(SatSolver, TrivialUnsat) {
  SatSolver S;
  int A = S.newVar();
  S.addUnit(A);
  S.addUnit(-A);
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(SatSolver, EmptyClauseIsUnsat) {
  SatSolver S;
  (void)S.newVar();
  S.addClause({});
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(SatSolver, NoClausesIsSat) {
  SatSolver S;
  (void)S.newVar();
  EXPECT_EQ(S.solve(), SatResult::Sat);
}

TEST(SatSolver, TautologyIsDropped) {
  SatSolver S;
  int A = S.newVar();
  S.addBinary(A, -A);
  EXPECT_EQ(S.solve(), SatResult::Sat);
}

TEST(SatSolver, ExactlyOne) {
  SatSolver S;
  std::vector<Lit> Vars;
  for (int I = 0; I != 5; ++I)
    Vars.push_back(S.newVar());
  S.addExactlyOne(Vars);
  ASSERT_EQ(S.solve(), SatResult::Sat);
  int Count = 0;
  for (Lit V : Vars)
    Count += S.valueOf(V);
  EXPECT_EQ(Count, 1);
}

TEST(SatSolver, XorChainUnsat) {
  // x1 xor x2 = 1, x2 xor x3 = 1, ..., x1 xor xN = 1 with odd cycle length
  // is UNSAT.
  SatSolver S;
  const int N = 9;
  std::vector<int> X;
  for (int I = 0; I != N; ++I)
    X.push_back(S.newVar());
  auto AddXorTrue = [&](int A, int B) {
    S.addBinary(A, B);
    S.addBinary(-A, -B);
  };
  for (int I = 0; I != N; ++I)
    AddXorTrue(X[I], X[(I + 1) % N]);
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(SatSolver, PigeonholePrinciple) {
  // PHP(n+1, n): n+1 pigeons in n holes is UNSAT; classic CDCL stressor.
  const int Holes = 6, Pigeons = 7;
  SatSolver S;
  std::vector<std::vector<int>> Var(Pigeons, std::vector<int>(Holes));
  for (int P = 0; P != Pigeons; ++P)
    for (int H = 0; H != Holes; ++H)
      Var[P][H] = S.newVar();
  for (int P = 0; P != Pigeons; ++P) {
    std::vector<Lit> AtLeastOne(Var[P].begin(), Var[P].end());
    S.addClause(AtLeastOne);
  }
  for (int H = 0; H != Holes; ++H)
    for (int P1 = 0; P1 != Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 != Pigeons; ++P2)
        S.addBinary(-Var[P1][H], -Var[P2][H]);
  EXPECT_EQ(S.solve(), SatResult::Unsat);
  EXPECT_GT(S.numConflicts(), 0u);
}

TEST(SatSolver, PigeonholeExactFitIsSat) {
  const int Holes = 6, Pigeons = 6;
  SatSolver S;
  std::vector<std::vector<int>> Var(Pigeons, std::vector<int>(Holes));
  for (int P = 0; P != Pigeons; ++P)
    for (int H = 0; H != Holes; ++H)
      Var[P][H] = S.newVar();
  for (int P = 0; P != Pigeons; ++P)
    S.addClause(std::vector<Lit>(Var[P].begin(), Var[P].end()));
  for (int H = 0; H != Holes; ++H)
    for (int P1 = 0; P1 != Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 != Pigeons; ++P2)
        S.addBinary(-Var[P1][H], -Var[P2][H]);
  ASSERT_EQ(S.solve(), SatResult::Sat);
  // Model check: every pigeon sits somewhere, no hole is shared.
  for (int H = 0; H != Holes; ++H) {
    int Count = 0;
    for (int P = 0; P != Pigeons; ++P)
      Count += S.valueOf(Var[P][H]);
    EXPECT_LE(Count, 1);
  }
}

/// Generates random 3-SAT near the phase transition and cross-checks
/// SAT answers with a model check (and brute force for small n).
TEST(SatSolver, RandomThreeSatAgainstBruteForce) {
  Rng R(2024);
  for (int Round = 0; Round != 40; ++Round) {
    const int NumVars = 12;
    const int NumClauses = 50;
    std::vector<std::vector<Lit>> Formula;
    for (int C = 0; C != NumClauses; ++C) {
      std::vector<Lit> Clause;
      for (int K = 0; K != 3; ++K) {
        int Var = 1 + static_cast<int>(R.below(NumVars));
        Clause.push_back(R.below(2) ? Var : -Var);
      }
      Formula.push_back(Clause);
    }
    // Brute force.
    bool BruteSat = false;
    for (uint32_t Model = 0; Model != (1u << NumVars) && !BruteSat; ++Model) {
      bool AllSatisfied = true;
      for (const auto &Clause : Formula) {
        bool Satisfied = false;
        for (Lit L : Clause) {
          bool Val = (Model >> (std::abs(L) - 1)) & 1;
          Satisfied |= (L > 0) == Val;
        }
        if (!Satisfied) {
          AllSatisfied = false;
          break;
        }
      }
      BruteSat = AllSatisfied;
    }
    // CDCL.
    SatSolver S;
    for (int V = 0; V != NumVars; ++V)
      (void)S.newVar();
    for (const auto &Clause : Formula)
      S.addClause(Clause);
    SatResult Result = S.solve();
    ASSERT_EQ(Result, BruteSat ? SatResult::Sat : SatResult::Unsat)
        << "round " << Round;
    if (Result == SatResult::Sat) {
      for (const auto &Clause : Formula) {
        bool Satisfied = false;
        for (Lit L : Clause)
          Satisfied |= (L > 0) == S.valueOf(std::abs(L));
        EXPECT_TRUE(Satisfied) << "model violates a clause";
      }
    }
  }
}

TEST(SatSolver, TimeoutReturnsUnknown) {
  // A hard pigeonhole instance with a microscopic budget.
  const int Holes = 10, Pigeons = 11;
  SatSolver S;
  std::vector<std::vector<int>> Var(Pigeons, std::vector<int>(Holes));
  for (int P = 0; P != Pigeons; ++P)
    for (int H = 0; H != Holes; ++H)
      Var[P][H] = S.newVar();
  for (int P = 0; P != Pigeons; ++P)
    S.addClause(std::vector<Lit>(Var[P].begin(), Var[P].end()));
  for (int H = 0; H != Holes; ++H)
    for (int P1 = 0; P1 != Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 != Pigeons; ++P2)
        S.addBinary(-Var[P1][H], -Var[P2][H]);
  EXPECT_EQ(S.solve(StopToken().withDeadline(1e-4)), SatResult::Unknown);
}

} // namespace

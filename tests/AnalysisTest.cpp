//===- tests/AnalysisTest.cpp - Analysis + t-SNE tests -----------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/AbstractInterp.h"
#include "analysis/Analysis.h"
#include "analysis/OrderDomain.h"
#include "tsne/Tsne.h"

#include "kernels/ReferenceKernels.h"
#include "search/Search.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <random>

using namespace sks;

namespace {

TEST(Analysis, NetworkScoreMatchesPaperMinimum) {
  // Section 5.3: the n=4 score classes are {55, 58, 61, 64, 67, 70}; the
  // 5-CAS network (5 mov, 5 cmp, 10 cmov) scores the minimum 55.
  EXPECT_EQ(kernelScore(sortingNetworkCmov(4)), 55u);
  // n=3 network: 3 mov, 3 cmp, 6 cmov = 3 + 6 + 24 = 33.
  EXPECT_EQ(kernelScore(sortingNetworkCmov(3)), 33u);
  // The paper's synthesized n=3 kernel trades one mov: 2 + 6 + 24 = 32.
  EXPECT_EQ(kernelScore(paperSynthCmov3()), 32u);
}

TEST(Analysis, CriticalPathDetectsSerialChains) {
  // A fully serial chain: each mov depends on the previous.
  Program Serial = {Instr{Opcode::Mov, 1, 0}, Instr{Opcode::Mov, 2, 1},
                    Instr{Opcode::Mov, 3, 2}};
  EXPECT_EQ(criticalPathLength(Serial), 3u);
  // Independent moves execute in parallel.
  Program Parallel = {Instr{Opcode::Mov, 1, 0}, Instr{Opcode::Mov, 3, 2}};
  EXPECT_EQ(criticalPathLength(Parallel), 1u);
}

TEST(Analysis, CriticalPathSynthBeatsNetworkN3) {
  // The paper's uiCA analysis: the synthesized kernel has a better
  // dependence structure than the sorting network.
  EXPECT_LE(criticalPathLength(paperSynthCmov3()),
            criticalPathLength(sortingNetworkCmov(3)));
  EXPECT_LE(criticalPathLength(paperSynthMinMax3()),
            criticalPathLength(sortingNetworkMinMax(3)));
  // The synthesized kernels are also shorter, so at equal chain length
  // they still retire in fewer cycles.
  EXPECT_LT(paperSynthMinMax3().size(), sortingNetworkMinMax(3).size());
}

TEST(Analysis, CommandCombinationIsTheOpcodeMultiset) {
  Program A = {Instr{Opcode::Mov, 1, 0}, Instr{Opcode::Cmp, 0, 1}};
  Program B = {Instr{Opcode::Cmp, 0, 1}, Instr{Opcode::Mov, 1, 0}};
  Program C = {Instr{Opcode::Cmp, 0, 2}, Instr{Opcode::Mov, 1, 0}};
  Program D = {Instr{Opcode::CMovL, 1, 0}, Instr{Opcode::Cmp, 0, 1}};
  // Order-insensitive and operand-insensitive (the paper's notion under
  // which n=3 has exactly 23 combinations).
  EXPECT_EQ(commandCombination(A), commandCombination(B));
  EXPECT_EQ(commandCombination(A), commandCombination(C));
  EXPECT_NE(commandCombination(A), commandCombination(D));
  EXPECT_EQ(countDistinctCombinations({A, B, C, D}), 2u);
}

TEST(Analysis, CommandCombinationCountMatchesPaperN3) {
  // The headline structure observation: among all 5602 optimal n=3
  // kernels there are exactly 23 distinct command combinations.
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.MaxLength = 11;
  Opts.MaxSolutionsKept = 1 << 20;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  ASSERT_EQ(R.Solutions.size(), 5602u);
  EXPECT_EQ(countDistinctCombinations(R.Solutions), 23u);
}

TEST(Analysis, SampleByScoreTakesLowestClasses) {
  Program Cheap = {Instr{Opcode::Mov, 1, 0}};                    // Score 1.
  Program Mid = {Instr{Opcode::Cmp, 0, 1}};                      // Score 2.
  Program Dear = {Instr{Opcode::CMovL, 1, 0}};                   // Score 4.
  std::vector<Program> All = {Dear, Mid, Cheap, Cheap};
  std::vector<Program> Picked = sampleByScore(All, 2, 1);
  ASSERT_EQ(Picked.size(), 2u);
  EXPECT_EQ(kernelScore(Picked[0]), 1u);
  EXPECT_EQ(kernelScore(Picked[1]), 2u);
}

TEST(Tsne, SeparatesTwoClusters) {
  // Two noisy clusters far apart must embed far apart. (A perfectly
  // symmetric distance matrix is a degenerate fixed point for t-SNE, so
  // the clusters get a little jitter, as real data always has.)
  const size_t N = 40;
  Rng R(11);
  std::vector<float> D2(N * N, 0.f);
  auto Cluster = [](size_t I) { return I < 20 ? 0 : 1; };
  for (size_t I = 0; I != N; ++I)
    for (size_t J = I + 1; J != N; ++J) {
      float Noise = static_cast<float>(R.uniform());
      float Base = Cluster(I) == Cluster(J) ? 1.0f : 400.0f;
      D2[I * N + J] = D2[J * N + I] = Base + Noise;
    }
  TsneOptions Opts;
  Opts.Perplexity = 8;
  Opts.Iterations = 400;
  Opts.LearningRate = 50;
  std::vector<double> Y = tsneEmbed(D2, N, Opts);
  ASSERT_EQ(Y.size(), 2 * N);
  // Average intra- vs inter-cluster embedded distance.
  double Intra = 0, Inter = 0;
  size_t IntraCount = 0, InterCount = 0;
  for (size_t I = 0; I != N; ++I)
    for (size_t J = I + 1; J != N; ++J) {
      double DX = Y[2 * I] - Y[2 * J], DY = Y[2 * I + 1] - Y[2 * J + 1];
      double Distance = std::sqrt(DX * DX + DY * DY);
      if (Cluster(I) == Cluster(J)) {
        Intra += Distance;
        ++IntraCount;
      } else {
        Inter += Distance;
        ++InterCount;
      }
    }
  EXPECT_LT(Intra / IntraCount, Inter / InterCount);
}

TEST(Tsne, HandlesDegenerateInputs) {
  EXPECT_TRUE(tsneEmbed({}, 0, TsneOptions()).empty());
  EXPECT_EQ(tsneEmbed({0.f}, 1, TsneOptions()).size(), 2u);
  // All-identical points: must not produce NaNs.
  const size_t N = 5;
  std::vector<float> D2(N * N, 0.f);
  std::vector<double> Y = tsneEmbed(D2, N, TsneOptions());
  for (double Coord : Y)
    EXPECT_TRUE(std::isfinite(Coord));
}

TEST(Tsne, ProgramDistanceMatrixIsHammingBased) {
  std::vector<std::vector<uint16_t>> Encoded = {
      {1, 2, 3}, {1, 2, 4}, {9, 9, 9}};
  std::vector<float> D2 = programDistanceMatrix(Encoded);
  EXPECT_FLOAT_EQ(D2[0 * 3 + 1], 2.0f);  // One differing slot.
  EXPECT_FLOAT_EQ(D2[0 * 3 + 2], 6.0f);  // Three differing slots.
  EXPECT_FLOAT_EQ(D2[1 * 3 + 0], 2.0f);  // Symmetry.
  EXPECT_FLOAT_EQ(D2[0], 0.0f);
}

//===----------------------------------------------------------------------===//
// Order-domain abstract interpreter (analysis/OrderDomain.h).
//===----------------------------------------------------------------------===//

constexpr unsigned kSym = OrderState::kSymBase;

TEST(OrderDomain, EntryStateKnowsInitialBindings) {
  OrderState S = OrderState::entry(3);
  // Data register i holds exactly x_i+1; scratch holds exactly Z.
  EXPECT_TRUE(S.provablyEqual(0, kSym + 1));
  EXPECT_TRUE(S.provablyEqual(1, kSym + 2));
  EXPECT_TRUE(S.provablyEqual(2, kSym + 3));
  EXPECT_TRUE(S.provablyEqual(3, kSym + 0));
  EXPECT_EQ(S.valueSet(0), 1u << 1);
  EXPECT_EQ(S.valueSet(3), 1u << 0);
  // Z <= every input, inputs mutually unordered.
  EXPECT_TRUE(S.leq(kSym + 0, kSym + 2));
  EXPECT_FALSE(S.leq(0, 1));
  EXPECT_FALSE(S.leq(1, 0));
  // Flags are clear at entry: only the EQ outcome, so cmovs are dead.
  EXPECT_EQ(S.flagOutcomes(), OrderState::kEq);
  EXPECT_TRUE(S.provablyRedundant(Instr{Opcode::CMovL, 0, 1}));
  EXPECT_TRUE(S.provablyRedundant(Instr{Opcode::CMovG, 0, 1}));
}

TEST(OrderDomain, DataVersusScratchCmpIsDetermined) {
  // cmp r1 s1 at entry compares x_1 against Z: x_1 >= 1 > 0, the may-sets
  // are disjoint, so GT is the only possible outcome.
  OrderState S = OrderState::entry(3);
  EXPECT_EQ(S.cmpOutcomes(0, 3), OrderState::kGt);
  EXPECT_TRUE(S.provablyRedundant(Instr{Opcode::Cmp, 0, 3}));
  // A data-data cmp is informative: LT or GT (EQ impossible — the inputs
  // are a permutation, so distinct symbols hold distinct values).
  EXPECT_EQ(S.cmpOutcomes(0, 1), OrderState::kLt | OrderState::kGt);
  EXPECT_FALSE(S.provablyRedundant(Instr{Opcode::Cmp, 0, 1}));
}

TEST(OrderDomain, MinIdiomEstablishesOrderThroughCmovJoin) {
  // The classic min: mov s1 r1; cmp r1 r2; cmovg r1 r2. Taken branch
  // (r1 > r2) assigns r1 := r2; untaken branch proves r1 <= r2; the join
  // leaves r1 <= r2 — the order fact survives the conditional move.
  OrderState S = OrderState::entry(3);
  S = S.extended(Instr{Opcode::Mov, 3, 0});
  EXPECT_TRUE(S.provablyEqual(3, kSym + 1)); // s1 saved x_1.
  S = S.extended(Instr{Opcode::Cmp, 0, 1});
  EXPECT_EQ(S.flagOutcomes(), OrderState::kLt | OrderState::kGt);
  S = S.extended(Instr{Opcode::CMovG, 0, 1});
  EXPECT_TRUE(S.leq(0, 1));
  EXPECT_FALSE(S.leq(1, 0));
  // r1 now holds min(x_1, x_2): either symbol is possible.
  EXPECT_EQ(S.valueSet(0), (1u << 1) | (1u << 2));
  // A pmin-style "min already in place" claim on the cmov machine's
  // state: a second cmovg on the same (now stale) pair cannot be proven
  // redundant — the flags pair was invalidated by the write to r1.
  EXPECT_FALSE(S.provablyRedundant(Instr{Opcode::CMovG, 1, 0}));
}

TEST(OrderDomain, MinMaxFoldsEstablishOrder) {
  OrderState S = OrderState::entry(3);
  S = S.extended(Instr{Opcode::Min, 0, 1});
  EXPECT_TRUE(S.leq(0, 1)); // min(d, s) <= old s, which r2 still holds.
  // Repeating the fold is a provable no-op; the mirror max is not (it
  // writes r2's value over the min).
  EXPECT_TRUE(S.provablyRedundant(Instr{Opcode::Min, 0, 1}));
  EXPECT_FALSE(S.provablyRedundant(Instr{Opcode::Min, 1, 0}));
  S = S.extended(Instr{Opcode::Max, 1, 0});
  EXPECT_TRUE(S.leq(0, 1));
  EXPECT_TRUE(S.provablyRedundant(Instr{Opcode::Max, 1, 0}));
}

TEST(OrderDomain, InterpretProgramReturnsPerInstructionStates) {
  Program P = {Instr{Opcode::Mov, 3, 0}, Instr{Opcode::Cmp, 0, 1},
               Instr{Opcode::CMovG, 0, 1}};
  std::vector<OrderState> States = interpretProgram(P, 3);
  ASSERT_EQ(States.size(), P.size() + 1);
  EXPECT_EQ(States[0].flagOutcomes(), OrderState::kEq);
  EXPECT_EQ(States[2].flagOutcomes(), OrderState::kLt | OrderState::kGt);
  EXPECT_TRUE(States[3].leq(0, 1));
}

// Every abstract fact must hold on the concrete rows: random prefixes,
// executed on all n! permutations in parallel with the abstract transfer.
TEST(OrderDomain, RandomPrefixFactsHoldConcretely) {
  struct Config {
    MachineKind Kind;
    unsigned N;
  };
  const Config Configs[] = {{MachineKind::Cmov, 3},
                            {MachineKind::Cmov, 4},
                            {MachineKind::MinMax, 3},
                            {MachineKind::MinMax, 4}};
  std::mt19937 Rng(987654321);
  for (const Config &C : Configs) {
    Machine M(C.Kind, C.N);
    const std::vector<uint32_t> Init = initialState(M).Rows;
    const std::vector<Instr> &Alphabet = M.instructions();

    // Concrete value of an abstract slot in row K: registers read the
    // current row, symbol s >= 1 reads data register s-1 of the INITIAL
    // row (x_s = what that register started with), symbol 0 is Z = 0.
    std::vector<uint32_t> Rows;
    auto SlotVal = [&](unsigned Slot, size_t K) -> uint32_t {
      if (Slot < kSym)
        return getReg(Rows[K], Slot);
      return Slot == kSym ? 0u : getReg(Init[K], Slot - kSym - 1);
    };

    auto CheckState = [&](const OrderState &S) {
      const unsigned NumSlots = kSym + C.N + 1;
      for (size_t K = 0; K != Rows.size(); ++K) {
        for (unsigned A = 0; A != NumSlots; ++A) {
          if (A >= kMaxRegs && A < kSym)
            continue;
          for (unsigned B = 0; B != NumSlots; ++B) {
            if (B >= kMaxRegs && B < kSym)
              continue;
            if (S.leq(A, B)) {
              ASSERT_LE(SlotVal(A, K), SlotVal(B, K))
                  << "slots " << A << " <= " << B << " row " << K;
            }
          }
        }
        // The register's symbol (unique: values in a row are distinct
        // across symbols) must be in the may-set.
        for (unsigned R = 0; R != M.numRegs(); ++R) {
          const uint32_t V = getReg(Rows[K], R);
          unsigned Sym = 0;
          for (unsigned X = 1; V != 0 && X <= C.N; ++X)
            if (getReg(Init[K], X - 1) == V)
              Sym = X;
          ASSERT_TRUE(S.valueSet(R) & (1u << Sym))
              << "reg " << R << " row " << K;
        }
        // The row's flag state must be a possible outcome.
        const uint8_t Flag = (Rows[K] & FlagLT)   ? OrderState::kLt
                             : (Rows[K] & FlagGT) ? OrderState::kGt
                                                  : OrderState::kEq;
        ASSERT_TRUE(S.flagOutcomes() & Flag) << "row " << K;
      }
    };

    auto CheckClaims = [&](const OrderState &S) {
      for (const Instr &I : Alphabet) {
        if (!S.provablyRedundant(I))
          continue;
        if (I.Op == Opcode::Cmp) {
          // Determined cmp: one outcome across ALL rows, the one claimed.
          const uint8_t Claimed = S.cmpOutcomes(I.Dst, I.Src);
          for (size_t K = 0; K != Rows.size(); ++K) {
            const uint32_t After = M.apply(Rows[K], I);
            const uint8_t Got = (After & FlagLT)   ? OrderState::kLt
                                : (After & FlagGT) ? OrderState::kGt
                                                   : OrderState::kEq;
            ASSERT_EQ(Got, Claimed) << toString(I, C.N) << " row " << K;
          }
        } else {
          // Claimed no-op: every row maps to itself.
          for (size_t K = 0; K != Rows.size(); ++K)
            ASSERT_EQ(M.apply(Rows[K], I), Rows[K])
                << toString(I, C.N) << " row " << K;
        }
      }
    };

    for (int Trial = 0; Trial != 50; ++Trial) {
      Rows = Init;
      OrderState S = OrderState::entry(C.N);
      const unsigned Len = 1 + Rng() % 8;
      for (unsigned Step = 0; Step != Len; ++Step) {
        CheckClaims(S);
        const Instr I = Alphabet[Rng() % Alphabet.size()];
        for (uint32_t &Row : Rows)
          Row = M.apply(Row, I);
        S = S.extended(I);
        CheckState(S);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Semantic lint rules (analysis/AbstractInterp.h).
//===----------------------------------------------------------------------===//

std::vector<LintRule> rulesAt(const std::vector<Diagnostic> &Diags,
                              unsigned Index) {
  std::vector<LintRule> Rules;
  for (const Diagnostic &D : Diags)
    if (D.InstrIndex == Index)
      Rules.push_back(D.Rule);
  return Rules;
}

bool hasRule(const std::vector<LintRule> &Rules, LintRule R) {
  return std::find(Rules.begin(), Rules.end(), R) != Rules.end();
}

TEST(SemanticLint, FlagsEachSemanticRule) {
  // cmovl before any cmp: dead (noop-cmov, subsuming stale-flags);
  // cmp of data against scratch-zero: outcome determined (redundant-cmp).
  Program P = {Instr{Opcode::CMovL, 0, 1}, Instr{Opcode::Cmp, 0, 3},
               Instr{Opcode::CMovG, 0, 1}};
  std::vector<Diagnostic> Diags = lintProgramSemantic(P, 3);
  EXPECT_TRUE(hasRule(rulesAt(Diags, 0), LintRule::NoopCmov));
  EXPECT_FALSE(hasRule(rulesAt(Diags, 0), LintRule::StaleFlags));
  EXPECT_TRUE(hasRule(rulesAt(Diags, 1), LintRule::RedundantCmp));

  // pmin repeated: the second fold's result is already in place.
  Program Q = {Instr{Opcode::Min, 0, 1}, Instr{Opcode::Min, 0, 1}};
  Diags = lintProgramSemantic(Q, 3);
  EXPECT_TRUE(hasRule(rulesAt(Diags, 1), LintRule::OrderEstablished));
  EXPECT_FALSE(hasRule(rulesAt(Diags, 0), LintRule::OrderEstablished));
}

TEST(SemanticLint, SelfMoveSubsumesSemanticFindings) {
  // cmp r1 r1 is both a syntactic self-move and a semantically determined
  // cmp; the crisper self-move report wins.
  Program P = {Instr{Opcode::Cmp, 0, 0}};
  std::vector<Diagnostic> Diags = lintProgramSemantic(P, 3);
  EXPECT_TRUE(hasRule(rulesAt(Diags, 0), LintRule::SelfMove));
  EXPECT_FALSE(hasRule(rulesAt(Diags, 0), LintRule::RedundantCmp));
}

TEST(SemanticLint, CleanKernelsStayClean) {
  for (const Program &P : {paperSynthCmov3(), sortingNetworkCmov(3)})
    for (const Diagnostic &D : lintProgramSemantic(P, 3))
      EXPECT_LT(D.Severity, LintSeverity::Warning)
        << toString(D, P, 3);
  for (const Diagnostic &D : lintProgramSemantic(paperSynthMinMax3(), 3))
    EXPECT_LT(D.Severity, LintSeverity::Warning);
}

} // namespace

//===- tests/LintTest.cpp - Dataflow linter + dead-instruction gate tests -===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include "analysis/Analysis.h"
#include "kernels/ReferenceKernels.h"
#include "lint/PrefixLint.h"
#include "search/Search.h"
#include "support/Rng.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>

using namespace sks;

namespace {

Program parse(const std::string &Text, unsigned NumData = 3) {
  Program P;
  EXPECT_TRUE(parseProgram(Text, NumData, P)) << Text;
  return P;
}

bool hasRule(const std::vector<Diagnostic> &Diags, LintRule Rule) {
  for (const Diagnostic &D : Diags)
    if (D.Rule == Rule)
      return true;
  return false;
}

TEST(Lint, ReferenceKernelsAreDiagnosticFree) {
  // The shipped kernels (also kernels_prebuilt/, via the sks-lint ctest)
  // must produce ZERO diagnostics, notes included.
  struct Case {
    Program P;
    unsigned N;
  };
  for (const Case &C :
       {Case{sortingNetworkCmov(2), 2}, Case{sortingNetworkCmov(3), 3},
        Case{sortingNetworkCmov(4), 4}, Case{paperSynthCmov3(), 3},
        Case{paperSynthMinMax3(), 3}, Case{sortingNetworkMinMax(3), 3}}) {
    std::vector<Diagnostic> Diags = lintProgram(C.P, C.N);
    EXPECT_TRUE(Diags.empty())
        << toString(C.P, C.N)
        << (Diags.empty() ? "" : toString(Diags.front(), C.P, C.N));
  }
}

TEST(Lint, RemovableMovInAlphaDevStyleSort3) {
  // Neri's observation that motivates the linter: a correct, published
  // Sort3 can still contain a statically removable instruction. The
  // fixture plants a mov whose value is overwritten before any read; the
  // kernel still sorts, and the linter must prove the mov dead.
  Machine M(MachineKind::Cmov, 3);
  Program Redundant = parse("mov s1 r2");
  Program Kernel = paperSynthCmov3(); // Starts with "mov s1 r1".
  Redundant.insert(Redundant.end(), Kernel.begin(), Kernel.end());
  ASSERT_TRUE(isCorrectKernel(M, Redundant));

  std::vector<Diagnostic> Diags = lintProgram(Redundant, 3);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Rule, LintRule::DeadCode);
  EXPECT_EQ(Diags[0].InstrIndex, 0u);
  EXPECT_EQ(Diags[0].Severity, LintSeverity::Warning);
  EXPECT_FALSE(isLintClean(Redundant, 3));
  EXPECT_TRUE(isLintClean(Kernel, 3));
}

TEST(Lint, DeadCmpWhenFlagsClobberedOrUnread) {
  // First cmp's flags are clobbered by the second before any cmov.
  std::vector<Diagnostic> Diags =
      lintProgram(parse("cmp r1 r2\ncmp r1 r3\ncmovg r1 r3"), 3);
  ASSERT_TRUE(hasRule(Diags, LintRule::DeadCmp));
  EXPECT_EQ(Diags.front().InstrIndex, 0u);
  // A trailing cmp falls off the end unread.
  EXPECT_TRUE(hasRule(lintProgram(parse("cmp r1 r2"), 3), LintRule::DeadCmp));
}

TEST(Lint, StaleFlagsBeforeAnyCmp) {
  std::vector<Diagnostic> Diags =
      lintProgram(parse("mov s1 r1\ncmovg r1 s1"), 3);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Rule, LintRule::StaleFlags);
  EXPECT_EQ(Diags[0].InstrIndex, 1u);
  EXPECT_TRUE(hasRule(lintProgram(parse("cmovl r1 r2"), 3),
                      LintRule::StaleFlags));
}

TEST(Lint, SelfAddressedInstructions) {
  for (const char *Text : {"mov r1 r1", "cmovl r2 r2", "pmin r3 r3",
                           "cmp r2 r2"}) {
    std::vector<Diagnostic> Diags = lintProgram(parse(Text), 3);
    ASSERT_EQ(Diags.size(), 1u) << Text;
    EXPECT_EQ(Diags[0].Rule, LintRule::SelfMove) << Text;
    EXPECT_EQ(Diags[0].Severity, LintSeverity::Warning) << Text;
  }
}

TEST(Lint, ScratchReadsAreNotesNotWarnings) {
  // Reads the zero-initialized scratch register and lets it reach the
  // output: both scratch rules fire as NOTES — legal under the machine
  // model (1366 of the 5602 optimal n=3 kernels do this), so it must not
  // affect isLintClean's default gate.
  Program P = parse("cmp r1 s1\ncmovg r1 s1");
  std::vector<Diagnostic> Diags = lintProgram(P, 3);
  EXPECT_TRUE(hasRule(Diags, LintRule::UninitRead));
  EXPECT_TRUE(hasRule(Diags, LintRule::ScratchLiveOut));
  for (const Diagnostic &D : Diags)
    EXPECT_EQ(D.Severity, LintSeverity::Note);
  EXPECT_TRUE(isLintClean(P, 3));
  EXPECT_FALSE(isLintClean(P, 3, LintSeverity::Note));
}

TEST(Lint, DeadChainsAreReportedInFull) {
  // mov s2 s1 is overwritten unread; the iterated analysis then kills the
  // mov s1 r1 that only fed it, and the final write is unread too.
  std::vector<Diagnostic> Diags =
      lintProgram(parse("mov s1 r1\nmov s2 s1\nmov s2 r2"), 3);
  ASSERT_EQ(Diags.size(), 3u);
  for (unsigned I = 0; I != 3; ++I) {
    EXPECT_EQ(Diags[I].Rule, LintRule::DeadCode);
    EXPECT_EQ(Diags[I].InstrIndex, I);
  }
}

TEST(Lint, DiagnosticRendering) {
  Program P = parse("mov s1 r2\nmov s1 r1");
  std::vector<Diagnostic> Diags = lintProgram(P, 3);
  ASSERT_FALSE(Diags.empty());
  std::string Text = toString(Diags[0], P, 3);
  EXPECT_NE(Text.find("instr 0"), std::string::npos);
  EXPECT_NE(Text.find("mov s1 r2"), std::string::npos);
  EXPECT_NE(Text.find("warning"), std::string::npos);
  EXPECT_NE(Text.find("[dead-code]"), std::string::npos);
}

TEST(PrefixLint, TracksPendingCmpAndWrites) {
  const Instr CmpR1R2{Opcode::Cmp, 0, 1};
  const Instr CmpR1R3{Opcode::Cmp, 0, 2};
  const Instr CMovLR2R3{Opcode::CMovL, 1, 2};
  const Instr MovS1R1{Opcode::Mov, 3, 0};
  const Instr MovS1R2{Opcode::Mov, 3, 1};
  const Instr CmpR1S1{Opcode::Cmp, 0, 3};

  PrefixLint S = PrefixLint::entry();
  // Conditional moves are dead until a cmp has set the flags.
  EXPECT_TRUE(S.killsPrefix(CMovLR2R3));
  EXPECT_FALSE(S.killsPrefix(CmpR1R2));

  S = S.extended(CmpR1R2);
  EXPECT_TRUE(S.killsPrefix(CmpR1R3)) << "clobbers the unread flags";
  EXPECT_FALSE(S.killsPrefix(CMovLR2R3));
  S = S.extended(CMovLR2R3);
  EXPECT_FALSE(S.killsPrefix(CmpR1R3)) << "flags were consumed";

  S = S.extended(MovS1R1);
  EXPECT_TRUE(S.killsPrefix(MovS1R2)) << "kills the unread write to s1";
  S = S.extended(CmpR1S1); // Reads s1.
  EXPECT_FALSE(S.killsPrefix(MovS1R2));
}

TEST(PrefixLint, IdempotentRepeatAndMeet) {
  const Instr Pmin{Opcode::Min, 0, 1};
  const Instr PminSwapped{Opcode::Min, 1, 0};
  PrefixLint S = PrefixLint::entry().extended(Pmin);
  EXPECT_TRUE(S.killsPrefix(Pmin)) << "immediate repeat is a no-op";
  EXPECT_FALSE(S.killsPrefix(PminSwapped));
  // Self-addressed instructions are no-ops regardless of the prefix.
  EXPECT_TRUE(S.killsPrefix(Instr{Opcode::Mov, 2, 2}));

  // After meeting a program with a different history, only facts shared by
  // BOTH programs may prune.
  PrefixLint Other = PrefixLint::entry().extended(PminSwapped);
  S.meet(Other);
  EXPECT_FALSE(S.killsPrefix(Pmin)) << "last instruction differs";
  EXPECT_FALSE(S.killsPrefix(Instr{Opcode::Mov, 0, 2}))
      << "pending write only in one of the merged programs";
}

TEST(PrefixLint, CleanKernelPrefixesAreNeverPruned) {
  // Soundness smoke test: along a minimal kernel, no prefix extension is
  // ever refused (a minimal kernel contains no dead instruction).
  for (const Program &P : {paperSynthCmov3(), paperSynthMinMax3()}) {
    PrefixLint S = PrefixLint::entry();
    for (const Instr &I : P) {
      EXPECT_FALSE(S.killsPrefix(I));
      S = S.extended(I);
    }
  }
}

/// Checks PrefixLint::refused against killsPrefix on every instruction of
/// \p M's alphabet.
void expectRefusedMatchesKillsPrefix(const Machine &M,
                                     const InstrClasses &Classes,
                                     const PrefixLint &S) {
  const std::vector<Instr> &All = M.instructions();
  const InstrSet Refused = S.refused(Classes);
  for (size_t K = 0; K != All.size(); ++K)
    ASSERT_EQ(Refused.contains(K), S.killsPrefix(All[K]))
        << toString(All[K], M.numData());
  EXPECT_EQ(Refused.minus(Classes.All), InstrSet());
}

TEST(PrefixLint, RefusedSetMatchesKillsPrefix) {
  // The gate the engines run is the set; killsPrefix is its definition.
  // Random programs over each alphabet, every prefix of them, and meets of
  // two: some whose programs end on different instructions, some on the
  // same one, so that the meet keeps or drops each fact. The hybrid
  // machine and cmov on two scratch registers reach register 7 and the
  // largest alphabet (196 instructions).
  struct Shape {
    MachineKind Kind;
    unsigned N, Scratch;
  };
  std::vector<Shape> Shapes;
  for (unsigned N = 2; N <= 6; ++N) {
    Shapes.push_back({MachineKind::Cmov, N, 1});
    Shapes.push_back({MachineKind::MinMax, N, 1});
  }
  Shapes.push_back({MachineKind::Cmov, 6, 2});
  Shapes.push_back({MachineKind::Hybrid, 3, 1});
  Rng R(2024);
  for (const Shape &Sh : Shapes) {
    Machine M(Sh.Kind, Sh.N, Sh.Scratch);
    SCOPED_TRACE(testing::Message() << "kind=" << static_cast<int>(Sh.Kind)
                                    << " n=" << Sh.N
                                    << " scratch=" << Sh.Scratch);
    const std::vector<Instr> &All = M.instructions();
    const InstrClasses Classes(All, M.numData());
    auto RandomProgram = [&](size_t MaxLen) {
      Program P(R.below(MaxLen + 1));
      for (Instr &I : P)
        I = All[R.below(All.size())];
      return P;
    };
    auto Summary = [](const Program &P) {
      PrefixLint S = PrefixLint::entry();
      for (Instr I : P)
        S = S.extended(I);
      return S;
    };
    expectRefusedMatchesKillsPrefix(M, Classes, PrefixLint::entry());
    for (int Round = 0; Round != 200; ++Round) {
      const Program P = RandomProgram(12);
      PrefixLint S = PrefixLint::entry();
      for (Instr I : P) {
        S = S.extended(I);
        expectRefusedMatchesKillsPrefix(M, Classes, S);
      }
      // A second program, half the time ending on P's last instruction.
      Program Q = RandomProgram(12);
      if (!P.empty() && R.below(2) == 0)
        Q.push_back(P.back());
      PrefixLint Met = S;
      Met.meet(Summary(Q));
      expectRefusedMatchesKillsPrefix(M, Classes, Met);
      // P with its last instruction redrawn: the meet keeps what the two
      // share and, where the last instructions differ, drops the repeat.
      if (!P.empty()) {
        Program Other = P;
        Other.back() = All[R.below(All.size())];
        Met = S;
        Met.meet(Summary(Other));
        expectRefusedMatchesKillsPrefix(M, Classes, Met);
      }
    }
  }
}

SearchOptions enumerateAll(unsigned MaxLength) {
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.UseViability = true;
  Opts.MaxLength = MaxLength;
  Opts.MaxSolutionsKept = 0; // Count only.
  return Opts;
}

/// What the engines' always-on dead-instruction gate must keep on a
/// layered run, at one and at four threads. The gate refuses a candidate
/// before it is applied, and on these runs it leaves the set of expanded
/// nodes unchanged: the refused candidates plus the generated ones add up
/// exactly to \p GateOffGenerated, the StatesGenerated of the same run
/// measured with the gate switched off. A gate that changed which nodes
/// get expanded, or refused nothing, fails here.
void expectGateKeeps(const Machine &M, SearchOptions Opts, uint64_t Solutions,
                     size_t GateOffGenerated) {
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE(Threads == 1 ? "1 thread" : "4 threads");
    Opts.NumThreads = Threads;
    SearchResult R = synthesize(M, Opts);
    ASSERT_TRUE(R.Found);
    EXPECT_EQ(R.SolutionCount, Solutions);
    EXPECT_GT(R.Stats.SyntacticPruned, 0u);
    EXPECT_EQ(R.Stats.StatesGenerated + R.Stats.SyntacticPruned,
              GateOffGenerated);
  }
}

TEST(DeadInstrGate, PreservesAllSolutionsN2) {
  expectGateKeeps(Machine(MachineKind::Cmov, 2), enumerateAll(4), 8, 441);
}

TEST(DeadInstrGate, Preserves5602SolutionsN3) {
  // The paper's 5602 optimal n=3 kernels: every refused program had an
  // equal-length lint-clean equivalent.
  expectGateKeeps(Machine(MachineKind::Cmov, 3), enumerateAll(11), 5602,
                  20917932);
}

TEST(DeadInstrGate, PreservesMinMaxSolutionCounts) {
  // No cmp/flags in this machine model: exercises the pending-write and
  // idempotent-repeat rules on the min/max alphabet.
  expectGateKeeps(Machine(MachineKind::MinMax, 3), enumerateAll(8), 604,
                  18612);
}

TEST(DeadInstrGate, PreservesTheCut1RunN3) {
  // The section 3.5 cut reads the per-level minimum permutation count of
  // the stored states, so a gate that dropped a stored state could move
  // the cut; the 234 kernels and the sum pin that it does not.
  SearchOptions Opts = enumerateAll(11);
  Opts.Cut = CutConfig::mult(1.0);
  expectGateKeeps(Machine(MachineKind::Cmov, 3), Opts, 234, 574476);
}

TEST(DeadInstrGate, BestFirstStillFindsMinimalKernels) {
  Machine M(MachineKind::Cmov, 3);
  SearchResult R = synthesize(M, bestEnumConfig(MachineKind::Cmov, 3));
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 11u);
  EXPECT_GT(R.Stats.SyntacticPruned, 0u);
  EXPECT_TRUE(isCorrectKernel(M, R.Solutions.at(0)));
  EXPECT_TRUE(isLintClean(R.Solutions.at(0), 3));
}

TEST(DeadInstrGate, ComposesWithSemanticFilters) {
  // The section 3.2 action filter + 3.3 viability + the cut + the gate
  // together still find the optimal length.
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts = bestEnumConfig(MachineKind::Cmov, 3);
  Opts.UseActionFilter = true;
  SearchResult R = synthesize(M, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 11u);
}

TEST(DeadInstrGate, AllOptimalN3KernelsAreLintClean) {
  // The converse direction of soundness, on the full solution set: no
  // optimal kernel trips a Warning-level rule, and the Note-level scratch
  // rule reproduces the repo's established count — 1366 of the 5602 read
  // the scratch register before writing it (see PropertyTest.cpp).
  Machine M(MachineKind::Cmov, 3);
  SearchOptions Opts;
  Opts.FindAll = true;
  Opts.UseViability = true;
  Opts.MaxLength = 11;
  SearchResult R = synthesize(M, Opts);
  ASSERT_EQ(R.Solutions.size(), 5602u);
  size_t ScratchReaders = 0;
  for (const Program &P : R.Solutions) {
    EXPECT_TRUE(isLintClean(P, 3)) << toString(P, 3);
    if (hasRule(lintProgram(P, 3), LintRule::UninitRead))
      ++ScratchReaders;
  }
  EXPECT_EQ(ScratchReaders, 1366u);
}

} // namespace

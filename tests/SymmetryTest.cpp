//===- tests/SymmetryTest.cpp - Scratch-register renaming of kernels ------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Tests for analysis/Symmetry.h's canonicalProgram: the program-level
// scratch-register renaming behind the sks-lint rule
// non-canonical-registers, including cmp re-normalization and the forced
// cmov direction flips, on verified sort kernels.
//
//===----------------------------------------------------------------------===//

#include "analysis/Symmetry.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>

using namespace sks;

namespace {

TEST(Symmetry, CanonicalProgramRenamesScratchAndFlipsCmovs) {
  // Two behaviorally identical sort-2 kernels over scratch registers
  // s1 = reg 2 and s2 = reg 3; Q is P under the s1 <-> s2 swap, with the
  // scratch-scratch cmp re-normalized into the alphabet and both
  // conditional moves flipped through the forced parity. P is the orbit
  // representative; canonicalProgram must map Q back onto it.
  const unsigned N = 2;
  const Program P = {
      {Opcode::Mov, 2, 0},   // mov s1, r1
      {Opcode::Mov, 3, 1},   // mov s2, r2
      {Opcode::Cmp, 2, 3},   // cmp s1, s2     (lt iff r1 < r2)
      {Opcode::CMovG, 0, 3}, // cmovg r1, s2   (r1 > r2: r1 = r2)
      {Opcode::CMovG, 1, 2}, // cmovg r2, s1   (r1 > r2: r2 = old r1)
  };
  const Program Q = {
      {Opcode::Mov, 3, 0},   // mov s2, r1
      {Opcode::Mov, 2, 1},   // mov s1, r2
      {Opcode::Cmp, 2, 3},   // cmp s1, s2     (lt iff r2 < r1: swapped!)
      {Opcode::CMovL, 0, 2}, // cmovl r1, s1
      {Opcode::CMovL, 1, 3}, // cmovl r2, s2
  };
  Machine M(MachineKind::Cmov, N, 2);
  ASSERT_TRUE(isCorrectKernel(M, P));
  ASSERT_TRUE(isCorrectKernel(M, Q));

  EXPECT_TRUE(isCanonicalProgram(P, N));
  EXPECT_FALSE(isCanonicalProgram(Q, N));
  EXPECT_EQ(canonicalProgram(Q, N), P);
  EXPECT_EQ(canonicalProgram(P, N), P); // Idempotent.
  // The canonical form is still a correct kernel — the rule is purely
  // informational.
  EXPECT_TRUE(isCorrectKernel(M, canonicalProgram(Q, N)));
}

TEST(Symmetry, CanonicalProgramTrivialCases) {
  // m = 1: a single scratch register permutes only trivially, so every
  // kernel is its own canonical form (the prebuilt kernels rely on this).
  const Program OneScratch = {
      {Opcode::Mov, 2, 0},
      {Opcode::Cmp, 0, 1},
      {Opcode::CMovG, 0, 1},
      {Opcode::CMovG, 1, 2},
  };
  EXPECT_TRUE(isCanonicalProgram(OneScratch, 2));

  // Mixed-file programs are skipped: the GP/vector split is not
  // recoverable from the text, so no renaming is attempted even though
  // two scratch registers appear.
  const Program Mixed = {
      {Opcode::Mov, 3, 0},
      {Opcode::Min, 2, 1},
      {Opcode::Cmp, 0, 1},
  };
  EXPECT_EQ(canonicalProgram(Mixed, 2), Mixed);
  EXPECT_TRUE(isCanonicalProgram(Mixed, 2));
}

} // namespace

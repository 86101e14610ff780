//===- tests/CanonicalizeTest.cpp - SIMD canonicalization equivalence ------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Randomized property tests for the vectorized expansion hot path:
//
//  - canonicalizeRows (SSE2 sorting networks / radix sort) must equal the
//    scalar std::sort + std::unique reference on arbitrary 31-bit buffers,
//    across every dispatch band and boundary;
//  - the bitmap distinct-projection counter (permCount / assignCount /
//    each data register's permCountWithout) must equal a std::sort +
//    std::unique count of the projections on random row buffers of every
//    length up to n!, for every machine kind and goal family, and hand its
//    bitmap back all zeros;
//  - the pipeline's pre-apply viability verdict must read, for every
//    instruction, the maxDist of the child that apply would build, and
//    CandidatePipeline::expandNode must produce exactly the rows/hash/perm
//    of separate apply / sort+unique / maxDist / reference perm count /
//    hashWords calls, refuse exactly what killsPrefix refuses, and cut
//    exactly the children whose reference count is above the cut's
//    threshold, over walks of real Cmov, MinMax, and Hybrid machines at
//    n = 3..5 that mix random instructions with sorting-network prefixes,
//    under the walk's own prefix summaries and at budgets up to 300;
//  - the section 3.5 cut's pre-apply bounds never exceed a child's count
//    (random walks of every machine kind and goal family), and its integer
//    threshold agrees with the floating-point test it replaced;
//  - the state store the merge hashes into: IndexShard's 32-bit tags
//    leave every match to the row compare, before and after growth,
//    LevelIds decodes a layered node id to its (level, local) over empty
//    levels, and ChunkedArray / RowArena hold exactly the chunks they
//    allocated, with no state's rows straddling two.
//
//===----------------------------------------------------------------------===//

#include "kernels/ReferenceKernels.h"
#include "machine/BatchApply.h"
#include "search/Expansion.h"
#include "state/Canonicalize.h"
#include "state/StateStore.h"
#include "support/Permutations.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>

using namespace sks;
using namespace sks::detail;

namespace {

std::vector<uint32_t> scalarReference(std::vector<uint32_t> Rows) {
  std::sort(Rows.begin(), Rows.end());
  Rows.erase(std::unique(Rows.begin(), Rows.end()), Rows.end());
  return Rows;
}

/// The reference perm count (\p Assign false) or assignment count: the
/// data-register (all-register) projection of every row, each row the
/// goal accepts replaced by the goal pattern, counted by std::sort +
/// std::unique.
unsigned referenceCount(const Machine &M, const uint32_t *Rows, size_t Len,
                        bool Assign) {
  std::vector<uint32_t> Projected;
  for (size_t I = 0; I != Len; ++I) {
    if (Assign)
      Projected.push_back(Rows[I] & M.regMask());
    else
      Projected.push_back(M.accepts(Rows[I]) ? M.goalPattern()
                                             : Rows[I] & M.dataMask());
  }
  return static_cast<unsigned>(scalarReference(Projected).size());
}

/// The reference permCountWithout: the data-register projection of every
/// row without register \p Reg, each row the goal with Reg's pin dropped
/// accepts replaced by that goal's pattern, counted by std::sort +
/// std::unique.
unsigned referenceCountWithout(const Machine &M, const uint32_t *Rows,
                               size_t Len, unsigned Reg) {
  const uint32_t Keep = ~(7u << (3 * Reg));
  const uint32_t Mask = M.dataMask() & Keep;
  const uint32_t Pattern = M.goalPattern() & Keep;
  std::vector<uint32_t> Projected;
  for (size_t I = 0; I != Len; ++I) {
    const uint32_t P = Rows[I] & Mask;
    Projected.push_back((P & M.goalMask() & Keep) == Pattern ? Pattern : P);
  }
  return static_cast<unsigned>(scalarReference(Projected).size());
}

bool allZero(const std::vector<uint64_t> &Bitmap) {
  uint64_t Or = 0;
  for (uint64_t Word : Bitmap)
    Or |= Word;
  return Or == 0;
}

/// \returns \p Len random rows of \p M: every register 0..n, random flags,
/// a quarter of the rows accepted by the goal, drawn from a pool of random
/// size so that duplicates range from none to all.
std::vector<uint32_t> randomRows(const Machine &M, size_t Len, Rng &R) {
  const unsigned N = M.numData();
  const uint32_t Pinned = M.goal().pinnedPositions(N);
  std::vector<uint32_t> Pool(1 + R.below(Len + 1));
  for (uint32_t &Row : Pool) {
    Row = 0;
    for (unsigned Reg = 0; Reg != M.numRegs(); ++Reg)
      Row = setReg(Row, Reg, static_cast<uint32_t>(R.below(N + 1)));
    if (R.below(4) == 0)
      for (unsigned J = 0; J != N; ++J)
        if (Pinned & (1u << J))
          Row = setReg(Row, J, J + 1);
    const uint32_t Flags[] = {0, FlagLT, FlagGT};
    Row |= Flags[R.below(3)];
  }
  std::vector<uint32_t> Rows(Len);
  for (uint32_t &Row : Rows)
    Row = Pool[R.below(Pool.size())];
  return Rows;
}

TEST(DistinctProjections, MatchesSortReferenceAndClearsItsBitmap) {
  struct Shape {
    MachineKind Kind;
    unsigned MinN, MaxN;
  };
  // The hybrid machine's doubled register file fits up to n = 3.
  const Shape Shapes[] = {{MachineKind::Cmov, 2, 6},
                          {MachineKind::MinMax, 2, 6},
                          {MachineKind::Hybrid, 2, 3}};
  Rng R(77);
  for (const Shape &S : Shapes) {
    for (unsigned N = S.MinN; N <= S.MaxN; ++N) {
      // One bitmap for every buffer, goal and mask of this machine size.
      std::vector<uint64_t> Bitmap;
      const size_t MaxLen = factorial(N);
      for (size_t Len = 0; Len <= MaxLen; ++Len) {
        // Every goal family; the parameter cycles through 1..n with Len.
        const unsigned K = 1 + static_cast<unsigned>(Len % N);
        for (GoalSpec G : {GoalSpec::sort(), GoalSpec::selectK(K),
                           GoalSpec::topK(K), GoalSpec::partialSort(K)}) {
          SCOPED_TRACE(testing::Message()
                       << "kind=" << static_cast<int>(S.Kind) << " n=" << N
                       << " goal=" << G.name() << " len=" << Len);
          Machine M(S.Kind, N, 1, G);
          const std::vector<uint32_t> Rows = randomRows(M, Len, R);
          const unsigned Perm = referenceCount(M, Rows.data(), Len, false);
          ASSERT_EQ(permCount(M, Rows.data(), Len, Bitmap), Perm);
          ASSERT_TRUE(allZero(Bitmap));
          ASSERT_EQ(permCount(M, Rows.data(), Len, Bitmap), Perm);
          ASSERT_TRUE(allZero(Bitmap));
          ASSERT_EQ(assignCount(M, Rows.data(), Len, Bitmap),
                    referenceCount(M, Rows.data(), Len, true));
          ASSERT_TRUE(allZero(Bitmap));
          ASSERT_EQ(permCount(M, Rows.data(), Len, Bitmap), Perm);
          ASSERT_TRUE(allZero(Bitmap));
          // Each data register's cut bound: the mask, the collapse mask
          // and the pattern drop that register, so below the top register
          // the mask has a hole.
          for (unsigned D = 0; D != N; ++D) {
            ASSERT_EQ(permCountWithout(M, Rows.data(), Len, D, Bitmap),
                      referenceCountWithout(M, Rows.data(), Len, D))
                << "without r" << D + 1;
            ASSERT_TRUE(allZero(Bitmap));
          }
        }
      }
    }
  }
}

TEST(Canonicalize, MatchesScalarOnRandomBuffers) {
  // Every dispatch band and its boundaries: network (<= 32, padded to 16
  // or 32), radix (33..1024), std::sort fallback (> 1024).
  const uint32_t Lens[] = {0,  1,  2,   3,   4,   5,    7,    8,    9,
                           15, 16, 17,  24,  31,  32,   33,   64,   120,
                           511, 720, 1023, 1024, 1025, 2000};
  Rng R(123);
  for (uint32_t Len : Lens) {
    for (int Round = 0; Round != 20; ++Round) {
      std::vector<uint32_t> Buf(Len);
      // Mix value ranges: tiny (heavy duplicates), full 30-bit, and the
      // 31-bit edge including the 0x7FFFFFFF padding sentinel itself.
      for (uint32_t &V : Buf) {
        switch (R.below(3)) {
        case 0:
          V = static_cast<uint32_t>(R.below(8));
          break;
        case 1:
          V = static_cast<uint32_t>(R.below(1u << 30));
          break;
        default:
          V = 0x7fffffffu - static_cast<uint32_t>(R.below(4));
          break;
        }
      }
      std::vector<uint32_t> Expected = scalarReference(Buf);
      std::vector<uint32_t> Simd = Buf;
      uint32_t Unique = canonicalizeRows(Simd.data(), Len);
      ASSERT_EQ(Unique, Expected.size()) << "Len=" << Len;
      Simd.resize(Unique);
      EXPECT_EQ(Simd, Expected) << "Len=" << Len;

      std::vector<uint32_t> Sorted = Buf;
      sortRows(Sorted.data(), Len);
      std::sort(Buf.begin(), Buf.end());
      EXPECT_EQ(Sorted, Buf) << "sortRows Len=" << Len;
    }
  }
}

TEST(Canonicalize, ScalarEntryPointMatchesToo) {
  Rng R(9);
  std::vector<uint32_t> Buf(24);
  for (uint32_t &V : Buf)
    V = static_cast<uint32_t>(R.below(64));
  std::vector<uint32_t> Expected = scalarReference(Buf);
  uint32_t Unique =
      canonicalizeRowsScalar(Buf.data(), static_cast<uint32_t>(Buf.size()));
  Buf.resize(Unique);
  EXPECT_EQ(Buf, Expected);
}

TEST(Canonicalize, SimdProbesAgreeWithBuild) {
  // Both SIMD paths are gated on the same architecture test; a build where
  // apply vectorizes but canonicalize does not (or vice versa) is a wiring
  // bug.
  EXPECT_EQ(canonicalizeUsesSimd(), batchApplyUsesSimd());
}

/// One machine's random-walk equivalence check: at every step, the
/// successor fold of the parent must give each instruction's child maxDist
/// and viability verdict before apply (byte by byte, and as withinBudget's
/// set), and expandNode must turn exactly
/// the admitted viable children that the cut keeps into candidates that
/// agree with the separate reference calls. Every other step runs the
/// section 3.5 cut, at a threshold drawn from 1 to one above the parent's
/// count, so that both the parent's count and the per-register bounds
/// decide children before apply (where the machine has a successor block).
/// The walk carries the prefix summary of the program it took, on some
/// steps met with a second program's, so that the gate refuses by every
/// rule; admitted means killsPrefix keeps it. ChildG is drawn up to two
/// past MaxLength, where nothing is viable; a MaxLength of 255 and more
/// makes the budget clamp decide.
void checkFusedFinishEquivalence(MachineKind Kind, unsigned N,
                                 unsigned MaxLength, uint64_t Seed) {
  SCOPED_TRACE(testing::Message() << "kind=" << static_cast<int>(Kind)
                                  << " n=" << N << " maxLen=" << MaxLength);
  Machine M(Kind, N);
  DistanceTable DT(M);
  SearchOptions Opts;
  Opts.UseViability = true;
  Opts.MaxLength = MaxLength;

  Rng R(Seed);
  const std::vector<Instr> &Instrs = M.instructions();
  std::vector<uint32_t> Rows = initialState(M).Rows;
  CandidateBatch B;
  SuccessorFold Fold;
  SearchStats Stats;
  PrefixLint Lint = PrefixLint::entry();
  size_t RefPruned = 0, RefGenerated = 0, RefCut = 0, RefRefused = 0;
  // A cmov network is a hybrid kernel too.
  const Program Network = Kind == MachineKind::MinMax
                              ? sortingNetworkMinMax(N)
                              : sortingNetworkCmov(N);
  size_t Prefix = 0;

  for (int Step = 0; Step != 60; ++Step) {
    unsigned ChildG = 1 + static_cast<unsigned>(R.below(MaxLength + 2));
    const unsigned ParentPerm =
        referenceCount(M, Rows.data(), Rows.size(), false);
    CutTracker Cuts(Step % 2 ? CutConfig::mult(1.0) : CutConfig::none());
    Cuts.observe(ChildG - 1,
                 1 + static_cast<unsigned>(R.below(ParentPerm + 1)));
    const unsigned MaxKept = Cuts.maxKept(ChildG);
    CandidatePipeline Pipeline(M, Opts, &DT, Cuts);
    DT.foldSuccessors(Rows.data(), Rows.size(), false, Fold);
    const InstrSet Viable =
        ChildG > MaxLength ? InstrSet()
                           : DT.withinBudget(Fold, MaxLength - ChildG);
    EXPECT_EQ(Viable.minus(InstrSet::prefix(Instrs.size())), InstrSet())
        << "the verdict names an index past the alphabet";
    B.clear();
    Pipeline.expandNode(Rows.data(), static_cast<uint32_t>(Rows.size()),
                        Lint, 0, ChildG, B, Stats);

    size_t Next = 0;
    for (size_t K = 0; K != Instrs.size(); ++K) {
      // Reference: apply, then the separate calls of the multipass
      // pipeline.
      std::vector<uint32_t> Raw(Rows.size());
      applyBatch(M, Instrs[K], Rows.data(), Raw.data(), Rows.size());
      std::vector<uint32_t> Ref = scalarReference(Raw);
      uint8_t Needed = DT.maxDist(Ref.data(), Ref.size());
      bool RefViable = Needed != DistanceTable::Unreachable &&
                       ChildG + Needed <= Opts.MaxLength;
      ASSERT_EQ(Fold.Needed[K], Needed) << toString(Instrs[K], N);
      ASSERT_EQ(Pipeline.viable(ChildG, Fold.Needed[K]), RefViable);
      ASSERT_EQ(Viable.contains(K), RefViable);
      if (Lint.killsPrefix(Instrs[K])) {
        ++RefRefused;
        continue;
      }
      ++RefGenerated;
      if (!RefViable) {
        ++RefPruned;
        continue;
      }
      const unsigned RefPerm =
          referenceCount(M, Ref.data(), Ref.size(), false);
      if (RefPerm > MaxKept) {
        ++RefCut;
        continue;
      }
      ASSERT_LT(Next, B.List.size()) << "a kept child is missing";
      const Candidate &C = B.List[Next++];
      ASSERT_EQ(C.Via, Instrs[K]);
      ASSERT_EQ(C.RowLen, Ref.size());
      EXPECT_TRUE(std::equal(Ref.begin(), Ref.end(), B.rowsOf(C)));
      EXPECT_EQ(C.Hash, hashWords(Ref.data(), Ref.size()));
      EXPECT_EQ(C.Needed, Needed);
      EXPECT_EQ(C.Perm, RefPerm);
    }
    EXPECT_EQ(Next, B.List.size()) << "a non-viable or cut child was kept";

    // Continue the walk: half the time to the state after the next prefix
    // of a sorting network, whose data-writing children change the count
    // (a random walk soon falls back to the initial state, where every
    // viable one keeps it); otherwise to a random instruction's canonical
    // child, restarting when the walk collapses to a dead end so later
    // steps keep exercising wide states.
    // The summary follows the program taken. On a quarter of the steps it
    // meets a random program's, which half the time ends on the walk's
    // last instruction, so that the meet keeps the repeat.
    if (R.below(2) == 0) {
      Prefix = Prefix % Network.size() + 1;
      Rows = initialState(M).Rows;
      Lint = PrefixLint::entry();
      for (size_t I = 0; I != Prefix; ++I) {
        for (uint32_t &Row : Rows)
          Row = M.apply(Row, Network[I]);
        Lint = Lint.extended(Network[I]);
      }
    } else {
      Instr Via = Instrs[R.below(Instrs.size())];
      for (uint32_t &Row : Rows)
        Row = M.apply(Row, Via);
      Lint = Lint.extended(Via);
      if (R.below(4) == 0) {
        PrefixLint Other = PrefixLint::entry();
        for (uint64_t I = R.below(6); I != 0; --I)
          Other = Other.extended(Instrs[R.below(Instrs.size())]);
        if (R.below(2) == 0)
          Other = Other.extended(Via);
        Lint.meet(Other);
      }
    }
    Rows = scalarReference(Rows);
    if (Rows.size() <= 1 || DT.maxDist(Rows) == DistanceTable::Unreachable) {
      Rows = initialState(M).Rows;
      Lint = PrefixLint::entry();
    }
  }
  EXPECT_EQ(Stats.ViabilityPruned, RefPruned);
  EXPECT_EQ(Stats.StatesGenerated, RefGenerated);
  EXPECT_EQ(Stats.CutStates, RefCut);
  EXPECT_EQ(Stats.SyntacticPruned, RefRefused);
  EXPECT_GT(RefRefused, 0u);
}

/// Budgets past what a byte holds: the verdict clamps the remaining
/// budget to 254, below Unreachable.
constexpr unsigned kWideBudgets[] = {255, 256, 300};

TEST(Canonicalize, FusedFinishMatchesSeparateCallsCmov) {
  for (unsigned N = 3; N <= 5; ++N) {
    checkFusedFinishEquivalence(MachineKind::Cmov, N,
                                networkUpperBound(MachineKind::Cmov, N),
                                1000 + N);
    // A tight budget forces the ChildG + maxDist > MaxLength prune arm.
    checkFusedFinishEquivalence(MachineKind::Cmov, N, 6, 2000 + N);
    for (unsigned Wide : kWideBudgets)
      checkFusedFinishEquivalence(MachineKind::Cmov, N, Wide,
                                  6000 + 10 * N + Wide);
  }
}

TEST(Canonicalize, FusedFinishMatchesSeparateCallsMinMax) {
  for (unsigned N = 3; N <= 5; ++N) {
    checkFusedFinishEquivalence(MachineKind::MinMax, N,
                                networkUpperBound(MachineKind::MinMax, N),
                                3000 + N);
    checkFusedFinishEquivalence(MachineKind::MinMax, N, 5, 4000 + N);
    for (unsigned Wide : kWideBudgets)
      checkFusedFinishEquivalence(MachineKind::MinMax, N, Wide,
                                  7000 + 10 * N + Wide);
  }
}

TEST(Canonicalize, FusedFinishMatchesSeparateCallsHybrid) {
  // The hybrid machine exists at n = 3 only.
  checkFusedFinishEquivalence(MachineKind::Hybrid, 3,
                              networkUpperBound(MachineKind::Hybrid, 3),
                              5003);
  for (unsigned Wide : kWideBudgets)
    checkFusedFinishEquivalence(MachineKind::Hybrid, 3, Wide, 8000 + Wide);
}

/// One machine's and goal's walk of the section 3.5 cut's pre-apply
/// bounds: at every step, for every instruction, the child's perm count
/// equals the parent's when the instruction writes no data register, and
/// is at least permCountWithout of the register it writes otherwise,
/// which never exceeds the parent's count.
void checkCutBounds(MachineKind Kind, unsigned N, GoalSpec Goal,
                    uint64_t Seed) {
  SCOPED_TRACE(testing::Message() << "kind=" << static_cast<int>(Kind)
                                  << " n=" << N << " goal=" << Goal.name());
  Machine M(Kind, N, 1, Goal);
  Rng R(Seed);
  const std::vector<Instr> &Instrs = M.instructions();
  std::vector<uint32_t> Rows = initialState(M).Rows, Child;
  std::vector<uint64_t> Bitmap;
  for (int Step = 0; Step != 30; ++Step) {
    const unsigned Parent = permCount(M, Rows.data(), Rows.size(), Bitmap);
    for (Instr I : Instrs) {
      Child.resize(Rows.size());
      applyBatch(M, I, Rows.data(), Child.data(), Rows.size());
      const unsigned Count = permCount(M, Child.data(), Child.size(), Bitmap);
      if (I.Op == Opcode::Cmp || I.Dst >= N) {
        ASSERT_EQ(Count, Parent) << toString(I, N);
        continue;
      }
      const unsigned Bound =
          permCountWithout(M, Rows.data(), Rows.size(), I.Dst, Bitmap);
      ASSERT_LE(Bound, Parent) << toString(I, N);
      ASSERT_GE(Count, Bound) << toString(I, N);
    }
    // Continue from a canonical child; restart when the walk collapses.
    Instr Via = Instrs[R.below(Instrs.size())];
    for (uint32_t &Row : Rows)
      Row = M.apply(Row, Via);
    Rows = scalarReference(Rows);
    if (Rows.size() <= 1)
      Rows = initialState(M).Rows;
  }
}

TEST(CutBound, NeverExceedsTheChildsCount) {
  struct Shape {
    MachineKind Kind;
    unsigned MinN, MaxN;
  };
  const Shape Shapes[] = {{MachineKind::Cmov, 2, 5},
                          {MachineKind::MinMax, 2, 5},
                          {MachineKind::Hybrid, 3, 3}};
  uint64_t Seed = 600;
  for (const Shape &S : Shapes)
    for (unsigned N = S.MinN; N <= S.MaxN; ++N) {
      // Every goal family at every parameter.
      std::vector<GoalSpec> Goals = {GoalSpec::sort()};
      for (unsigned K = 1; K <= N; ++K) {
        Goals.push_back(GoalSpec::selectK(K));
        Goals.push_back(GoalSpec::topK(K));
        Goals.push_back(GoalSpec::partialSort(K));
      }
      for (GoalSpec G : Goals)
        checkCutBounds(S.Kind, N, G, ++Seed);
    }
}

TEST(CutBound, DropsTheWrittenRegistersPin) {
  // Select-2 at n = 3 accepts both rows, so the parent and the child of
  // mov r1 r3 count 1. Without the goal's collapse, the count without r1
  // reads (r2, r3) = (2, 3) and (2, 1): 2, which a threshold of 1 would
  // cut. The goal-aware bound collapses both rows: 1.
  Machine M(MachineKind::Cmov, 3, 1, GoalSpec::selectK(2));
  const uint32_t Rows[] = {M.packInitial({1, 2, 3}), M.packInitial({3, 2, 1})};
  const Instr Mov{Opcode::Mov, 0, 2};
  ASSERT_EQ(toString(Mov, 3), "mov r1 r3");
  uint32_t Child[2];
  applyBatch(M, Mov, Rows, Child, 2);
  std::vector<uint64_t> Bitmap;
  EXPECT_EQ(permCount(M, Child, 2, Bitmap), 1u);
  const uint32_t WithoutR1 = M.dataMask() & ~7u;
  EXPECT_EQ(countDistinctProjections(Rows, 2, WithoutR1, WithoutR1, 0, Bitmap),
            2u);
  EXPECT_EQ(permCountWithout(M, Rows, 2, 0, Bitmap), 1u);
  EXPECT_TRUE(allZero(Bitmap));
}

TEST(CutBound, ThresholdMatchesTheFloatingPointTest) {
  // maxKept(L) is the largest count kept: P is cut exactly when the old
  // test double(P) > k * PrevMin (multiplicative) or P > PrevMin + c
  // (additive, in exact arithmetic) held. A NaN factor keeps everything;
  // a negative one cuts every count from 1 up.
  const double Factors[] = {0,    0.5,  1, 1.5, 2, 1e300,
                            -1.0, std::numeric_limits<double>::quiet_NaN()};
  const unsigned Offsets[] = {0, 100, std::numeric_limits<unsigned>::max()};
  std::vector<CutConfig> Configs;
  for (double K : Factors)
    Configs.push_back(CutConfig::mult(K));
  for (unsigned C : Offsets)
    Configs.push_back(CutConfig::add(C));
  for (const CutConfig &Cut : Configs) {
    SCOPED_TRACE(testing::Message() << "factor=" << Cut.Factor
                                    << " offset=" << Cut.Offset);
    CutTracker Empty(Cut);
    EXPECT_EQ(Empty.maxKept(0), CutTracker::KeepAll);
    EXPECT_EQ(Empty.maxKept(1), CutTracker::KeepAll) << "no previous length";
    size_t Mismatches = 0;
    for (unsigned PrevMin = 1; PrevMin <= 720; ++PrevMin) {
      CutTracker Cuts(Cut);
      Cuts.observe(0, PrevMin);
      const unsigned MaxKept = Cuts.maxKept(1);
      if (Cut.Factor == 1e300 ||
          Cut.Offset == std::numeric_limits<unsigned>::max() ||
          std::isnan(Cut.Factor)) {
        EXPECT_EQ(MaxKept, CutTracker::KeepAll) << "the threshold saturates";
      }
      for (unsigned P = 1; P <= 720; ++P) {
        const bool Old =
            Cut.Mode == CutConfig::Kind::Multiplicative
                ? static_cast<double>(P) > Cut.Factor * PrevMin
                : uint64_t(P) > uint64_t(PrevMin) + Cut.Offset;
        if ((P > MaxKept) != Old && Mismatches++ == 0)
          ADD_FAILURE() << "P=" << P << " PrevMin=" << PrevMin
                        << " maxKept=" << MaxKept;
      }
    }
    EXPECT_EQ(Mismatches, 0u);
  }
  CutTracker Off(CutConfig::none());
  Off.observe(0, 1);
  EXPECT_EQ(Off.maxKept(1), CutTracker::KeepAll);
}

TEST(Canonicalize, SingleRowFastPath) {
  // Len == 1 skips the sort; the result must still be a full candidate
  // with Perm = 1 and the right hash.
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  SearchOptions Opts;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::none();
  Opts.MaxLength = networkUpperBound(MachineKind::Cmov, 3);
  CutTracker Cuts(Opts.Cut);
  CandidatePipeline Pipeline(M, Opts, &DT, Cuts);

  uint32_t Row = initialState(M).Rows.front();
  CandidateBatch B;
  B.Rows = {Row};
  SearchStats Stats;
  ASSERT_TRUE(Pipeline.finish(B, 0, 1, 0, M.instructions().front(),
                              PrefixLint::entry(), DT.dist(Row),
                              Cuts.maxKept(1), 0, Stats));
  ASSERT_EQ(B.List.size(), 1u);
  EXPECT_EQ(B.List[0].RowLen, 1u);
  EXPECT_EQ(B.List[0].Perm, 1u);
  EXPECT_EQ(B.List[0].Hash, hashWords(&Row, 1));
}

/// An IndexShard over states kept in a RowArena, probed the way both
/// engines probe: the payload indexes the state, and the rows decide.
struct ProbedShard {
  IndexShard Shard;
  RowArena Arena;
  std::vector<RowSpan> Spans;

  void insert(uint64_t Hash, const std::vector<uint32_t> &Rows) {
    Shard.insert(Hash, static_cast<uint32_t>(Spans.size()));
    Spans.push_back(
        Arena.append(Rows.data(), static_cast<uint32_t>(Rows.size())));
  }
  uint32_t find(uint64_t Hash, const std::vector<uint32_t> &Rows) const {
    return Shard.find(Hash, [&](uint32_t P) {
      return Arena.equals(Spans[P], Rows.data(),
                          static_cast<uint32_t>(Rows.size()));
    });
  }
};

TEST(Canonicalize, IndexShardTagCollisionsAreDecidedByRows) {
  // Three states whose hashes share the low 32 bits, the slot's tag and
  // home slot, and differ above them; their rows differ too. Each is found
  // only by its own rows, and a fourth state with the same tag misses.
  const std::vector<uint32_t> RowsA = {1, 2, 3}, RowsB = {1, 2, 4},
                              RowsC = {7}, Absent = {1, 2, 5};
  const uint64_t HashA = 0x1111222233334444ull, HashB = 0x5555666633334444ull,
                 HashC = 0x0000000133334444ull;
  ProbedShard P;
  EXPECT_EQ(P.find(HashA, RowsA), IndexShard::kNotFound) << "empty shard";
  P.insert(HashA, RowsA);
  P.insert(HashB, RowsB);
  P.insert(HashC, RowsC);
  // 16 slots of 8 bytes: a 32-bit tag and a 32-bit payload.
  EXPECT_EQ(P.Shard.bytesUsed(), 16u * 8u);
  auto Check = [&] {
    EXPECT_EQ(P.find(HashA, RowsA), 0u);
    EXPECT_EQ(P.find(HashB, RowsB), 1u);
    EXPECT_EQ(P.find(HashC, RowsC), 2u);
    EXPECT_EQ(P.find(HashA, Absent), IndexShard::kNotFound);
    EXPECT_EQ(P.find(0x9999999933334444ull, Absent), IndexShard::kNotFound);
    EXPECT_EQ(P.find(0x1111222200000000ull, RowsA), IndexShard::kNotFound)
        << "a different tag probes elsewhere";
  };
  Check();
  // Growth rehashes from the tags alone; the colliding entries keep their
  // payloads, and the fillers stay findable.
  Rng R(17);
  std::vector<uint64_t> Fillers;
  for (uint32_t I = 0; I != 5000; ++I) {
    Fillers.push_back(R.next() | 1); // Odd: never the tag 0x33334444.
    P.insert(Fillers.back(), {I + 100, I + 101});
  }
  EXPECT_EQ(P.Shard.bytesUsed(), 8192u * 8u);
  Check();
  for (uint32_t I = 0; I < Fillers.size(); I += 499)
    EXPECT_EQ(P.find(Fillers[I], {I + 100, I + 101}), I + 3);
}

TEST(Canonicalize, LevelIdsDecodeAcrossEmptyLevels) {
  // One shard's node counts by level, with empty levels at the start of a
  // run of them, inside one and before the open level.
  const std::vector<uint32_t> Sizes = {1, 0, 3, 0, 0, 2, 0};
  LevelIds Ids;
  for (uint32_t Size : Sizes)
    Ids.closeLevel(Size);
  const unsigned Open = static_cast<unsigned>(Sizes.size());
  uint32_t Next = 0;
  for (unsigned L = 0; L != Open; ++L) {
    ASSERT_EQ(Ids.first(L), Next) << "level " << L;
    for (uint32_t Local = 0; Local != Sizes[L]; ++Local) {
      const uint32_t Id = Ids.first(L) + Local;
      EXPECT_EQ(Ids.levelOf(Id), L) << "id " << Id;
      EXPECT_EQ(Id - Ids.first(Ids.levelOf(Id)), Local) << "id " << Id;
    }
    Next += Sizes[L];
  }
  // The open level holds every id from its first on: a hit there is
  // exactly an id at or above it.
  EXPECT_EQ(Ids.first(Open), 6u);
  EXPECT_EQ(Ids.levelOf(6), Open);
  EXPECT_EQ(Ids.levelOf(1000), Open);
  EXPECT_EQ(Ids.levelOf(5), 5u);
  EXPECT_EQ(Ids.levelOf(0), 0u);
  EXPECT_EQ(Ids.levelOf(1), 2u) << "level 1 is empty";
  EXPECT_EQ(Ids.levelOf(4), 5u) << "levels 3 and 4 are empty";
}

TEST(Canonicalize, ChunkedArraysHoldTheChunksTheyAllocate) {
  using Array = ChunkedArray<uint64_t>;
  static_assert(Array::kChunk * sizeof(uint64_t) == Array::kChunkBytes);
  Array A;
  EXPECT_EQ(A.bytesUsed(), 0u);
  A.push_back(42);
  EXPECT_EQ(A.bytesUsed(), 64u) << "a small array holds a small chunk";
  // The first chunk doubles up to a whole chunk, keeping its elements;
  // then every chunk is whole and none moves.
  for (uint64_t I = 1; I != Array::kChunk; ++I)
    A.push_back(42 + I);
  EXPECT_EQ(A.bytesUsed(), Array::kChunkBytes);
  const uint64_t *First = &A[0];
  for (uint64_t I = Array::kChunk; I != 3 * Array::kChunk + 1; ++I)
    A.push_back(42 + I);
  EXPECT_EQ(A.bytesUsed(), 4 * Array::kChunkBytes);
  EXPECT_EQ(&A[0], First);
  ASSERT_EQ(A.size(), 3 * Array::kChunk + 1);
  for (uint64_t I = 0; I != A.size(); ++I)
    ASSERT_EQ(A[I], 42 + I);

  // allocate() sizes an array exactly.
  Array Exact;
  Exact.allocate(2 * Array::kChunk + 3);
  EXPECT_EQ(Exact.bytesUsed(), (2 * Array::kChunk + 3) * sizeof(uint64_t));

  // A state's rows never straddle two chunks: a block that does not fit
  // closes its chunk and starts the next, and the spans still read back.
  constexpr uint32_t kWords = ChunkedArray<uint32_t>::kChunk;
  RowArena Rows;
  std::vector<RowSpan> Spans;
  std::vector<std::vector<uint32_t>> States;
  for (uint32_t I = 0; I != 200; ++I) {
    States.emplace_back(37 + I % 90, I);
    Spans.push_back(Rows.append(States.back().data(),
                                static_cast<uint32_t>(States.back().size())));
  }
  size_t Chunks = 0;
  for (size_t I = 0; I != Spans.size(); ++I) {
    EXPECT_EQ(Spans[I].Offset / kWords,
              (Spans[I].Offset + Spans[I].Len - 1) / kWords);
    EXPECT_TRUE(Rows.equals(Spans[I], States[I].data(),
                            static_cast<uint32_t>(States[I].size())));
    Chunks = Spans[I].Offset / kWords + 1;
  }
  EXPECT_GT(Chunks, 2u);
  EXPECT_EQ(Rows.bytesUsed(), Chunks * kWords * sizeof(uint32_t));
}

} // namespace

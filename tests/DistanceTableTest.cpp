//===- tests/DistanceTableTest.cpp - Distance-table tests ------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tables/DistanceTable.h"

#include "machine/BatchApply.h"
#include "state/SearchState.h"
#include "support/Permutations.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace sks;

namespace {

TEST(DistanceTable, SortedRowsHaveDistanceZero) {
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  uint32_t Sorted = M.packInitial({1, 2, 3});
  EXPECT_EQ(DT.dist(Sorted), 0u);
  EXPECT_EQ(DT.dist(Sorted | FlagLT), 0u);
  EXPECT_EQ(DT.dist(setReg(Sorted, 3, 2)), 0u) << "scratch is ignored";
}

TEST(DistanceTable, SingleAssignmentDistancesAreMovDistances) {
  // A lone assignment is sorted fastest by unconditional moves: cycle
  // structure determines the count (displaced elements + nontrivial
  // cycles, routing through the scratch register).
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  // Transposition (2 1 3): 2 displaced + 1 cycle = 3 moves.
  EXPECT_EQ(DT.dist(M.packInitial({2, 1, 3})), 3u);
  // 3-cycle (2 3 1): r1:=? ... 3 displaced + 1 cycle = 4 moves.
  EXPECT_EQ(DT.dist(M.packInitial({2, 3, 1})), 4u);
  EXPECT_EQ(DT.dist(M.packInitial({3, 1, 2})), 4u);
  // Two fixed points short: (1 3 2) = transposition.
  EXPECT_EQ(DT.dist(M.packInitial({1, 3, 2})), 3u);
}

TEST(DistanceTable, ErasedValueIsUnreachable) {
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  // Row (2, 2, 3) with scratch 0: the value 1 is gone.
  uint32_t Row = M.packInitial({2, 2, 3});
  EXPECT_EQ(DT.dist(Row), DistanceTable::Unreachable);
  // But with the 1 saved in scratch it is recoverable.
  EXPECT_LT(DT.dist(setReg(Row, 3, 1)), DistanceTable::Unreachable);
}

TEST(DistanceTable, DistanceDecreasesAlongSomeInstruction) {
  // Invariant: every reachable row with dist > 0 has a successor with
  // dist - 1 (BFS property), exercised across the whole n=3 space.
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  for (const std::vector<int> &Perm : allPermutations(3)) {
    uint32_t Row = M.packInitial(Perm);
    while (DT.dist(Row) > 0) {
      ASSERT_NE(DT.dist(Row), DistanceTable::Unreachable);
      uint32_t Best = Row;
      for (const Instr &I : M.instructions()) {
        uint32_t Next = M.apply(Row, I);
        if (DT.dist(Next) + 1 == DT.dist(Row)) {
          Best = Next;
          break;
        }
      }
      ASSERT_NE(Best, Row) << "no improving instruction found";
      Row = Best;
    }
    EXPECT_TRUE(M.isSorted(Row));
  }
}

TEST(DistanceTable, MaxDistLowerBoundsKernelLength) {
  // Admissibility: the initial state's max distance must not exceed the
  // known optimal kernel lengths (11 for n=3, 20 for n=4).
  for (auto [N, Optimal] : {std::pair{3u, 11u}, {4u, 20u}}) {
    Machine M(MachineKind::Cmov, N);
    DistanceTable DT(M);
    SearchState S = initialState(M);
    EXPECT_LE(DT.maxDist(S.Rows), Optimal);
    EXPECT_GT(DT.maxDist(S.Rows), 0u);
  }
}

TEST(DistanceTable, MinMaxMachineTable) {
  Machine M(MachineKind::MinMax, 3);
  DistanceTable DT(M);
  EXPECT_EQ(DT.dist(M.packInitial({1, 2, 3})), 0u);
  uint32_t Row = M.packInitial({3, 2, 1});
  uint8_t D = DT.dist(Row);
  EXPECT_GT(D, 0u);
  EXPECT_NE(D, DistanceTable::Unreachable);
  // min/max cannot recover an erased value either.
  EXPECT_EQ(DT.dist(M.packInitial({2, 2, 3})), DistanceTable::Unreachable);
}

TEST(DistanceTable, MaxDistOfUnreachableRowIsUnreachable) {
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  std::vector<uint32_t> Rows = {M.packInitial({1, 2, 3}),
                                M.packInitial({2, 2, 3})};
  EXPECT_EQ(DT.maxDist(Rows), DistanceTable::Unreachable);
}

/// Every register assignment of \p M with values 0..n, flag-free.
std::vector<uint32_t> allAssignments(const Machine &M) {
  std::vector<uint32_t> Out{0};
  for (unsigned Reg = 0; Reg != M.numRegs(); ++Reg) {
    std::vector<uint32_t> Wider;
    for (uint32_t Row : Out)
      for (uint32_t V = 0; V != M.numValues(); ++V)
        Wider.push_back(setReg(Row, Reg, V));
    Out.swap(Wider);
  }
  return Out;
}

/// The section 3.2 optimal-progress test of one row, from its definition.
bool optimalOn(const Machine &M, const DistanceTable &DT, uint32_t Row,
               Instr I) {
  uint8_t Own = DT.dist(Row);
  return Own != 0 && Own != DistanceTable::Unreachable &&
         DT.dist(M.apply(Row, I)) + 1 == Own;
}

/// For every assignment (reachable or not) under every flag state, the
/// fold of that one row must give, per instruction, the distance of the
/// row the instruction produces and its optimal-progress verdict.
void checkSingleRowFold(const Machine &M) {
  DistanceTable DT(M);
  SuccessorFold Fold;
  const std::vector<Instr> &Instrs = M.instructions();
  const uint32_t Flags[] = {0, FlagLT, FlagGT};
  const size_t FlagStates = M.kind() == MachineKind::MinMax ? 1 : 3;
  for (uint32_t Regs : allAssignments(M))
    for (size_t F = 0; F != FlagStates; ++F) {
      const uint32_t Row = Regs | Flags[F];
      DT.foldSuccessors(&Row, 1, true, Fold);
      for (size_t K = 0; K != Instrs.size(); ++K) {
        ASSERT_EQ(Fold.Needed[K], DT.dist(M.apply(Row, Instrs[K])))
            << toString(Instrs[K], M.numData()) << " row " << Row;
        ASSERT_EQ(Fold.Optimal[K] != 0, optimalOn(M, DT, Row, Instrs[K]))
            << toString(Instrs[K], M.numData()) << " row " << Row;
      }
    }
}

TEST(DistanceTable, SuccessorFoldMatchesApplyOnEveryAssignment) {
  for (unsigned N = 2; N <= 5; ++N) {
    SCOPED_TRACE(N);
    checkSingleRowFold(Machine(MachineKind::Cmov, N));
    checkSingleRowFold(Machine(MachineKind::MinMax, N));
  }
  checkSingleRowFold(Machine(MachineKind::Hybrid, 3));
  // Partial goals whose machines carry a successor block.
  checkSingleRowFold(Machine(MachineKind::Cmov, 3, 1, GoalSpec::selectK(2)));
  checkSingleRowFold(Machine(MachineKind::Cmov, 3, 1, GoalSpec::topK(2)));
  checkSingleRowFold(Machine(MachineKind::Cmov, 4, 1, GoalSpec::topK(3)));
}

TEST(DistanceTable, SuccessorFoldMatchesApplyOnRandomStates) {
  // Multi-row states from random walks, rows of all three flag classes
  // mixed: Needed is the child's maxDist, Optimal is "optimal on some
  // row". Min/max n = 5 and select-2 at n = 4 exercise the machines
  // without a successor block, where only the action filter folds.
  const Machine Machines[] = {
      Machine(MachineKind::Cmov, 3), Machine(MachineKind::Cmov, 4),
      Machine(MachineKind::MinMax, 4), Machine(MachineKind::MinMax, 5),
      Machine(MachineKind::Hybrid, 3),
      Machine(MachineKind::Cmov, 4, 1, GoalSpec::selectK(2))};
  Rng R(77);
  for (const Machine &M : Machines) {
    SCOPED_TRACE(testing::Message() << static_cast<int>(M.kind()) << " n="
                                    << M.numData() << " " << M.goal().name());
    DistanceTable DT(M);
    SuccessorFold Fold;
    const std::vector<Instr> &Instrs = M.instructions();
    for (int Walk = 0; Walk != 20; ++Walk) {
      std::vector<uint32_t> Rows = initialState(M).Rows;
      for (int Step = 0, Depth = static_cast<int>(R.below(12)); Step != Depth;
           ++Step) {
        Instr I = Instrs[R.below(Instrs.size())];
        for (uint32_t &Row : Rows)
          Row = M.apply(Row, I);
      }
      DT.foldSuccessors(Rows.data(), Rows.size(), true, Fold);
      std::vector<uint32_t> Child(Rows.size());
      for (size_t K = 0; K != Instrs.size(); ++K) {
        applyBatch(M, Instrs[K], Rows.data(), Child.data(), Rows.size());
        bool Optimal = false;
        for (uint32_t Row : Rows)
          Optimal |= optimalOn(M, DT, Row, Instrs[K]);
        ASSERT_EQ(Fold.Needed[K], DT.maxDist(Child));
        ASSERT_EQ(Fold.Optimal[K] != 0, Optimal);
      }
    }
  }
}

TEST(DistanceTable, SuccessorBlockNeverOutgrowsTheTable) {
  // The block exists where it fits beside the distance array: every sort
  // machine up to n = 5 except min/max n = 5, and the hybrid machine.
  for (unsigned N = 2; N <= 5; ++N)
    for (MachineKind Kind : {MachineKind::Cmov, MachineKind::MinMax}) {
      Machine M(Kind, N);
      DistanceTable DT(M);
      EXPECT_LE(DT.successorBytes(), DT.tableBytes());
      EXPECT_EQ(DT.successorBytes() > 0,
                Kind == MachineKind::Cmov || N <= 4);
    }
  Machine Hybrid(MachineKind::Hybrid, 3);
  DistanceTable HybridDT(Hybrid);
  EXPECT_GT(HybridDT.successorBytes(), 0u);
  EXPECT_LE(HybridDT.successorBytes(), HybridDT.tableBytes());
  Machine N4(MachineKind::Cmov, 4);
  EXPECT_LE(DistanceTable(N4).successorBytes(), 40u * 1024);
}

} // namespace

//===- sat/SatSolver.cpp - CDCL SAT solver ---------------------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// A fairly standard MiniSat-style CDCL core. Design notes:
//
//  - Clauses live in a single vector; watch lists hold clause indices plus
//    a blocker literal to skip most clause visits.
//  - analyze() derives the first-UIP clause and minimizes it by removing
//    literals implied by the rest of the clause (the "deep" recursive
//    minimization bounded by an abstraction of the decision levels).
//  - Restarts follow the Luby sequence scaled by 64 conflicts; learnt
//    clauses are halved by activity whenever they exceed an adaptive cap.
//
//===----------------------------------------------------------------------===//

#include "sat/SatSolver.h"

#include "support/Timing.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

using namespace sks;

SatSolver::SatSolver() {
  // Index 0 is unused so DIMACS variables map directly.
  Activity.push_back(0);
  Assign.push_back(-1);
  SavedPhase.push_back(0);
  ReasonOf.push_back(-1);
  LevelOf.push_back(0);
  HeapPos.push_back(-1);
  Seen.push_back(0);
  Watches.resize(2);
}

int SatSolver::newVar() {
  int Var = static_cast<int>(Activity.size());
  Activity.push_back(0);
  Assign.push_back(-1);
  SavedPhase.push_back(0);
  ReasonOf.push_back(-1);
  LevelOf.push_back(0);
  HeapPos.push_back(-1);
  Seen.push_back(0);
  Watches.resize(2 * Var + 2);
  heapInsert(Var);
  return Var;
}

void SatSolver::addClause(const std::vector<Lit> &Literals) {
  assert(TrailLim.empty() && "clauses must be added at decision level 0");
  Recorded.push_back(Literals);
  // Normalize: drop duplicates and false literals, detect tautologies and
  // satisfied clauses.
  std::vector<int> Encoded;
  Encoded.reserve(Literals.size());
  for (Lit L : Literals) {
    assert(L != 0 && std::abs(L) <= numVars() && "literal out of range");
    Encoded.push_back(encode(L));
  }
  std::sort(Encoded.begin(), Encoded.end());
  Encoded.erase(std::unique(Encoded.begin(), Encoded.end()), Encoded.end());
  std::vector<int> Kept;
  for (size_t I = 0; I != Encoded.size(); ++I) {
    if (I + 1 != Encoded.size() && Encoded[I + 1] == negate(Encoded[I]))
      return; // Tautology.
    int8_t V = value(Encoded[I]);
    if (V == 1)
      return; // Already satisfied at level 0.
    if (V == 0)
      continue; // False at level 0: drop the literal.
    Kept.push_back(Encoded[I]);
  }
  if (Kept.empty()) {
    FoundEmptyClause = true;
    return;
  }
  if (Kept.size() == 1) {
    if (value(Kept[0]) == -1)
      enqueue(Kept[0], -1);
    if (propagate() != -1)
      FoundEmptyClause = true;
    return;
  }
  Clauses.push_back(Clause{std::move(Kept), 0, false});
  attach(static_cast<uint32_t>(Clauses.size() - 1));
}

void SatSolver::addExactlyOne(const std::vector<Lit> &Literals) {
  addClause(Literals);
  for (size_t I = 0; I != Literals.size(); ++I)
    for (size_t J = I + 1; J != Literals.size(); ++J)
      addBinary(-Literals[I], -Literals[J]);
}

void SatSolver::attach(uint32_t ClauseIdx) {
  const Clause &C = Clauses[ClauseIdx];
  assert(C.Lits.size() >= 2 && "attach needs at least two literals");
  Watches[negate(C.Lits[0])].push_back({ClauseIdx, C.Lits[1]});
  Watches[negate(C.Lits[1])].push_back({ClauseIdx, C.Lits[0]});
}

void SatSolver::enqueue(int EncodedLit, int32_t Reason) {
  int Var = varOf(EncodedLit);
  assert(Assign[Var] == -1 && "enqueue of assigned var");
  Assign[Var] = (EncodedLit & 1) ? 0 : 1;
  SavedPhase[Var] = Assign[Var];
  ReasonOf[Var] = Reason;
  LevelOf[Var] = static_cast<int32_t>(TrailLim.size());
  Trail.push_back(EncodedLit);
}

int32_t SatSolver::propagate() {
  while (PropagateHead < Trail.size()) {
    int Lit = Trail[PropagateHead++];
    ++Propagations;
    std::vector<Watcher> &List = Watches[Lit];
    size_t Out = 0;
    for (size_t In = 0; In != List.size(); ++In) {
      Watcher W = List[In];
      if (value(W.Blocker) == 1) {
        List[Out++] = W;
        continue;
      }
      Clause &C = Clauses[W.ClauseIdx];
      int FalseLit = negate(Lit);
      if (C.Lits[0] == FalseLit)
        std::swap(C.Lits[0], C.Lits[1]);
      assert(C.Lits[1] == FalseLit);
      if (value(C.Lits[0]) == 1) {
        List[Out++] = {W.ClauseIdx, C.Lits[0]};
        continue;
      }
      // Look for a replacement watch.
      bool Moved = false;
      for (size_t K = 2; K != C.Lits.size(); ++K) {
        if (value(C.Lits[K]) != 0) {
          std::swap(C.Lits[1], C.Lits[K]);
          Watches[negate(C.Lits[1])].push_back({W.ClauseIdx, C.Lits[0]});
          Moved = true;
          break;
        }
      }
      if (Moved)
        continue;
      // Unit or conflicting.
      List[Out++] = {W.ClauseIdx, C.Lits[0]};
      if (value(C.Lits[0]) == 0) {
        // Conflict: restore the remaining watchers and report.
        for (size_t K = In + 1; K != List.size(); ++K)
          List[Out++] = List[K];
        List.resize(Out);
        PropagateHead = Trail.size();
        return static_cast<int32_t>(W.ClauseIdx);
      }
      enqueue(C.Lits[0], static_cast<int32_t>(W.ClauseIdx));
    }
    List.resize(Out);
  }
  return -1;
}

void SatSolver::bumpVar(int Var) {
  Activity[Var] += VarInc;
  if (Activity[Var] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  heapUpdate(Var);
}

void SatSolver::bumpClause(Clause &C) {
  C.Act += ClauseInc;
  if (C.Act > 1e20) {
    for (uint32_t Idx : LearntIdx)
      Clauses[Idx].Act *= 1e-20;
    ClauseInc *= 1e-20;
  }
}

void SatSolver::analyze(int32_t ConflictIdx, std::vector<int> &Learnt,
                        int &BacktrackLevel) {
  Learnt.clear();
  Learnt.push_back(0); // Slot for the asserting literal.
  int Counter = 0;
  int AssertingLit = -1;
  size_t TrailIdx = Trail.size();
  int32_t Confl = ConflictIdx;

  do {
    Clause &C = Clauses[Confl];
    if (C.Learnt)
      bumpClause(C);
    for (size_t K = (AssertingLit == -1 ? 0 : 1); K != C.Lits.size(); ++K) {
      int Q = C.Lits[K];
      int Var = varOf(Q);
      if (Seen[Var] || LevelOf[Var] == 0)
        continue;
      Seen[Var] = 1;
      bumpVar(Var);
      if (LevelOf[Var] >= static_cast<int32_t>(TrailLim.size()))
        ++Counter;
      else
        Learnt.push_back(Q);
    }
    // Walk the trail back to the next marked literal.
    while (!Seen[varOf(Trail[--TrailIdx])]) {
    }
    AssertingLit = Trail[TrailIdx];
    Seen[varOf(AssertingLit)] = 0;
    Confl = ReasonOf[varOf(AssertingLit)];
    --Counter;
  } while (Counter > 0);
  Learnt[0] = negate(AssertingLit);

  // Minimize: drop literals whose negation is implied by the others. Keep
  // the pre-minimization set around — every originally marked literal must
  // have its Seen flag cleared at the end, including removed ones.
  std::vector<int> ToClear(Learnt.begin(), Learnt.end());
  uint32_t AbstractLevels = 0;
  for (size_t I = 1; I != Learnt.size(); ++I)
    AbstractLevels |= 1u << (LevelOf[varOf(Learnt[I])] & 31);
  size_t Out = 1;
  for (size_t I = 1; I != Learnt.size(); ++I) {
    int Var = varOf(Learnt[I]);
    if (ReasonOf[Var] == -1 || !litRedundant(Learnt[I], AbstractLevels))
      Learnt[Out++] = Learnt[I];
  }
  Learnt.resize(Out);

  // Find the backtrack level: the second-highest level in the clause.
  BacktrackLevel = 0;
  if (Learnt.size() > 1) {
    size_t MaxIdx = 1;
    for (size_t I = 2; I != Learnt.size(); ++I)
      if (LevelOf[varOf(Learnt[I])] > LevelOf[varOf(Learnt[MaxIdx])])
        MaxIdx = I;
    std::swap(Learnt[1], Learnt[MaxIdx]);
    BacktrackLevel = LevelOf[varOf(Learnt[1])];
  }

  // Clear the seen marks we still own (all originally marked literals).
  for (int Q : ToClear)
    Seen[varOf(Q)] = 0;
}

bool SatSolver::litRedundant(int EncodedLit, uint32_t AbstractLevels) {
  AnalyzeStack.clear();
  AnalyzeStack.push_back(EncodedLit);
  std::vector<int> Cleared;
  while (!AnalyzeStack.empty()) {
    int P = AnalyzeStack.back();
    AnalyzeStack.pop_back();
    const Clause &C = Clauses[ReasonOf[varOf(P)]];
    for (size_t K = 1; K != C.Lits.size(); ++K) {
      int Q = C.Lits[K];
      int Var = varOf(Q);
      if (Seen[Var] || LevelOf[Var] == 0)
        continue;
      if (ReasonOf[Var] == -1 ||
          ((1u << (LevelOf[Var] & 31)) & AbstractLevels) == 0) {
        for (int V : Cleared)
          Seen[V] = 0;
        return false;
      }
      Seen[Var] = 1;
      Cleared.push_back(Var);
      AnalyzeStack.push_back(Q);
    }
  }
  // Marks stay: redundant literal subtrees short-circuit later queries and
  // analyze() clears exactly the marks of the final clause. Clear ours to
  // stay conservative.
  for (int V : Cleared)
    Seen[V] = 0;
  return true;
}

void SatSolver::backtrackTo(int Level) {
  if (static_cast<int>(TrailLim.size()) <= Level)
    return;
  size_t Bound = TrailLim[Level];
  for (size_t I = Trail.size(); I > Bound; --I) {
    int Var = varOf(Trail[I - 1]);
    Assign[Var] = -1;
    ReasonOf[Var] = -1;
    if (HeapPos[Var] < 0)
      heapInsert(Var);
  }
  Trail.resize(Bound);
  TrailLim.resize(Level);
  PropagateHead = Trail.size();
}

int SatSolver::pickBranchVar() {
  while (!Heap.empty()) {
    int Var = heapPop();
    if (Assign[Var] == -1)
      return Var;
  }
  return 0;
}

void SatSolver::reduceLearnts() {
  std::sort(LearntIdx.begin(), LearntIdx.end(),
            [this](uint32_t A, uint32_t B) {
              return Clauses[A].Act > Clauses[B].Act;
            });
  size_t Keep = LearntIdx.size() / 2;
  std::vector<char> Drop(Clauses.size(), 0);
  // Clauses that are the reason of a current assignment must stay.
  std::vector<char> LockedClause(Clauses.size(), 0);
  for (int Var = 1; Var <= numVars(); ++Var)
    if (Assign[Var] != -1 && ReasonOf[Var] >= 0)
      LockedClause[ReasonOf[Var]] = 1;
  std::vector<uint32_t> Kept;
  for (size_t I = 0; I != LearntIdx.size(); ++I) {
    uint32_t Idx = LearntIdx[I];
    const Clause &C = Clauses[Idx];
    if (I < Keep || C.Lits.size() <= 2 || LockedClause[Idx])
      Kept.push_back(Idx);
    else
      Drop[Idx] = 1;
  }
  if (Kept.size() == LearntIdx.size())
    return;
  // Detach dropped clauses from the watch lists.
  for (auto &List : Watches) {
    size_t Out = 0;
    for (const Watcher &W : List)
      if (!Drop[W.ClauseIdx])
        List[Out++] = W;
    List.resize(Out);
  }
  // Clause bodies stay allocated (indices must remain stable); clear the
  // literal storage to release memory.
  for (uint32_t Idx : LearntIdx)
    if (Drop[Idx])
      Clauses[Idx].Lits.clear();
  LearntIdx = std::move(Kept);
}

static uint64_t lubySequence(uint64_t I) {
  // Finite subsequences of the Luby sequence: 1 1 2 1 1 2 4 ...
  uint64_t K = 1;
  while ((1ull << (K + 1)) <= I + 1)
    ++K;
  while ((1ull << K) - 1 != I + 1) {
    I = I - ((1ull << K) - 1);
    K = 1;
    while ((1ull << (K + 1)) <= I + 1)
      ++K;
  }
  return 1ull << (K - 1);
}

SatResult SatSolver::solve(const StopToken &Stop) {
  if (FoundEmptyClause)
    return SatResult::Unsat;
  if (Stop.stopRequested())
    return SatResult::Unknown;
  if (propagate() != -1)
    return SatResult::Unsat;

  uint64_t RestartNum = 0;
  uint64_t ConflictBudget = 64 * lubySequence(RestartNum);
  uint64_t ConflictsThisRestart = 0;
  size_t MaxLearnts = std::max<size_t>(4000, Clauses.size() / 2);
  std::vector<int> Learnt;

  for (;;) {
    int32_t Confl = propagate();
    if (Confl != -1) {
      ++Conflicts;
      ++ConflictsThisRestart;
      if (TrailLim.empty())
        return SatResult::Unsat;
      int BacktrackLevel;
      analyze(Confl, Learnt, BacktrackLevel);
      backtrackTo(BacktrackLevel);
      if (Learnt.size() == 1) {
        enqueue(Learnt[0], -1);
      } else {
        Clauses.push_back(Clause{Learnt, 0, true});
        uint32_t Idx = static_cast<uint32_t>(Clauses.size() - 1);
        LearntIdx.push_back(Idx);
        bumpClause(Clauses.back());
        attach(Idx);
        enqueue(Learnt[0], static_cast<int32_t>(Idx));
      }
      VarInc /= 0.95;
      ClauseInc /= 0.999;
      if ((Conflicts & 255) == 0 && Stop.stopRequested())
        return SatResult::Unknown;
      continue;
    }

    if (ConflictsThisRestart >= ConflictBudget) {
      backtrackTo(0);
      ++RestartNum;
      ConflictBudget = 64 * lubySequence(RestartNum);
      ConflictsThisRestart = 0;
      continue;
    }
    if (LearntIdx.size() >= MaxLearnts) {
      reduceLearnts();
      MaxLearnts = MaxLearnts + MaxLearnts / 10;
    }

    int Var = pickBranchVar();
    if (Var == 0)
      return SatResult::Sat;
    ++Decisions;
    // Easy instances can run long stretches without conflicting; poll on
    // decisions too so an external cancel lands promptly.
    if ((Decisions & 1023) == 0 && Stop.stopRequested())
      return SatResult::Unknown;
    TrailLim.push_back(static_cast<int>(Trail.size()));
    enqueue(SavedPhase[Var] ? 2 * Var : 2 * Var + 1, -1);
  }
}

bool SatSolver::valueOf(int Var) const {
  assert(Var >= 1 && Var <= numVars() && "variable out of range");
  return Assign[Var] == 1;
}

bool SatSolver::writeDimacs(const std::string &Path) const {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  std::fprintf(File, "c generated by sks (Synthesis of Sorting Kernels)\n");
  std::fprintf(File, "p cnf %d %zu\n", numVars(), Recorded.size());
  for (const std::vector<Lit> &Clause : Recorded) {
    for (Lit L : Clause)
      std::fprintf(File, "%d ", L);
    std::fprintf(File, "0\n");
  }
  std::fclose(File);
  return true;
}

//===----------------------------------------------------------------------===//
// VSIDS heap.
//===----------------------------------------------------------------------===//

void SatSolver::heapInsert(int Var) {
  HeapPos[Var] = static_cast<int>(Heap.size());
  Heap.push_back(Var);
  heapSiftUp(HeapPos[Var]);
}

void SatSolver::heapUpdate(int Var) {
  if (HeapPos[Var] >= 0)
    heapSiftUp(HeapPos[Var]);
}

int SatSolver::heapPop() {
  int Top = Heap[0];
  HeapPos[Top] = -1;
  Heap[0] = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    HeapPos[Heap[0]] = 0;
    heapSiftDown(0);
  }
  return Top;
}

void SatSolver::heapSiftUp(int Pos) {
  int Var = Heap[Pos];
  while (Pos > 0) {
    int Parent = (Pos - 1) / 2;
    if (Activity[Heap[Parent]] >= Activity[Var])
      break;
    Heap[Pos] = Heap[Parent];
    HeapPos[Heap[Pos]] = Pos;
    Pos = Parent;
  }
  Heap[Pos] = Var;
  HeapPos[Var] = Pos;
}

void SatSolver::heapSiftDown(int Pos) {
  int Var = Heap[Pos];
  int Size = static_cast<int>(Heap.size());
  for (;;) {
    int Child = 2 * Pos + 1;
    if (Child >= Size)
      break;
    if (Child + 1 < Size && Activity[Heap[Child + 1]] > Activity[Heap[Child]])
      ++Child;
    if (Activity[Heap[Child]] <= Activity[Var])
      break;
    Heap[Pos] = Heap[Child];
    HeapPos[Heap[Pos]] = Pos;
    Pos = Child;
  }
  Heap[Pos] = Var;
  HeapPos[Var] = Pos;
}

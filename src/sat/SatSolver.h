//===- sat/SatSolver.h - CDCL SAT solver -----------------------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver: two-watched-literal
/// propagation, first-UIP learning with clause minimization, EVSIDS
/// branching, phase saving, Luby restarts, and activity-based learnt-clause
/// deletion. It is the substrate of the SMT-style synthesis baselines
/// (section 4.1): the paper used z3 on a finite-domain encoding; we
/// bit-blast the same encoding to CNF and solve it here (see DESIGN.md's
/// substitution table).
///
/// Literals use the DIMACS convention: +v / -v for variable v >= 1.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SAT_SATSOLVER_H
#define SKS_SAT_SATSOLVER_H

#include "support/StopToken.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sks {

/// A DIMACS-style literal: +v or -v, v >= 1.
using Lit = int32_t;

enum class SatResult { Sat, Unsat, Unknown };

/// CDCL solver. Typical use: newVar()s, addClause()s, solve(), valueOf()s.
class SatSolver {
public:
  SatSolver();

  /// Allocates a fresh variable and \returns its index (>= 1).
  int newVar();

  /// Number of allocated variables.
  int numVars() const { return static_cast<int>(Activity.size()) - 1; }

  /// Adds a clause (empty clause makes the instance trivially UNSAT).
  /// Literals must reference existing variables.
  void addClause(const std::vector<Lit> &Literals);

  /// Convenience for unit/binary/ternary clauses.
  void addUnit(Lit A) { addClause({A}); }
  void addBinary(Lit A, Lit B) { addClause({A, B}); }
  void addTernary(Lit A, Lit B, Lit C) { addClause({A, B, C}); }

  /// Adds clauses encoding "exactly one of \p Literals" (pairwise).
  void addExactlyOne(const std::vector<Lit> &Literals);

  /// Solves the instance, polling \p Stop (deadline and cancel) every 256
  /// conflicts and every 1024 decisions; returns Unknown on any stop.
  SatResult solve(const StopToken &Stop = {});

  /// After Sat: \returns the value of variable \p Var.
  bool valueOf(int Var) const;

  /// Writes the instance as a DIMACS CNF file (the clauses exactly as
  /// they were added, before solver-internal normalization), so instances
  /// can be cross-checked with external SAT solvers. \returns true on
  /// success.
  bool writeDimacs(const std::string &Path) const;

  // Statistics for the evaluation tables.
  uint64_t numConflicts() const { return Conflicts; }
  uint64_t numDecisions() const { return Decisions; }
  uint64_t numPropagations() const { return Propagations; }
  size_t numClauses() const { return Clauses.size(); }

private:
  // Internal literal encoding: 2*var + (negative ? 1 : 0).
  static int encode(Lit L) { return L > 0 ? 2 * L : -2 * L + 1; }
  static int varOf(int EncodedLit) { return EncodedLit >> 1; }
  static int negate(int EncodedLit) { return EncodedLit ^ 1; }

  struct Clause {
    std::vector<int> Lits; ///< Encoded literals.
    double Act = 0;
    bool Learnt = false;
  };

  struct Watcher {
    uint32_t ClauseIdx;
    int Blocker;
  };

  // -1 = unassigned; otherwise the encoded literal's truth value.
  int8_t value(int EncodedLit) const {
    int8_t A = Assign[varOf(EncodedLit)];
    if (A < 0)
      return -1;
    return (EncodedLit & 1) ? static_cast<int8_t>(1 - A) : A;
  }

  void enqueue(int EncodedLit, int32_t Reason);
  int32_t propagate(); ///< \returns conflicting clause index or -1.
  void analyze(int32_t ConflictIdx, std::vector<int> &Learnt,
               int &BacktrackLevel);
  bool litRedundant(int EncodedLit, uint32_t AbstractLevels);
  void backtrackTo(int Level);
  int pickBranchVar();
  void bumpVar(int Var);
  void bumpClause(Clause &C);
  void reduceLearnts();
  void attach(uint32_t ClauseIdx);

  // Heap helpers for the VSIDS order.
  void heapInsert(int Var);
  void heapUpdate(int Var);
  int heapPop();
  void heapSiftUp(int Pos);
  void heapSiftDown(int Pos);

  std::vector<Clause> Clauses;
  std::vector<uint32_t> LearntIdx;
  std::vector<std::vector<Watcher>> Watches; ///< Indexed by encoded literal.
  std::vector<int8_t> Assign;                ///< Per var: -1/0/1.
  std::vector<int8_t> SavedPhase;
  std::vector<int32_t> ReasonOf;  ///< Per var: clause index or -1.
  std::vector<int32_t> LevelOf;   ///< Per var.
  std::vector<int> Trail;
  std::vector<int> TrailLim;
  size_t PropagateHead = 0;

  std::vector<double> Activity; ///< Per var (index 0 unused).
  double VarInc = 1.0;
  double ClauseInc = 1.0;
  std::vector<int> Heap;        ///< Binary max-heap of vars by activity.
  std::vector<int> HeapPos;     ///< Var -> heap position or -1.

  std::vector<int8_t> Seen; ///< Scratch for analyze().
  std::vector<int> AnalyzeStack;

  std::vector<std::vector<Lit>> Recorded; ///< Clauses as added (for DIMACS).
  bool FoundEmptyClause = false;
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
};

} // namespace sks

#endif // SKS_SAT_SATSOLVER_H

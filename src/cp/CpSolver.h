//===- cp/CpSolver.h - Finite-domain CP synthesis (section 4.2) -*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A constraint-programming formulation of sorting-kernel synthesis and a
/// small finite-domain solver to run it (the paper used MiniZinc with the
/// Chuffed solver; see DESIGN.md's substitution table). The model follows
/// section 4.2: one decision variable per time step over the instruction
/// alphabet, plus per-example register/flag variables whose bitset domains
/// are narrowed by propagation:
///
///  - forward: the domain of a register after step t is the union of the
///    transition images over the instructions still in step t's domain;
///  - backward: an instruction is pruned when its image is inconsistent
///    with the (goal-constrained) domains after the step.
///
/// Search is depth-first on the instruction variables in program order
/// with propagation to fixpoint at every node. Section 4's goal
/// formulations and symmetry heuristics are options so the section 5.2
/// goal/heuristic table can be reproduced.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_CP_CPSOLVER_H
#define SKS_CP_CPSOLVER_H

#include "machine/Machine.h"
#include "support/StopToken.h"

#include <cstdint>
#include <vector>

namespace sks {

/// Goal formulations of section 4 (see the section 5.2 CP table).
enum class CpGoal {
  Exact,           ///< "= 123"
  AscendingCounts, ///< "<=, #0123"
  Both,            ///< "<=, #0123, = 123" (redundant; slows the solver)
};

struct CpOptions {
  /// Exact program length.
  unsigned Length = 0;
  CpGoal Goal = CpGoal::AscendingCounts;
  /// Heuristic (I): no two consecutive compare instructions.
  bool NoConsecutiveCmp = false;
  /// Heuristic (II): compare symmetry — operands in index order. The
  /// machine alphabet already enforces this; turning it OFF widens the
  /// alphabet with the symmetric compares, reproducing the paper's
  /// without-(II) rows.
  bool CmpSymmetry = true;
  /// Extra heuristic: force the first instruction to be a cmp.
  bool FirstInstrCmp = false;
  /// Extra heuristic: never read a register before it was written
  /// (scratch registers start uninitialized).
  bool OnlyReadInitialized = false;
  /// Section 4 heuristic: "do not ultimately erase a value from all
  /// registers" — fail when some value 1..n can no longer appear in any
  /// register of some example.
  bool EraseValueCheck = true;
  /// Use only the first \p PartialExamples permutations as the test suite
  /// (0 = all n!); solutions must then be filtered externally
  /// (CP-MiniZinc-Filter).
  unsigned PartialExamples = 0;
  /// Enumerate all solutions instead of stopping at the first.
  bool EnumerateAll = false;
  size_t MaxSolutions = 1 << 20;
  /// Deadline and cancellation, polled in the search loop. Any stop is
  /// reported as CpResult::TimedOut.
  StopToken Stop;
};

struct CpResult {
  bool Found = false;
  bool TimedOut = false;
  Program P;                      ///< First solution.
  std::vector<Program> Solutions; ///< All solutions when EnumerateAll.
  double Seconds = 0;
  uint64_t Backtracks = 0;
  uint64_t Propagations = 0;
};

/// Runs the CP synthesis. When Opts.EnumerateAll is set, explores the
/// whole tree and returns every program satisfying the constraints.
CpResult cpSynthesize(const Machine &M, const CpOptions &Opts);

} // namespace sks

#endif // SKS_CP_CPSOLVER_H

//===- smt/SmtSynth.h - Solver-based synthesis (section 4.1) ---*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SMT-style synthesis baselines (paper section 4.1). The synthesis
/// problem is finite-domain — register values range over 0..n and the
/// program is a fixed-length sequence of one-hot instruction choices — so
/// we bit-blast it to CNF and solve with the in-tree CDCL solver (the
/// paper used z3; see DESIGN.md's substitution table):
///
///  - SMT-Perm: one query containing all n! input/output examples.
///  - SMT-CEGIS: the counterexample-guided loop of Gulwani et al. [7]; the
///    verification oracle is concrete execution over all permutations
///    (sound and complete here), which corresponds to the paper's fastest
///    "inputs in range 1..n" CEGIS variant.
///
/// Both synthesize a program of an exact given length; the driver iterates
/// lengths when the optimum is unknown.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SMT_SMTSYNTH_H
#define SKS_SMT_SMTSYNTH_H

#include "machine/Machine.h"
#include "support/StopToken.h"

#include <vector>

namespace sks {

/// Goal formulations of section 4 (both are equivalent for permutation
/// inputs of 1..n; their solver behaviour differs — section 5.2).
enum class SmtGoal {
  Exact,           ///< "= 123": final registers equal 1..n in order.
  AscendingCounts, ///< "<=, #0123": ascending + per-value occurrence counts.
  Both,            ///< "<=, #0123, = 123": redundant combined goal.
};

struct SmtOptions {
  /// Exact program length to synthesize.
  unsigned Length = 0;
  SmtGoal Goal = SmtGoal::Exact;
  /// Constrain the never-occurring value 0 too ("#0123" vs "#123"); only
  /// meaningful with the AscendingCounts goals.
  bool CountZero = true;
  /// Use the CEGIS loop instead of encoding all permutations at once.
  bool Cegis = false;
  /// Section 4 heuristic (I): forbid two consecutive compare instructions.
  bool NoConsecutiveCmp = false;
  /// Drop heuristic (II): widen the alphabet with the symmetric compares
  /// the machine's restricted alphabet omits.
  bool IncludeSymmetricCmps = false;
  /// Section 5.2 extra heuristic: force the first instruction to be cmp.
  bool FirstInstrCmp = false;
  /// Deadline and cancellation, polled inside the SAT solver and between
  /// CEGIS iterations. Any stop is reported as SmtResult::TimedOut.
  StopToken Stop;
};

struct SmtResult {
  bool Found = false;
  bool TimedOut = false;
  Program P;
  double Seconds = 0;
  unsigned CegisIterations = 0;
  size_t NumVars = 0;
  size_t NumClauses = 0;
};

/// Synthesizes a kernel of exactly Opts.Length instructions for \p M, or
/// reports that none exists at that length (Found = false, TimedOut =
/// false — this is how the SMT route proves length lower bounds).
SmtResult smtSynthesize(const Machine &M, const SmtOptions &Opts);

/// Driver: tries lengths Opts.Length, Opts.Length+1, ..., \p MaxLength
/// until a kernel is found or the deadline expires.
SmtResult smtSynthesizeIterative(const Machine &M, SmtOptions Opts,
                                 unsigned MaxLength);

} // namespace sks

#endif // SKS_SMT_SMTSYNTH_H

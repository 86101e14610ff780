//===- analysis/Analysis.h - Kernel analyses (section 5.3) -----*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static analyses over synthesized kernels used by the evaluation:
///
///  - the section 5.3 sampling score (mov = 1, cmp = 2, conditional moves
///    and min/max = 4) — on the n=4 solution space this yields exactly the
///    paper's score set {55, 58, 61, 64, 67, 70};
///  - dependence-graph critical-path length (the uiCA/MCA substitute: the
///    paper uses throughput prediction only to show the synthesized
///    kernels have shorter dependence chains than the networks);
///  - the "command combination" key: canonical form under instruction
///    reordering, for counting the paper's "only 23 / 63 distinct command
///    combinations";
///  - score-stratified sampling of large solution sets.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_ANALYSIS_ANALYSIS_H
#define SKS_ANALYSIS_ANALYSIS_H

#include "isa/Instr.h"
#include "lint/Lint.h"

#include <string>
#include <vector>

namespace sks {

/// The section 5.3 instruction-weight score: mov 1, cmp 2, cmov/min/max 4.
unsigned kernelScore(const Program &P);

/// Longest register/flag read-after-write dependence chain (unit
/// latencies). Lower values allow more instruction-level parallelism.
unsigned criticalPathLength(const Program &P);

/// The paper's "command combination": the multiset of opcodes a program
/// uses. Empirically this is the notion under which the n=3 solution space
/// collapses to exactly the paper's 23 distinct combinations (and
/// instruction order / register naming is factored out entirely).
std::string commandCombination(const Program &P);

/// \returns the number of distinct commandCombination keys in \p Programs.
size_t countDistinctCombinations(const std::vector<Program> &Programs);

// isLintClean(P, NumData) — true when the lint/ dataflow rules find no
// removable instruction (dead code, dead cmp, stale-flag cmov, self-move)
// in P. Every minimal kernel is lint-clean. Declared in lint/Lint.h and
// re-exported here (see the #include above) so analysis-level consumers
// get the correctness oracle alongside the scoring/sampling utilities.

/// Score-stratified sampling (section 5.3, n=4): keep up to \p PerScore
/// programs from each of the \p NumScores lowest distinct score classes.
std::vector<Program> sampleByScore(const std::vector<Program> &Programs,
                                   unsigned NumScores, size_t PerScore);

} // namespace sks

#endif // SKS_ANALYSIS_ANALYSIS_H

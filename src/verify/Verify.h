//===- verify/Verify.h - Kernel correctness and optimality ------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Correctness checking per the paper's section 2.3, generalized over the
/// machine's goal predicate: a constants-free kernel is correct for all
/// inputs iff it establishes the goal on every one of the n! permutations
/// of 1..n (the 0-1 lemma does not apply because cmp and cmov are separate
/// instructions; the permutation argument covers every pinned-position
/// goal because such goals are order-type properties). Also hosts the
/// optimality certificate: a kernel of length L is minimal iff the
/// exhaustive layered search proves no kernel of length L-1 exists.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_VERIFY_VERIFY_H
#define SKS_VERIFY_VERIFY_H

#include "machine/Machine.h"

#include <vector>

namespace sks {

/// Identity stamp of the verification procedure, e.g.
/// "sks-verify nperm+zero-one v1". The kernel cache
/// (cache/KernelCache.h) persists this string with every entry and
/// treats a mismatch as stale: a cached kernel is only served when the
/// verifier that re-checks it on load is the one named by the stamp.
/// Bump the version whenever the meaning of "verified" changes (new
/// check, fixed soundness bug, changed input coverage).
const char *verifierIdentity();

/// \returns true iff \p P establishes \p M's goal (sortedness for the
/// sort goal) on all n! permutations of 1..n.
bool isCorrectKernel(const Machine &M, const Program &P);

/// \returns the first permutation (values 1..n) on which \p P fails the
/// goal, or an empty vector when the kernel is correct. Used as the CEGIS
/// counterexample oracle.
std::vector<int> findCounterexample(const Machine &M, const Program &P);

/// Key-payload correctness: runs \p P on the widened rows (each data
/// register carries its input position as payload) for all n! key
/// permutations and checks that every goal-pinned register ends with the
/// required key AND the payload of the input position that carried it.
/// For pair-moving instruction semantics this follows from key
/// correctness when keys are distinct; the check pins the claim.
bool isCorrectKeyValKernel(const Machine &M, const Program &P);

/// Executes \p P on arbitrary integer values (not just 1..n) with the same
/// semantics, returning the final data-register contents. This is the
/// reference interpreter against which the JIT is property-tested.
std::vector<long long> runOnValues(const Machine &M, const Program &P,
                                   const std::vector<long long> &Values);

/// As runOnValues, with explicit initial scratch-register contents and
/// initial flag state (the model defaults are scratch = 0, flags clear).
std::vector<long long> runOnValuesWithState(
    const Machine &M, const Program &P, const std::vector<long long> &Values,
    long long ScratchInit, bool InitialLt, bool InitialGt);

/// \returns true if \p A and \p B compute the same data-register outputs
/// on every input permutation. With \p FullState, scratch registers and
/// flags must also agree — the equivalence the paper's deduplication uses
/// (section 3.6).
bool areEquivalentKernels(const Machine &M, const Program &A,
                          const Program &B, bool FullState = false);

/// Checks correctness for every input of n pairwise DISTINCT integers,
/// including ones the paper's 1..n argument does not cover: a kernel may
/// covertly use the scratch register's 0 initialization as a constant (0
/// is below every value in 1..n but not below negative inputs). This check
/// takes every permutation of n distinct data values and quantifies over
/// every order-type of the initial scratch value relative to them (below
/// all / tied with any element / strictly between any two / above all)
/// and over all initial flag states. Only the goal-pinned data registers
/// are required to match the sorted reference. Inputs with TIED data
/// values are not covered: of the 5600 n=3 kernels that pass, 3574
/// mis-sort some input from -2..2 with equal values (perfbench/README.md,
/// "Findings for later work"). Empirically, exactly 2 of the 5602
/// model-optimal n=3 kernels FAIL this check — see EXPERIMENTS.md.
/// Requires m = 1 scratch register.
bool isRobustKernel(const Machine &M, const Program &P);

} // namespace sks

#endif // SKS_VERIFY_VERIFY_H
